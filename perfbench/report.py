"""Summaries over several benchmark runs, each in a fresh process.

    python3 perfbench/report.py                      # every end-to-end metric, one row per workload
    python3 perfbench/report.py --trace              # every per-layer metric and the tracing overhead
    python3 perfbench/report.py --steady 5 --workload cli-mix
                                                     # run-to-run spread of each metric next to its bound

Run from the root of a checkout.  ``--steady N`` runs the workload with
seeds 1..N and prints, for each end-to-end metric, the distance between the
first and third quartile as a share of the median (the spread the bound is
checked against) next to the bound and a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# What each generic metric stands for on the workload where it matters most.
ALIASES = {
    "compile-verify": {"pass_s": "compile_verify_s", "ok_ratio": "compile_ok_ratio",
                       "letters_geomean": "word_letters_geomean"},
    "spectator-setcover": {"op_p50_ms": "solve_p50_ms", "op_p90_ms": "solve_p90_ms",
                           "ok_ratio": "solve_ok_ratio"},
    "cli-mix": {"op_p50_ms": "cli_p50_ms", "op_p90_ms": "cli_p90_ms", "ok_ratio": "cli_ok_ratio"},
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {**last, "samples": {k: m["samples"] for k, m in result["metrics"].items()},
            "statuses": result["statuses"], "tail_pct": result["tail_pct"]}


def show_run(workload: str, res: dict) -> None:
    aliases = ALIASES.get(workload, {})
    print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']} statuses={res['statuses']}")
    for name, m in res["metrics"].items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        extra = f" at p{res['tail_pct']:.0f}" if name == "op_p90_ms" else ""
        print(f"  {label:44s} {m['value']:>14.6g} {m['unit']:8s} n={res['samples'][name]}{extra}")


def steadiness(workload: str, runs: list[dict], bounds: dict) -> None:
    print(f"{workload}: {len(runs)} runs, seeds 1..{len(runs)}")
    print(f"  {'metric':20s} {'median':>12s} {'spread':>8s} {'bound':>7s} {'bound/3':>8s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "WIDE")
        print(f"  {name:20s} {med:12.6g} {spread:8.3f} {bound:7.3f} {bound / 3:8.3f}  {flag}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--steady", type=int, default=0, metavar="N")
    args = parser.parse_args()
    for workload in args.workload or names:
        if args.steady:
            runs = [run_once(workload, seed, args.seconds, 0) for seed in range(1, args.steady + 1)]
            steadiness(workload, runs, {m["name"]: m["bound"] for m in bench["end_to_end"]})
        else:
            show_run(workload, run_once(workload, args.seed, args.seconds, int(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
