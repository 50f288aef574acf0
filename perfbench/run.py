"""Benchmark for picturehang: one workload, one seed, one run.

    python3 perfbench/run.py --workload compile-verify --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The run sets the workload up several times (fresh import, inputs, fixtures)
and reports the median, then times passes over the workload's
operations: at least ``MIN_PASSES`` of them, and until ``--seconds`` have
gone by.  The first pass pays first-call costs, such as growing the heap
for a multi-million-letter word; every time reported is a median over the
passes, so that pass cannot set a figure on its own.  One client, closed
loop, one process (cli-mix adds one CLI subprocess at a time).  Times are reported in
nominal seconds, corrected for drift in machine speed (see ``Clock``).
Every distinct outcome is checked against ``oracle`` after the timed
passes.

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric named in BENCHMARK.json; with ``--trace 1`` untraced and
traced passes alternate and it holds every per-layer metric instead, the
tracing overhead among them.  Each run also writes a result file, and a
traced run its spans, under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_PASSES = 3
# Workloads with a ``reference`` command time it before every REF_EVERY-th
# operation.  The median of the REF_NEAR reference times nearest to an
# operation is taken as its start-up: that much of it is scaled to
# REF_NOMINAL, and only the rest by the probe.
REF_EVERY = 4
REF_NEAR = 5
REF_NOMINAL = 0.1

import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import OK, WORKLOADS, WRONG, import_package  # noqa: E402


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of sorted ``values``."""
    pos = (len(values) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def tail_pct(count: int) -> float:
    """The highest percentile, up to 90, with at least ten samples beyond it.

    Below twenty samples no percentile above the median qualifies, and the
    maximum is reported instead.
    """
    if count >= 100:
        return 90.0
    if count >= 20:
        return 100.0 * (count - 10) / count
    return 100.0


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "platform": platform.platform(),
            "commit": commit}


class Clock:
    """Times work in nominal seconds, correcting for drift in machine speed.

    Shared hosts change speed by tens of percent within minutes, and within
    a single operation of several seconds, which would swamp the changes the
    bounds are there to catch.  While the clock runs, a timer signal every
    ``INTERVAL`` seconds interrupts the work and times a fixed probe: the
    oracle's reduction of a fixed 2,000-letter word, run once, so that it
    meets the caches as the work left them.  ``now`` leaves the probes' own
    time out.  A duration between ``start`` and ``end`` is scaled by
    ``NOMINAL`` over the mean of the middle half of the readings taken
    inside it, or of the ``MIN_READINGS`` nearest when fewer fall inside, so
    it reads as it would on a machine where the probe takes ``NOMINAL``
    seconds.
    """

    NOMINAL = 0.00025
    INTERVAL = 0.025
    MIN_READINGS = 15

    def __init__(self) -> None:
        rng = random.Random(0)
        self.task = [rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(2_000)]
        self.stamps: list[float] = []
        self.readings: list[float] = []
        self.spent = 0.0
        self._previous = None

    def now(self) -> float:
        return perf_counter() - self.spent

    def _probe(self, signum, frame) -> None:
        start = perf_counter()
        oracle.strip(self.task)
        reading = perf_counter() - start
        self.stamps.append(start - self.spent)
        self.readings.append(reading)
        self.spent += perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds of ``now`` between ``start`` and ``end`` to nominal seconds."""
        lo = bisect_left(self.stamps, start)
        hi = bisect_right(self.stamps, end)
        while hi - lo < self.MIN_READINGS and (lo > 0 or hi < len(self.stamps)):
            if lo > 0:
                lo -= 1
            if hi < len(self.stamps) and hi - lo < self.MIN_READINGS:
                hi += 1
        near = sorted(self.readings[lo:hi])
        quarter = len(near) // 4
        return self.NOMINAL / statistics.fmean(near[quarter:len(near) - quarter])


class Run:
    """State of one benchmark run: latencies, distinct outcomes and traces.

    Raw start and end times are kept until ``finish``, when the clock has
    readings on both sides of every operation.
    """

    def __init__(self, workload, clock: Clock, tracer: Tracer | None) -> None:
        self.wl = workload
        self.clock = clock
        self.tracer = tracer
        self.ops = {op.key: op for op in workload.ops}
        self.raw: list[list[tuple[str, float, float]]] = []
        self.refs: list[tuple[float, float]] = []
        self.outcomes: dict[str, list] = defaultdict(list)
        self.executions: list[tuple[str, int]] = []
        self.traced_raw: list[tuple[int, dict]] = []
        self.times: dict[str, list[float]] = defaultdict(list)
        self.raw_times: dict[str, list[float]] = defaultdict(list)
        self.pass_times: list[float] = []
        self.raw_pass_times: list[float] = []
        self.traced: list[dict] = []

    def timed_pass(self) -> None:
        gc.collect()
        spans = []
        now = self.clock.now
        reference = getattr(self.wl, "reference", None)
        for i, op in enumerate(self.wl.pass_ops()):
            if reference and i % REF_EVERY == 0:
                start = now()
                reference()
                self.refs.append((start, now()))
            start = now()
            out = self.wl.run(op)
            spans.append((op.key, start, now()))
            seen = self.outcomes[op.key]
            idx = next((i for i, prev in enumerate(seen) if prev == out), None)
            if idx is None:
                seen.append(out)
                idx = len(seen) - 1
            self.executions.append((op.key, idx))
        self.raw.append(spans)

    def traced_pass(self) -> None:
        gc.collect()
        tracer = self.tracer
        first = len(tracer.spans)
        tracer.counts.clear()
        for op in self.wl.pass_ops():
            with tracer.span("op", op=op.key):
                self.wl.run_traced(op, tracer)
        self.traced_raw.append((first, dict(tracer.counts)))

    def nominal(self, start: float, end: float) -> float:
        """Nominal seconds of an operation that ran from ``start`` to ``end``."""
        raw = end - start
        if not self.refs:
            return raw * self.clock.scale(start, end)
        mid = bisect_left([a for a, _ in self.refs], (start + end) / 2)
        lo = max(0, min(mid - REF_NEAR // 2, len(self.refs) - REF_NEAR))
        ref = statistics.median(b - a for a, b in self.refs[lo:lo + REF_NEAR])
        rest = max(raw - ref, 0.0)
        return (raw - rest) * REF_NOMINAL / ref + rest * self.clock.scale(start, end)

    def finish(self) -> None:
        """Turn raw times into nominal ones, per operation, pass and span."""
        scale = self.clock.scale
        for spans in self.raw:
            total = raw_total = 0.0
            for key, start, end in spans:
                elapsed = self.nominal(start, end)
                self.times[key].append(elapsed)
                self.raw_times[key].append(end - start)
                total += elapsed
                raw_total += end - start
            self.pass_times.append(total)
            self.raw_pass_times.append(raw_total)
        bounds = [first for first, _ in self.traced_raw] + [None]
        for (first, counts), last in zip(self.traced_raw, bounds[1:]):
            durations = lambda name: self.tracer.durations(name, first, last, scale)  # noqa: E731
            self.traced.append({
                # Scaled as the untraced passes are, so the overhead compares like with like.
                "wall": sum(self.tracer.durations("op", first, last, lambda s, e: (
                    self.nominal(s, e) / (e - s) if e > s else 1.0))),
                "self": self.tracer.self_times(first, last, scale),
                "counts": counts,
                "main": durations("cli.main"),
                "subprocess": durations("cli.subprocess"),
            })

    def check(self) -> tuple[dict[str, str], dict[str, int | None], dict[tuple[str, int], str]]:
        """Status of every distinct outcome, and letters of each op's first outcome."""
        status, letters, by_key = {}, {}, {}
        for key, seen in self.outcomes.items():
            for idx, out in enumerate(seen):
                st, size = self.wl.check(self.ops[key], out)
                status[(key, idx)] = st
                if idx == 0:
                    letters[key] = size
            by_key[key] = next((status[(key, i)] for i in range(len(seen))
                                if status[(key, i)] != OK), OK)
        return by_key, letters, status


def end_to_end(times: dict, pass_times: list[float], setup: list[float], rss_mb: float,
               by_key, letters) -> tuple[dict, dict]:
    ok_keys = [k for k, st in by_key.items() if st == OK] or list(by_key)
    per_op = sorted(statistics.median(times[k]) for k in ok_keys)
    q = tail_pct(len(per_op))
    sizes = [v for v in letters.values() if v]
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(pass_times),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_p90_ms": 1000 * percentile(per_op, q),
        "letters_geomean": math.exp(statistics.fmean(math.log(v) for v in sizes)) if sizes else 1.0,
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "setup_s": len(setup),
        "pass_s": len(pass_times),
        "op_p50_ms": len(per_op),
        "op_p90_ms": len(per_op),
        "letters_geomean": len(sizes),
        "peak_rss_mb": 1,
        "tail_pct": q,
    }
    return values, samples


def per_layer(run: Run, names: list[str]) -> tuple[dict, dict]:
    traced = run.traced

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    def layer(name: str) -> float:
        if name.endswith("_s"):
            return med([t["self"].get(name[:-2], 0.0) for t in traced])
        return med([t["counts"].get(name, 0.0) for t in traced])

    mains = [m for t in traced for m in t["main"]]
    subs = [s for t in traced for s in t["subprocess"]]
    derived = {
        "words.kernel_letters_per_s": lambda: (
            layer("words.fall_table_letter_steps") / layer("words.fall_table_s")
            if layer("words.fall_table_s") else 0.0),
        "compiler.reduced_over_as_built": lambda: (
            layer("compiler.reduced_letters") / layer("compiler.as_built_letters")
            if layer("compiler.as_built_letters") else 0.0),
        "spectator.greedy_over_opt": lambda: (
            layer("spectator.greedy_over_opt_sum") / layer("spectator.greedy_solved")
            if layer("spectator.greedy_solved") else 0.0),
        "cli.main_ms": lambda: 1000 * med(mains),
        "cli.startup_ms": lambda: 1000 * med([s - m for s, m in zip(subs, mains)]),
        "trace.overhead_pct": lambda: 100 * (
            med([t["wall"] for t in traced]) / statistics.median(run.pass_times) - 1),
    }
    values = {name: (derived[name]() if name in derived else layer(name)) for name in names}
    samples = {name: len(traced) for name in names}
    samples["cli.main_ms"] = samples["cli.startup_ms"] = len(mains)
    return values, samples


def run_benchmark(args, bench: dict, src: Path, work: Path, out_dir: Path) -> int:
    cls = WORKLOADS[args.workload]
    clock = Clock()
    phases = [("setup", perf_counter())]
    clock.start()
    try:
        setup_raw = []
        for _ in range(SETUP_REPEATS):
            start = clock.now()
            ph = import_package(src)
            workload = cls(ph, args.seed, ROOT, work)
            setup_raw.append((start, clock.now()))
        tracer = Tracer(clock.now) if args.trace else None
        run = Run(workload, clock, tracer)
        phases.append(("passes", perf_counter()))
        start = clock.now()
        while len(run.raw) < MIN_PASSES or clock.now() - start < args.seconds:
            run.timed_pass()
            if tracer:
                run.traced_pass()
    finally:
        clock.stop()
    who = resource.RUSAGE_CHILDREN if getattr(cls, "RSS_OF_CHILDREN", False) else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    run.finish()
    setup = [(end - start) * clock.scale(start, end) for start, end in setup_raw]

    phases.append(("check", perf_counter()))
    by_key, letters, exec_status = run.check()
    phases.append(("end", perf_counter()))
    # An operation is one distinct op of the workload, however often the
    # passes repeated it; it fails if any of its outcomes is not ok.  So
    # the counts depend on the seed alone, not on how many passes fit.
    attempted = len(by_key)
    kinds = defaultdict(int)
    for st in by_key.values():
        kinds[st] += 1
    failed = attempted - kinds[OK]
    correct = WRONG not in exec_status.values()

    if args.trace:
        specs = bench["per_layer"]
        values, samples = per_layer(run, [m["name"] for m in specs])
    else:
        specs = bench["end_to_end"]
        values, samples = end_to_end(run.times, run.pass_times, setup, rss_mb, by_key, letters)
        raw_values, _ = end_to_end(run.raw_times, run.raw_pass_times, setup, rss_mb, by_key, letters)
        values["ok_ratio"] = kinds[OK] / attempted
        samples["ok_ratio"] = attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "setup_runs": setup, "pass_times": run.pass_times,
        "raw_pass_times": run.raw_pass_times,
        "raw_metrics": None if args.trace else raw_values,
        "probe_s": clock.readings,
        "reference_s": [b - a for a, b in run.refs],
        "correct": correct, "attempted": attempted, "failed": failed, "statuses": dict(kinds),
        "executions": len(run.executions),
        "phase_s": {name: end - start for (name, start), (_, end) in zip(phases, phases[1:])},
        "not_ok": sorted(k for k, st in by_key.items() if st != OK),
        "metrics": {name: {**m, "samples": samples.get(name)} for name, m in metrics.items()},
        "tail_pct": samples.get("tail_pct"),
        "op_ms": {key: [1000 * t for t in times] for key, times in run.times.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer:
        tracer.write(out_dir / f"{stem}-spans.jsonl")

    print(f"# {args.workload} seed={args.seed} passes={len(run.pass_times)} "
          f"attempted={attempted} statuses={dict(kinds)}")
    for name, m in metrics.items():
        print(f"#   {name:32s} {m['value']:>16.6g} {m['unit']:8s} samples={samples.get(name)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "picturehang" / "__init__.py").is_file():
        print(f"error: no picturehang package under {src}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    try:
        return run_benchmark(args, bench, src, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
