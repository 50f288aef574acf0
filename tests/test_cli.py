"""Command-line behavior: exit codes, formats, determinism."""

import json
import time

import pytest

from picturehang.cli import main
from picturehang.puzzles import fixture_by_id
from picturehang.words import format_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_one_of(capsys):
    code, out, _ = run(capsys, "construct", "one-of", "--n", "4")
    assert code == 0
    assert out.split() == "x1 x2 X1 X2 x3 x4 X3 X4 x2 x1 X2 X1 x4 x3 X4 X3".split()


def test_construct_classes(capsys):
    code, out, _ = run(capsys, "construct", "classes", "--classes", "1,2/3,4")
    assert code == 0
    assert out.strip() == "x1 x2 x3 x4 X2 X1 X4 X3"


SINGLE_NAIL_CLASSES = "/".join(map(str, range(1, 20001)))
# 2,000 classes of five nails; 2,000 single nails would give 4,046,848 letters.
FIVE_NAIL_CLASSES = "/".join(",".join(map(str, range(i, i + 5))) for i in range(1, 10001, 5))


@pytest.mark.parametrize(
    "argv, letters",
    [
        (["one-of", "--n", "60000"], 3750756352),
        (["classes", "--classes", SINGLE_NAIL_CLASSES], 446169088),
        (["classes", "--classes", FIVE_NAIL_CLASSES], 20234240),
    ],
)
def test_construct_refuses_words_over_the_budget(capsys, argv, letters):
    code, out, err = run(capsys, "construct", *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: the word would have {letters} letters, more than the budget of 10000000\n"
    )


def test_construct_k_of_json(capsys):
    code, out, _ = run(capsys, "construct", "k-of", "--k", "4", "--n", "4", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True
    assert report["reduced_length"] == 4


def test_compile_formula_reports(capsys):
    code, out, err = run(capsys, "compile", "--formula", "r1 & r2")
    assert code == 0
    assert out.strip() == "x1 x2"
    report = json.loads(err)
    assert report["verified"] is True
    assert report["depth"] == 1
    assert report["route"] == "clause-product"


def test_compile_spec_file(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 3, "subsets": [[1], [2, 3]]}')
    code, out, _ = run(capsys, "compile", "--spec", str(spec), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True
    assert report["route"] == "two-cnf"
    assert report["word"] == "x1 x2 x3 X1 X3 X2"


def test_compile_threshold_spec_is_exact(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 4, "threshold_k": 3}')
    code, out, _ = run(capsys, "compile", "--spec", str(spec), "--json")
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_compile_budget_exceeded_is_usage_error(capsys):
    # The one clause {1,2,3,4} is a 16-letter word.
    code, _, err = run(capsys, "compile", "--formula", "r1 | r2 | r3 | r4", "--budget", "10")
    assert code == 2
    assert "budget" in err


def test_compile_has_a_default_budget(capsys):
    # An OR of 20 disjoint pairs has 2^20 prime clauses of 20 nails each.
    pairs = " | ".join(f"r{2 * i - 1} & r{2 * i}" for i in range(1, 21))
    start = time.perf_counter()
    code, out, err = run(capsys, "compile", "--formula", pairs)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "budget" in err


def test_compile_json_names_the_verify_method(capsys):
    code, out, _ = run(capsys, "construct", "k-of", "--k", "6", "--n", "6", "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["verify_method"], report["masks_checked"]) == ("boundary", 7)
    code, _, err = run(capsys, "compile", "--formula", "r1 | r2 & r3", "--verify", "off")
    assert code == 0
    assert (json.loads(err)["verify_method"], json.loads(err)["masks_checked"]) == ("skipped", 0)


def test_compile_points_at_the_variable_beyond_n(capsys):
    code, out, err = run(capsys, "compile", "--formula", "r1 | r2 | r9", "--n", "2")
    assert (code, out) == (2, "")
    assert err == "error: variable r9 exceeds n=2 (at position 10)\n"
    code, _, err = run(capsys, "compile", "--formula", "r7 & r3 | r7", "--n", "5")
    assert err == "error: variable r7 exceeds n=5 (at position 0)\n"


def test_compile_atleast_formula_is_exact(capsys):
    code, out, err = run(capsys, "compile", "--formula", "atleast(3; r1, r2, r3, r4)", "--n", "4")
    assert code == 0
    assert json.loads(err)["verified"] is True


def test_compile_overlapping_subsets_spec_is_exact(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 4, "subsets": [[1, 2], [1, 3], [2, 3, 4]]}')
    code, out, _ = run(capsys, "compile", "--spec", str(spec), "--json")
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_ok_and_corrupted(capsys, tmp_path):
    fx = fixture_by_id(7)
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 4, "subsets": [[1, 2], [3, 4]]}')
    word = tmp_path / "ws.txt"
    word.write_text(format_word(fx.word))
    code, out, _ = run(capsys, "verify", "--word", str(word), "--spec", str(spec))
    assert code == 0
    assert "verified" in out

    tokens = format_word(fx.word).split()
    del tokens[3]
    word.write_text(" ".join(tokens))
    code, out, _ = run(capsys, "verify", "--word", str(word), "--spec", str(spec))
    assert code == 1
    assert "mismatch at subset {" in out


def test_verify_threshold_spec_ok_and_corrupted(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 5, "threshold_k": 4}')
    word = tmp_path / "w.txt"
    _, out, _ = run(capsys, "construct", "k-of", "--k", "4", "--n", "5", "--no-verify")
    word.write_text(out)
    code, out, _ = run(capsys, "verify", "--word", str(word), "--spec", str(spec))
    assert (code, out) == (0, "verified: word realizes the spec on all 32 subsets\n")
    # Without x5 the word hangs on X5 until nail 5 goes; the first 4-subset is {1,2,3,4}.
    word.write_text("x1 x2 x3 x4 X1 X2 X3 X4 X5")
    code, out, _ = run(capsys, "verify", "--word", str(word), "--spec", str(spec))
    assert (code, out) == (1, "mismatch at subset {1,2,3,4}: word hangs but spec says fall\n")
    # Nail 1 cancelled: 3-of-4 on nails 2..5, which falls at {2,3,4} already.
    word.write_text("x1 X1 x2 x3 x4 x5 X2 X3 X4 X5")
    code, out, _ = run(capsys, "verify", "--word", str(word), "--spec", str(spec))
    assert (code, out) == (1, "mismatch at subset {2,3,4}: word falls but spec says hang\n")


def test_verify_limit_applies_to_the_spec_table(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 21, "subsets": [[1]]}')
    word = tmp_path / "w.txt"
    word.write_text("x1")
    code, out, _ = run(
        capsys, "verify", "--word", str(word), "--spec", str(spec), "--limit", "21"
    )
    assert code == 0
    assert out.strip() == f"verified: word realizes the spec on all {1 << 21} subsets"


# Each malformed spec, with a fragment of the one error line it must print.
MALFORMED_SPECS = {
    "nail-beyond-n": ({"n": 3, "subsets": [[1, 5]]}, "nail 5 out of range 1..3"),
    "no-subsets": ({"n": 3, "subsets": []}, "at least one felling subset"),
    "empty-subset": ({"n": 3, "subsets": [[]]}, "must be nonempty"),
    "k-above-n": ({"n": 3, "threshold_k": 4}, "k=4 exceeds n=3"),
    "negative-k": ({"n": 3, "threshold_k": -1}, "k=-1 must be nonnegative"),
    "negative-n": ({"n": -2, "subsets": [[1]]}, "n >= 1"),
    "boolean-n-and-k": ({"n": True, "threshold_k": True}, 'an integer "n"'),
}


@pytest.mark.parametrize("command", ["verify", "compile"])
@pytest.mark.parametrize("spec, message", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS)
def test_malformed_specs_are_usage_errors(capsys, tmp_path, command, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    word = tmp_path / "w.txt"
    word.write_text("x1")
    argv = [command, "--spec", str(path)] + (["--word", str(word)] if command == "verify" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def test_render_refuses_a_json_boolean_letter(capsys, tmp_path):
    word = tmp_path / "w.json"
    word.write_text("[true, 2, -1, -2]")
    code, out, err = run(capsys, "render", "--word", str(word))
    assert code == 2
    assert out == ""
    assert err == "error: word JSON must be an array of nonzero integers\n"


@pytest.mark.parametrize("command", [["render"], ["table"], ["solve", "min-fell"]])
def test_negative_n_is_a_usage_error(capsys, tmp_path, command):
    word = tmp_path / "empty.txt"
    word.write_text("")
    code, out, err = run(capsys, *command, "--word", str(word), "--n", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: n must be nonnegative\n"


def test_solve_min_fell_and_max_survive(capsys, tmp_path):
    word = tmp_path / "w.txt"
    word.write_text("x1 x2 x3 X1 X2 X3")
    code, out, _ = run(capsys, "solve", "min-fell", "--word", str(word), "--n", "3")
    assert code == 0
    assert out.strip() == "{1,2} (size 2)"
    code, out, _ = run(capsys, "solve", "max-survive", "--word", str(word), "--n", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"members": [1], "size": 1}


def test_solve_takes_the_exhaustive_limit(capsys, tmp_path):
    word = tmp_path / "w.txt"
    word.write_text("x200 x1 X200 X1")
    argv = ["solve", "min-fell", "--word", str(word), "--n", "200"]
    code, out, _ = run(capsys, *argv, "--limit", "200")
    assert code == 0
    assert out.strip() == "{1} (size 1)"
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exhaustive limit 20" in err


def test_compile_verifies_past_the_default_limit_when_given_one(capsys):
    formula = " | ".join(f"r{i}" for i in range(1, 22))
    code, _, err = run(capsys, "compile", "--formula", formula, "--verify", "on", "--limit", "21")
    assert code == 0
    assert json.loads(err)["verified"] is True
    code, out, err = run(capsys, "compile", "--formula", formula, "--verify", "on")
    assert code == 2
    assert out == "" and "exhaustive limit 20" in err


def test_render_text_and_vector(capsys, tmp_path):
    word = tmp_path / "w.txt"
    word.write_text("x1 X2")
    code, out, _ = run(capsys, "render", "--word", str(word), "--n", "2")
    assert code == 0
    assert "legend: 2 letters" in out
    code, out, _ = run(capsys, "render", "--word", str(word), "--format", "vector")
    assert code == 0
    assert out.startswith("<svg")


def test_puzzles_listing_and_detail(capsys):
    code, out, _ = run(capsys, "puzzles")
    assert code == 0
    assert len(out.strip().splitlines()) == 11
    code, out, _ = run(capsys, "puzzles", "--id", "2")
    assert code == 0
    assert out.splitlines()[0] == "x1 x2 x3 X1 X2 X3"
    assert json.loads(out.splitlines()[1]) == {"n": 3, "threshold_k": 2}
    code, out, _ = run(capsys, "puzzles", "--id", "12")
    assert code == 2


def test_unknown_fixture_id_prints_the_bare_message(capsys):
    code, out, err = run(capsys, "puzzles", "--id", "99")
    assert code == 2
    assert out == ""
    assert err == "error: no fixture with id 99; valid ids are 1..11\n"


def test_table_lists_all_subsets(capsys, tmp_path):
    word = tmp_path / "w.txt"
    word.write_text("x1 x2 X1 X2")
    code, out, _ = run(capsys, "table", "--word", str(word), "--n", "2")
    assert code == 0
    assert out.splitlines() == ["{} hangs", "{1} falls", "{2} falls", "{1,2} falls"]


def test_word_json_file_accepted(capsys, tmp_path):
    word = tmp_path / "w.json"
    word.write_text("[1, 2, -1, -2]")
    code, out, _ = run(capsys, "table", "--word", str(word), "--n", "2")
    assert code == 0
    assert out.splitlines()[0] == "{} hangs"


def test_usage_errors_exit_two(capsys, tmp_path):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "construct", "one-of")[0] == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("x1 y2")
    assert run(capsys, "table", "--word", str(bad), "--n", "2")[0] == 2
    missing = tmp_path / "missing.txt"
    assert run(capsys, "table", "--word", str(missing), "--n", "2")[0] == 2
    assert run(capsys, "compile", "--formula", "r1 &")[0] == 2


def test_deeply_nested_formula_is_a_usage_error(capsys):
    deep = "(" * 3000 + "r1" + ")" * 3000
    code, out, err = run(capsys, "compile", "--formula", deep)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "nested deeper than" in err


def test_outputs_are_deterministic(capsys):
    first = run(capsys, "puzzles", "--id", "11")
    second = run(capsys, "puzzles", "--id", "11")
    assert first == second
