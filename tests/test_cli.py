import importlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from mcgcocycles import (
    FreeGroup, MembershipError, earle_psi, from_mapping, jablow, random_word, require_membership,
)
from mcgcocycles import endomorphism, verify
from mcgcocycles.cli import EXIT_BROKEN_PIPE, build_parser, main
from mcgcocycles.verify import SUITES, Sample, cocycle_rule, run_suite, text_round_trip


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv, expect=0):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "mcgcocycles", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc


def test_the_console_script_entry_point_runs_verify():
    """pyproject's ``mcg-cocycles`` target, read by regex (Python 3.10 has no tomllib)."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1]
    module, function = re.search(r'^mcg-cocycles = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    entry = getattr(importlib.import_module(module), function)
    assert entry(["verify", "words", "--g", "2", "--samples", "2"]) == 0


def test_eval_builtin_iota_text():
    proc = run_cli("eval", "--in", "builtin:iota", "--g", "3")
    out = proc.stdout
    assert "zeta conjugating witness u: B3 B2 B1" in out
    assert "morita f-tilde: (-2, -2, -2, -8, -6, -4)" in out
    assert "morita f:       (-2, -2, -2, -2, 0, 2)" in out
    assert "earle psi:      (1/2, 1/2, 1/2, -1/2, -1, -3/2)" in out
    assert "= (2, 2, 2, -2, -4, -6) / 4" in out


def test_eval_single_cocycle_structured():
    proc = run_cli(
        "eval",
        "--in",
        "builtin:iota",
        "--g",
        "2",
        "--cocycle",
        "earle-psi",
        "--format",
        "structured",
    )
    doc = json.loads(proc.stdout)
    assert doc["command"] == "eval"
    assert doc["genus"] == 2
    assert doc["certified_automorphism"] is True
    assert doc["witness"] == "B2 B1"
    assert list(doc["results"]) == ["earle_psi"]
    assert doc["results"]["earle_psi"]["lowest_terms"] == ["1", "1", "-1", "-2"]
    assert doc["results"]["earle_psi"]["numerators"] == [2, 2, -2, -4]
    assert doc["results"]["earle_psi"]["denominator"] == 2


def test_eval_rho_of_identity():
    proc = run_cli(
        "eval",
        "--in",
        "builtin:identity",
        "--g",
        "2",
        "--cocycle",
        "rho",
        "--format",
        "structured",
    )
    doc = json.loads(proc.stdout)
    rho = doc["results"]["rho"]
    assert rho["size"] == 4
    want = [1 if i == j else 0 for i in range(4) for j in range(4)]
    assert rho["entries_row_major"] == want


def test_eval_inner_builtin():
    proc = run_cli(
        "eval",
        "--in",
        "builtin:inner:A1 B2",
        "--g",
        "2",
        "--cocycle",
        "morita-f",
        "--format",
        "structured",
    )
    doc = json.loads(proc.stdout)
    # (2 - 2g) [x] at g = 2 on the class of A1 B2
    assert doc["results"]["morita_f"] == [-2, 0, 0, -2]


def test_eval_twist_builtin():
    proc = run_cli(
        "eval",
        "--in",
        "builtin:twist:2:B",
        "--g",
        "3",
        "--cocycle",
        "rho",
        "--format",
        "structured",
    )
    doc = json.loads(proc.stdout)
    assert doc["witness"] == "1"
    entries = doc["results"]["rho"]["entries_row_major"]
    eye = [1 if i == j else 0 for i in range(6) for j in range(6)]
    # B2 -> B2 A2 adds one off-diagonal unit in the A2 row, B2 column
    diff = [a - b for a, b in zip(entries, eye)]
    assert diff.count(0) == 35 and diff[1 * 6 + 4] == 1


def test_eval_output_is_deterministic():
    args = (
        "eval",
        "--in",
        "builtin:iota",
        "--g",
        "4",
        "--format",
        "structured",
    )
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second


def test_eval_exit_codes(tmp_path):
    # malformed input file: 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    run_cli("eval", "--in", str(bad), expect=2)
    # missing file: 2
    run_cli("eval", "--in", str(tmp_path / "missing.json"), expect=2)
    # builtin without genus: 2
    run_cli("eval", "--in", "builtin:iota", expect=2)
    # unknown builtin: 2
    run_cli("eval", "--in", "builtin:nonsense", "--g", "2", expect=2)
    # genus contradiction: 2
    f = tmp_path / "iota.json"
    run_cli("builtin", "iota", "--g", "2", "--out", str(f))
    run_cli("eval", "--in", str(f), "--g", "3", expect=2)
    # endomorphism outside N: 3, with the zeta image printed
    doc = {
        "genus": 2,
        "images": {"A1": "A1", "A2": "A2", "B1": "B1", "B2": "1"},
    }
    nope = tmp_path / "collapse.json"
    nope.write_text(json.dumps(doc))
    proc = run_cli("eval", "--in", str(nope), expect=3)
    assert "A1 B1 a1 b1" in proc.stderr


def test_builtin_writes_loadable_file(tmp_path):
    path = tmp_path / "iota3.json"
    assert run_cli("builtin", "iota", "--g", "3", "--out", str(path)).stdout == ""
    assert path.read_bytes() == run_cli("builtin", "iota", "--g", "3").stdout.encode()
    doc = json.loads(path.read_text())
    phi = from_mapping(doc)
    assert phi == jablow(FreeGroup(3))
    assert doc["images"]["B2"] == "B3 B2 A2 b2 a2 b2 b3"


def test_builtin_to_stdout_and_errors(tmp_path):
    proc = run_cli("builtin", "twist:1:A", "--g", "2")
    doc = json.loads(proc.stdout)
    assert doc["images"]["A1"] == "A1 B1"
    assert doc["inverse_images"]["A1"] == "A1 b1"
    run_cli("builtin", "twist:9:A", "--g", "2", expect=2)
    run_cli("builtin", "inner:Q1", "--g", "2", expect=2)
    unwritable = tmp_path / "missing" / "x.json"
    proc = run_cli("builtin", "iota", "--g", "2", "--out", str(unwritable), expect=2)
    assert proc.stdout == "" and proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_builtin_eval_pipeline(tmp_path):
    path = tmp_path / "t.json"
    run_cli("builtin", "inner:B1", "--g", "2", "--out", str(path))
    proc = run_cli(
        "eval", "--in", str(path), "--cocycle", "earle-psi", "--format", "structured"
    )
    doc = json.loads(proc.stdout)
    assert doc["results"]["earle_psi"]["lowest_terms"] == ["0", "0", "1", "0"]


def test_verify_quick_all():
    proc = run_cli("verify", "all", "--g", "2", "--samples", "10")
    lines = proc.stdout.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "checks passed" in lines[-1]


def test_verify_structured_and_deterministic():
    args = (
        "verify",
        "d-function",
        "--g",
        "2..3",
        "--samples",
        "25",
        "--seed",
        "7",
        "--format",
        "structured",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["passed"] is True
    assert doc["genera"] == [2, 3]
    assert all(c["passed"] for c in doc["checks"])


def test_verify_bad_genus_range_exits_two():
    run_cli("verify", "words", "--g", "1..3", expect=2)
    run_cli("verify", "words", "--g", "x", expect=2)
    run_cli("verify", "nonsense", expect=2)


def test_verify_rejects_nonpositive_samples():
    for samples in ("0", "-5"):
        proc = run_cli("verify", "descent", "--g", "2", "--samples", samples, expect=2)
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_main_in_process():
    assert main(["verify", "paper-vectors", "--g", "2", "--samples", "5"]) == 0
    assert main(["eval", "--in", "builtin:identity", "--g", "2"]) == 0


def test_parser_is_built_once_and_prints_as_a_fresh_one(capsys):
    assert build_parser() is build_parser()
    fresh = build_parser.__wrapped__()
    for argv in (["--help"], ["eval", "--help"], ["verify", "--help"], ["verify", "nope"],
                 ["eval", "--cocycle", "bogus"], []):
        printed = []
        for parse in (main, fresh.parse_args):
            with pytest.raises(SystemExit) as exit_info:
                parse(argv)
            printed.append((exit_info.value.code, capsys.readouterr()))
        assert printed[0] == printed[1], argv
    # the cached parser still parses after the errors
    assert main(["builtin", "iota", "--g", "2"]) == 0


@pytest.mark.parametrize("buffered", (True, False))
@pytest.mark.parametrize("argv", (
    ("eval", "--in", "builtin:iota", "--g", "3", "--format", "structured"),
    ("builtin", "iota", "--g", "3"),
    ("verify", "words", "--g", "2", "--samples", "2"),
))
def test_closed_stdout_exits_without_a_traceback(argv, buffered):
    """A reader that closes the pipe early, as ``| head -1`` does."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the first write, so every write fails
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run([sys.executable, "-m", "mcgcocycles", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, "")


def test_invalid_cocycle_choice():
    run_cli("eval", "--in", "builtin:iota", "--g", "2", "--cocycle", "bogus", expect=2)


def test_eval_of_deeply_nested_json_is_malformed_input(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    proc = run_cli("eval", "--in", str(deep), expect=2)
    assert proc.stderr.startswith("error: not valid automorphism data: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_eval_key_mismatch_error_is_bounded(tmp_path, capsys):
    small = tmp_path / "small.json"
    images = {"A1": "A1", "A2": "A2", "B1": "B1", "C1": "1"}
    small.write_text(json.dumps({"genus": 2, "images": images}))
    assert main(["eval", "--in", str(small)]) == 2
    assert capsys.readouterr().err == (
        "error: images must have exactly the keys A1 A2 B1 B2; "
        "missing ['B2'], unexpected ['C1']\n"
    )
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"genus": 20000, "images": {}}))
    assert main(["eval", "--in", str(huge)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 1024
    assert "and 39992 more" in err


def _eval_error(tmp_path, capsys, doc) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err[:300]
    return err


def test_eval_echoes_a_bounded_part_of_a_bad_value(tmp_path, capsys):
    images = {"A1": "A1", "A2": "A2", "B1": "B1", "B2": "B2"}
    err = _eval_error(tmp_path, capsys, {"genus": "x" * 10**6, "images": images})
    assert err.startswith("error: genus must be an integer, got 'xxx")
    err = _eval_error(tmp_path, capsys, {"genus": json.loads("[" * 900 + "]" * 900),
                                         "images": images})
    assert err.startswith("error: genus must be an integer, got [[")
    err = _eval_error(tmp_path, capsys, {"genus": 2, "images": {**images, "A1": "Q" * 100_000}})
    assert err.startswith("error: malformed generator token 'QQQ")
    err = _eval_error(tmp_path, capsys, {"genus": 2, "images": {**images, "C" * 100_000: "1"}})
    assert "unexpected ['CCC" in err
    err = _eval_error(tmp_path, capsys, {"genus": int("9" * 4000), "images": images})
    assert re.fullmatch(r"error: genus 9+\.\.\.9+ is too large to pack its letters\n", err)


@pytest.mark.parametrize("name", [
    "x" * 100_000, "twist:" + "7" * 100_000 + "x:A",
    "twist:1:" + "C" * 100_000, "twist:1:A:" + "B" * 100_000,
], ids=["unknown", "index", "no-twist", "twist-form"])
def test_builtin_errors_echo_a_bounded_part_of_the_name(name, capsys):
    for argv in (["eval", "--in", "builtin:" + name, "--g", "2"], ["builtin", name, "--g", "2"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err[:300]


def test_eval_outside_n_shows_a_bounded_prefix_of_the_zeta_image(tmp_path, capsys):
    F, rng = FreeGroup(3), random.Random(3)
    images = {str(gen): str(random_word(F, 5000, rng)) for gen in F.generators()}
    doc = {"genus": 3, "images": images}
    with pytest.raises(MembershipError) as info:
        require_membership(from_mapping(doc))
    core = info.value.core
    assert len(core) > 10_000  # the error keeps the whole image
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--in", str(path)]) == 3
    head = " ".join(str(core).split()[:40])
    assert capsys.readouterr().err == (
        "error: endomorphism does not conjugate the boundary word; cyclically reduced "
        f"image of zeta ({len(core)} letters): {head} ...\n"
    )


def test_eval_of_a_generator_index_beyond_int_conversion(tmp_path, capsys):
    """int() refuses more than 4300 digits; the index is out of range first."""
    images = {"A1": "A" + "9" * 5000, "A2": "A2", "B1": "B1", "B2": "B2"}
    err = _eval_error(tmp_path, capsys, {"genus": 2, "images": images})
    assert re.fullmatch(r"error: generator index 9+\.\.\.9+ out of range 1\.\.2\n", err)
    with pytest.raises(ValueError, match=r"^generator index 10 out of range 1\.\.9$"):
        FreeGroup(9).word("b10")


def test_eval_key_check_cost_follows_the_document(tmp_path, capsys):
    cases = (
        ({}, "['A1', 'A2', 'A3', 'A4', 'A5', 'A6', 'A7', 'A8'] and 399992 more", "none"),
        (
            {"A1": "A1", "b2": "1", "A0": "1", "B200000": "1"},
            "['A2', 'A3', 'A4', 'A5', 'A6', 'A7', 'A8', 'A9'] and 399990 more",
            "['b2', 'A0']",
        ),
    )
    for images, missing, unexpected in cases:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"genus": 200000, "images": images}))
        tracemalloc.start()
        try:
            assert main(["eval", "--in", str(path)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == (
            "error: images must have exactly the keys A1..A200000 B1..B200000; "
            f"missing {missing}, unexpected {unexpected}\n"
        )
        assert peak < 1 << 20


# the checks each suite runs at genus 2, in order; the benchmark's verify
# workload counts on these numbers (words 6, d-function 2+3, cocycle-n 5,
# descent 5, earle 4, paper-vectors 1+9)
VERIFY_CONTRACT = {
    "words": [
        "g=2 group laws and reduction",
        "g=2 text round trip",
        "g=2 cyclic reduction contract",
        "g=2 conjugator soundness",
        "g=2 zeta has 4g letters",
        "g=2 conjugacy rejects shorter core",
    ],
    "d-function": [
        "turning values on the three reference handle words",
        "normalization d(alpha beta) = 1",
        "g=2 product rule d(xy) = d(x) + d(y) + [x].[y]",
        "g=2 inversion rule d(x^-1) = -d(x)",
        "g=2 d vanishes on generators",
    ],
    "cocycle-n": [
        "g=2 f_tilde on conjugations is 2[x]",
        "g=2 twisted cocycle identity for f_tilde",
        "g=2 f_tilde_at additive in the argument",
        "g=2 f_tilde_at equals pairing with dual class",
        "g=2 twist catalog fixes the boundary word",
    ],
    "descent": [
        "g=2 restriction to conjugations is (2-2g)[x]",
        "g=2 value independent of witness choice",
        "g=2 twisted cocycle identity for f",
        "g=2 agrees with f_tilde on boundary-fixing elements",
        "g=2 vanishes on conjugation by zeta",
    ],
    "earle": [
        "g=2 restriction to conjugations is [x]",
        "g=2 twisted cocycle identity for psi",
        "g=2 (2g-2) psi is integral",
        "g=2 psi is not the bare base point coboundary",
    ],
    "paper-vectors": [
        "turning values on the three reference handle words",
        "g=2 involution squares to the identity",
        "g=2 involution negates homology",
        "g=2 boundary witness is B_g..B_1 up to a zeta power",
        "g=2 f_tilde on the involution",
        "g=2 f_tilde on the composite with inner B_g..B_1 inverse",
        "g=2 integral cocycle on the involution",
        "g=2 rational cocycle on the involution",
        "g=2 rational cocycle on the composite",
        "g=2 base point shift on the involution",
    ],
}


def test_verify_suites_pin_their_check_names_and_counts(capsys):
    assert list(VERIFY_CONTRACT) == list(SUITES)
    for suite, names in VERIFY_CONTRACT.items():
        assert main(["verify", suite, "--g", "2", "--samples", "4", "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in doc["checks"]] == names


def _replay(detail):
    """The sample index, the rebuilt sample and the verdict of a FAIL detail."""
    head, _, verdict = detail.partition("; ")
    index, text = re.fullmatch(r"sample #(\d+): (.*)", head).groups()
    fields = dict(re.findall(r"(\w+)=('[^']*'|\d+)", text))
    group = FreeGroup(int(fields.pop("g")))
    seeds = tuple(int(fields.pop(key)) for key in ("p1_seed", "p2_seed") if key in fields)
    words = {name: group.word(value.strip("'")) for name, value in fields.items()}
    return int(index), Sample(group, seeds, words), verdict


def test_verify_failed_check_leaves_the_others_running(monkeypatch):
    """A failed check keeps its first counterexample and stops no other check."""
    parse = FreeGroup.word

    def word(self, text):  # text of more than 40 tokens gains a letter
        w = parse(self, text)
        return w * self.a(1) if len(text.split()) > 40 else w

    family = SUITES["words"].families[0]
    calls = Counter()
    for name, check in family.checks.items():
        def counted(s, name=name, check=check):
            calls[name] += 1
            return check(s)
        monkeypatch.setitem(family.checks, name, counted)
    monkeypatch.setattr(FreeGroup, "word", word)
    results = {r.name: r for r in run_suite("words", [2], 50, 3)}
    assert [name for name, r in results.items() if not r.passed] == ["g=2 text round trip"]
    assert calls == {name: 50 for name in family.checks}

    # the detail names the first of several samples whose word is that long
    rng = random.Random(3)
    xs = [family.draw(FreeGroup(2), rng).x for _ in range(50)]
    long = [k for k, x in enumerate(xs) if len(x) > 40]
    assert len(long) > 1
    first = long[0]
    monkeypatch.undo()
    index, sample, _ = _replay(results["g=2 text round trip"].detail)
    assert (index, sample.x) == (first, xs[first])
    monkeypatch.setattr(FreeGroup, "word", word)
    assert text_round_trip(sample) is False


def test_verify_failure_detail_replays(monkeypatch):
    compose = verify.compose
    monkeypatch.setattr(verify, "compose", lambda outer, inner: compose(inner, outer))
    failed = verify.failures(run_suite("earle", [3], 12, 5))
    assert [r.name for r in failed] == ["g=3 twisted cocycle identity for psi"]
    _, sample, verdict = _replay(failed[0].detail)
    assert verdict.startswith("got ")
    assert cocycle_rule(earle_psi, sample) == verdict


def test_cocycle_rules_catch_a_wrong_rho_inverse(monkeypatch):
    """With rho^-1 := rho in the membership record, f and psi break their cocycle
    rules and f its witness rule, while f_tilde, which reads no rho^-1, keeps
    its own: the rules' oracle is the forward rho, never the record's inverse."""
    monkeypatch.setattr(endomorphism, "symplectic_inverse", lambda m: m)
    genera = (2, 3, 4)
    failed = {suite: [r.name for r in verify.failures(run_suite(suite, genera, 8, 0))]
              for suite in ("cocycle-n", "descent", "earle")}
    assert failed == {
        "cocycle-n": [],
        "descent": [f"g={g} {name}" for g in genera for name in (
            "value independent of witness choice", "twisted cocycle identity for f")],
        "earle": [f"g={g} twisted cocycle identity for psi" for g in genera],
    }


def test_verify_check_that_raises_fails_and_the_others_run(monkeypatch, capsys):
    """A check that raises is a FAIL naming the exception, not an aborted run."""
    f_tilde_at = verify.f_tilde_at

    def fragile(phi, x):
        if len(x) > 15:
            raise ArithmeticError(f"word of {len(x)} letters")
        return f_tilde_at(phi, x)

    monkeypatch.setattr(verify, "f_tilde_at", fragile)
    assert main(["verify", "cocycle-n", "--g", "2", "--samples", "8", "--seed", "1"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    lines = out.out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS g=2 f_tilde on conjugations is 2[x]",
        "PASS g=2 twisted cocycle identity for f_tilde",
        "FAIL g=2 f_tilde_at additive in the argument",
        "PASS g=2 f_tilde_at equals pairing with dual class",
        "PASS g=2 twist catalog fixes the boundary word",
        "4/5 checks passed (suite cocycle-n, genera 2, samples 8, seed 1)",
    ]

    [failed] = verify.failures(run_suite("cocycle-n", [2], 8, 1))
    _, sample, verdict = _replay(failed.detail)
    assert verdict.startswith("raised ArithmeticError: word of ")
    with pytest.raises(ArithmeticError) as caught:
        verify.f_tilde_at_additive(sample)
    assert verdict == f"raised ArithmeticError: {caught.value}"


def test_verify_check_without_samples_fails():
    first = run_suite("words", [2], 0, 0)[0]
    assert (first.name, first.passed, first.detail) == (
        "g=2 group laws and reduction", False, "no sample drawn")


@pytest.mark.parametrize("suite", ["words", "all"])
def test_run_suite_rejects_an_empty_genus_list(suite):
    """No genus means no check ran, which must not read as an empty list of failures."""
    with pytest.raises(ValueError, match="no genus"):
        run_suite(suite, (), 5, 0)
