import json
import subprocess
import sys

import pytest

from mcgcocycles import FreeGroup, from_mapping, jablow
from mcgcocycles.cli import main


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "mcgcocycles", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc


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
    run_cli("builtin", "iota", "--g", "3", "--out", str(path))
    doc = json.loads(path.read_text())
    phi = from_mapping(doc)
    assert phi == jablow(FreeGroup(3))
    assert doc["images"]["B2"] == "B3 B2 A2 b2 a2 b2 b3"


def test_builtin_to_stdout_and_errors():
    proc = run_cli("builtin", "twist:1:A", "--g", "2")
    doc = json.loads(proc.stdout)
    assert doc["images"]["A1"] == "A1 B1"
    assert doc["inverse_images"]["A1"] == "A1 b1"
    run_cli("builtin", "twist:9:A", "--g", "2", expect=2)
    run_cli("builtin", "inner:Q1", "--g", "2", expect=2)


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


def test_invalid_cocycle_choice():
    run_cli("eval", "--in", "builtin:iota", "--g", "2", "--cocycle", "bogus", expect=2)
