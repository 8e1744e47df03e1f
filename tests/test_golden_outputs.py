"""Command line output pinned byte for byte.

``golden_outputs.json`` beside this file holds the stdout of a fixed set
of ``eval`` and ``verify`` runs.  The test reruns them in process and
compares the bytes, so a change that should not move any value or any
line of output is checked against the recorded one.  The comparison
also runs without pytest, under any supported Python:

    PYTHONPATH=src python tests/test_golden_outputs.py

It exits 0 when every run matches and 1 naming the first run that
differs.  To record the outputs again after a deliberate change of
output, add ``--record``.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from mcgcocycles import Endo, FreeGroup, random_element, save_automorphism
from mcgcocycles.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"

BUILTINS = ("iota", "twist:1:A", "twist:2:B", "inner:A1 B2")
GENERA = (2, 3, 4)


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    assert rc == 0, (argv, rc)
    return out.getvalue()


def golden_outputs() -> dict[str, str]:
    """Each run's command line (documents named by their recipe) and its stdout."""
    runs: dict[str, str] = {}
    for g in GENERA:
        for name in BUILTINS:
            argv = ["eval", "--in", f"builtin:{name}", "--g", str(g), "--format", "structured"]
            runs[" ".join(argv)] = _stdout(argv)
    argv = ["eval", "--in", "builtin:iota", "--g", "3"]
    runs[" ".join(argv)] = _stdout(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for g in GENERA:
            for seed in (0, 1):
                phi = random_element(FreeGroup(g), 6, seed=seed)
                for certified in (True, False):
                    doc = f"random_element(FreeGroup({g}), 6, seed={seed})"
                    if not certified:
                        doc += " without inverse_images"
                    path = str(Path(tmp) / "doc.json")
                    save_automorphism(phi if certified else Endo(phi.group, phi.images), path)
                    out = _stdout(["eval", "--in", path, "--format", "structured"])
                    runs[f"eval --in <{doc}> --format structured"] = out.replace(path, "<doc>")
    argv = ["verify", "all", "--g", "2..3", "--samples", "8", "--seed", "7",
            "--format", "structured"]
    runs[" ".join(argv)] = _stdout(argv)
    # two-byte letters, and the closed-form elements at a large genus
    for argv in (["verify", "all", "--g", "64", "--samples", "2", "--format", "structured"],
                 ["eval", "--in", "builtin:iota", "--g", "64", "--format", "structured"]):
        runs[" ".join(argv)] = _stdout(argv)
    return runs


def first_difference(want: dict[str, str], got: dict[str, str]):
    """The first run, in recorded order, whose output differs or that only one side has."""
    for key in [*want, *(key for key in got if key not in want)]:
        if want.get(key) != got.get(key):
            return key
    return None


def test_outputs_match_the_recorded_bytes():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert first_difference(want, golden_outputs()) is None


def test_script_compares_by_default_and_records_only_on_request(tmp_path, monkeypatch, capsys):
    module = sys.modules[__name__]
    golden = tmp_path / "golden.json"
    monkeypatch.setattr(module, "GOLDEN", golden)
    monkeypatch.setattr(module, "golden_outputs", lambda: {"run a": "1\n", "run b": "2\n"})
    recorded = {"run a": "1\n", "run b": "3\n"}
    golden.write_text(json.dumps(recorded), encoding="utf-8")
    assert compare_or_record([]) == 1
    assert capsys.readouterr().err == "output differs from golden.json: run b\n"
    assert json.loads(golden.read_text(encoding="utf-8")) == recorded  # left alone
    assert compare_or_record(["--record"]) == 0
    assert compare_or_record([]) == 0
    assert compare_or_record(["--bogus"]) == 2
    golden.write_text(json.dumps({"run a": "1\n"}), encoding="utf-8")
    assert compare_or_record([]) == 1 and capsys.readouterr().err.endswith(": run b\n")


def compare_or_record(argv: list[str]) -> int:
    if argv == ["--record"]:
        GOLDEN.write_text(json.dumps(golden_outputs(), indent=1) + "\n", encoding="utf-8")
        return 0
    if argv:
        print("usage: test_golden_outputs.py [--record]", file=sys.stderr)
        return 2
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    key = first_difference(want, golden_outputs())
    if key is not None:
        print(f"output differs from {GOLDEN.name}: {key}", file=sys.stderr)
        return 1
    print(f"all {len(want)} runs match {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(compare_or_record(sys.argv[1:]))
