"""Command line output pinned byte for byte.

``golden_outputs.json`` beside this file holds the stdout of a fixed set
of ``eval`` and ``verify`` runs.  The test reruns them in process and
compares the bytes, so a change that should not move any value or any
line of output is checked against the recorded one.  To record the
outputs again after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import io
import json
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
    return runs


def test_outputs_match_the_recorded_bytes():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_outputs()
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1) + "\n", encoding="utf-8")
