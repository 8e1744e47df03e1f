"""The substitution sweep tool runs its three sweeps end to end on a small input."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep_substitution.py"


def test_sweep_tool_writes_all_three_tables(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("sweep_substitution", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "GENERA", (2,))
    monkeypatch.setattr(tool, "PARSE_GENERA", (2,))
    monkeypatch.setattr(tool, "LENGTHS", (100,))
    out = tmp_path / "sweep.json"
    assert tool.main(["--out", str(out), "--repeats", "2"]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert json.loads(capsys.readouterr().out) == result
    assert [(r["genus"], r["letters"]) for r in result["parse_rows"]] == [(2, 100)]
    (row,) = result["rows"]
    assert row["genus"] == 2 and row["image_letters"] >= 100
    assert row["first_ns"] > 0 and row["repeat_ns"] > 0
    (words,) = result["word_rows"]
    assert (words["genus"], words["letters"]) == (2, 100)
    for name in ("mul_ns", "inverse_ns", "cyclic_reduce_ns", "conjugator_ns", "letters_ns"):
        assert words[name] > 0, name
