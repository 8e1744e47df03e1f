"""The substitution sweep tool runs its four sweeps end to end on a small input."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep_substitution.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("sweep_substitution", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_tool_writes_all_four_tables(tool, tmp_path, monkeypatch, capsys):
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
    for name in ("mul_ns", "inverse_ns", "cyclic_reduce_ns", "conjugator_ns", "letters_ns",
                 "conjugate_ns", "inner_ns"):
        assert words[name] > 0, name
    assert [(r["genus"], r["letters"], r["kernel"]) for r in result["d_rows"]] == [(2, 100, True)]


def test_d_rows_time_the_kernel_only_on_one_byte_letters(tool, monkeypatch):
    monkeypatch.setattr(tool, "GENERA", (2, 64))
    monkeypatch.setattr(tool, "LENGTHS", (100, 600))
    rows = tool.sweep_d(2)
    assert [(r["genus"], r["letters"], r["kernel"]) for r in rows] == [
        (2, 100, True), (2, 600, True), (64, 100, False), (64, 600, False)]
    for r in rows:
        assert r["walk_ns"] > 0 and r["d_ns"] > 0
        assert (r["kernel_ns"] is None) == (r["genus"] == 64)
