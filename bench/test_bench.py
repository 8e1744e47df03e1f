"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py -q

Each workload runs on a shrunken pool, for half a second untraced and
for one pass traced, through the same code path as a full run.  The run
must report no failed op (error rate 0) and every metric that
BENCHMARK.json names; the traced counts must repeat exactly for a seed;
and each oracle must count one perturbed output as a failure.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

SHRINK = {
    "cocycle-pairs": {"pairs": 8},
    "long-images": {"per_genus": 1},
    "certified-images": {"per_genus": 1},
    "verify-all": {"genera": (2,), "seeds_per_case": 1},
}


@pytest.fixture(params=sorted(WORKLOADS))
def small(request, monkeypatch):
    workload = WORKLOADS[request.param]
    for attr, value in SHRINK[workload.name].items():
        monkeypatch.setattr(workload, attr, value)
    return workload


def _run(workload, capsys, trace: int, seed: int = 7) -> dict:
    argv = ["--workload", workload.name, "--seed", str(seed), "--seconds", "0.5",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_is_correct_and_complete(small, capsys):
    result = _run(small, capsys, trace=0)
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_is_complete_and_counts_repeat(small, capsys):
    first = _run(small, capsys, trace=1)
    second = _run(small, capsys, trace=1)
    assert first["failed"] == 0 and second["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, metric in first["metrics"].items():
        if name.endswith((".calls", ".letters", ".per_op", ".computed")):
            assert metric == second["metrics"][name], name


def test_oracle_counts_a_perturbed_output(small, tmp_path):
    mcg = run.fresh_import()
    state = small.setup(mcg, 7, tmp_path)
    op = state.ops[0]
    out = small.execute(mcg, op)
    assert run.count_failures(small, [op], [(0, out)]) == []
    assert len(run.count_failures(small, [op], [(0, small.perturb(out))])) == 1
