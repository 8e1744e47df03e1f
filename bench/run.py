"""Benchmark of the mcgcocycles package: one workload per run.

    python3 bench/run.py --workload long-images --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there.  One run is a closed loop with one client in this one
process.  Set-up (import, inputs from the seed, oracle values, documents,
cache warm-up) is repeated ``SETUP_REPEATS`` times on a fresh import and
its median is ``setup_s``.  The timed loop then runs shuffled passes
over the workload's ops until ``--seconds`` have elapsed; every output
is checked against the workload's oracle outside the op's timing.  Each op's
latency is the least of its repeats across the passes, which drops the
spells in which other tenants of a shared host slow the core; the
latency and throughput metrics are taken over those per-op times.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` it makes one untraced pass and one traced pass over the
same ops and reports per-layer counts and self times from the traced
pass, with the tracing overhead as the ratio of the two passes' time
in ops.  The last line of standard output is the result as JSON; the
same result, with the machine description, is written to
``bench/results/<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
PACKAGE = "mcgcocycles"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# Higher tails rest on a few heavy ops: on cocycle-pairs, p95 and p99 spread
# by 26% and 17% over ten seeds while p50 spread by 2% to 4%.
TAIL_MAX = 90

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


def fresh_import():
    """Import the package from ``src/`` again, with empty caches."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    gc.collect()
    mcg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(mcg.__file__).resolve().parent != SRC / PACKAGE:
        raise RuntimeError(f"{PACKAGE} was imported from {mcg.__file__}, not {SRC}")
    return mcg


def run_ops(workload, mcg, ops, seconds=None, seed=0, tracer=None):
    """Closed loop over passes of the ops, each pass in a fresh seeded order.

    Stops once ``seconds`` have passed, mid-pass if need be; the shuffle
    keeps a partial pass an unbiased sample of the pool.  With ``seconds``
    None it runs exactly one pass.  Each output is checked by the oracle
    as soon as its op returns, outside the op's timing, and is then
    dropped, so memory does not grow with the number of ops run.  Returns
    the latency and pool index of every op run, and the failures.
    """
    order_rng = random.Random(seed)
    latencies, inputs, failures = [], [], []
    clock = time.perf_counter
    began = clock()
    while True:
        order = list(range(len(ops)))
        order_rng.shuffle(order)
        for i in order:
            if tracer is not None:
                tracer.op_id = len(latencies)
            t0 = clock()
            try:
                out = workload.execute(mcg, ops[i])
            except Exception as exc:  # an op that raises is a failed op
                out = exc
            latencies.append(clock() - t0)
            inputs.append(i)
            failures += count_failures(workload, ops, [(i, out)])
            if seconds is not None and clock() - began >= seconds:
                return latencies, inputs, failures
        if seconds is None:
            return latencies, inputs, failures


def count_failures(workload, ops, outputs) -> list[str]:
    reasons = []
    for i, out in outputs:
        if isinstance(out, Exception):
            reasons.append(f"op {i}: raised {out!r}")
            continue
        why = workload.check(ops[i], out)
        if why is not None:
            reasons.append(f"op {i}: {why}")
    return reasons


def best_per_op(latencies, inputs) -> list[float]:
    """Each op's least latency over its repeats, for every op that ran."""
    best = {}
    for latency, i in zip(latencies, inputs):
        best[i] = min(latency, best.get(i, latency))
    return list(best.values())


def tail_percentile(samples: int) -> int:
    """Highest whole percentile, up to TAIL_MAX, with TAIL_BEYOND samples beyond it."""
    return min(TAIL_MAX, math.floor(100 * (samples - TAIL_BEYOND) / samples))


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def machine_info(seed: int) -> dict:
    """Seed, commit, Python, nproc, CPU model and cache sizes (read-only)."""
    info = {"seed": seed, "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(), "cpu_model": platform.processor() or "unknown",
            "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    info["cpu_model"] = value.strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        info["caches"][f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return info


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text(encoding="utf-8").strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "not a git checkout"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = RESULTS / f"work-{workload.name}-{os.getpid()}"
    try:
        return measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, args, workdir: Path) -> int:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        mcg = state = None  # free the previous set-up before timing the next
        t0 = time.perf_counter()
        mcg = fresh_import()
        state = workload.setup(mcg, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    ops = state.ops
    # set-up's objects are not the program's: keep full collections in the
    # timed loop from scanning them
    gc.collect()
    gc.freeze()
    info = machine_info(args.seed)
    result = {"workload": workload.name, "trace": args.trace, "machine": info,
              "sizes": state.sizes, "setup_times_s": setup_times}

    if args.trace:
        from tracing import Tracer

        lat0, _, fail0 = run_ops(workload, mcg, ops)
        tracer = Tracer()
        tracer.instrument(mcg)
        lat1, _, fail1 = run_ops(workload, mcg, ops, tracer=tracer)
        failures = fail0 + fail1
        attempted = len(lat0) + len(lat1)
        metrics = tracer.metrics(len(lat1))
        metrics["trace.overhead"] = (math.fsum(lat1) / math.fsum(lat0), "ratio")
        metrics["trace.ops"] = (len(lat1), "count")
        metrics["trace.spans"] = (len(tracer.start), "count")
        spans_path = RESULTS / f"{workload.name}.spans.tsv.gz"
        tracer.write(spans_path)
        result.update(untraced_op_s=math.fsum(lat0), traced_op_s=math.fsum(lat1),
                      spans_file=str(spans_path), not_instrumented=tracer.missing,
                      escaped=tracer.escaped)
    else:
        latencies, inputs, failures = run_ops(workload, mcg, ops, args.seconds, args.seed)
        attempted = len(latencies)
        best = best_per_op(latencies, inputs)
        pct = tail_percentile(len(best))
        metrics = {
            "throughput_ops_s": (len(best) / math.fsum(best), "ops/s"),
            "latency_p50_ms": (1000 * statistics.median(best), "ms"),
            "latency_tail_ms": (1000 * nearest_rank(best, pct), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        beyond = len(best) - math.ceil(pct / 100 * len(best))
        result.update(latencies_s=latencies, op_inputs=inputs,
                      every_op_throughput_ops_s=attempted / math.fsum(latencies),
                      every_op_latency_p50_ms=1000 * statistics.median(latencies),
                      tail_percentile=pct, tail_samples=len(best), tail_samples_beyond=beyond,
                      repeats_min=min(Counter(inputs).values()))

    error_rate = len(failures) / attempted
    result.update(attempted=attempted, failed=len(failures), error_rate=error_rate,
                  failures=failures[:20], metrics={k: {"value": v, "unit": u}
                                                   for k, (v, u) in metrics.items()})
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"workload {workload.name}  seed {args.seed}  commit {info['commit']}")
    print(f"python {info['python']}  nproc {info['nproc']}  cpu {info['cpu_model']}  "
          f"caches {' '.join(f'{k}={v}' for k, v in info['caches'].items())}")
    print(f"sizes {json.dumps(state.sizes)}")
    for reason in failures[:5]:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>14.6g} {unit}")
    print(f"{'error_rate':40s} {error_rate:>14.6g} failed/attempted ({len(failures)}/{attempted})")
    if not args.trace:
        print(f"latency_tail_ms is p{result['tail_percentile']} of {result['tail_samples']} "
              f"ops' best times, {result['tail_samples_beyond']} beyond it; every op ran "
              f"at least {result['repeats_min']} times")
        print(f"over every op run: {result['every_op_throughput_ops_s']:.6g} ops/s, "
              f"p50 {result['every_op_latency_p50_ms']:.6g} ms")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
