#!/usr/bin/env python
"""Perf-regression guard for the simulator/kernel benchmarks.

Compares freshly measured medians against the committed
``BENCH_perf.json`` baseline and exits non-zero when any guarded
benchmark's median regresses by more than the allowed fraction
(default 25 %). Only the DES-kernel, vectorized-kernel, and
fleet-service benches are guarded: the heavy experiment drivers
measure whole sweeps whose cost is dominated by workload content, and
their medians move for legitimate reasons; the kernel benches are the
ones a stray ``O(n)``-in-the-hot-loop slip shows up in first.

Usage::

    PYTHONPATH=src python scripts/check_perf.py [--baseline BENCH_perf.json]
        [--fresh FILE] [--threshold 0.25]

With no ``--fresh`` the guarded benchmark files are run via
``benchmarks/record.py`` into a temporary file first; an apparent
regression is then confirmed by one re-measurement (per-bench best of
the two medians) before failing, so a single noisy scheduling window
on a shared host cannot flake the job. Improvements are reported but
never fail the check, and benches present in only one of the two files
are skipped with a note (new benchmarks have no baseline to regress
from).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

#: Benchmarks the guard watches: the DES kernel micro-benches, the
#: vectorized prediction-kernel benches, the fleet-service hot paths
#: (placement queries and event churn at 100k-app scale, the 1M-app
#: struct-of-arrays fleet, supervised workers both per-event and with
#: 32-event frames, a worker respawn from its heartbeat snapshot), and
#: the vector Monte-Carlo batches at 256 replications — PS and RR
#: disciplines plus the fig5-shaped sweep batch, each guarded together
#: with an object-loop counterpart so the speedup ratios stay visible
#: and honest in ``BENCH_perf.json``.
GUARDED = (
    "test_event_throughput",
    "test_event_throughput_traced",
    "test_rr_cpu_throughput",
    "test_link_throughput",
    "test_resource_contention_throughput",
    "test_placement_grid_batch",
    "test_slowdown_evaluation",
    "test_fleet_query_throughput",
    "test_fleet_event_churn",
    "test_fleet_supervised_workers",
    "test_fleet_million_apps",
    "test_fleet_batched_workers",
    "test_fleet_bounded_respawn",
    "test_vector_batch_reps256",
    "test_object_loop_reps256",
    "test_rr_vector_batch_reps256",
    "test_rr_object_loop_reps256",
    "test_fig5_sweep_batch",
)

#: Benchmark files that contain the guarded benches (what --fresh-less
#: invocations run; a subset keeps the CI job fast).
GUARDED_FILES = (
    "benchmarks/bench_simulator.py",
    "benchmarks/bench_batch.py",
    "benchmarks/bench_model_costs.py",
    "benchmarks/bench_fleet.py",
    "benchmarks/bench_vector.py",
)


def _medians(report: dict) -> dict[str, float]:
    out = {}
    for name, stats in report.get("benchmarks", {}).items():
        median = stats.get("median_s")
        if isinstance(median, (int, float)) and median > 0:
            out[name] = float(median)
    return out


def compare(baseline: dict, fresh: dict, threshold: float) -> tuple[list[str], list[str]]:
    """Return (failures, notes) comparing guarded medians."""
    base = _medians(baseline)
    new = _medians(fresh)
    failures: list[str] = []
    notes: list[str] = []
    for name in GUARDED:
        if name not in base:
            notes.append(f"{name}: no baseline median (skipped)")
            continue
        if name not in new:
            notes.append(f"{name}: not in fresh run (skipped)")
            continue
        ratio = new[name] / base[name]
        line = f"{name}: {base[name] * 1e3:.3f} ms -> {new[name] * 1e3:.3f} ms ({ratio:.2f}x)"
        if ratio > 1.0 + threshold:
            failures.append(line)
        else:
            notes.append(line)
    return failures, notes


def _measure() -> dict | int:
    """Run the guarded benchmark files; return the summary or an exit code."""
    root = Path(__file__).resolve().parent.parent
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        fresh_path = Path(handle.name)
    try:
        code = subprocess.call(
            [
                sys.executable,
                str(root / "benchmarks" / "record.py"),
                "--out",
                str(fresh_path),
                *(str(root / f) for f in GUARDED_FILES),
            ],
            cwd=root,
        )
        if code != 0:
            print(f"check_perf: benchmark run failed with exit code {code}")
            return code
        return json.loads(fresh_path.read_text())
    finally:
        fresh_path.unlink(missing_ok=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_perf.json")
    parser.add_argument("--fresh", default=None, help="pre-recorded summary to compare (skips running)")
    parser.add_argument("--threshold", type=float, default=0.25, help="allowed median regression fraction")
    args = parser.parse_args(argv)

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"check_perf: no baseline at {baseline_path}, nothing to guard")
        return 0
    baseline = json.loads(baseline_path.read_text())

    if args.fresh is not None:
        fresh = json.loads(Path(args.fresh).read_text())
    else:
        fresh = _measure()
        if isinstance(fresh, int):
            return fresh

    failures, notes = compare(baseline, fresh, args.threshold)
    if failures and args.fresh is None:
        # A single noisy window on a shared host can move a median well
        # past the threshold; confirm before failing. A real regression
        # reproduces in the second measurement; noise does not.
        print(f"check_perf: {len(failures)} regression(s) on first pass, re-measuring to confirm")
        second = _measure()
        if isinstance(second, int):
            return second
        merged = _medians(fresh)
        for name, median in _medians(second).items():
            merged[name] = min(median, merged.get(name, median))
        fresh = {"benchmarks": {n: {"median_s": m} for n, m in merged.items()}}
        failures, notes = compare(baseline, fresh, args.threshold)
    for line in notes:
        print(f"  ok   {line}")
    for line in failures:
        print(f"  FAIL {line}")
    if failures:
        print(
            f"check_perf: {len(failures)} benchmark(s) regressed more than "
            f"{args.threshold:.0%} vs {baseline_path}"
        )
        return 1
    print(f"check_perf: guarded medians within {args.threshold:.0%} of {baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
