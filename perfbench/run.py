"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet_query --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload again with timing proxies on the program's public entry points
and reports the per-layer metrics instead. Both print one line per
metric (name, value, unit, how it was measured), the environment, and
the hash of the generated inputs, then — as the last line of standard
output — one JSON object with exactly ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit status is 0 only when every output
check passed. Full results (and, for traced runs, the spans as JSON
lines) are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Environment variables that would otherwise steer the program; the
#: benchmark pins their effect with explicit arguments instead.
PINNED_ENV = ("REPRO_SIM_BACKEND", "REPRO_SIM_SWEEP", "REPRO_CAL_CACHE", "REPRO_FLEET_BATCH")

#: Spans written to the JSONL export per ledger (the aggregates cover all).
SPAN_EXPORT_LIMIT = 50_000


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment() -> dict[str, str]:
    """Drop the program's steering variables; record what is used instead."""
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    return {
        "REPRO_SIM_BACKEND": "ignored: backend='vector' passed explicitly",
        "REPRO_SIM_SWEEP": "ignored: sweep lanes on (variable unset)",
        "REPRO_CAL_CACHE": "ignored: calibration disk cache off (set_cache_dir(None))",
        "REPRO_FLEET_BATCH": "ignored: SupervisorPolicy(batch_size=32) passed explicitly",
    }


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pinned = pin_environment()

    import fig5_workload
    import fleet_workloads
    import harness
    from repro.experiments import calcache

    calcache.set_cache_dir(None)
    # Each workload with the shard worker processes it runs besides the caller.
    workloads = {
        "fleet_query": (fleet_workloads.fleet_query, 0),
        "fleet_supervised": (fleet_workloads.fleet_supervised, 1),
        "paper_fig5": (fig5_workload.paper_fig5, 0),
    }
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2
    run, workers = workloads[args.workload]
    nproc = harness.usable_cpus()
    if workers > nproc - 1:
        print(f"perfbench: {args.workload} runs {workers} worker process(es) besides "
              f"the caller, more than nproc - 1 = {nproc - 1}; refusing to measure",
              file=sys.stderr)
        return 3

    env = harness.environment(pinned)
    result = run(args.seed, args.seconds, bool(args.trace))

    # Every named metric, in BENCHMARK.json order; a layer this workload
    # never calls reads 0.
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for metric in wanted:
        if metric["name"] not in result.metrics:
            result.metric(metric["name"], 0.0, metric["unit"],
                          "layer not exercised by this workload")
    result.metrics = {m["name"]: result.metrics[m["name"]] for m in wanted}

    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result.ledgers:
        spans = harness.OUT_DIR / f"{stem}.spans.jsonl"
        spans.unlink(missing_ok=True)
        for phase, ledger in result.ledgers.items():
            ledger.write_jsonl(spans, phase, SPAN_EXPORT_LIMIT)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_hash": result.inputs_hash,
        "environment": env,
        "notes": result.notes,
        "errors": result.errors,
        **result.line(),
    }
    (harness.OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# inputs blake2b {result.inputs_hash}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    for note in result.notes:
        print(f"#   {note}")
    for error in result.errors:
        print(f"# CHECK FAILED: {error}")
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
