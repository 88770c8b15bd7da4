"""Command-line entry point: ``repro-experiments`` / ``python -m repro``.

Runs any (or all) of the reproduced tables and figures and prints their
text reports. ``--quick`` shrinks sweeps for smoke runs.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import sys
import time
from typing import Callable

from ..obs import MetricsRegistry, ObsContext, RunManifest, Tracer, observed
from ..obs import context as _obs
from .chaos import chaos_experiment
from .backend import (
    gang_experiment,
    mesh_contention_experiment,
    sequencer_queueing_experiment,
    tp_placement_experiment,
)
from .dispatch import library_dispatch_experiment
from .fleet import fleet_experiment
from .figures import (
    fig1_cm2_communication,
    fig2_interleaving,
    fig3_gauss_cm2,
    fig4_paragon_dedicated,
    fig5_paragon_comm_out,
    fig6_paragon_comm_in,
    fig7_sor_sun,
    fig8_sor_sun,
)
from .export import write_results
from .journal import RunJournal, journaled
from .plots import chart_result
from .sensitivity import (
    cycle_length_sensitivity,
    forecast_experiment,
    fraction_sensitivity,
    mixed_workload_experiment,
)
from .report import ExperimentResult
from .robustness import (
    robustness_paragon_comm,
    robustness_paragon_comp,
    saturation_sweep,
    synthetic_cm2_experiment,
)
from .tables import tables_experiment

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

#: Registry of every runnable experiment. Each driver accepts ``quick``.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "tables1_4": lambda quick=False: tables_experiment(),
    "fig1": fig1_cm2_communication,
    "fig2": fig2_interleaving,
    "fig3": fig3_gauss_cm2,
    "fig4": fig4_paragon_dedicated,
    "fig5": fig5_paragon_comm_out,
    "fig6": fig6_paragon_comm_in,
    "fig7": fig7_sor_sun,
    "fig8": fig8_sor_sun,
    "synthetic_cm2": synthetic_cm2_experiment,
    "robustness_comm": robustness_paragon_comm,
    "robustness_comp": robustness_paragon_comp,
    "saturation": saturation_sweep,
    "mesh": mesh_contention_experiment,
    "gang": gang_experiment,
    "dispatch": library_dispatch_experiment,
    "tp_placement": tp_placement_experiment,
    "sequencer": sequencer_queueing_experiment,
    "cycle_sensitivity": cycle_length_sensitivity,
    "fraction_sensitivity": fraction_sensitivity,
    "forecast": forecast_experiment,
    "mixed_workload": mixed_workload_experiment,
    "chaos": chaos_experiment,
    "fleet": fleet_experiment,
}


def _driver_kwargs(
    driver: Callable, quick: bool, workers: int, backend: str | None = None
) -> dict:
    """Build the kwargs a driver supports: always ``quick``, plus
    ``workers`` / ``backend`` only for drivers that declare them."""
    kwargs: dict = {"quick": quick}
    try:
        params = inspect.signature(driver).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtin drivers
        return kwargs
    if workers != 1 and "workers" in params:
        kwargs["workers"] = workers
    if backend is not None and "backend" in params:
        kwargs["backend"] = backend
    return kwargs


def run_experiment(
    name: str, quick: bool = False, workers: int = 1, backend: str | None = None
) -> ExperimentResult:
    """Run one experiment by registry name.

    Inside an observed run (the ``--trace`` flag) the driver executes
    under an ``experiment.<name>`` span, and any result the driver did
    not stamp itself gets a generic :class:`~repro.obs.RunManifest`
    carrying the run's metric snapshot and trace identity. *workers*
    fans replication sweeps out over a process pool for drivers that
    support it — values are bit-identical to the serial run (see
    ``docs/performance.md``). *backend* forwards the simulation
    backend choice (``"vector"``/``"object"``) to drivers whose sweeps
    go through :func:`repro.experiments.simulate.simulate`; ``None``
    leaves the default resolution ($REPRO_SIM_BACKEND, then vector
    with automatic object fallback) in charge.
    """
    try:
        driver = EXPERIMENTS[name]
    except KeyError:
        raise SystemExit(
            f"unknown experiment {name!r}; choose from: {', '.join(EXPERIMENTS)}"
        ) from None
    kwargs = _driver_kwargs(driver, quick, workers, backend)
    ctx = _obs.current()
    if ctx is None:
        return driver(**kwargs)
    with ctx.tracer.span(f"experiment.{name}", kind="experiment", quick=quick):
        result = driver(**kwargs)
    ctx.metrics.counter("experiment.runs").inc()
    if result.manifest is None:
        result.manifest = RunManifest.stamp(
            experiment=name,
            metrics=ctx.snapshot(),
            trace_id=ctx.tracer.trace_id,
            extra={"quick": quick},
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of Figueira & Berman, 'Modeling the "
            "Effects of Contention on the Performance of Heterogeneous Applications' "
            "(HPDC 1996)."
        ),
    )
    parser.add_argument(
        "names",
        nargs="*",
        default=["all"],
        help="experiment ids (e.g. fig5 tables1_4), or 'all' (default)",
    )
    parser.add_argument("--quick", action="store_true", help="shrink sweeps for a fast smoke run")
    parser.add_argument("--chart", action="store_true", help="also render ASCII charts where available")
    parser.add_argument("--outdir", default=None, help="also write results as JSON/CSV to this directory")
    parser.add_argument("--summary", action="store_true", help="print a final paper-vs-measured summary table")
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="observe the run (spans + metrics) and write the trace as JSON-lines to PATH",
    )
    parser.add_argument(
        "--trace-seed",
        type=int,
        default=0,
        help="identity seed for deterministic span IDs (default 0)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "process-pool width for replication sweeps (default 1: serial; "
            "0 means one per CPU). Results are bit-identical at any width."
        ),
    )
    parser.add_argument(
        "--backend",
        choices=["vector", "object"],
        default=None,
        help=(
            "simulation backend for replication sweeps: 'vector' batches all "
            "replications through the struct-of-arrays engine (with automatic "
            "per-sweep fallback to 'object' for uncovered workloads), 'object' "
            "forces the reference engine. Default: $REPRO_SIM_BACKEND, else vector."
        ),
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "checkpoint completed sweep points to an append-only JSON-lines "
            "journal at PATH (truncates an existing file; see --resume)"
        ),
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help=(
            "resume from the journal at PATH: completed points are replayed "
            "bit-identically, only missing points are recomputed; new points "
            "are appended to the same file"
        ),
    )
    parser.add_argument(
        "--cal-cache",
        default=None,
        metavar="DIR",
        help=(
            "persist calibration results as JSON under DIR and reuse them "
            "across processes (also settable via $REPRO_CAL_CACHE)"
        ),
    )
    parser.add_argument(
        "--clear-cal-cache",
        action="store_true",
        help="delete all entries in the calibration cache dir before running",
    )
    args = parser.parse_args(argv)

    from . import calcache

    if args.cal_cache:
        calcache.set_cache_dir(args.cal_cache)
    if args.clear_cal_cache:
        removed = calcache.clear_cache()
        print(f"cleared {removed} calibration cache entries")
    from ..parallel import default_workers

    workers = args.workers if args.workers > 0 else default_workers()

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    if args.journal and args.resume:
        raise SystemExit("--journal and --resume are mutually exclusive (resume appends to its own file)")
    journal = None
    if args.journal:
        journal = RunJournal(args.journal, resume=False)
    elif args.resume:
        journal = RunJournal(args.resume, resume=True)
        print(f"resuming from {args.resume}: {len(journal)} completed points loaded", end="")
        print(f" ({journal.skipped} corrupt lines skipped)" if journal.skipped else "")

    names = list(EXPERIMENTS) if args.names == ["all"] else args.names
    ctx = None
    if args.trace:
        ctx = ObsContext(
            tracer=Tracer(seed=args.trace_seed), metrics=MetricsRegistry()
        )
    results = []
    with observed(ctx) if ctx is not None else contextlib.nullcontext(), (
        journaled(journal) if journal is not None else contextlib.nullcontext()
    ):
        for name in names:
            t0 = time.perf_counter()
            result = run_experiment(
                name, quick=args.quick, workers=workers, backend=args.backend
            )
            elapsed = time.perf_counter() - t0
            results.append(result)
            print(result.render())
            if args.chart:
                chart = chart_result(result)
                if chart is not None:
                    print()
                    print(chart)
            print(f"  [{elapsed:.1f}s]")
            print()
    if journal is not None:
        print(
            f"journal {journal.path}: {journal.hits} points replayed, "
            f"{journal.misses} computed"
        )
        journal.close()
    if ctx is not None:
        count = ctx.tracer.write_jsonl(args.trace)
        print(f"wrote {count} spans to {args.trace}")
    if args.outdir:
        written = write_results(results, args.outdir)
        print(f"wrote {len(written)} files to {args.outdir}")
    if args.summary:
        print(render_summary(results))
    return 0


def render_summary(results: list[ExperimentResult]) -> str:
    """One row per experiment: headline metric vs the paper's claim."""
    from .report import render_table

    rows = []
    for result in results:
        if result.metrics:
            name, value = next(iter(result.metrics.items()))
            headline = f"{name} = {value:.4g}" if isinstance(value, float) else f"{name} = {value}"
        else:
            headline = "-"
        claim = result.paper_claim or "-"
        if len(claim) > 58:
            claim = claim[:55] + "..."
        rows.append((result.experiment, headline, claim))
    return "\n".join(
        [
            "",
            "=" * 72,
            "SUMMARY - paper vs measured",
            "=" * 72,
            render_table(("experiment", "headline metric", "paper"), rows),
        ]
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
