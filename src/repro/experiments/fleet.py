"""Fleet experiment: selfish re-placement at scale, under overload.

Two claims meet here. The paper's: slowdown-adjusted predictions are
cheap enough to drive scheduling decisions online. Legrand & Touati's
(PAPERS.md): when every application re-places *selfishly* — each one
moving to whatever machine minimizes its own predicted elapsed time,
against everyone else — the system converges to a (possibly
inefficient) equilibrium. The fleet service turns the second into a
stress test of the first: thousands of arrive/depart/query operations
per round, exactly the hostile traffic the robustness machinery
(admission control, load shedding, quarantine + journal replay) must
survive.

Phases:

1. **Populate** — the deterministic synthetic churn feed registers a
   fleet-wide population through the write-ahead log.
2. **Selfish re-placement** — rounds of: each application departs,
   queries the service for its cheapest machine (compute + transfer
   cost on every candidate, scored through the placement grid), and
   re-arrives there. Rounds repeat until a round moves nothing — the
   Nash-style equilibrium — and the mean per-application predicted
   cost is tracked per round (it must not increase).
3. **Overload + quarantine** — one tenant exceeds its query quota
   10×: every over-quota query is shed to an ANALYTIC answer, none
   raises. A shard is then corrupted behind the service's back, the
   next event quarantines it, and breaker-gated recovery replays the
   event log — the rebuilt shard must hash bit-identically to an
   independent replay of the same log.

The whole driver runs on a manual clock, so admission-bucket refills
and breaker windows are deterministic and the run journals like any
other sweep.
"""

from __future__ import annotations

from ..fleet import (
    AdmissionController,
    FleetService,
    PlacementQuery,
    ShardPolicy,
    TenantQuota,
    synthetic_feed,
)
from ..fleet.service import PlacementAnswer
from ..obs import MetricsSnapshot, RunManifest, platform_summary
from ..obs import context as _obs
from ..platforms.specs import DEFAULT_SUNPARAGON, SunParagonSpec
from ..reliability.degrade import Confidence
from . import journal as _journal
from .calibrate import calibrate_paragon
from .journal import EventLog
from .report import ExperimentResult

__all__ = ["fleet_experiment"]

#: Cap on re-placement rounds; convergence is typically much faster.
_MAX_ROUNDS = 12

#: A frontend cost high enough that the backend path (the candidate
#: machine's compute + transfer cost) always wins the Equation-(1)
#: comparison — the grid then scores pure per-machine placement cost.
_FRONTEND_VETO = 1e9


class _ManualClock:
    """Deterministic clock the driver advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _placement_query(comm_fraction: float, work: float = 1.0) -> PlacementQuery:
    """Score 'run this application on machine c' for every candidate.

    ``backend_dserial = backend_dcomp`` makes the backend term
    ``dcomp · s_comp`` exactly, and the transfer term adds
    ``dcomm · s_comm``; the veto frontend cost means ``best_time`` per
    candidate is the application's full predicted cost there.
    """
    dcomp = work * (1.0 - comm_fraction)
    dcomm = work * comm_fraction
    return PlacementQuery(
        dcomp_frontend=_FRONTEND_VETO,
        backend_dcomp=dcomp,
        backend_didle=0.0,
        backend_dserial=dcomp,
        dcomm_out=dcomm,
        dcomm_in=0.0,
    )


def _replacement_round(service: FleetService) -> tuple[int, float]:
    """One selfish round over every live application (sorted order).

    Each application is departed, asks for its cheapest machine, and
    re-arrives there. Returns ``(moves, mean predicted cost)``.
    """
    moves = 0
    total_cost = 0.0
    names = service.registry.names()
    for name in names:
        record = service.registry.get(name)
        if record is None:  # pragma: no cover - stream is churn-free here
            continue
        service.apply(
            {"op": "depart", "app": name, "tenant": record.tenant,
             "machine": record.machine}
        )
        answer: PlacementAnswer = service.query(
            record.tenant, _placement_query(record.comm_fraction)
        )
        target = answer.machine
        if target != record.machine:
            moves += 1
        service.apply(
            {
                "op": "arrive",
                "app": name,
                "tenant": record.tenant,
                "machine": target,
                "comm_fraction": record.comm_fraction,
                "message_size": record.message_size,
            }
        )
        total_cost += answer.best_time
    return moves, total_cost / max(1, len(names))


def fleet_experiment(
    spec: SunParagonSpec = DEFAULT_SUNPARAGON,
    machines: int = 32,
    events: int = 2000,
    seed: int = 31,
    quick: bool = False,
) -> ExperimentResult:
    """Selfish re-placement to equilibrium, then the overload proof."""
    if quick:
        machines = 8
        events = 120

    def run_point() -> dict:
        cal = calibrate_paragon(spec)
        clock = _ManualClock()
        # Burst comfortably covers one full re-placement round (every
        # live app queries once), so equilibrium rounds are *served*
        # and only the deliberate overload phase sheds.
        quota = TenantQuota(
            query_rate=100.0,
            query_burst=200.0 if quick else 1000.0,
            max_apps=100_000,
        )
        log = EventLog(_journal_scratch_path(), sync=False)
        service = FleetService(
            machines=machines,
            num_shards=4,
            delay_comp=cal.delay_comp,
            delay_comm=cal.delay_comm,
            delay_comm_sized=cal.delay_comm_sized,
            admission=AdmissionController(default=quota, clock=clock),
            policy=ShardPolicy(recovery_time=5.0, failure_threshold=1),
            log=log,
            clock=clock,
        )

        # Phase 1: populate through the churn feed.
        for event in synthetic_feed(seed=seed, events=events, machines=machines):
            service.submit(event)
            service.pump()
            clock.advance(0.05)  # keeps the event feed inside every quota

        # Phase 2: selfish re-placement to equilibrium.
        rounds: list[dict] = []
        equilibrium = _MAX_ROUNDS
        for rnd in range(_MAX_ROUNDS):
            clock.advance(60.0)  # refill every tenant's query bucket
            moves, mean_cost = _replacement_round(service)
            rounds.append({"round": rnd + 1, "moves": moves, "mean_cost": mean_cost})
            if moves == 0:
                equilibrium = rnd + 1
                break

        # Phase 3a: overload — one tenant exceeds its quota 10×.
        clock.advance(60.0)
        burst = int(quota.query_burst)
        query = _placement_query(0.3)
        shed = 0
        analytic_shed = 0
        raised = 0
        for _ in range(10 * burst):
            try:
                answer = service.query("tenant-0", query)
            except Exception:  # pragma: no cover - the contract under test
                raised += 1
                continue
            if answer.shed:
                shed += 1
                if answer.confidence is Confidence.ANALYTIC:
                    analytic_shed += 1

        # Phase 3b: corrupt a shard, quarantine it, recover via replay.
        victim = next(
            name
            for name in service.registry.names()
            if service.shard_of(service.registry.get(name).machine) == 0
        )
        vrec = service.registry.get(victim)
        # Behind the service's back: the shard forgets the app...
        service.shards[0].apply({"op": "depart", "app": victim, "machine": vrec.machine})
        # ...so the next (legitimate) depart event desyncs the stream.
        service.apply({"op": "depart", "app": victim})
        quarantined = 0 in service.quarantined
        denied_early = service.recover(0)  # breaker still open: refused
        clock.advance(5.0)
        recovered = service.recover(0)
        replayed = FleetService(machines=machines, num_shards=4,
                                delay_comp=cal.delay_comp,
                                delay_comm=cal.delay_comm,
                                delay_comm_sized=cal.delay_comm_sized)
        for event in EventLog.replay(log.path):
            replayed.apply(event)
        identical = replayed.shards[0].state_hash() == service.shards[0].state_hash()
        log.close()

        counters = service.counters()
        return {
            "rounds": rounds,
            "equilibrium_rounds": equilibrium,
            "total_moves": sum(r["moves"] for r in rounds),
            "cost_first": rounds[0]["mean_cost"],
            "cost_last": rounds[-1]["mean_cost"],
            "shed": shed,
            "analytic_shed": analytic_shed,
            "raised": raised,
            "quarantined": int(quarantined),
            "recover_denied_while_open": int(not denied_early),
            "recovered": int(recovered),
            "replay_identical": int(identical),
            "registered": counters["registered"],
            "rebuilds_total": counters["rebuilds"],
        }

    data = _journal.point(
        "fleet.replacement",
        {
            "machines": int(machines),
            "events": int(events),
            "seed": int(seed),
            "quick": bool(quick),
        },
        run_point,
    )

    ctx = _obs.current()
    manifest = RunManifest.stamp(
        experiment="fleet",
        seed=seed,
        platform=platform_summary(spec),
        metrics=ctx.snapshot() if ctx is not None else MetricsSnapshot(),
        trace_id=ctx.tracer.trace_id if ctx is not None else "",
        extra={"machines": machines, "events": events, "quick": quick},
    )

    rows = [
        (r["round"], r["moves"], r["mean_cost"]) for r in data["rounds"]
    ]
    return ExperimentResult(
        experiment="fleet",
        title=(
            f"Selfish re-placement over {machines} machines "
            f"({data['registered']} apps): equilibrium in "
            f"{data['equilibrium_rounds']} rounds; overload shed "
            f"{data['shed']} queries without an error"
        ),
        headers=("round", "moves", "mean predicted cost"),
        rows=rows,
        metrics={
            "equilibrium_rounds": float(data["equilibrium_rounds"]),
            "total_moves": float(data["total_moves"]),
            "mean_cost_first_round": float(data["cost_first"]),
            "mean_cost_last_round": float(data["cost_last"]),
            "overload_shed": float(data["shed"]),
            "overload_shed_analytic": float(data["analytic_shed"]),
            "overload_raised": float(data["raised"]),
            "quarantined": float(data["quarantined"]),
            "recover_gated_by_breaker": float(data["recover_denied_while_open"]),
            "recovered": float(data["recovered"]),
            "replay_identical": float(data["replay_identical"]),
        },
        paper_claim=(
            "fleet extension (not in the paper): selfish re-placement driven by "
            "slowdown-adjusted predictions converges; overload sheds, never errors"
        ),
        manifest=manifest,
    )


def _journal_scratch_path() -> str:
    """Event-log scratch file for one driver run.

    Lives under the system temp dir, keyed by pid so concurrent runs
    cannot collide; the log is an execution artifact (the journal
    checkpoints the *results*), so reuse across runs is harmless — the
    constructor truncates.
    """
    import os
    import tempfile
    from pathlib import Path

    return str(Path(tempfile.gettempdir()) / f"repro-fleet-{os.getpid()}.jsonl")
