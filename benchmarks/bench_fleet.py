"""Fleet-service throughput: placement queries against a 100k-app registry.

The fleet service answers placement queries from memoized per-machine
tagged slowdowns (``repro.fleet.shard``), so query cost is independent
of how many applications are registered — only arrivals/departures pay
the O(p) distribution update, and only the machines they touch are
re-derived on the next query. These benches pin that contract down:

- ``test_fleet_query_throughput`` — the guarded hot path: placement
  queries with 32-machine candidate sets against a fleet holding
  100,000 registered applications on 256 machines. The service must
  sustain >= 10,000 queries/sec single-process (asserted, not just
  recorded).
- ``test_fleet_event_churn`` — the guarded arrive/depart path: the
  incremental O(p) add/remove updates plus registry bookkeeping. No
  event log is attached; fsync latency is a durability cost, not a
  kernel cost (``bench_simulator`` measures nothing it doesn't own
  either).
- ``test_fleet_supervised_workers`` — the full supervision tree: an
  event feed through >= 4 real shard worker processes (pipe protocol,
  heartbeats, supervision ticks), guarded both by median and by an
  events/sec floor (``REPRO_BENCH_FLEET_WORKERS_FLOOR``), with the end
  state checked bit-identical against an in-process oracle.
- ``test_fleet_million_apps`` — the struct-of-arrays scale proof: 1M
  registered apps across 2048 machines in one process, with the build's
  RSS growth asserted under a ceiling (``resource.getrusage``) and the
  query rate against the warm fleet asserted over a floor
  (``REPRO_BENCH_FLEET_1M_FLOOR``).
- ``test_fleet_batched_workers`` — the supervised feed with events
  coalesced into ``SupervisorPolicy.batch_size``-event frames; guarded
  by an events/sec floor (``REPRO_BENCH_FLEET_BATCHED_FLOOR``) set at
  4x the unbatched supervised floor, end state still bit-identical to
  the in-process oracle.
- ``test_fleet_bounded_respawn`` — a worker SIGKILLed mid-feed respawns
  from its heartbeat snapshot: guarded by the median respawn time and
  asserted by count — the journal events it replays are at most those
  admitted since the adopted snapshot plus one frame.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.fleet import (
    AdmissionController,
    FleetService,
    PlacementQuery,
    TenantQuota,
)

from conftest import run_once

#: The fleet the guarded benches query: 100k apps across 256 machines
#: (~390 apps/machine, so every per-machine distribution is a real
#: O(p) object, not a toy).
MACHINES = 256
APPS = 100_000
NUM_SHARDS = 8
QUERY_BATCH = 200
CANDIDATES_PER_QUERY = 32
CHURN_PAIRS = 50

_SERVICE: FleetService | None = None
_QUERIES: list[tuple[str, PlacementQuery]] | None = None


def _unmetered_admission() -> AdmissionController:
    """Admission that never sheds: these benches measure the served path."""
    return AdmissionController(
        default=TenantQuota(query_rate=1e9, query_burst=1e9, max_apps=10**9)
    )


def _populate(service: FleetService, apps: int, seed: int) -> None:
    """Register *apps* arrivals, deterministically spread over the fleet."""
    rng = np.random.default_rng(seed)
    machines = rng.integers(0, service.machines, size=apps)
    fractions = rng.uniform(0.05, 0.8, size=apps)
    sizes = rng.choice([64.0, 256.0, 1024.0], size=apps)
    for i in range(apps):
        admitted = service.apply(
            {
                "op": "arrive",
                "app": f"app-{i}",
                "tenant": f"tenant-{i % 8}",
                "machine": int(machines[i]),
                "comm_fraction": float(fractions[i]),
                "message_size": float(sizes[i]),
            }
        )
        assert admitted


def _fleet() -> FleetService:
    """The shared 100k-app service, built once and cache-warmed."""
    global _SERVICE
    if _SERVICE is None:
        service = FleetService(
            machines=MACHINES, num_shards=NUM_SHARDS, admission=_unmetered_admission()
        )
        _populate(service, APPS, seed=1234)
        # One full-fleet query derives every machine's tagged slowdowns,
        # so the timed region exercises the memoized steady state.
        service.query("warmup", PlacementQuery(dcomp_frontend=1.0))
        _SERVICE = service
    return _SERVICE


def _queries() -> list[tuple[str, PlacementQuery]]:
    global _QUERIES
    if _QUERIES is None:
        rng = np.random.default_rng(99)
        out = []
        for i in range(QUERY_BATCH):
            candidates = tuple(
                int(m)
                for m in rng.choice(MACHINES, size=CANDIDATES_PER_QUERY, replace=False)
            )
            out.append(
                (
                    f"tenant-{i % 8}",
                    PlacementQuery(
                        dcomp_frontend=1.0,
                        backend_dcomp=0.4,
                        backend_didle=0.1,
                        backend_dserial=0.2,
                        dcomm_out=0.05,
                        dcomm_in=0.05,
                        candidates=candidates,
                    ),
                )
            )
        _QUERIES = out
    return _QUERIES


def test_fleet_query_throughput(benchmark):
    service = _fleet()
    queries = _queries()

    def run() -> int:
        served = 0
        for tenant, query in queries:
            answer = service.query(tenant, query)
            served += not answer.shed
        return served

    assert benchmark(run) == len(queries)
    assert len(service.registry) == APPS
    rate = len(queries) / benchmark.stats.stats.median
    benchmark.extra_info["queries_per_sec"] = round(rate)
    assert rate >= 10_000, f"fleet query path sustained only {rate:.0f} queries/sec"


def test_fleet_event_churn(benchmark):
    service = _fleet()

    def run() -> int:
        before = service.admitted_events
        for i in range(CHURN_PAIRS):
            service.apply(
                {
                    "op": "arrive",
                    "app": f"churn-{i}",
                    "tenant": "churn",
                    "machine": i % MACHINES,
                    "comm_fraction": 0.3,
                    "message_size": 256.0,
                }
            )
        for i in range(CHURN_PAIRS):
            service.apply({"op": "depart", "app": f"churn-{i}"})
        return service.admitted_events - before

    assert benchmark(run) == 2 * CHURN_PAIRS
    assert len(service.registry) == APPS  # every round returns to baseline


# -- supervised worker processes ----------------------------------------------

SUPERVISED_WORKERS = 4
SUPERVISED_EVENTS = 1500
SUPERVISED_MACHINES = 64


def _floor(env: str, default: float) -> float:
    """Throughput floor for an acceptance assertion, overridable via *env*.

    Loaded CI hosts (or single-CPU runners, where every worker process
    shares one core with the parent) can depress the supervised event
    rate; the env var lets a constrained runner relax — or a dedicated
    box tighten — the floor without editing the benchmark.
    """
    raw = os.environ.get(env, "").strip()
    return float(raw) if raw else default


def test_fleet_supervised_workers(benchmark):
    """Event feed through >= 4 real worker processes, with heartbeats.

    Guarded: records the median wall-clock of pushing
    ``SUPERVISED_EVENTS`` events through a supervised fleet (one
    process per shard, pipe protocol, supervision ticks) and asserts a
    floor on events/sec (``REPRO_BENCH_FLEET_WORKERS_FLOOR``). Each
    round also checks the end state against an in-process oracle — a
    supervised fleet that is fast but wrong would still fail.
    """
    from repro.experiments.journal import EventLog
    from repro.fleet import SupervisedFleetService, synthetic_feed

    oracle = FleetService(
        machines=SUPERVISED_MACHINES,
        num_shards=SUPERVISED_WORKERS,
        admission=_unmetered_admission(),
    )
    for event in synthetic_feed(
        seed=71, events=SUPERVISED_EVENTS, machines=SUPERVISED_MACHINES
    ):
        oracle.apply(event)
    expected = oracle.state_hash()

    def run() -> str:
        with tempfile.TemporaryDirectory() as tmp:
            service = SupervisedFleetService(
                machines=SUPERVISED_MACHINES,
                num_shards=SUPERVISED_WORKERS,
                admission=_unmetered_admission(),
                log=EventLog(Path(tmp) / "bench.jsonl", sync=False),
            )
            try:
                for event in synthetic_feed(
                    seed=71, events=SUPERVISED_EVENTS, machines=SUPERVISED_MACHINES
                ):
                    service.apply(event)
                return service.state_hash()
            finally:
                service.close()

    assert run_once(benchmark, run) == expected
    rate = SUPERVISED_EVENTS / benchmark.stats.stats.median
    benchmark.extra_info["events_per_sec"] = round(rate)
    benchmark.extra_info["workers"] = SUPERVISED_WORKERS
    floor = _floor("REPRO_BENCH_FLEET_WORKERS_FLOOR", 500.0)
    assert rate >= floor, (
        f"supervised fleet sustained only {rate:.0f} events/sec across "
        f"{SUPERVISED_WORKERS} workers (floor {floor:g}/s, override with "
        f"$REPRO_BENCH_FLEET_WORKERS_FLOOR)"
    )


# -- bounded respawn from heartbeat snapshots ----------------------------------

BOUNDED_EVENTS = 6000
#: Events fed before a snapshot covering all of them is awaited, then
#: the events fed after it (the tail) before the SIGKILL.
BOUNDED_SNAPSHOT_AT = 4000
BOUNDED_KILL_AT = 5000
BOUNDED_VICTIM = 1
BOUNDED_FRAME = 32


def test_fleet_bounded_respawn(benchmark):
    """SIGKILL a worker mid-feed: the respawn replays only the tail.

    Runs before the 1M-app bench, whose fleet stays resident: a fork
    copies the parent's page tables, so the timed respawn would
    otherwise measure that fleet's size.

    Guarded by the median of the timed respawn — detection, fork,
    snapshot load and hash check, tail replay, verification — and
    asserted by count, deterministically: ``replay_events`` is at most
    the victim's events admitted since its adopted snapshot plus one
    frame, and below its whole history. After each respawn the rest of
    the feed goes through and the end state must match the in-process
    oracle bit for bit.
    """
    from repro.experiments.journal import EventLog
    from repro.fleet import SupervisedFleetService, synthetic_feed
    from repro.fleet.supervisor import SupervisorPolicy

    events = list(
        synthetic_feed(seed=73, events=BOUNDED_EVENTS, machines=SUPERVISED_MACHINES)
    )
    oracle = FleetService(
        machines=SUPERVISED_MACHINES,
        num_shards=SUPERVISED_WORKERS,
        admission=_unmetered_admission(),
    )
    for event in events:
        oracle.apply(event)
    expected = oracle.state_hash()
    opened: list[tuple[SupervisedFleetService, tempfile.TemporaryDirectory]] = []
    outcomes: list[tuple[bool, int, int, dict]] = []

    def setup() -> tuple[tuple, dict]:
        tmp = tempfile.TemporaryDirectory()
        service = SupervisedFleetService(
            machines=SUPERVISED_MACHINES,
            num_shards=SUPERVISED_WORKERS,
            admission=_unmetered_admission(),
            log=EventLog(Path(tmp.name) / "bench.jsonl", sync=False),
            supervisor=SupervisorPolicy(batch_size=BOUNDED_FRAME, heartbeat_interval=0.1),
        )
        opened.append((service, tmp))
        for event in events[:BOUNDED_SNAPSHOT_AT]:
            service.apply(event)
        deadline = time.monotonic() + 60.0
        while True:
            assert service.await_recovery(timeout=60.0)
            snapshot = service.worker_snapshot(BOUNDED_VICTIM)
            if (
                snapshot is not None
                and snapshot.count == service._stream_count[BOUNDED_VICTIM]
            ):
                break
            assert time.monotonic() < deadline, "no heartbeat snapshot was adopted"
            time.sleep(0.1)
        # Pin that snapshot (no further heartbeats) so every round
        # replays the same tail.
        service.supervisor = replace(service.supervisor, heartbeat_interval=3600.0)
        for event in events[BOUNDED_SNAPSHOT_AT:BOUNDED_KILL_AT]:
            service.apply(event)
        return (service,), {}

    def respawn(service: SupervisedFleetService) -> None:
        owned = service._stream_count[BOUNDED_VICTIM]
        since = owned - service.worker_snapshot(BOUNDED_VICTIM).count
        os.kill(service.worker_pid(BOUNDED_VICTIM), signal.SIGKILL)
        recovered = service.await_recovery(timeout=60.0)
        outcomes.append((recovered, since, owned, service.counters()))

    try:
        benchmark.pedantic(respawn, setup=setup, rounds=5, iterations=1)
        for service, _ in opened:
            for event in events[BOUNDED_KILL_AT:]:
                service.apply(event)
            assert service.state_hash() == expected
    finally:
        for service, tmp in opened:
            service.close()
            tmp.cleanup()
    for recovered, since, owned, counters in outcomes:
        assert recovered
        assert counters["respawns"] == 1
        assert counters["snapshot_loads"] == 1
        assert counters["recovery_mismatches"] == 0
        assert counters["replay_events"] <= since + BOUNDED_FRAME < owned, (
            f"respawn replayed {counters['replay_events']} events: more than the "
            f"{since} admitted since the snapshot plus one {BOUNDED_FRAME}-event frame"
        )
    benchmark.extra_info["replay_events"] = [c["replay_events"] for *_, c in outcomes]
    benchmark.extra_info["victim_history"] = outcomes[0][2]


# -- 1M-app struct-of-arrays scale proof --------------------------------------

MACHINES_1M = 2048
APPS_1M = 1_000_000
#: Ceiling on the RSS growth of building the 1M-app fleet. The pooled
#: array state itself is ~50 MiB (registry slots, shard matrices at
#: ~490 apps/machine, memo vectors); the rest is the two name→slot
#: dicts and the 1M name strings (~290 MiB measured total). The old
#: object-per-app layout (AppRecord + per-manager dict entries +
#: per-machine distribution arrays) blows well past this ceiling.
RSS_CEILING_1M_MB = 768.0

_SERVICE_1M: FleetService | None = None
_RSS_1M_BYTES: int | None = None


def _fleet_1m() -> tuple[FleetService, int]:
    """The shared 1M-app service plus the RSS growth its build cost."""
    global _SERVICE_1M, _RSS_1M_BYTES
    if _SERVICE_1M is None:
        import resource

        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        service = FleetService(
            machines=MACHINES_1M, num_shards=NUM_SHARDS, admission=_unmetered_admission()
        )
        _populate(service, APPS_1M, seed=4321)
        service.query("warmup", PlacementQuery(dcomp_frontend=1.0))
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _SERVICE_1M = service
        # ru_maxrss is KiB on Linux; peak-to-peak delta brackets the build.
        _RSS_1M_BYTES = (after - before) * 1024
    return _SERVICE_1M, _RSS_1M_BYTES


def test_fleet_million_apps(benchmark):
    """1M registered apps, one process: bounded memory, >= 10k queries/sec.

    Guarded twice: the build's RSS growth must stay under
    ``RSS_CEILING_1M_MB`` (override ``REPRO_BENCH_FLEET_1M_RSS_MB``),
    and the warm query path over the 1M-app fleet must clear the same
    10k queries/sec floor the 100k bench asserts
    (``REPRO_BENCH_FLEET_1M_FLOOR``) — query cost is memoized
    per-machine state, so population must not show up in the rate.
    """
    service, rss_bytes = _fleet_1m()
    rng = np.random.default_rng(77)
    queries = []
    for i in range(QUERY_BATCH):
        candidates = tuple(
            int(m)
            for m in rng.choice(MACHINES_1M, size=CANDIDATES_PER_QUERY, replace=False)
        )
        queries.append(
            (
                f"tenant-{i % 8}",
                PlacementQuery(
                    dcomp_frontend=1.0,
                    backend_dcomp=0.4,
                    backend_didle=0.1,
                    backend_dserial=0.2,
                    dcomm_out=0.05,
                    dcomm_in=0.05,
                    candidates=candidates,
                ),
            )
        )

    def run() -> int:
        served = 0
        for tenant, query in queries:
            answer = service.query(tenant, query)
            served += not answer.shed
        return served

    assert benchmark(run) == len(queries)
    assert len(service.registry) == APPS_1M
    rss_mb = rss_bytes / (1024 * 1024)
    ceiling = _floor("REPRO_BENCH_FLEET_1M_RSS_MB", RSS_CEILING_1M_MB)
    assert rss_mb <= ceiling, (
        f"building the 1M-app fleet grew RSS by {rss_mb:.0f} MiB "
        f"(ceiling {ceiling:g} MiB, override with $REPRO_BENCH_FLEET_1M_RSS_MB)"
    )
    rate = len(queries) / benchmark.stats.stats.median
    benchmark.extra_info["queries_per_sec"] = round(rate)
    benchmark.extra_info["apps"] = APPS_1M
    benchmark.extra_info["rss_mb"] = round(rss_mb)
    floor = _floor("REPRO_BENCH_FLEET_1M_FLOOR", 10_000.0)
    assert rate >= floor, (
        f"1M-app fleet sustained only {rate:.0f} queries/sec "
        f"(floor {floor:g}/s, override with $REPRO_BENCH_FLEET_1M_FLOOR)"
    )


# -- batched supervised frames -------------------------------------------------

BATCHED_EVENTS = 6000
BATCHED_FRAME = 32


def test_fleet_batched_workers(benchmark):
    """Supervised feed with 32-event frames: >= 4x the unbatched floor.

    Same supervision tree as ``test_fleet_supervised_workers``, but
    admitted events coalesce into ``SupervisorPolicy.batch_size``
    frames, so the per-event pipe round-trip amortizes across the
    frame. The floor (``REPRO_BENCH_FLEET_BATCHED_FLOOR``) is 4x the
    unbatched supervised floor, and the end state is still checked
    bit-identical against the in-process oracle every round.
    """
    from repro.experiments.journal import EventLog
    from repro.fleet import SupervisedFleetService, synthetic_feed
    from repro.fleet.supervisor import SupervisorPolicy

    oracle = FleetService(
        machines=SUPERVISED_MACHINES,
        num_shards=SUPERVISED_WORKERS,
        admission=_unmetered_admission(),
    )
    for event in synthetic_feed(
        seed=72, events=BATCHED_EVENTS, machines=SUPERVISED_MACHINES
    ):
        oracle.apply(event)
    expected = oracle.state_hash()

    def run() -> str:
        with tempfile.TemporaryDirectory() as tmp:
            service = SupervisedFleetService(
                machines=SUPERVISED_MACHINES,
                num_shards=SUPERVISED_WORKERS,
                admission=_unmetered_admission(),
                log=EventLog(Path(tmp) / "bench.jsonl", sync=False),
                supervisor=SupervisorPolicy(batch_size=BATCHED_FRAME),
            )
            try:
                for event in synthetic_feed(
                    seed=72, events=BATCHED_EVENTS, machines=SUPERVISED_MACHINES
                ):
                    service.apply(event)
                return service.state_hash()
            finally:
                service.close()

    assert run_once(benchmark, run) == expected
    rate = BATCHED_EVENTS / benchmark.stats.stats.median
    benchmark.extra_info["events_per_sec"] = round(rate)
    benchmark.extra_info["workers"] = SUPERVISED_WORKERS
    benchmark.extra_info["batch_size"] = BATCHED_FRAME
    floor = _floor("REPRO_BENCH_FLEET_BATCHED_FLOOR", 2000.0)
    assert rate >= floor, (
        f"batched supervised fleet sustained only {rate:.0f} events/sec "
        f"with {BATCHED_FRAME}-event frames (floor {floor:g}/s, override "
        f"with $REPRO_BENCH_FLEET_BATCHED_FLOOR)"
    )
