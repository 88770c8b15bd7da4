"""The fleet workloads: ``fleet_query`` and ``fleet_supervised``.

Each is one single-threaded closed-loop caller: it sends the next
operation only after the previous one returned. Inputs come from
``--seed`` alone and are generated before any timing; the program only
receives them. See ``perfbench/README.md`` for why each workload exists
and which layers it is meant to move.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from harness import (
    LatencySamples,
    MemoryGrowth,
    Result,
    WalFile,
    crash_image,
    inputs_digest,
    median,
)
from ledger import Ledger, Patches, iter_proxy, timing_proxy
from phases import Blocks, Clock, Tracing, prepare_measurement, untraced

from repro.core.batch import placement_grid
from repro.experiments import journal as _journal
from repro.experiments.journal import EventLog
from repro.fleet import (
    AdmissionController,
    ArrayShard,
    FleetRegistry,
    FleetService,
    PlacementQuery,
    ShardPolicy,
    SupervisedFleetService,
    SupervisorPolicy,
    TenantQuota,
    WorkerHandle,
    synthetic_feed,
)
from repro.fleet import service as _service
from repro.fleet import shard as _shard
from repro.parallel.containment import FailurePolicy

#: Fleet shape shared by the fleet workloads.
MACHINES = 256
TENANTS = 8
#: fleet_query: registered apps (~390 per machine) and the op mix.
QUERY_APPS = 100_000
QUERY_SHARDS = 8
QUERIES_PER_EVENT = 19
CANDIDATES = 32
QUERY_POOL = 4096
REGRADE_EVERY = 100
#: fleet_supervised: the feed prefix applied in set-up
#: (0.4 net arrivals per event at depart_probability=0.3, so ~25.6k
#: live apps, ~100 per machine).
DEPART_PROBABILITY = 0.3
PREFIX_EVENTS = 64_000
#: fleet_supervised: more events per second than the caller reaches
#: (about 15k on the development host): sizes the feed a run may use.
MAX_FEED_PER_S = 25_000
#: fleet_supervised: the worker is SIGKILLed after this many measured events.
SUPERVISED_KILL_AT = 10_000
FRAME_EVENTS = 32
#: Set-ups per run; setup_s is their median.
SETUPS = 2
#: fleet_query: log rebuilds per run; recovery_s is their median.
RECOVERIES = 2
#: Operations per latency window (see LatencySamples.summary_us).
WINDOW_OPS = 10_000
#: More operations per second than any fleet workload reaches (about
#: 24k on the development host): sizes the latency buffer allocated
#: before the memory baseline and fleet_query's churn stream.
MAX_OPS_PER_S = 50_000


def unmetered_admission() -> AdmissionController:
    """Admission that never sheds or refuses: the served path is measured."""
    return AdmissionController(
        default=TenantQuota(query_rate=1e12, query_burst=1e12, max_apps=10**9)
    )


def event_dict(event: tuple) -> dict[str, Any]:
    """A generated event tuple as the dict the service takes."""
    if len(event) == 2:
        return {"op": event[0], "app": event[1]}
    op, app, tenant, machine, frac, size = event
    return {
        "op": op,
        "app": app,
        "tenant": tenant,
        "machine": machine,
        "comm_fraction": frac,
        "message_size": size,
    }


def feed_tuples(seed: int, events: int, depart_probability: float) -> list[tuple]:
    """``synthetic_feed`` events, stored compactly as tuples."""
    return [
        (e["op"], e["app"], e["tenant"], e["machine"], e["comm_fraction"], e["message_size"])
        for e in synthetic_feed(
            seed=seed,
            events=events,
            machines=MACHINES,
            tenants=TENANTS,
            depart_probability=depart_probability,
        )
    ]


# -- inputs --------------------------------------------------------------------


@dataclass
class QueryInputs:
    """fleet_query: population, churn stream and a pool of query shapes."""

    population: list[tuple]
    churn: list[tuple]
    tenants: np.ndarray
    costs: np.ndarray
    candidates: np.ndarray

    @classmethod
    def generate(
        cls, seed: int, churn: int, apps: int = QUERY_APPS
    ) -> "QueryInputs":
        population = feed_tuples(seed, apps, depart_probability=0.0)
        rng = np.random.default_rng([seed, 1])
        live = [event[1] for event in population]
        events: list[tuple] = []
        for k in range(churn):
            if k % 2 == 0:
                name = f"churn-{k}"
                events.append(
                    (
                        "arrive",
                        name,
                        f"tenant-{int(rng.integers(TENANTS))}",
                        int(rng.integers(MACHINES)),
                        round(float(0.05 + 0.75 * rng.random()), 6),
                        float((64, 256, 1024, 2048)[int(rng.integers(4))]),
                    )
                )
                live.append(name)
            else:
                idx = int(rng.integers(len(live)))
                live[idx], live[-1] = live[-1], live[idx]
                events.append(("depart", live.pop()))
        tenants = rng.integers(TENANTS, size=QUERY_POOL)
        costs = rng.uniform(
            [0.5, 0.1, 0.0, 0.1, 0.0, 0.0], [2.0, 1.0, 0.2, 1.0, 0.5, 0.5], (QUERY_POOL, 6)
        )
        candidates = np.argsort(rng.random((QUERY_POOL, MACHINES)), axis=1)[:, :CANDIDATES]
        return cls(population, events, tenants, costs, candidates)

    def digest(self) -> str:
        return inputs_digest(
            self.population, self.churn, self.tenants, self.costs, self.candidates
        )

    def query(self, k: int) -> tuple[str, PlacementQuery]:
        """Query *k*: a fresh object every time, like a real caller's."""
        row = k % QUERY_POOL
        c = self.costs[row]
        return f"tenant-{int(self.tenants[row])}", PlacementQuery(
            dcomp_frontend=float(c[0]),
            backend_dcomp=float(c[1]),
            backend_didle=float(c[2]),
            backend_dserial=float(c[3]),
            dcomm_out=float(c[4]),
            dcomm_in=float(c[5]),
            candidates=tuple(self.candidates[row].tolist()),
        )


@dataclass
class FeedInputs:
    """fleet_supervised: one ``synthetic_feed`` stream."""

    feed: list[tuple]

    @classmethod
    def generate(cls, seed: int, events: int) -> "FeedInputs":
        return cls(feed_tuples(seed, events, DEPART_PROBABILITY))

    def digest(self) -> str:
        return inputs_digest(self.feed)


# -- tracing -------------------------------------------------------------------


def install_fleet(ledger: Ledger, patches: Patches, supervised: bool) -> None:
    """Proxies on the fleet's public entry points (write and query paths)."""
    t = timing_proxy
    root = SupervisedFleetService if supervised else FleetService
    patches.replace(root, "apply", lambda f: t(ledger, "fleet.service.apply", f))
    patches.replace(root, "query", lambda f: t(ledger, "fleet.service.query", f))
    patches.replace(
        AdmissionController, "admit_query", lambda f: t(ledger, "fleet.admission.admit_query", f)
    )
    patches.replace(
        AdmissionController, "admit_app", lambda f: t(ledger, "fleet.admission.admit_app", f)
    )
    patches.replace(EventLog, "append", lambda f: t(ledger, "journal.append", f))
    patches.replace(EventLog, "replay", lambda f: iter_proxy(ledger, "journal.replay", f))
    patches.replace(FleetRegistry, "add", lambda f: t(ledger, "fleet.registry.add", f))
    patches.replace(FleetRegistry, "remove", lambda f: t(ledger, "fleet.registry.remove", f))

    def shard_op(_self: Any, event: Any) -> str:
        return "fleet.shard.arrive" if event["op"] == "arrive" else "fleet.shard.depart"

    patches.replace(ArrayShard, "apply", lambda f: t(ledger, shard_op, f))

    def refreshed(args: tuple, _result: Any) -> None:
        ledger.counts["refresh.machines"] += len(args[1])

    patches.replace(
        ArrayShard,
        "slowdowns_batch",
        lambda f: t(ledger, "fleet.shard.slowdowns_batch", f, refreshed),
    )
    for module in (_service, _shard):
        patches.replace(
            module, "stream_step", lambda f: t(ledger, "fleet.shard.stream_step", f)
        )
    patches.replace(_shard, "add_application", lambda f: t(ledger, "core.probability.add", f))
    patches.replace(
        _shard, "remove_application", lambda f: t(ledger, "core.probability.remove", f)
    )

    def counted_fsync(f: Any) -> Any:
        def fsync(fd: int) -> None:
            if ledger.enabled:
                ledger.counts["fsync"] += 1
            f(fd)

        return fsync

    patches.replace(_journal.os, "fsync", counted_fsync)
    if not supervised:
        return
    patches.replace(
        SupervisedFleetService, "tick", lambda f: t(ledger, "fleet.supervisor.tick", f)
    )

    def acked(_args: tuple, result: Any) -> None:
        if result is None:
            return
        entry, response = result
        if entry.kind == "apply" and response[0] == "ok":
            ledger.counts["frames"] += 1
            ledger.counts["frame_events"] += response[1]

    patches.replace(
        WorkerHandle, "wait_ack", lambda f: t(ledger, "fleet.worker.wait_ack", f, acked)
    )
    patches.replace(
        WorkerHandle, "poll_ack", lambda f: t(ledger, "fleet.worker.poll_ack", f, acked)
    )


def refresh_share(ledger: Ledger) -> float:
    """Share of query spans with a ``slowdowns_batch`` span directly beneath."""
    query_id = ledger._ids.get("fleet.service.query")
    batch_id = ledger._ids.get("fleet.shard.slowdowns_batch")
    if query_id is None or batch_id is None:
        return 0.0
    refreshing = {ledger.parent[i] for i, n in enumerate(ledger.name_id) if n == batch_id}
    queries = [i for i, n in enumerate(ledger.name_id) if n == query_id]
    return sum(1 for q in queries if q in refreshing) / len(queries)


def report_layers(
    res: Result,
    tracing: Tracing,
    blocks: Blocks,
    service: FleetService,
    wal: WalFile,
    recovery: Ledger | None,
) -> None:
    """The fleet per-layer metrics from a traced run."""
    ledger = tracing.ledger
    us = ledger.mean_self_us
    counters = service.counters()
    res.metric("fleet.admission.admit_query_us", us("fleet.admission.admit_query"), "us")
    res.metric("fleet.admission.admit_app_us", us("fleet.admission.admit_app"), "us")
    res.metric("fleet.service.query_self_us", us("fleet.service.query"), "us")
    res.metric("fleet.service.apply_self_us", us("fleet.service.apply"), "us")
    attempts = counters["served_queries"] + counters["shed_queries"]
    attempts += counters["admitted_events"] + counters["rejected_events"]
    useful = counters["served_queries"] + counters["admitted_events"]
    res.metric("fleet.service.served_ratio", useful / attempts if attempts else 0.0, "ratio")
    refreshes = ledger.calls.get("fleet.shard.slowdowns_batch", 0)
    res.metric("fleet.shard.slowdowns_batch_us", us("fleet.shard.slowdowns_batch"), "us")
    res.metric(
        "fleet.shard.refresh_machines",
        ledger.counts["refresh.machines"] / refreshes if refreshes else 0.0,
        "count",
    )
    res.metric("fleet.query.refresh_share", refresh_share(ledger), "ratio")
    res.metric("fleet.shard.arrive_us", us("fleet.shard.arrive"), "us")
    res.metric("fleet.shard.depart_us", us("fleet.shard.depart"), "us")
    res.metric("fleet.shard.stream_step_us", us("fleet.shard.stream_step"), "us")
    res.metric(
        "fleet.shard.apps_per_machine", len(service.registry) / service.machines, "count"
    )
    res.metric("core.probability.add_us", us("core.probability.add"), "us")
    res.metric("core.probability.remove_us", us("core.probability.remove"), "us")
    res.metric("fleet.registry.add_us", us("fleet.registry.add"), "us")
    res.metric("fleet.registry.remove_us", us("fleet.registry.remove"), "us")
    appends = ledger.calls.get("journal.append", 0)
    res.metric("journal.append_us", us("journal.append"), "us")
    res.metric(
        "journal.fsyncs_per_event", ledger.counts["fsync"] / appends if appends else 0.0, "count"
    )
    res.metric(
        "journal.bytes_per_event", wal.size() / max(1, counters["admitted_events"]), "B"
    )
    if recovery is not None:
        items = recovery.counts["journal.replay.items"]
        replay = recovery.self_time["journal.replay"]
        res.metric(
            "journal.replay_us_per_event", replay / items * 1e6 if items else 0.0, "us"
        )
    applies = ledger.calls.get("fleet.service.apply", 0)
    ack_wait = ledger.total_time.get("fleet.worker.wait_ack", 0.0)
    ack_wait += ledger.total_time.get("fleet.worker.poll_ack", 0.0)
    res.metric("fleet.worker.ack_wait_us", ack_wait / applies * 1e6 if applies else 0.0, "us")
    frames = ledger.counts["frames"]
    res.metric("fleet.supervisor.tick_us", us("fleet.supervisor.tick"), "us")
    res.metric(
        "fleet.supervisor.events_per_frame",
        ledger.counts["frame_events"] / frames if frames else 0.0,
        "count",
    )
    res.metric(
        "trace.unattributed_share", ledger.unattributed_share(blocks.wall[True]), "ratio"
    )
    res.metric("trace.overhead_pct", blocks.overhead_pct(), "%")
    res.notes.append(
        f"traced blocks: {blocks.ops[True]} ops in {blocks.wall[True]:.3f} s; "
        f"untraced blocks: {blocks.ops[False]} ops in {blocks.wall[False]:.3f} s"
    )
    res.ledgers["measured"] = ledger
    if recovery is not None:
        res.ledgers["recovery"] = recovery


def report_e2e(
    res: Result,
    setups: list[float],
    ops: int,
    elapsed: float,
    latency: LatencySamples,
    samples: str,
    recovery: float,
    recovery_note: str,
    rss_mb: float,
) -> None:
    """The end-to-end metrics of an untraced fleet run."""
    p50, p99, n, windows, beyond = latency.summary_us(WINDOW_OPS)
    res.metric("setup_s", median(setups), "s", f"median of {len(setups)} set-ups")
    res.metric("ops_per_s", ops / elapsed, "1/s", f"{ops} operations in {elapsed:.3f} s")
    res.metric(
        "latency_p50_us", p50, "us",
        f"median of the medians of {windows} consecutive windows of {n} {samples} samples",
    )
    res.metric(
        "latency_p99_us", p99, "us",
        f"median of the p99s of the same {windows} windows, >= {beyond} samples beyond each",
    )
    res.metric("recovery_s", recovery, "s", recovery_note)
    res.metric("peak_rss_mb", rss_mb, "MB")


# -- in-process service: set-up and recovery ----------------------------------------


def make_fleet(log: EventLog | None) -> FleetService:
    return FleetService(
        machines=MACHINES,
        num_shards=QUERY_SHARDS,
        admission=unmetered_admission(),
        log=log,
    )


def setup_inprocess(
    res: Result,
    name: str,
    events: list[tuple],
    repeats: int,
    warm: bool,
) -> tuple[FleetService, EventLog, WalFile, list[float]]:
    """Build the starting state *repeats* times; keep the last, time each."""
    setups: list[float] = []
    log = wal = None
    for k in range(repeats):
        if log is not None:
            log.close()
            wal.close()
            service = None
        wal = WalFile(f"{name}-{k}")
        prepare_measurement()
        t0 = time.perf_counter()
        log = EventLog(wal.path, sync=True)
        service = make_fleet(log)
        for event in events:
            service.apply(event_dict(event))
        if warm:
            # One full-fleet query derives every machine's slowdowns: the
            # measured phase starts from the memoized steady state.
            service.query("warmup", PlacementQuery(dcomp_frontend=1.0))
        setups.append(time.perf_counter() - t0)
    rejected = service.counters()["rejected_events"]
    res.check(rejected == 0, f"{rejected} set-up events rejected")
    return service, log, wal, setups


def rebuild_from_log(path: str) -> tuple[FleetService, EventLog, str]:
    """The ``soak --resume`` recipe: replay the durable log through ``apply``."""
    log = EventLog(path, resume=True, sync=True)
    service = make_fleet(log)
    service.log = None
    for event in EventLog.replay(path):
        service.apply(event)
    service.log = log
    return service, log, service.state_hash()


def timed_rebuild(
    res: Result, image: WalFile, expected: str, trace: bool
) -> tuple[float, int, Ledger | None]:
    """Rebuild from a crash image, verified: ``(seconds, events, ledger)``."""
    tracing = Tracing(lambda l, p: install_fleet(l, p, supervised=False)) if trace else None
    prepare_measurement()
    if tracing is not None:
        tracing.start()
    t0 = time.perf_counter()
    rebuilt, log, digest = rebuild_from_log(image.path)
    seconds = time.perf_counter() - t0
    if tracing is not None:
        tracing.stop()
    res.check(digest == expected, "log-rebuilt state differs from the logged state")
    log.close()
    image.close()
    replayed = rebuilt.counters()["admitted_events"]
    return seconds, replayed, tracing.ledger if tracing is not None else None


# -- fleet_query ---------------------------------------------------------------------


def regrade(service: FleetService, query: PlacementQuery, answer: Any) -> bool:
    """Re-score *answer* through the public ``placement_grid`` kernel.

    Uses the shards' memoized slowdowns for the query's candidates (the
    values the service just served) and demands the same machine and a
    bitwise-equal best time.
    """
    by_shard: dict[int, list[int]] = {}
    for machine in query.candidates:
        by_shard.setdefault(service.shard_of(machine), []).append(machine)
    slow: dict[int, tuple] = {}
    for sid, machines in by_shard.items():
        slow.update(service.shards[sid].slowdowns_batch(machines))
    grid = placement_grid(
        query.dcomp_frontend,
        query.backend_dcomp,
        query.backend_didle,
        query.backend_dserial,
        query.dcomm_out,
        query.dcomm_in,
        np.array([slow[m][0] for m in query.candidates]),
        np.array([slow[m][1] for m in query.candidates]),
    )
    best = int(np.argmin(grid.best_time))
    return (
        query.candidates[best] == answer.machine
        and float(grid.best_time[best]).hex() == float(answer.best_time).hex()
    )


def fleet_query(seed: int, seconds: float, trace: bool) -> Result:
    res = Result("fleet_query")
    inputs = QueryInputs.generate(
        seed, churn=int(seconds * MAX_OPS_PER_S) // (QUERIES_PER_EVENT + 1) + 1
    )
    res.inputs_hash = inputs.digest()
    latency = LatencySamples(int(seconds * MAX_OPS_PER_S))
    memory = MemoryGrowth()
    service, log, wal, setups = setup_inprocess(
        res, "fleet-query", inputs.population, 1 if trace else SETUPS, warm=True
    )
    # Recovery rebuilds the log as set-up left it, so its work does not
    # depend on how many churn events the measured phase admitted.
    setup_image = crash_image(wal, "fleet-query-setup")
    setup_hash = service.state_hash()
    tracing = Tracing(lambda l, p: install_fleet(l, p, supervised=False)) if trace else None
    prepare_measurement()
    clock = Clock()
    blocks = Blocks(clock, tracing)
    queries = events = mismatches = 0
    before = service.counters()
    while clock.elapsed() < seconds and events < len(inputs.churn):
        for _ in range(QUERIES_PER_EVENT):
            tenant, query = inputs.query(queries)
            if tracing is not None:
                tracing.ledger.request_id += 1
            t0 = time.perf_counter_ns()
            answer = service.query(tenant, query)
            latency.add(time.perf_counter_ns() - t0)
            queries += 1
            blocks.done()
            if queries % REGRADE_EVERY == 0:
                with clock.pause(), untraced(tracing):
                    mismatches += not regrade(service, query, answer)
        if tracing is not None:
            tracing.ledger.request_id += 1
        service.apply(event_dict(inputs.churn[events]))
        events += 1
        blocks.done()
    elapsed = clock.elapsed()
    blocks.finish()
    res.check(events < len(inputs.churn), "the churn stream ran out before the time box")
    # Read before the recovery, whose rebuilt service lives beside this one.
    rss_mb = memory.peak_mb()
    after = service.counters()
    failed = mismatches
    for key in ("shed_queries", "degraded_queries", "rejected_events"):
        failed += after[key] - before[key]
    res.attempted = queries + events
    res.failed = failed
    res.check(mismatches == 0, f"{mismatches} answers differ from placement_grid")
    res.check(failed == 0, f"{failed} shed, degraded, rejected or wrong operations")
    recoveries = []
    for _ in range(1 if trace else RECOVERIES):
        image = crash_image(setup_image, "fleet-query-crash")
        seconds_taken, replayed, recovery_ledger = timed_rebuild(res, image, setup_hash, trace)
        recoveries.append(seconds_taken)
    setup_image.close()
    if trace:
        report_layers(res, tracing, blocks, service, wal, recovery_ledger)
    else:
        res.notes.append(f"{queries} queries + {events} churn events")
        report_e2e(
            res, setups, queries + events, elapsed, latency, "query", median(recoveries),
            f"median of {len(recoveries)} rebuilds of {replayed} logged events, hash verified",
            rss_mb,
        )
    log.close()
    wal.close()
    return res


# -- fleet_supervised ------------------------------------------------------------------


def make_supervised(log: EventLog) -> SupervisedFleetService:
    """One shard worker, frames of 32 events, the soak's supervision settings."""
    return SupervisedFleetService(
        machines=MACHINES,
        num_shards=1,
        admission=unmetered_admission(),
        policy=ShardPolicy(failure_threshold=1, recovery_time=0.2),
        log=log,
        supervisor=SupervisorPolicy(
            heartbeat_interval=1.0,
            heartbeat_timeout=4.0,
            batch_size=FRAME_EVENTS,
            containment=FailurePolicy(deadline=2.0),
        ),
        start_method="fork",
    )


def kill_and_recover(
    service: SupervisedFleetService, tracing: Tracing | None
) -> tuple[float | None, float | None]:
    """SIGKILL the worker; tick until quarantined, then await recovery.

    ``await_recovery`` called straight after the kill can return before
    the death is noticed (the dead worker still reads as live with an
    empty window), so detection is driven explicitly first and timed on
    its own: ``(detect_s, replay_s)``, None where it never happened.
    """
    traced = tracing is not None and tracing.on
    if traced:
        tracing.stop()  # the respawned worker must not fork with proxies in place
    try:
        t0 = time.perf_counter()
        os.kill(service.worker_pid(0), signal.SIGKILL)
        while 0 not in service.quarantined:
            service.tick(force=True)
            if time.perf_counter() - t0 > 30.0:
                return None, None
        t1 = time.perf_counter()
        recovered = service.await_recovery(timeout=120.0)
        t2 = time.perf_counter()
        return t1 - t0, (t2 - t1 if recovered else None)
    finally:
        if traced:
            tracing.start()


def fleet_supervised(seed: int, seconds: float, trace: bool) -> Result:
    res = Result("fleet_supervised")
    inputs = FeedInputs.generate(seed, PREFIX_EVENTS + int(seconds * MAX_FEED_PER_S))
    res.inputs_hash = inputs.digest()
    latency = LatencySamples(int(seconds * MAX_OPS_PER_S))
    memory = MemoryGrowth()
    setups: list[float] = []
    service = log = wal = None
    try:
        for k in range(1 if trace else SETUPS):
            if service is not None:
                service.close()
                log.close()
                wal.close()
                service = None
            wal = WalFile(f"fleet-supervised-{k}")
            prepare_measurement()
            t0 = time.perf_counter()
            log = EventLog(wal.path, sync=True)
            service = make_supervised(log)
            worker_memory = MemoryGrowth(service.worker_pid(0))
            for event in inputs.feed[:PREFIX_EVENTS]:
                service.apply(event_dict(event))
            # Set-up ends when the worker has applied every frame.
            drained = service.await_recovery(timeout=120.0)
            setups.append(time.perf_counter() - t0)
            res.check(drained, "the worker never drained the set-up feed")
        _supervised_measure(
            res, inputs, service, wal, setups, seconds, trace, latency, memory, worker_memory
        )
        return res
    finally:
        if service is not None:
            service.close()
        if log is not None:
            log.close()
        if wal is not None:
            wal.close()


def _supervised_measure(
    res: Result,
    inputs: FeedInputs,
    service: SupervisedFleetService,
    wal: WalFile,
    setups: list[float],
    seconds: float,
    trace: bool,
    latency: LatencySamples,
    memory: MemoryGrowth,
    worker_memory: MemoryGrowth,
) -> None:
    tracing = Tracing(lambda l, p: install_fleet(l, p, supervised=True)) if trace else None
    prepare_measurement()
    clock = Clock()
    blocks = Blocks(clock, tracing)
    applied = refused = 0
    detect = replay = None
    rss_mb = 0.0
    position = PREFIX_EVENTS
    while (clock.elapsed() < seconds or applied <= SUPERVISED_KILL_AT) and position < len(
        inputs.feed
    ):
        event = event_dict(inputs.feed[position])
        position += 1
        if tracing is not None:
            tracing.ledger.request_id += 1
        t0 = time.perf_counter_ns()
        ok = service.apply(event)
        latency.add(time.perf_counter_ns() - t0)
        applied += 1
        refused += not ok
        blocks.done()
        if applied == SUPERVISED_KILL_AT:
            # Every event sent so far is applied, inside the timed window,
            # before the worker dies with an empty in-flight window.
            res.check(service.await_recovery(timeout=120.0), "the worker never drained")
            with clock.pause():
                # Memory is read at this fixed point of the feed (the live
                # state grows with every event) for the parent, the killed
                # worker, and the respawn, which forks from this parent and
                # shares its pages, once it has replayed the journal.
                killed_mb = worker_memory.peak_mb()
                prepare_measurement()
                fork_base = MemoryGrowth().base_kib
                detect, replay = kill_and_recover(service, tracing)
                if replay is not None:
                    respawned = MemoryGrowth(service.worker_pid(0), fork_base)
                    rss_mb = memory.peak_mb() + max(killed_mb, respawned.peak_mb())
    # Operations count once the worker has applied them: drain the window.
    res.check(service.await_recovery(timeout=120.0), "the worker never drained")
    elapsed = clock.elapsed()
    blocks.finish()
    final_hash = service.state_hash()
    counters = service.counters()
    service.close()
    oracle = ArrayShard(0, range(MACHINES))
    for event in inputs.feed[:position]:
        oracle.apply(event_dict(event))
    res.attempted = applied
    res.failed = refused
    res.check(counters["rejected_events"] == 0, f"{counters['rejected_events']} events rejected")
    res.check(final_hash == oracle.state_hash(), "final state differs from the in-process oracle")
    for key, want in (("respawns", 1), ("recovery_mismatches", 0), ("heartbeats_missed", 0)):
        res.check(counters[key] == want, f"{key} = {counters[key]}, expected {want}")
    res.check(
        position < len(inputs.feed), "the pre-generated feed ran out before the time box"
    )
    if detect is None or replay is None:
        res.check(False, "the killed worker was never detected or never recovered")
        return
    if trace:
        report_layers(res, tracing, blocks, service, wal, None)
        res.metric("fleet.supervisor.detect_s", detect, "s")
        res.metric("fleet.supervisor.replay_s", replay, "s")
        res.metric("fleet.supervisor.replay_events", counters["replay_events"], "count")
    else:
        report_e2e(
            res, setups, applied, elapsed, latency, "apply", detect + replay,
            f"detect {detect:.4f} s + respawn and replay {replay:.3f} s of "
            f"{counters['replay_events']} events",
            rss_mb,
        )
        res.notes.append(
            f"peak_rss_mb: parent growth after the inputs + the larger worker's "
            f"growth after its fork, at the kill ({SUPERVISED_KILL_AT} measured events)"
        )
