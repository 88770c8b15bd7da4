"""Fleet soak driver: churn a service, survive kills, prove identity.

``python -m repro.fleet.soak`` streams the deterministic
:func:`~repro.fleet.registry.synthetic_feed` through a fleet service
backed by a durable :class:`~repro.experiments.journal.EventLog`, then
prints the service's :meth:`~repro.fleet.service.FleetService.state_hash`.

The modes compose into the recovery proofs (used by both
``scripts/smoke.sh`` and ``tests/fleet/test_recovery.py`` /
``tests/fleet/test_supervisor.py``):

* plain run — feed N events, print the hash: the uninterrupted oracle;
* ``--kill-at K`` — SIGKILL *this process* (no cleanup, no atexit)
  right after event K is durably applied: the mid-stream crash;
* ``--resume`` — rebuild the service by replaying the event log, then
  continue the *same* synthetic feed from the first event the log
  never saw, to the same N: the recovered run;
* ``--supervised`` — run shards in worker processes under the
  supervision tree (:class:`~repro.fleet.supervisor
  .SupervisedFleetService`);
* ``--kill-worker-at K`` — SIGKILL a single shard *worker* (not the
  whole process) after event K; the run must complete anyway, with
  the respawned shard bit-identical to an uninterrupted run;
* ``--chaos sigkill@A,hang@B,raise@C`` — seeded worker-fault schedule
  (targets rotate across shards). After each injected fault the driver
  waits for the quarantine to surface and *asserts* that a placement
  query against the dead shard's machines is answered — ANALYTIC, not
  an exception. The service never raising, the failover answers, and
  the final bit-identity are all checked in-process, so a passing exit
  code is the chaos proof.

Because the feed is a pure function of its seed, the log preserves
exactly the admitted prefix, and every shard's state is a pure
function of its slice of the stream, the final hash of any recovered
or supervised run must equal the uninterrupted oracle's **bit for
bit** — any drift in replay, feed fast-forward, worker failover, or
the incremental probability updates shows up here.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from pathlib import Path

from ..experiments.journal import EventLog
from ..parallel.containment import FailurePolicy
from ..reliability.degrade import Confidence
from .admission import AdmissionController, TenantQuota
from .registry import synthetic_feed
from .service import FleetService, PlacementQuery
from .shard import ShardPolicy
from .supervisor import SupervisedFleetService, SupervisorPolicy

__all__ = ["main", "run_soak", "parse_chaos"]

#: Worker-fault kinds the ``--chaos`` schedule understands.
CHAOS_KINDS = ("sigkill", "exit", "hang", "raise")


def parse_chaos(spec: str, shards: int) -> list[tuple[int, str, int]]:
    """``"sigkill@120,hang@200"`` → sorted ``[(at, kind, shard), ...]``.

    Target shards rotate round-robin over the schedule order, so a
    three-fault spec exercises three different workers.
    """
    out: list[tuple[int, str, int]] = []
    index = 0
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        kind, sep, at = part.partition("@")
        kind = kind.strip()
        if not sep or kind not in CHAOS_KINDS:
            raise ValueError(
                f"chaos entry must be kind@event with kind in {CHAOS_KINDS}, "
                f"got {part!r}"
            )
        out.append((int(at), kind, index % shards))
        index += 1
    out.sort()
    return out


def _probe(service: SupervisedFleetService, sid: int) -> None:
    """Assert a query against quarantined shard *sid* answers — ANALYTIC."""
    candidates = tuple(range(sid, service.machines, service.num_shards))
    answer = service.query(
        "chaos-probe", PlacementQuery(dcomp_frontend=1.0, candidates=candidates)
    )
    if answer.confidence != Confidence.ANALYTIC:
        raise AssertionError(
            f"query against quarantined shard {sid} came back "
            f"{answer.confidence!r}, expected ANALYTIC"
        )


def run_soak(
    log_path: str,
    events: int,
    machines: int = 16,
    shards: int = 4,
    tenants: int = 4,
    seed: int = 7,
    kill_at: int | None = None,
    resume: bool = False,
    supervised: bool = False,
    chaos: list[tuple[int, str, int]] | None = None,
    depart_probability: float = 0.35,
    sync: bool = True,
    batch_size: int = 1,
) -> FleetService:
    """Drive one soak run; returns the service at its final state."""
    log = EventLog(log_path, resume=resume, sync=sync)
    # Soak populations may dwarf the default per-tenant cap; the soak
    # measures recovery, not quota enforcement.
    admission = AdmissionController(default=TenantQuota(max_apps=10**9))
    if supervised:
        service: FleetService = SupervisedFleetService(
            machines=machines,
            num_shards=shards,
            admission=admission,
            policy=ShardPolicy(failure_threshold=1, recovery_time=0.2),
            log=log,
            supervisor=SupervisorPolicy(
                heartbeat_interval=1.0,
                heartbeat_timeout=4.0,
                batch_size=batch_size,
                containment=FailurePolicy(deadline=2.0),
            ),
        )
    else:
        service = FleetService(
            machines=machines, num_shards=shards, admission=admission, log=log
        )
    start = 0
    if resume:
        # Rebuild from the durable prefix: replay through the same
        # apply path, without re-logging.
        service.log = None
        for event in EventLog.replay(log_path):
            service.apply(event)
        service.log = log
        start = log.next_seq
    schedule = list(chaos or [])
    probes_pending: set[int] = set()
    probes_fired = 0
    feed = synthetic_feed(
        seed=seed,
        events=events - start,
        machines=machines,
        tenants=tenants,
        depart_probability=depart_probability,
        start_seq=start,
    )
    for i, event in enumerate(feed, start=start):
        if not service.submit(event):
            service.pump()
            service.submit(event)
        service.pump()
        while schedule and i + 1 >= schedule[0][0]:
            _, kind, sid = schedule.pop(0)
            assert isinstance(service, SupervisedFleetService)
            if kind == "sigkill":
                pid = service.worker_pid(sid)
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
            else:
                service.inject_fault(sid, kind, after=1)
            probes_pending.add(sid)
        if probes_pending and isinstance(service, SupervisedFleetService):
            for sid in sorted(probes_pending & service.quarantined):
                _probe(service, sid)
                probes_pending.discard(sid)
                probes_fired += 1
        if kill_at is not None and i + 1 >= kill_at:
            # A real crash: no flush, no atexit, no goodbye.
            os.kill(os.getpid(), signal.SIGKILL)
    service.pump()
    if isinstance(service, SupervisedFleetService):
        # Late faults may surface after the feed ends: keep supervising
        # until every pending quarantine has been probed, then demand
        # full recovery before the caller reads the state hash.
        deadline = time.monotonic() + 60.0
        while probes_pending and time.monotonic() < deadline:
            service.tick(force=True)
            for sid in sorted(probes_pending & service.quarantined):
                _probe(service, sid)
                probes_pending.discard(sid)
                probes_fired += 1
            time.sleep(0.01)
        if probes_pending:
            raise AssertionError(
                f"faults against shards {sorted(probes_pending)} never "
                f"surfaced as quarantines"
            )
        if not service.await_recovery(timeout=120.0):
            states = [service.worker_state(s) for s in range(service.num_shards)]
            raise AssertionError(f"fleet never fully recovered: {states}")
        expected = len(chaos or [])
        if probes_fired < expected:
            raise AssertionError(
                f"only {probes_fired} of {expected} chaos probes fired"
            )
    return service


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log", required=True, help="event-log path")
    parser.add_argument("--events", type=int, default=400)
    parser.add_argument("--machines", type=int, default=16)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--kill-at", type=int, default=None, help="SIGKILL self after this many events"
    )
    parser.add_argument(
        "--resume", action="store_true", help="replay the log before continuing"
    )
    parser.add_argument(
        "--supervised",
        action="store_true",
        help="run shards in worker processes under the supervision tree",
    )
    parser.add_argument(
        "--kill-worker-at",
        type=int,
        default=None,
        help="SIGKILL one shard worker after this many events (implies --supervised)",
    )
    parser.add_argument(
        "--kill-shard",
        type=int,
        default=1,
        help="shard whose worker --kill-worker-at targets",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        help="worker-fault schedule, e.g. sigkill@100,hang@200,raise@300 "
        "(implies --supervised; targets rotate across shards)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=int(os.environ.get("REPRO_FLEET_BATCH", "1")),
        help="events coalesced into one supervised-worker apply frame "
        "(env REPRO_FLEET_BATCH; 1 = one message per event)",
    )
    parser.add_argument(
        "--depart-prob",
        type=float,
        default=0.35,
        help="synthetic-feed departure probability (0 grows a pure population)",
    )
    parser.add_argument(
        "--no-sync",
        action="store_true",
        help="skip per-append fsync on the event log (worker-kill chaos "
        "does not need it: the logging process survives)",
    )
    parser.add_argument(
        "--state-out", default=None, help="write the final state hash to this file"
    )
    args = parser.parse_args(argv)
    supervised = args.supervised or args.chaos is not None or args.kill_worker_at is not None
    chaos = parse_chaos(args.chaos, args.shards) if args.chaos else []
    if args.kill_worker_at is not None:
        chaos.append((args.kill_worker_at, "sigkill", args.kill_shard % args.shards))
        chaos.sort()
    service = run_soak(
        log_path=args.log,
        events=args.events,
        machines=args.machines,
        shards=args.shards,
        tenants=args.tenants,
        seed=args.seed,
        kill_at=args.kill_at,
        resume=args.resume,
        supervised=supervised,
        chaos=chaos,
        depart_probability=args.depart_prob,
        sync=not args.no_sync,
        batch_size=args.batch_size,
    )
    digest = service.state_hash()
    counters = service.counters()
    if args.state_out:
        Path(args.state_out).write_text(digest + "\n", encoding="utf-8")
    print(digest)
    line = (
        f"admitted={counters['admitted_events']} "
        f"registered={counters['registered']} "
        f"rebuilds={counters['rebuilds']}"
    )
    if supervised:
        line += (
            f" respawns={counters['respawns']}"
            f" worker_failures={counters['worker_failures']}"
            f" heartbeats_missed={counters['heartbeats_missed']}"
            f" replay_events={counters['replay_events']}"
            f" snapshot_loads={counters['snapshot_loads']}"
            f" snapshot_rejects={counters['snapshot_rejects']}"
            f" failover_answers={counters['failover_answers']}"
            f" recovery_mismatches={counters['recovery_mismatches']}"
        )
    print(line, file=sys.stderr)
    service.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
