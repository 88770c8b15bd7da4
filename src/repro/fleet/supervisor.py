"""Supervision tree: shard workers, heartbeats, failover, respawn.

:class:`SupervisedFleetService` is the :class:`~repro.fleet.service
.FleetService` with every shard moved into its own worker process
(:mod:`repro.fleet.worker`). The service keeps its whole robustness
contract — admission first, write-ahead log, shedding over failing —
and adds a supervision tree over the workers:

* **Heartbeats and request deadlines.** Every in-flight request
  carries a deadline (reusing
  :class:`~repro.parallel.containment.FailurePolicy` for the apply
  path); idle workers are pinged on ``heartbeat_interval`` and a pong
  overdue past ``heartbeat_timeout`` is a missed heartbeat. Either
  way the worker is failed: killed, quarantined (through the shard's
  :class:`~repro.reliability.breaker.CircuitBreaker`), and respawned
  when the breaker re-admits an attempt.
* **Journal-backed respawn.** A respawned worker replays the durable
  :class:`~repro.experiments.journal.EventLog` in catch-up rounds: a
  first round up to the sequence number current at respawn time, then
  shrinking delta rounds over whatever the feed logged while the
  previous round ran, until a verified round leaves nothing uncovered.
  Each round reports the cumulative replayed count, the rolling stream
  chain, and whether it reproduced the pre-quarantine checkpoint (the
  last heartbeat's ``(applied, state_hash)``). Only a bit-identical
  rebuild is re-admitted; anything else surfaces as a
  :class:`~repro.errors.RecoveryError` and the shard stays
  quarantined. While a worker replays, its slice receives no applies —
  the journal covers them — so a long replay cannot trip its own
  backpressure.
* **Heartbeat snapshots.** A hashed heartbeat also asks the worker to
  stream its shard into one of two snapshot slots per shard; the pong
  that reports the applied count recorded at send time adopts it,
  together with the stream count, chain, log offset and sequence number
  it covers. The first respawn round then loads the adopted slot,
  checks its ``state_hash`` against that pong's and replays only the
  journal tail from the recorded offset, so respawn costs load +
  verify + tail instead of the whole history. A snapshot that fails
  any check is counted (``fleet.snapshot_rejects``) and the round
  falls back to the full replay.
* **Failover answers.** While a shard is dead or replaying, queries
  touching its machines are answered from the registry's analytic
  aggregates (``p + 1``, ``1 + Σ f_k``) at ANALYTIC confidence —
  ``query()`` never blocks on a dead worker.
* **Cross-process backpressure.** Each worker has a bounded in-flight
  window (a :class:`~repro.fleet.admission.BoundedQueue` of pending
  acknowledgements). A full window first gets a short soft wait (the
  parent yields so a merely-busy worker can drain), then the worker is
  failed: its load is shed to the analytic path and the journal replay
  catches it up later, instead of one slow worker stalling the event
  feed for its siblings.
* **Batched frames.** Admitted events are coalesced per shard into
  bounded ``("apply", [events])`` frames (``SupervisorPolicy
  .batch_size``), acknowledged once per frame. Partial frames flush on
  every sweep and before any request whose answer must observe them —
  slowdowns, state hash, chaos injection — so acks, heartbeat
  checkpoints, stream accounting and replay verification all operate
  on frame boundaries and the respawn machinery is unchanged.

The supervisor is single-threaded: all of the above happens inside
:meth:`SupervisedFleetService.tick`, which runs (rate-limited by
``tick_interval``) at the top of every ``apply()`` and ``query()`` and
can be driven explicitly (``tick(force=True)``,
:meth:`await_recovery`). No background threads, no signals — the same
deterministic, inspectable control flow as the rest of the package.

Timing note: deadlines compare the injected service clock against
itself, but ticks happen only when the service is entered, so wall
clocks (the default) are the intended configuration; the in-process
:class:`~repro.fleet.service.FleetService` remains the
fake-clock-friendly variant for unit tests.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import astuple, dataclass, field, replace
from multiprocessing.connection import wait as wait_ready
from typing import Any, Callable, Mapping, Sequence

from ..core.params import DelayTable, SizedDelayTable
from ..errors import RecoveryError
from ..obs import context as _obs
from ..parallel.containment import FailurePolicy
from ..reliability.degrade import Confidence
from .admission import AdmissionController
from .service import FleetService, PlacementAnswer, PlacementQuery
from .shard import ReplayCheckpoint, ShardPolicy, replay_stream
from .worker import (
    FAULT_KINDS,
    PendingRequest,
    SnapshotSlot,
    WorkerHandle,
    WorkerUnavailable,
)

__all__ = ["SupervisorPolicy", "SupervisedFleetService", "ShardSnapshot"]

#: Response tag each request kind must be answered with (FIFO pipes
#: make the match positional; anything else is a protocol desync).
_EXPECTED_ACK = {
    "apply": "ok",
    "ping": "pong",
    "replay": "replayed",
    "slowdowns": "slowdowns",
    "hash": "hash",
    "inject": "ok",
    "shutdown": "ok",
}


@dataclass(frozen=True)
class ShardSnapshot:
    """A heartbeat snapshot and the stream prefix it covers.

    Recorded when the snapshot-bearing ping is sent — the shard's
    admitted-event count and stream chain, and the log's byte offset
    and next sequence number — and completed with the pong's
    ``state_hash`` on adoption. Pending frames are flushed before the
    ping and the pipe is FIFO, so the worker snapshots exactly this
    prefix.
    """

    slot: int
    count: int
    chain: bytes
    offset: int
    seq: int
    state_hash: str = ""


@dataclass(frozen=True)
class SupervisorPolicy:
    """Supervision-tree parameters for :class:`SupervisedFleetService`.

    Attributes
    ----------
    heartbeat_interval:
        Seconds between pings to an idle live worker.
    heartbeat_timeout:
        Seconds a ping may stay unanswered before it counts as a
        missed heartbeat (and fails the worker).
    heartbeat_hash:
        Ask for the worker's ``state_hash`` with each ping. The
        ``(applied, hash)`` pair becomes the pre-quarantine checkpoint
        a later replay must reproduce mid-stream, and the heartbeat
        carries the shard snapshot a respawn resumes from; turning it
        off trades that verification depth and the bounded respawn for
        cheaper heartbeats (every respawn replays the whole journal).
    max_inflight:
        Per-worker bound on unacknowledged requests (apply *frames*,
        not individual events). Sized so the worst-case backlog stays
        far below the OS pipe buffer — the parent must never block in
        ``send()``.
    batch_size:
        Events coalesced into one ``("apply", [events])`` frame before
        it is sent. 1 keeps the PR-9 one-message-per-event behaviour;
        larger frames amortize pipe round-trips when the feed rate,
        not the shard math, is the bottleneck. Buffered events are
        flushed on every supervision sweep and before any request
        whose answer must reflect them (slowdowns, state hash, chaos
        injection), so acks, stream accounting, heartbeat checkpoints
        and replay all stay on frame boundaries.
    replay_deadline:
        Seconds a respawned worker gets to replay the journal.
    soft_backpressure:
        Seconds the parent will yield to a worker whose in-flight
        window is full before declaring hard backpressure and
        shedding the worker.
    tick_interval:
        Minimum seconds between supervision sweeps; ``apply``/``query``
        entry points tick at most this often.
    containment:
        Reused :class:`~repro.parallel.containment.FailurePolicy`; its
        ``deadline`` is the per-request acknowledgement deadline for
        the apply path.
    """

    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 2.0
    heartbeat_hash: bool = True
    max_inflight: int = 64
    batch_size: int = 1
    replay_deadline: float = 60.0
    soft_backpressure: float = 0.05
    tick_interval: float = 0.02
    containment: FailurePolicy = field(
        default_factory=lambda: FailurePolicy(deadline=5.0)
    )

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval!r}"
            )
        if self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0, got {self.heartbeat_timeout!r}"
            )
        if self.max_inflight < 2:
            raise ValueError(f"max_inflight must be >= 2, got {self.max_inflight!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if self.replay_deadline <= 0:
            raise ValueError(
                f"replay_deadline must be > 0, got {self.replay_deadline!r}"
            )
        if self.soft_backpressure < 0:
            raise ValueError(
                f"soft_backpressure must be >= 0, got {self.soft_backpressure!r}"
            )
        if self.tick_interval < 0:
            raise ValueError(f"tick_interval must be >= 0, got {self.tick_interval!r}")
        if self.containment.deadline is None:
            raise ValueError("containment.deadline must be set (request deadline)")


class SupervisedFleetService(FleetService):
    """:class:`FleetService` with per-shard worker processes.

    Accepts every :class:`FleetService` parameter (``log`` becomes
    mandatory — respawn *is* journal replay, there is no supervised
    mode without durability) plus the supervision policy and an
    optional multiprocessing start method (defaults to ``fork`` where
    available).

    The public surface is unchanged: ``submit``/``pump``/``apply``,
    ``query``, ``state_hash``, ``counters``. Added: :meth:`tick`,
    :meth:`await_recovery`, :meth:`inject_fault` (chaos hook) and the
    per-worker introspection helpers. Use as a context manager or call
    :meth:`close` to reap the workers.
    """

    def __init__(
        self,
        machines: int,
        num_shards: int = 4,
        delay_comp: DelayTable | None = None,
        delay_comm: DelayTable | None = None,
        delay_comm_sized: SizedDelayTable | None = None,
        admission: AdmissionController | None = None,
        policy: ShardPolicy | None = None,
        log: Any = None,
        queue_capacity: int = 4096,
        clock: Callable[[], float] = time.monotonic,
        supervisor: SupervisorPolicy | None = None,
        start_method: str | None = None,
    ) -> None:
        if log is None:
            raise ValueError(
                "SupervisedFleetService requires a durable EventLog: worker "
                "respawn replays the journal, so there is no supervised mode "
                "without one"
            )
        super().__init__(
            machines,
            num_shards,
            delay_comp,
            delay_comm,
            delay_comm_sized,
            admission,
            policy,
            log,
            queue_capacity,
            clock,
        )
        self.supervisor = supervisor if supervisor is not None else SupervisorPolicy()
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(start_method)
        self._last_tick = float("-inf")
        # Last clean heartbeat fingerprint per shard: the replay
        # checkpoint a respawn must reproduce (None after a desync).
        self._checkpoints: dict[int, ReplayCheckpoint | None] = {}
        # Two snapshot slots per shard (hashed heartbeats only) and the
        # adopted snapshot a respawn resumes from (dropped on desync).
        self._slots: list[tuple[SnapshotSlot, SnapshotSlot]] = (
            [(SnapshotSlot(), SnapshotSlot()) for _ in range(self.num_shards)]
            if self.supervisor.heartbeat_hash
            else []
        )
        self._snapshots: dict[int, ShardSnapshot] = {}
        # Supervisor accounting — the chaos proof reads these.
        self.heartbeats_missed = 0
        self.respawns = 0
        self.replay_events = 0
        self.snapshot_loads = 0
        self.snapshot_rejects = 0
        self.failover_answers = 0
        self.worker_failures = 0
        self.worker_backpressure = 0
        # Per-shard frame buffers: validated events waiting to be
        # coalesced into one ("apply", [events]) pipe message.
        self._frames: list[list[dict[str, Any]]] = [
            [] for _ in range(self.num_shards)
        ]
        now = self._clock()
        self._workers: list[WorkerHandle] = [
            self._spawn(sid, now) for sid in range(self.num_shards)
        ]

    # -- worker lifecycle ------------------------------------------------------

    def _spawn(self, sid: int, now: float) -> WorkerHandle:
        shard = self.shards[sid]
        return WorkerHandle(
            self._ctx,
            sid,
            shard.machine_ids,
            shard._tables,
            str(self.log.path),
            self.supervisor.max_inflight,
            now,
            self._slots[sid] if self._slots else (),
        )

    def _fail_worker(self, sid: int, reason: str) -> None:
        """Kill worker *sid*, trip its breaker, quarantine its shard."""
        worker = self._workers[sid]
        if worker.state == WorkerHandle.DEAD:
            return
        # Buffered events are already durable in the journal; the
        # respawn replay covers them.
        self._frames[sid].clear()
        worker.kill()
        worker.state = WorkerHandle.DEAD
        self.worker_failures += 1
        _obs.inc("fleet.worker_failures")
        self.breakers[sid].record_failure()
        self._quarantine(sid, reason)

    def _maybe_respawn(self, sid: int, now: float) -> None:
        """Breaker-gated respawn: fresh worker, journal replay, verify."""
        if self.log is None:
            # The soak's resume window detaches the log while it
            # replays history through apply(); respawn must wait for
            # the durable stream to be reattached.
            return
        if not self.breakers[sid].allow():
            return
        handle = self._spawn(sid, now)
        checkpoint = self._pre_quarantine.get(sid)
        raw_checkpoint = (
            (checkpoint.count, checkpoint.state_hash) if checkpoint else None
        )
        snapshot = self._snapshots.get(sid)
        raw_snapshot = astuple(snapshot) if snapshot is not None else None
        meta = self._replay_scope(sid)
        try:
            handle.request(
                ("replay", (0, 0), self.log.next_seq, raw_checkpoint, raw_snapshot),
                "replay",
                self.supervisor.replay_deadline,
                now,
                meta=meta,
            )
        except WorkerUnavailable:
            handle.kill()
            self.breakers[sid].record_failure()
            return
        handle.state = WorkerHandle.REPLAYING
        self._workers[sid] = handle
        self.respawns += 1
        _obs.inc("fleet.respawns")

    def _replay_scope(self, sid: int) -> tuple[int, bytes, int, int]:
        """Stream accounting for a replay round, taken *at send time*.

        ``(owned events admitted, rolling chain, log seq and byte offset
        the round covers up to)``. Events logged while the round runs
        are outside its scope — catch-up rounds (:meth:`_finish_replay`)
        pick them up, starting at this seq and offset.
        """
        return (
            self._stream_count[sid],
            self._stream_chain[sid],
            self.log.next_seq,
            self.log.offset,
        )

    def _finish_replay(
        self,
        sid: int,
        meta: tuple[int, bytes, int, int],
        count: int,
        chain_hex: str,
        checkpoint_ok: bool,
        detail: str | None,
        snapshot_status: str | None,
    ) -> None:
        """Verify one replay round; catch up, re-admit, or stay quarantined.

        *meta* is the round's :meth:`_replay_scope`. The worker's
        reported count and chain are cumulative across rounds, so each
        round verifies against its own scope. Events logged while the
        round ran are outside it — a shrinking delta round covers them,
        and only when a verified round leaves nothing uncovered does
        the worker go live. The deltas converge geometrically:
        replaying a batch is far cheaper than admitting (validating,
        logging, fanning out) the same batch was.

        *snapshot_status* reports the first round's adopted snapshot:
        ``"loaded"`` (the count it covers was not replayed, so it is
        not charged to ``replay_events``), ``"rejected: ..."`` (counted;
        the round was a full replay and the snapshot is dropped) or
        None (no snapshot offered).
        """
        expected_count, expected_chain, upto_sent, upto_offset = meta
        worker = self._workers[sid]
        if snapshot_status == "loaded":
            worker.replayed = self._snapshots[sid].count
            self.snapshot_loads += 1
            _obs.inc("fleet.snapshot_loads")
        elif snapshot_status is not None:
            self._snapshots.pop(sid, None)
            self.snapshot_rejects += 1
            _obs.inc("fleet.snapshot_rejects")
        error: RecoveryError | None = None
        if not checkpoint_ok:
            error = RecoveryError(
                f"shard {sid} respawn missed its pre-quarantine checkpoint: "
                f"{detail}",
                shard_id=sid,
                expected_events=expected_count,
                replayed_events=max(count, 0),
            )
        elif count != expected_count or bytes.fromhex(chain_hex) != expected_chain:
            error = RecoveryError(
                f"shard {sid} respawn replayed {count} event(s) where the "
                f"service admitted {expected_count} (journal truncated, "
                f"corrupted, or reordered)",
                shard_id=sid,
                expected_events=expected_count,
                replayed_events=max(count, 0),
            )
        if error is not None:
            self._note_recovery_mismatch(error)
            self._fail_worker(sid, "recovery verification failed")
            return
        # The worker reports cumulative counts; charge only this
        # round's delta to the counter.
        round_events = count - worker.replayed
        worker.replayed = count
        self.replay_events += round_events
        _obs.inc("fleet.replay_events", round_events)
        now = self._clock()
        if self.log is not None and self.log.next_seq > upto_sent:
            # Verified, but the feed moved on while the round ran:
            # send the delta round, from where this one stopped, before
            # re-admitting.
            next_meta = self._replay_scope(sid)
            try:
                sent = worker.request(
                    ("replay", (upto_offset, upto_sent), self.log.next_seq, None, None),
                    "replay",
                    self.supervisor.replay_deadline,
                    now,
                    meta=next_meta,
                )
            except WorkerUnavailable:
                sent = False
            if not sent:
                self._fail_worker(sid, "catch-up replay round could not be sent")
            return
        worker.state = WorkerHandle.LIVE
        worker.last_ping = now
        self.breakers[sid].record_success()
        self.quarantined.discard(sid)
        self._pre_quarantine.pop(sid, None)
        self.last_recovery_error = None
        self._stale.update(self.shards[sid].machine_ids)
        self.rebuilds += 1
        _obs.inc("fleet.rebuilds")
        _obs.set_gauge("fleet.quarantined_shards", float(len(self.quarantined)))

    # -- acknowledgement plumbing ----------------------------------------------

    def _handle_ack(self, sid: int, entry: PendingRequest, response: tuple) -> None:
        tag = response[0]
        if tag == "err" and entry.kind == "apply":
            # The worker rejected a logged event: its state no longer
            # matches the stream, and neither does its last heartbeat
            # fingerprint or its snapshot — drop both and fail it.
            self._checkpoints[sid] = None
            self._snapshots.pop(sid, None)
            self._fail_worker(sid, f"stream desync in worker: {response[1]}")
            return
        if _EXPECTED_ACK.get(entry.kind) != tag:
            self._fail_worker(
                sid, f"protocol desync: {entry.kind!r} answered {tag!r}"
            )
            return
        if tag == "pong":
            applied, digest, written = response[1], response[2], response[3]
            if digest is not None:
                self._checkpoints[sid] = ReplayCheckpoint(int(applied), digest)
            snapshot = entry.meta
            if snapshot is not None:
                self._workers[sid].snapshotting = False
                # Adopt only a snapshot of exactly the recorded prefix.
                if written and digest is not None and applied == snapshot.count:
                    self._snapshots[sid] = replace(snapshot, state_hash=digest)
        elif tag == "replayed":
            self._finish_replay(sid, entry.meta, *response[1:6])

    def _drain(self, sid: int) -> None:
        """Process every ready acknowledgement from worker *sid*."""
        worker = self._workers[sid]
        while worker.state != WorkerHandle.DEAD:
            try:
                ack = worker.poll_ack()
            except WorkerUnavailable:
                self._fail_worker(sid, "pipe to worker closed")
                return
            if ack is None:
                return
            self._handle_ack(sid, *ack)

    def _await_ack(self, sid: int, kind: str, timeout: float) -> tuple | None:
        """Drain acks (FIFO) until the one for *kind* arrives, or time out."""
        worker = self._workers[sid]
        end = self._clock() + timeout
        while worker.state != WorkerHandle.DEAD:
            remaining = end - self._clock()
            if remaining <= 0:
                self._fail_worker(sid, f"{kind} deadline exceeded")
                return None
            try:
                ack = worker.wait_ack(remaining, self._clock)
            except WorkerUnavailable:
                self._fail_worker(sid, "pipe to worker closed")
                return None
            if ack is None:
                continue
            entry, response = ack
            self._handle_ack(sid, entry, response)
            if entry.kind == kind:
                return response
        return None

    def _expired(self, worker: WorkerHandle, now: float) -> PendingRequest | None:
        if worker.state == WorkerHandle.REPLAYING:
            # A replaying worker holds exactly its replay-round request
            # (applies are withheld until it goes live); only the head
            # deadline is meaningful.
            head = worker.oldest()
            if (
                head is not None
                and head.deadline is not None
                and now - head.sent_at > head.deadline
            ):
                return head
            return None
        for entry in worker.pending:
            if entry.deadline is not None and now - entry.sent_at > entry.deadline:
                return entry
        return None

    # -- the supervision sweep -------------------------------------------------

    def tick(self, force: bool = False) -> None:
        """One supervision sweep: drain acks, enforce deadlines, ping,
        detect deaths, drive breaker-gated respawns.

        Runs at most every ``tick_interval`` seconds unless *force* —
        ``apply()`` and ``query()`` call it on entry, so a served
        service supervises itself; an idle one can be driven explicitly
        (:meth:`await_recovery` does).
        """
        now = self._clock()
        if not force and now - self._last_tick < self.supervisor.tick_interval:
            return
        self._last_tick = now
        policy = self.supervisor
        for sid in range(self.num_shards):
            worker = self._workers[sid]
            if worker.state == WorkerHandle.DEAD:
                self._maybe_respawn(sid, now)
                continue
            self._drain(sid)
            worker = self._workers[sid]
            if worker.state == WorkerHandle.DEAD:
                continue
            if not worker.alive():
                self._fail_worker(sid, "worker process died")
                continue
            expired = self._expired(worker, now)
            if expired is not None:
                if expired.kind == "ping":
                    self.heartbeats_missed += 1
                    _obs.inc("fleet.heartbeats_missed")
                    self._fail_worker(sid, "missed heartbeat")
                else:
                    self._fail_worker(sid, f"{expired.kind} deadline exceeded")
                continue
            if worker.state == WorkerHandle.LIVE and self._frames[sid]:
                # Ship any partial frame each sweep so a slow feed
                # never parks events in the buffer indefinitely.
                self._flush_frame(sid)
                worker = self._workers[sid]
                if worker.state == WorkerHandle.DEAD:
                    continue
            if (
                worker.state == WorkerHandle.LIVE
                and now - worker.last_ping >= policy.heartbeat_interval
            ):
                snapshot = self._next_snapshot(sid)
                try:
                    if worker.request(
                        (
                            "ping",
                            policy.heartbeat_hash,
                            snapshot.slot if snapshot is not None else None,
                        ),
                        "ping",
                        policy.heartbeat_timeout,
                        now,
                        meta=snapshot,
                    ):
                        worker.last_ping = now
                        worker.snapshotting |= snapshot is not None
                except WorkerUnavailable:
                    self._fail_worker(sid, "pipe to worker closed")
        _obs.set_gauge(
            "fleet.worker_depth",
            float(sum(len(w.pending) for w in self._workers)),
        )

    def _next_snapshot(self, sid: int) -> ShardSnapshot | None:
        """The prefix a heartbeat sent now would snapshot, or None.

        None when heartbeats are hash-free, the log is detached, or a
        snapshot-bearing ping is already in flight. The slot is always
        the one not adopted, so a torn write never touches the
        snapshot a respawn would load. Called right after the sweep
        flushed the shard's partial frame: the worker has been sent
        every admitted event.
        """
        if not self._slots or self.log is None or self._workers[sid].snapshotting:
            return None
        adopted = self._snapshots.get(sid)
        return ShardSnapshot(
            slot=1 - adopted.slot if adopted is not None else 0,
            count=self._stream_count[sid],
            chain=self._stream_chain[sid],
            offset=self.log.offset,
            seq=self.log.next_seq,
        )

    # -- shard backend seam (process-backed) -----------------------------------

    def _shard_accepts(self, sid: int) -> bool:
        # Only live workers take events. A replaying worker's slice is
        # covered by the journal: events keep being logged and chained,
        # and the catch-up rounds deliver them — sending applies during
        # a replay would just pile up behind it and trip backpressure.
        return self._workers[sid].state == WorkerHandle.LIVE

    def _shard_apply(self, sid: int, validated: dict[str, Any]) -> None:
        self._drain(sid)
        worker = self._workers[sid]
        if worker.state == WorkerHandle.DEAD:
            return
        # Coalesce into the shard's frame; a full frame ships at once,
        # a partial one on the next supervision sweep or before any
        # request that must observe it.
        self._frames[sid].append(validated)
        self._stale.add(validated["machine"])
        if len(self._frames[sid]) >= self.supervisor.batch_size:
            self._flush_frame(sid)

    def _flush_frame(self, sid: int) -> None:
        """Ship shard *sid*'s buffered events as one apply frame."""
        frame = self._frames[sid]
        if not frame:
            return
        worker = self._workers[sid]
        self._frames[sid] = []
        if worker.state != WorkerHandle.LIVE:
            # Already failed or replaying: the journal covers the
            # buffered events; replay delivers them.
            return
        deadline = self.supervisor.containment.deadline
        try:
            sent = worker.request(("apply", frame), "apply", deadline, self._clock())
            if not sent:
                sent = self._soft_backpressure(sid, frame, deadline)
        except WorkerUnavailable:
            self._fail_worker(sid, "pipe to worker closed")
            return
        if not sent:
            if self._workers[sid].state == WorkerHandle.DEAD:
                return
            # Hard backpressure: the worker cannot keep up even after
            # the soft wait. Shed it — the frame is already durable in
            # the log, and the respawn replay will catch it up —
            # rather than stall the feed for its siblings.
            self.worker_backpressure += 1
            _obs.inc("fleet.worker_backpressure")
            self._fail_worker(sid, "backpressure: in-flight window full")

    def _soft_backpressure(
        self, sid: int, frame: list[dict[str, Any]], deadline: float | None
    ) -> bool:
        """Yield briefly to a worker with a full window; retry the send."""
        worker = self._workers[sid]
        end = self._clock() + self.supervisor.soft_backpressure
        while worker.pending.full and worker.state != WorkerHandle.DEAD:
            remaining = end - self._clock()
            if remaining <= 0:
                return False
            ack = worker.wait_ack(remaining, self._clock)
            if ack is None:
                return False
            self._handle_ack(sid, *ack)
        if worker.state == WorkerHandle.DEAD:
            return False
        return worker.request(("apply", frame), "apply", deadline, self._clock())

    def _shard_slowdowns(
        self, sid: int, machines: Sequence[int]
    ) -> dict[int, tuple[float, float, Confidence]] | None:
        worker = self._workers[sid]
        if worker.state != WorkerHandle.LIVE:
            return None
        # The answer must reflect every admitted event: ship the
        # shard's partial frame first (FIFO keeps it ordered ahead).
        self._flush_frame(sid)
        worker = self._workers[sid]
        if worker.state != WorkerHandle.LIVE:
            return None
        deadline = self.supervisor.containment.deadline or self.supervisor.heartbeat_timeout
        try:
            sent = worker.request(
                ("slowdowns", list(machines)), "slowdowns", deadline, self._clock()
            )
        except WorkerUnavailable:
            self._fail_worker(sid, "pipe to worker closed")
            return None
        if not sent:
            return None  # window full; stay stale and retry next refresh
        response = self._await_ack(sid, "slowdowns", deadline)
        if response is None:
            return None
        return {
            machine: (comp, comm, Confidence(conf))
            for machine, (comp, comm, conf) in response[1].items()
        }

    def _shard_state_hash(self, sid: int) -> str:
        worker = self._workers[sid]
        if worker.state == WorkerHandle.LIVE:
            self._drain(sid)
            self._flush_frame(sid)
            worker = self._workers[sid]
        if worker.state == WorkerHandle.LIVE:
            try:
                sent = worker.request(
                    ("hash",), "hash", self.supervisor.replay_deadline, self._clock()
                )
            except WorkerUnavailable:
                self._fail_worker(sid, "pipe to worker closed")
                sent = False
            if sent:
                response = self._await_ack(
                    sid, "hash", self.supervisor.replay_deadline
                )
                if response is not None:
                    return response[1]
        # Dead or replaying worker: derive the hash the worker will
        # converge to by replaying the journal locally — deterministic,
        # it is the exact same stream.
        from ..experiments.journal import EventLog

        rebuilt = self.shards[sid].fresh()
        replay_stream(rebuilt, EventLog.replay(self.log.path))
        return rebuilt.state_hash()

    def _recovery_checkpoint(
        self, sid: int, state_trusted: bool
    ) -> ReplayCheckpoint | None:
        # The parent never holds the worker's live state; the last
        # clean heartbeat fingerprint is the trusted mid-stream anchor
        # (cleared on desync before the quarantine is recorded).
        return self._checkpoints.get(sid)

    def _note_failover(self, count: int) -> None:
        self.failover_answers += 1
        _obs.inc("fleet.failover_answers")

    # -- public surface --------------------------------------------------------

    def apply(self, event: Mapping[str, Any]) -> bool:
        self.tick()
        return super().apply(event)

    def query(self, tenant: str, query: PlacementQuery) -> PlacementAnswer:
        self.tick()
        return super().query(tenant, query)

    def recover(self, sid: int) -> bool:
        """Drive one supervision sweep; report whether *sid* is back.

        Respawn and replay verification are the supervisor's job — this
        just gives callers of the base API a way to push it along.
        """
        self.tick(force=True)
        return sid not in self.quarantined

    def await_recovery(self, timeout: float = 30.0) -> bool:
        """Tick until every worker is live, verified, drained, and proven alive.

        Drained matters: a wedged worker still reads as LIVE until its
        oldest in-flight request blows its deadline, so "no quarantine"
        alone would declare a hung fleet recovered. Waiting for empty
        in-flight windows forces the hang to either answer or expire.

        Proven alive matters too: a worker killed just before the call
        still reads as LIVE with an empty window until its death is
        noticed. So every worker must also answer a hash-free ping sent
        after the call began — or have been respawned (and so verified)
        since.
        """
        end = time.monotonic() + timeout
        first = list(self._workers)
        probed: set[int] = set()
        while True:
            self.tick(force=True)
            for sid, worker in enumerate(self._workers):
                if (
                    worker is first[sid]
                    and sid not in probed
                    and worker.state == WorkerHandle.LIVE
                ):
                    try:
                        if worker.request(
                            ("ping", False, None),
                            "ping",
                            self.supervisor.heartbeat_timeout,
                            self._clock(),
                        ):
                            probed.add(sid)
                    except WorkerUnavailable:
                        self._fail_worker(sid, "pipe to worker closed")
            # FIFO: an empty window on the probed handle means its ping
            # was answered; a replaced handle went through respawn.
            if not self.quarantined and all(
                w.state == WorkerHandle.LIVE
                and not len(w.pending)
                and (w is not first[sid] or sid in probed)
                for sid, w in enumerate(self._workers)
            ):
                return True
            if time.monotonic() >= end:
                return False
            # Wake on the next acknowledgement (or pipe EOF) rather than
            # on a fixed poll, so recovery is not quantized by the sleep.
            busy = [
                w.conn
                for w in self._workers
                if w.state != WorkerHandle.DEAD and len(w.pending)
            ]
            if busy:
                wait_ready(busy, timeout=0.01)
            else:
                time.sleep(0.01)

    def inject_fault(self, sid: int, kind: str, after: int = 1) -> bool:
        """Chaos hook: arm worker *sid* to fail after *after* more applies.

        *kind* is one of ``exit`` (SIGKILL-equivalent crash), ``hang``
        (wedge without answering), ``raise`` (exception escapes the
        handler). Returns False when the worker is not reachable.
        """
        if kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {kind!r}")
        worker = self._workers[sid]
        if worker.state == WorkerHandle.DEAD:
            return False
        # Chaos lands on a frame boundary: buffered events go first.
        self._flush_frame(sid)
        worker = self._workers[sid]
        if worker.state == WorkerHandle.DEAD:
            return False
        try:
            return worker.request(
                ("inject", kind, int(after)),
                "inject",
                self.supervisor.heartbeat_timeout,
                self._clock(),
            )
        except WorkerUnavailable:
            self._fail_worker(sid, "pipe to worker closed")
            return False

    def worker_pid(self, sid: int) -> int | None:
        """OS pid of shard *sid*'s worker (for external SIGKILL chaos)."""
        return self._workers[sid].pid

    def worker_state(self, sid: int) -> str:
        """``live`` / ``replaying`` / ``dead`` for shard *sid*'s worker."""
        return self._workers[sid].state

    def worker_depth(self, sid: int) -> int:
        """In-flight (unacknowledged) requests to shard *sid*'s worker."""
        return len(self._workers[sid].pending)

    def worker_snapshot(self, sid: int) -> ShardSnapshot | None:
        """Shard *sid*'s adopted heartbeat snapshot, if it has one."""
        return self._snapshots.get(sid)

    def counters(self) -> dict[str, int]:
        out = super().counters()
        out.update(
            {
                "heartbeats_missed": self.heartbeats_missed,
                "respawns": self.respawns,
                "replay_events": self.replay_events,
                "snapshot_loads": self.snapshot_loads,
                "snapshot_rejects": self.snapshot_rejects,
                "failover_answers": self.failover_answers,
                "worker_failures": self.worker_failures,
                "worker_backpressure": self.worker_backpressure,
            }
        )
        return out

    def close(self) -> None:
        """Shut every worker down (politely, then forcibly)."""
        for sid in range(self.num_shards):
            self._flush_frame(sid)
        for worker in self._workers:
            if worker.state != WorkerHandle.DEAD and worker.alive():
                worker.shutdown()
            else:
                worker.kill()
        for pair in self._slots:
            for slot in pair:
                slot.close()
