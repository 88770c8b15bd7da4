"""The shard worker: one :class:`~repro.fleet.shard.Shard` per process.

:func:`worker_main` is the child-process request loop behind the
``ShardWorker`` protocol. It owns exactly one shard, receives the
shard's slice of the event feed over a pipe (the supervisor partitions
by ``shard_of``), and answers every request in order:

===================================  ======================================================
request                              response
===================================  ======================================================
``("apply", [events])``              ``("ok", n_applied)`` or ``("err", message)``
``("slowdowns", [machines])``        ``("slowdowns", {m: (comp, comm, conf)})``
``("ping", want_hash, slot)``        ``("pong", applied, hash_or_None, written)``
``("hash",)``                        ``("hash", digest)``
``("replay", start, hi, cp, snap)``  ``("replayed", count, chain_hex, cp_ok, why, status)``
``("inject", kind, after)``          ``("ok",)``
``("shutdown",)``                    ``("ok",)`` then the process exits
===================================  ======================================================

Responses come back strictly FIFO — a pipe is an ordered byte stream
and the loop answers one request before reading the next — so the
parent matches acknowledgements to requests positionally (its pending
:class:`~repro.fleet.admission.BoundedQueue` per worker).

``("apply", [events])`` carries a bounded *frame* of validated events
(the supervisor coalesces up to ``SupervisorPolicy.batch_size`` per
shard) and is acknowledged once per frame; a :class:`~repro.errors
.ModelError` mid-frame aborts the frame with ``("err", message)`` and
the supervisor kills and replays the worker, so partially applied
frames never survive. Stream accounting, heartbeat checkpoints and
replay verification all live on frame boundaries.

``("inject", kind, after)`` is the chaos hook: after *after* more
applied events — counted through frame payloads, not messages — the
worker SIGKILLs itself mid-handler (``exit``), wedges without
answering (``hang``), or lets an exception escape the loop
(``raise``). The supervision tree must treat all three the same way —
quarantine, respawn, replay — which is exactly what the chaos soak
asserts.

``("ping", True, slot)`` is a heartbeat that also streams the shard
into snapshot slot *slot* (:class:`SnapshotSlot`, one of two per shard,
owned by the supervisor) after computing the hash; ``written`` reports
whether the snapshot landed. The supervisor adopts it only when the
pong's ``applied`` matches the stream prefix it recorded at send time.

``("replay", (offset, seq), upto_seq, checkpoint, snapshot)`` rebuilds
the shard from the durable :class:`~repro.experiments.journal.EventLog`:
the worker reads the log from byte *offset* (whose first record is
*seq*) and replays every owned event before *upto_seq* through
:func:`~repro.fleet.shard.replay_stream`, reporting the *cumulative*
replayed count, the rolling stream chain, and whether the
pre-quarantine checkpoint was reproduced. The chain and count persist
across requests, so the supervisor can catch a respawned worker up
incrementally — a first round, then shrinking delta rounds that start
where the previous one stopped — and verify each round against its own
cumulative accounting. Bit-identical or quarantined.

A first round may carry an adopted *snapshot*
``(slot, count, chain, offset, seq, state_hash)``. The worker loads the
slot, and only if the load passes its digest, the rebuilt
``state_hash`` equals the heartbeat's and the applied count equals
*count* does it seed its chain and count from the snapshot and replay
just the tail from ``(offset, seq)``. Otherwise the snapshot is
reported ``rejected`` and the round falls back to a full replay from
byte 0 — an unverified snapshot is never trusted.
"""

from __future__ import annotations

import itertools
import os
import select
import struct
import tempfile
import time
import traceback
from dataclasses import dataclass
from multiprocessing import reduction
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Iterable, Sequence

from ..errors import ModelError
from .admission import BoundedQueue
from .shard import ArrayShard, ReplayCheckpoint, replay_stream

__all__ = [
    "worker_main",
    "WorkerHandle",
    "WorkerUnavailable",
    "SnapshotSlot",
    "FAULT_KINDS",
]

#: Chaos-injection kinds ``("inject", kind, after)`` understands.
FAULT_KINDS = ("exit", "hang", "raise")

#: Exit status for an injected crash — distinguishable from SIGKILL's
#: 137 in the supervisor's post-mortem, identical in its handling.
_CRASH_STATUS = 113


class WorkerUnavailable(Exception):
    """The worker's pipe is gone (process died or closed its end)."""


class SnapshotSlot:
    """An anonymous in-memory file holding one shard snapshot.

    A ``memfd`` where the platform has one, otherwise an unlinked
    temporary file. The supervisor creates two per shard and passes
    them to every worker it spawns: a fork child inherits the
    descriptor, a spawn child receives a duplicate through
    multiprocessing's fd passing (see :meth:`__reduce__`). Reads and
    writes use ``pread``/``pwrite``, so the shared file offset never
    matters.
    """

    def __init__(self, fd: int | None = None) -> None:
        if fd is None:
            try:
                fd = os.memfd_create("fleet-snapshot")
            except (AttributeError, OSError):
                fd, path = tempfile.mkstemp(prefix="fleet-snapshot-")
                os.unlink(path)
        self.fd = fd

    def __reduce__(self) -> tuple:
        # Only pickled while a spawn/forkserver child is being launched.
        return _attach_slot, (reduction.DupFd(self.fd),)

    def close(self) -> None:
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1


def _attach_slot(dup: Any) -> SnapshotSlot:
    return SnapshotSlot(dup.detach())


def _load_snapshot(
    shard: ArrayShard, slots: Sequence[SnapshotSlot], snapshot: tuple
) -> tuple[ArrayShard, bytes, tuple[int, int], str]:
    """Load and verify an adopted snapshot: ``(shard, chain, start, status)``.

    Verification order: the slot's digest and shape (inside
    :meth:`~repro.fleet.shard.ArrayShard.load_snapshot`), then the
    rebuilt ``state_hash`` against the heartbeat's, then the applied
    count against the supervisor's record. Any failure returns the
    empty *shard* and a full-replay start with a ``rejected`` status.
    """
    index, count, chain, offset, seq, digest = snapshot
    try:
        loaded = shard.load_snapshot(slots[index].fd)
    except (ModelError, OSError) as exc:
        return shard, b"", (0, 0), f"rejected: {exc}"
    got = loaded.state_hash()
    if got != digest:
        return shard, b"", (0, 0), f"rejected: state hash {got}, heartbeat {digest}"
    if loaded.applied != count:
        return shard, b"", (0, 0), (
            f"rejected: snapshot holds {loaded.applied} events, recorded {count}"
        )
    return loaded, chain, (offset, seq), "loaded"


def worker_main(
    conn: Any,
    shard_id: int,
    machine_ids: Sequence[int],
    tables: tuple[Any, Any, Any],
    log_path: str | None,
    slots: Sequence[SnapshotSlot] = (),
) -> None:
    """Child-process entry point: serve one shard until shutdown/EOF."""
    shard = ArrayShard(shard_id, machine_ids, *tables)
    chain = b""  # rolling stream hash, cumulative across replay rounds
    fault: dict[str, Any] | None = None
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return  # parent went away; nothing left to serve
            op = msg[0]
            if op == "apply":
                failure: str | None = None
                applied = 0
                for event in msg[1]:
                    if fault is not None:
                        fault["after"] -= 1
                        if fault["after"] <= 0:
                            kind = fault["kind"]
                            fault = None
                            if kind == "exit":
                                os._exit(_CRASH_STATUS)
                            if kind == "hang":
                                time.sleep(3600.0)
                            if kind == "raise":
                                raise RuntimeError(
                                    "injected fault: exception inside the apply handler"
                                )
                    try:
                        shard.apply(event)
                    except ModelError as exc:
                        failure = str(exc)
                        break
                    applied += 1
                if failure is not None:
                    conn.send(("err", failure))
                else:
                    conn.send(("ok", applied))
            elif op == "slowdowns":
                answer = {}
                for machine in msg[1]:
                    comp, comm, conf = shard.slowdowns(machine)
                    answer[machine] = (comp, comm, int(conf))
                conn.send(("slowdowns", answer))
            elif op == "ping":
                digest = shard.state_hash() if msg[1] else None
                written = False
                if digest is not None and msg[2] is not None:
                    try:
                        shard.write_snapshot(slots[msg[2]].fd)
                        written = True
                    except OSError:
                        pass  # not adopted; the previous snapshot stands
                conn.send(("pong", shard.applied, digest, written))
            elif op == "hash":
                conn.send(("hash", shard.state_hash()))
            elif op == "replay":
                start, upto_seq, raw_checkpoint, snapshot = msg[1:5]
                checkpoint = (
                    ReplayCheckpoint(*raw_checkpoint)
                    if raw_checkpoint is not None
                    else None
                )
                status = None
                if snapshot is not None:
                    shard, chain, start, status = _load_snapshot(shard, slots, snapshot)
                from ..experiments.journal import EventLog

                events: Iterable[Any] = itertools.takewhile(
                    lambda event: event["seq"] < upto_seq,
                    EventLog.replay(log_path, start),
                )
                try:
                    result = replay_stream(
                        shard,
                        events,
                        checkpoint=checkpoint,
                        chain=chain,
                        already=shard.applied,
                    )
                except (ModelError, ValueError) as exc:
                    conn.send(
                        ("replayed", -1, "", False, f"replay raised: {exc}", status)
                    )
                else:
                    chain = result.chain
                    conn.send(
                        (
                            "replayed",
                            result.count,
                            result.chain.hex(),
                            result.checkpoint_ok,
                            result.detail,
                            status,
                        )
                    )
            elif op == "inject":
                fault = {"kind": str(msg[1]), "after": int(msg[2])}
                conn.send(("ok",))
            elif op == "shutdown":
                conn.send(("ok",))
                return
            else:
                conn.send(("err", f"unknown worker op {op!r}"))
    except Exception:  # pragma: no cover - crash path exercised via chaos tests
        traceback.print_exc()
        os._exit(os.EX_SOFTWARE)


@dataclass
class PendingRequest:
    """One in-flight request awaiting its FIFO acknowledgement."""

    kind: str
    sent_at: float
    deadline: float | None
    meta: Any = None


class WorkerHandle:
    """Parent-side proxy for one shard worker process.

    Owns the process, the parent end of the pipe, and the FIFO of
    in-flight requests (a :class:`~repro.fleet.admission.BoundedQueue`,
    so per-worker depth is bounded and its ``full`` state is the
    cross-process backpressure signal). The handle is deliberately
    dumb: all supervision policy — deadlines, heartbeats, respawn,
    replay verification — lives in
    :class:`~repro.fleet.supervisor.SupervisedFleetService`.

    ``state`` is the worker lifecycle state machine::

        spawn ──► "replaying" ──verified──► "live"
          ▲            │                      │
          │            └──────── failure ─────┤
          └──breaker allows──── "dead" ◄──────┘

    (A first-boot worker starts "live": an empty shard trivially
    matches an empty stream.)
    """

    LIVE = "live"
    REPLAYING = "replaying"
    DEAD = "dead"

    def __init__(
        self,
        ctx: Any,
        shard_id: int,
        machine_ids: Sequence[int],
        tables: tuple[Any, Any, Any],
        log_path: str | None,
        max_inflight: int,
        now: float,
        slots: Sequence[SnapshotSlot] = (),
    ) -> None:
        self.shard_id = int(shard_id)
        self.pending: BoundedQueue = BoundedQueue(max_inflight)
        self.state = self.LIVE
        self.last_ping = now
        #: Cumulative events the worker has replayed across rounds
        #: (mirrors its reported counts; the supervisor charges deltas).
        self.replayed = 0
        #: A snapshot-bearing ping is in flight (at most one at a time).
        self.snapshotting = False
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=worker_main,
            args=(child_conn, shard_id, tuple(machine_ids), tables, log_path, tuple(slots)),
            name=f"fleet-worker-{shard_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def _send_with_deadline(self, msg: tuple, timeout: float) -> None:
        """``conn.send`` that cannot block forever on a full OS pipe.

        A plain ``Connection.send`` to a worker that has stopped
        reading (wedged in a handler, chaos ``hang``) blocks in
        ``write(2)`` once the kernel pipe buffer fills — with batched
        apply frames a handful of frames is enough — and then no
        supervision tick ever runs again to enforce the very deadline
        that would have failed the worker. So the pipe is written
        non-blocking under a wall-clock budget; a stall past *timeout*
        raises :class:`WorkerUnavailable` (the stream may have a
        partial message in it, so the connection is unusable and the
        caller must fail the worker — which the journal replay makes
        safe).
        """
        payload = bytes(ForkingPickler.dumps(msg))
        # The exact byte framing of Connection._send_bytes.
        if len(payload) > 0x7FFFFFFF:  # pragma: no cover - frames are bounded
            data = struct.pack("!i", -1) + struct.pack("!Q", len(payload)) + payload
        else:
            data = struct.pack("!i", len(payload)) + payload
        buf = memoryview(data)
        try:
            fd = self.conn.fileno()
        except (OSError, ValueError) as exc:
            raise WorkerUnavailable(str(exc)) from exc
        end = time.monotonic() + timeout
        os.set_blocking(fd, False)
        try:
            while buf:
                try:
                    written = os.write(fd, buf)
                except BlockingIOError:
                    written = 0
                except OSError as exc:
                    raise WorkerUnavailable(str(exc)) from exc
                if written:
                    buf = buf[written:]
                    continue
                remaining = end - time.monotonic()
                if remaining <= 0:
                    raise WorkerUnavailable(
                        f"send stalled {timeout:.1f}s: worker not draining its pipe"
                    )
                select.select([], [fd], [], min(remaining, 0.05))
        finally:
            try:
                os.set_blocking(fd, True)
            except OSError:  # pragma: no cover - conn torn down mid-send
                pass

    def request(
        self,
        msg: tuple,
        kind: str,
        deadline: float | None,
        now: float,
        meta: Any = None,
    ) -> bool:
        """Send *msg*; False means the in-flight window is full.

        Raises :class:`WorkerUnavailable` when the pipe is broken or
        the send stalls past the request deadline — the caller routes
        that into the failure path.
        """
        if self.pending.full:
            return False
        self._send_with_deadline(msg, deadline if deadline is not None else 60.0)
        self.pending.offer(PendingRequest(kind, now, deadline, meta))
        return True

    def poll_ack(self) -> tuple[PendingRequest, tuple] | None:
        """Receive one acknowledgement if ready; None when none pending.

        Raises :class:`WorkerUnavailable` on a broken/EOF pipe, and on
        a response with no matching request (protocol desync).
        """
        if not len(self.pending):
            return None
        try:
            if not self.conn.poll(0):
                return None
            response = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerUnavailable(str(exc)) from exc
        entry = self.pending.take()
        return entry, response

    def wait_ack(self, timeout: float, clock: Callable[[], float]) -> tuple | None:
        """Block up to *timeout* seconds for the next acknowledgement."""
        deadline = clock() + timeout
        while True:
            remaining = deadline - clock()
            if remaining <= 0:
                return None
            try:
                if self.conn.poll(min(remaining, 0.05)):
                    ack = self.poll_ack()
                    if ack is not None:
                        return ack
            except (EOFError, OSError) as exc:
                raise WorkerUnavailable(str(exc)) from exc

    def oldest(self) -> PendingRequest | None:
        """The in-flight request whose acknowledgement is due next."""
        return self.pending.peek()

    def kill(self) -> None:
        """Forcibly terminate the process and close the pipe."""
        try:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5.0)
        except (OSError, ValueError):  # pragma: no cover - teardown races
            pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def shutdown(self, timeout: float = 2.0) -> None:
        """Ask the worker to exit cleanly; escalate to kill."""
        try:
            self._send_with_deadline(("shutdown",), timeout)
        except WorkerUnavailable:
            pass
        self.process.join(timeout=timeout)
        self.kill()
