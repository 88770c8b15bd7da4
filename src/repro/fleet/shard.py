"""A fleet shard: live contention state for a slice of the machines.

A shard holds, per machine in its slice, the registered profiles and
the ``pcomm`` overlap distribution (``pcomp`` is its reverse, derived
on read), and keeps them current by consuming the service's
arrive/depart event stream. :class:`ArrayShard` is the production
layout (struct-of-arrays, one distribution matrix); :class:`Shard` is
its object-backed oracle (one
:class:`~repro.core.runtime.SlowdownManager` per machine). Both memoize
each machine's tagged ``(comp, comm, confidence)`` triple and
invalidate it per machine on writes, because the tagged slowdown
queries are O(p) loops over the delay tables while an arrival is a
cheap O(p) NumPy update — a fleet that recomputed every machine's
slowdowns on every event would melt long before the 10k queries/sec
target.

:meth:`Shard.state_hash` fingerprints the full model state — every
machine's registered profiles and its ``pcomm`` array, byte for
byte. Replaying the same event prefix through a fresh shard
runs the identical floating-point operations in the identical order, so
the hash is the recovery test's bit-identity oracle
(:mod:`repro.fleet.service` rebuilds quarantined shards this way).

:class:`ShardPolicy` is the containment contract, mirroring
:class:`~repro.parallel.containment.FailurePolicy`: how slow an event
application may be before it counts as a failure (deadline blowout),
how many failures quarantine the shard, and the recovery/budget
parameters of the :class:`~repro.reliability.breaker.CircuitBreaker`
that gates re-admission after a rebuild.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..core.batch import cm2_slowdowns, sequential_fold, sequential_folds
from ..core.params import DelayTable, SizedDelayTable
from ..core.probability import (
    add_application,
    comp_distribution,
    overlap_distribution,
    remove_application,
)
from ..core.runtime import SlowdownManager
from ..core.workload import ApplicationProfile
from ..errors import ModelError
from ..reliability.degrade import Confidence
from ..units import check_fraction, check_nonnegative

__all__ = [
    "ArrayShard",
    "Shard",
    "ShardPolicy",
    "ReplayCheckpoint",
    "ReplayResult",
    "STREAM_FIELDS",
    "replay_stream",
    "stream_step",
]

#: Snapshot stream magic (bump the digit on any layout change) and the
#: header after it: rows, live columns, apps, applied events.
_SNAPSHOT_MAGIC = b"RSNAP002"
_SNAPSHOT_HEADER = struct.Struct("<4q")
#: Bytes a snapshot writer gathers before each ``pwrite``.
_SNAPSHOT_CHUNK = 1 << 20


def _snapshot_rows(cols: int) -> int:
    """Matrix rows per snapshot chunk, for *cols* live columns."""
    return max(1, _SNAPSHOT_CHUNK // (8 * cols))

#: Event fields that determine shard state. Sequence stamps (``seq``,
#: ``v``) are deliberately excluded so the live copy of an event, its
#: journal round-trip, and its replayed copy all chain identically.
STREAM_FIELDS = ("op", "app", "tenant", "machine", "comm_fraction", "message_size")


def stream_step(chain: bytes, event: Mapping) -> bytes:
    """Advance a rolling stream hash by one event.

    The chain is a blake2b link over the previous chain value and the
    canonical JSON of the event's :data:`STREAM_FIELDS`. Two consumers
    that saw the same events in the same order hold the same chain —
    the cheap, incremental cousin of :meth:`Shard.state_hash` used to
    verify journal replays cover exactly the accounted stream.
    """
    h = hashlib.blake2b(chain, digest_size=16)
    payload = {field: event[field] for field in STREAM_FIELDS if field in event}
    h.update(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    return h.digest()


class _SnapshotWriter:
    """Chunked ``pwrite`` stream into a file descriptor, digested as it goes."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.offset = 0
        self.digest = hashlib.blake2b(digest_size=16)
        self._chunk: list[bytes] = []
        self._size = 0
        os.ftruncate(fd, 0)

    def write(self, data: bytes) -> None:
        self.digest.update(data)
        self._chunk.append(data)
        self._size += len(data)
        if self._size >= _SNAPSHOT_CHUNK:
            self.flush()

    def flush(self) -> None:
        view = memoryview(b"".join(self._chunk))
        self._chunk, self._size = [], 0
        while view:
            written = os.pwrite(self.fd, view, self.offset)
            self.offset += written
            view = view[written:]

    def close(self) -> int:
        """Append the digest trailer; return the snapshot's byte length."""
        self.write(self.digest.digest())
        self.flush()
        return self.offset


class _SnapshotReader:
    """Exact-length ``pread`` stream out of a file descriptor, digested."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.offset = 0
        self.size = os.fstat(fd).st_size
        self.digest = hashlib.blake2b(digest_size=16)

    def read(self, n: int) -> bytes:
        if not 0 <= n <= self.size - self.offset:
            # Checked up front so a corrupted length cannot drive a huge read.
            raise ModelError(f"snapshot truncated: {n} bytes wanted at {self.offset}")
        parts = []
        while n > 0:
            part = os.pread(self.fd, min(n, _SNAPSHOT_CHUNK), self.offset)
            if not part:
                raise ModelError(f"snapshot truncated at byte {self.offset}")
            self.offset += len(part)
            n -= len(part)
            parts.append(part)
        data = b"".join(parts)
        self.digest.update(data)
        return data

    def array(self, dtype: str, count: int) -> np.ndarray:
        """The next *count* items as a read-only array over the bytes read."""
        width = np.dtype(dtype).itemsize
        return np.frombuffer(self.read(width * count), dtype=dtype)

    def verify_trailer(self) -> None:
        expected = self.digest.digest()
        if self.read(len(expected)) != expected:
            raise ModelError("snapshot digest mismatch: torn or corrupted slot")


@dataclass(frozen=True)
class ReplayCheckpoint:
    """Pre-quarantine fingerprint a replay must reproduce mid-stream.

    ``count`` is the number of owned events the shard had applied when
    the checkpoint was taken; ``state_hash`` is its
    :meth:`Shard.state_hash` at that instant. A replay that reaches
    *count* events with a different hash rebuilt different state than
    the shard actually held — the journal and the live stream diverged.
    """

    count: int
    state_hash: str


@dataclass(frozen=True)
class ReplayResult:
    """What :func:`replay_stream` reproduced, for verification.

    Attributes
    ----------
    count:
        Owned events applied to the shard.
    chain:
        Final rolling stream hash (:func:`stream_step`) over them.
    checkpoint_ok:
        False when a :class:`ReplayCheckpoint` was given and the
        rebuilt state missed it (wrong hash at the checkpoint count, or
        the stream ended before reaching it).
    detail:
        Human-readable mismatch description when ``checkpoint_ok`` is
        False.
    """

    count: int
    chain: bytes
    checkpoint_ok: bool = True
    detail: str | None = None


def replay_stream(
    shard: "Shard | ArrayShard",
    events: Iterable[Mapping],
    checkpoint: ReplayCheckpoint | None = None,
    chain: bytes = b"",
    already: int = 0,
) -> ReplayResult:
    """Replay *events* into *shard*, keeping the verification chain.

    Events for machines the shard does not own are skipped (the journal
    is fleet-wide; each shard replays its slice). *chain* and *already*
    continue a previous segment — catch-up rounds of an incremental
    replay pass the chain and count where the last round stopped, so
    the returned count/chain stay cumulative over the whole stream.
    Raises :class:`~repro.errors.ModelError` if an owned event fails to
    apply — a corrupt or reordered journal.
    """
    owned = set(shard.machine_ids)
    count = already
    checkpoint_ok = True
    detail: str | None = None
    for event in events:
        if event.get("machine") not in owned:
            continue
        shard.apply(event)
        count += 1
        chain = stream_step(chain, event)
        if checkpoint is not None and count == checkpoint.count:
            got = shard.state_hash()
            if got != checkpoint.state_hash:
                checkpoint_ok = False
                detail = (
                    f"state hash at event {count} is {got}, "
                    f"expected {checkpoint.state_hash}"
                )
    if checkpoint is not None and count < checkpoint.count and checkpoint_ok:
        checkpoint_ok = False
        detail = (
            f"stream ended at {count} events, before the checkpoint "
            f"at {checkpoint.count}"
        )
    return ReplayResult(count, chain, checkpoint_ok, detail)


@dataclass(frozen=True)
class ShardPolicy:
    """Containment and re-admission parameters for one shard.

    Attributes
    ----------
    deadline:
        Seconds one event application may take before it counts as a
        failure (a deadline blowout — the shard is wedged or thrashing
        its O(p²) rebuild path).
    failure_threshold:
        Consecutive failures that quarantine the shard (feeds the
        shard's :class:`~repro.reliability.breaker.CircuitBreaker`).
    recovery_time:
        Seconds quarantined before a rebuild attempt is admitted.
    budget:
        Optional total wall-clock budget across all rebuild attempts;
        once spent the shard stays quarantined for good and its
        machines are served analytically forever.
    """

    deadline: float = 1.0
    failure_threshold: int = 3
    recovery_time: float = 5.0
    budget: float | None = None

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline!r}")
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold!r}"
            )
        if self.recovery_time < 0:
            raise ValueError(f"recovery_time must be >= 0, got {self.recovery_time!r}")
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget!r}")


class Shard:
    """Live per-machine :class:`SlowdownManager` state for a machine slice.

    Parameters
    ----------
    shard_id:
        Index of this shard within the service.
    machine_ids:
        The machines this shard owns (the service routes events by
        ``machine % num_shards``).
    delay_comp, delay_comm, delay_comm_sized:
        Calibrated delay tables shared by every manager; ``None``
        degrades the affected queries to the analytic fallback.
    """

    def __init__(
        self,
        shard_id: int,
        machine_ids: Iterable[int],
        delay_comp: DelayTable | None = None,
        delay_comm: DelayTable | None = None,
        delay_comm_sized: SizedDelayTable | None = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.machine_ids = tuple(machine_ids)
        self._tables = (delay_comp, delay_comm, delay_comm_sized)
        self.managers: dict[int, SlowdownManager] = {
            m: SlowdownManager(delay_comp, delay_comm, delay_comm_sized)
            for m in self.machine_ids
        }
        #: Machines whose memoized slowdowns are stale.
        self._dirty: set[int] = set(self.machine_ids)
        self._comp: dict[int, float] = {}
        self._comm: dict[int, float] = {}
        self._conf: dict[int, Confidence] = {}
        #: Events applied since construction (or since replay).
        self.applied = 0

    # -- event stream ---------------------------------------------------------

    def apply(self, event: Mapping) -> None:
        """Apply one arrive/depart event to its machine's manager.

        Raises :class:`~repro.errors.ModelError` on malformed events
        (unknown op, machine outside this shard, duplicate arrival,
        unknown departure) — the service treats that as a shard failure
        and routes it into quarantine accounting.
        """
        machine = event["machine"]
        manager = self.managers.get(machine)
        if manager is None:
            raise ModelError(
                f"machine {machine!r} is not owned by shard {self.shard_id}"
            )
        op = event["op"]
        if op == "arrive":
            manager.arrive(
                ApplicationProfile(
                    name=event["app"],
                    comm_fraction=event["comm_fraction"],
                    message_size=event["message_size"],
                )
            )
        elif op == "depart":
            manager.depart(event["app"])
        else:
            raise ModelError(f"unknown fleet event op {op!r}")
        self._dirty.add(machine)
        self.applied += 1

    # -- queries --------------------------------------------------------------

    def _refresh(self, machine: int) -> None:
        manager = self.managers[machine]
        comp = manager.comp_slowdown_tagged()
        comm = manager.comm_slowdown_tagged()
        self._comp[machine] = float(comp.value)
        self._comm[machine] = float(comm.value)
        self._conf[machine] = min(comp.confidence, comm.confidence)
        self._dirty.discard(machine)

    def slowdowns(self, machine: int) -> tuple[float, float, Confidence]:
        """Memoized ``(comp, comm, confidence)`` for *machine* — O(1) warm."""
        if machine in self._dirty:
            self._refresh(machine)
        return self._comp[machine], self._comm[machine], self._conf[machine]

    def slowdowns_batch(
        self, machines: Iterable[int]
    ) -> dict[int, tuple[float, float, Confidence]]:
        """:meth:`slowdowns` over many machines — one result per machine.

        The object-backed shard evaluates each machine independently;
        :class:`ArrayShard` overrides this with a vectorized sweep. Both
        sides of the seam answer bit-identically.
        """
        return {machine: self.slowdowns(machine) for machine in machines}

    @property
    def rebuilds(self) -> int:
        """Total O(p²) distribution rebuilds across this shard's managers."""
        return sum(m.rebuilds for m in self.managers.values())

    def population(self) -> int:
        """Total applications registered across this shard's machines."""
        return sum(len(m) for m in self.managers.values())

    # -- recovery -------------------------------------------------------------

    def state_hash(self) -> str:
        """Bit-exact fingerprint of the shard's full model state.

        Covers, per machine in sorted order: the registered profiles
        (sorted by name) and the raw bytes of the ``pcomm`` array
        (``pcomp`` is derived from it, so it carries no state). Two
        shards that consumed the same event sequence hash identically —
        the replay-recovery oracle.
        """
        h = hashlib.blake2b(digest_size=16)
        for machine in sorted(self.machine_ids):
            manager = self.managers[machine]
            h.update(f"m{machine}:".encode())
            for name, prof in sorted(manager.snapshot().items()):
                h.update(
                    f"{name},{prof.comm_fraction!r},{prof.message_size!r};".encode()
                )
            h.update(manager.pcomm.tobytes())
        return h.hexdigest()

    def fresh(self) -> "Shard":
        """A new empty shard with the same id, machines and tables."""
        return Shard(self.shard_id, self.machine_ids, *self._tables)


class ArrayShard:
    """Struct-of-arrays shard state: :class:`Shard` semantics, pooled arrays.

    Instead of one :class:`SlowdownManager` object plus one
    ``ApplicationProfile`` per app, the whole machine slice lives in a
    handful of contiguous NumPy arrays:

    * ``_pcomm`` — the 2D overlap-distribution matrix, one row per
      machine, columns grown by doubling; row *i*'s live prefix is
      ``[: p_i + 1]``. ``pcomp`` is read as its reverse.
    * ``_frac`` / ``_size`` / ``_names`` — pooled per-app metadata; an
      app is a slot index (``_slots[row][name]``) into these pools,
      recycled through a free list on departure.
    * ``_plen`` — per-machine app counts; ``_mcomp``/``_mcomm``/
      ``_mconf`` — the memoized tagged-slowdown vectors, refreshed for
      all dirty machines at once through :mod:`repro.core.batch`.

    Per app this costs ~16 B of pooled numeric state plus one float64
    matrix cell and one dict entry — versus a profile object, a dict
    entry and one array cell per app in the object layout — which is
    what lets one process hold 1M registered apps.

    Bit-identity: arrivals/departures run the *same*
    :func:`~repro.core.probability.add_application` /
    :func:`~repro.core.probability.remove_application` /
    :func:`~repro.core.probability.overlap_distribution` update ladder
    on row views, and the batched refresh reproduces the scalar
    accumulation order of :class:`SlowdownManager`'s tagged queries via
    :func:`~repro.core.batch.sequential_fold`, so
    :meth:`state_hash` and every served ``(comp, comm, confidence)``
    triple are bit-identical to the object-backed oracle (pinned by the
    differential suite in ``tests/fleet/test_array_shard.py``).

    Note: profile metadata is held as float64, so events must carry
    float ``comm_fraction``/``message_size`` values — which the service
    validation layer and the JSON journal both guarantee.
    """

    _SLOT_CAP = 64
    _COL_CAP = 8

    def __init__(
        self,
        shard_id: int,
        machine_ids: Iterable[int],
        delay_comp: DelayTable | None = None,
        delay_comm: DelayTable | None = None,
        delay_comm_sized: SizedDelayTable | None = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.machine_ids = tuple(machine_ids)
        self._tables = (delay_comp, delay_comm, delay_comm_sized)
        self.delay_comp = delay_comp
        self.delay_comm = delay_comm
        self.delay_comm_sized = delay_comm_sized
        n = len(self.machine_ids)
        self._row: dict[int, int] = {m: i for i, m in enumerate(self.machine_ids)}
        #: Per machine row: app name → pooled slot, insertion-ordered
        #: (mirrors ``SlowdownManager._profiles`` ordering, which the
        #: rebuild and analytic-comm folds depend on).
        self._slots: list[dict[str, int]] = [{} for _ in range(n)]
        self._frac = np.zeros(self._SLOT_CAP)
        self._size = np.zeros(self._SLOT_CAP)
        self._names: list[str | None] = [None] * self._SLOT_CAP
        self._free: list[int] = []
        self._next_slot = 0
        self._plen = np.zeros(n, dtype=np.int64)
        self._pcomm = np.zeros((n, self._COL_CAP))
        if n:
            self._pcomm[:, 0] = 1.0
        self._mcomp = np.ones(n)
        self._mcomm = np.ones(n)
        self._mconf = np.full(n, int(Confidence.CALIBRATED), dtype=np.int64)
        self._dirty: set[int] = set(self.machine_ids)
        #: Cached ``table.delay(i, extrapolate=True)`` vectors, extended
        #: lazily as contention levels grow; index 0 is unused padding.
        self._vcomp = np.zeros(1)
        self._vcomm = np.zeros(1)
        self._vsized: dict[int, np.ndarray] = {}
        self.applied = 0
        #: O(p²) distribution rebuilds (departure deconvolution fallback).
        self.rebuilds = 0

    # -- pooled-slot management -----------------------------------------------

    def _alloc_slot(self, name: str, frac: float, size: float) -> int:
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._next_slot
            self._next_slot += 1
            if slot >= self._frac.size:
                cap = self._frac.size * 2
                for attr in ("_frac", "_size"):
                    grown = np.zeros(cap)
                    grown[: slot] = getattr(self, attr)[:slot]
                    setattr(self, attr, grown)
                self._names.extend([None] * (cap - len(self._names)))
        self._frac[slot] = frac
        self._size[slot] = size
        self._names[slot] = name
        return slot

    def _grow_cols(self, needed: int) -> None:
        old = self._pcomm
        cols = old.shape[1]
        while cols < needed:
            cols *= 2
        self._pcomm = np.zeros((old.shape[0], cols))
        self._pcomm[:, : old.shape[1]] = old

    # -- event stream ---------------------------------------------------------

    def apply(self, event: Mapping) -> None:
        """Apply one arrive/depart event — same contract as :meth:`Shard.apply`."""
        machine = event["machine"]
        i = self._row.get(machine)
        if i is None:
            raise ModelError(
                f"machine {machine!r} is not owned by shard {self.shard_id}"
            )
        op = event["op"]
        if op == "arrive":
            self._arrive(
                i, event["app"], event["comm_fraction"], event["message_size"]
            )
        elif op == "depart":
            self._depart(i, event["app"])
        else:
            raise ModelError(f"unknown fleet event op {op!r}")
        self._dirty.add(machine)
        self.applied += 1

    def _arrive(self, i: int, name: str, frac: float, size: float) -> None:
        # Same validation ladder (and exception types) as constructing
        # an ApplicationProfile, then the manager's duplicate check.
        frac = check_fraction(frac, "comm_fraction")
        size = check_nonnegative(size, "message_size")
        if frac > 0 and size <= 0:
            raise ModelError(
                f"application {name!r} communicates {frac:.0%} of the time "
                "but declares no message size"
            )
        slots = self._slots[i]
        if name in slots:
            raise ModelError(f"application {name!r} is already registered")
        p = int(self._plen[i])
        # Compute the update from the row view *before* any capacity
        # growth — growth reallocates the matrix and would orphan it.
        new_comm = add_application(self._pcomm[i, : p + 1], frac)
        if p + 2 > self._pcomm.shape[1]:
            self._grow_cols(p + 2)
        slots[name] = self._alloc_slot(name, frac, size)
        self._pcomm[i, : p + 2] = new_comm
        self._plen[i] = p + 1

    def _depart(self, i: int, name: str) -> None:
        slots = self._slots[i]
        slot = slots.pop(name, None)
        if slot is None:
            raise ModelError(f"application {name!r} is not registered")
        p = int(self._plen[i])
        frac = float(self._frac[slot])
        try:
            new_comm = remove_application(self._pcomm[i, : p + 1], frac)
        except ModelError:
            # Deconvolution ill-conditioned — the O(p²) rebuild, from
            # the remaining fractions in registration order.
            fractions = [float(self._frac[s]) for s in slots.values()]
            new_comm = overlap_distribution(fractions)
            self.rebuilds += 1
        self._pcomm[i, :p] = new_comm
        self._plen[i] = p - 1
        self._names[slot] = None
        self._free.append(slot)

    # -- queries --------------------------------------------------------------

    @staticmethod
    def _extended(vec: np.ndarray, table: DelayTable, n: int) -> np.ndarray:
        """Delay vector covering levels ``1..n`` (``vec[0]`` is padding)."""
        if vec.size > n:
            return vec
        grown = np.zeros(n + 1)
        grown[: vec.size] = vec
        for level in range(max(1, vec.size), n + 1):
            grown[level] = table.delay(level, extrapolate=True)
        return grown

    @staticmethod
    def _max_level(tail: np.ndarray) -> int:
        """Largest contention level with mass, given ``dist[1 : p + 1]``."""
        nz = np.nonzero(tail > 0.0)[0]
        return int(nz[-1]) + 1 if nz.size else 0

    def _max_message_size(self, i: int) -> float:
        slots = self._slots[i]
        if not slots:
            return 0.0
        order = np.fromiter(slots.values(), np.int64, len(slots))
        return float(self._size[order].max())

    def _comm_calibrated(self, i: int, p: int) -> tuple[float, Confidence]:
        self._vcomp = self._extended(self._vcomp, self.delay_comp, p)
        self._vcomm = self._extended(self._vcomm, self.delay_comm, p)
        comp_tail = comp_distribution(self._pcomm[i, : p + 1])[1:]
        comm_tail = self._pcomm[i, 1 : p + 1]
        # Zero-mass levels contribute an exact +0.0 product, which the
        # sequential fold absorbs bit-neutrally — same accumulation
        # order as weighted_delay's skip-zero scalar loop.
        wd_comp = sequential_fold(comp_tail * self._vcomp[1 : p + 1])
        wd_comm = sequential_fold(comm_tail * self._vcomm[1 : p + 1])
        value = (1.0 + wd_comp) + wd_comm
        within = (
            self._max_level(comp_tail) <= self.delay_comp.max_level
            and self._max_level(comm_tail) <= self.delay_comm.max_level
        )
        return value, Confidence.CALIBRATED if within else Confidence.EXTRAPOLATED

    def _comp_calibrated(self, i: int, p: int) -> tuple[float, Confidence]:
        sized = self.delay_comm_sized
        size = self._max_message_size(i)
        bucket = sized.select_bucket(size)
        vec = self._extended(self._vsized.get(bucket, np.zeros(1)), sized.tables[bucket], p)
        self._vsized[bucket] = vec
        # comp_distribution returns a fresh contiguous array, exactly
        # like the manager's, so np.dot takes the same code path.
        pcomp = comp_distribution(self._pcomm[i, : p + 1])
        cpu_term = float(np.dot(np.arange(p + 1), pcomp))
        comm_tail = self._pcomm[i, 1 : p + 1]
        comm_term = sequential_fold(comm_tail * vec[1 : p + 1])
        value = 1.0 + cpu_term + comm_term
        comm_level = self._max_level(comm_tail)
        if comm_level > 0 and comm_level > sized.tables[bucket].max_level:
            return value, Confidence.EXTRAPOLATED
        return value, Confidence.CALIBRATED

    def _refresh_batch(self) -> None:
        machines = sorted(self._dirty)
        rows = np.fromiter(
            (self._row[m] for m in machines), np.int64, len(machines)
        )
        ps = self._plen[rows]
        analytic_comp = self.delay_comm_sized is None
        analytic_comm = self.delay_comp is None or self.delay_comm is None
        comp_vals = cm2_slowdowns(ps) if analytic_comp else None
        comm_vals = None
        if analytic_comm:
            # 1 + Σ f_k per machine, folded in registration order —
            # the batched form of analytic_comm_slowdown.
            segments = [
                self._frac[np.fromiter(s.values(), np.int64, len(s))]
                for s in (self._slots[i] for i in rows)
            ]
            comm_vals = sequential_folds(segments, init=1.0)
        for k, i in enumerate(rows):
            i = int(i)
            p = int(ps[k])
            if p == 0:
                self._mcomp[i] = 1.0
                self._mcomm[i] = 1.0
                self._mconf[i] = int(Confidence.CALIBRATED)
                continue
            if analytic_comp:
                comp, comp_conf = float(comp_vals[k]), Confidence.ANALYTIC
            else:
                comp, comp_conf = self._comp_calibrated(i, p)
            if analytic_comm:
                comm, comm_conf = float(comm_vals[k]), Confidence.ANALYTIC
            else:
                comm, comm_conf = self._comm_calibrated(i, p)
            self._mcomp[i] = comp
            self._mcomm[i] = comm
            self._mconf[i] = int(min(comp_conf, comm_conf))
        self._dirty.clear()

    def slowdowns(self, machine: int) -> tuple[float, float, Confidence]:
        """Memoized ``(comp, comm, confidence)`` for *machine* — O(1) warm."""
        if self._dirty:
            self._refresh_batch()
        i = self._row[machine]
        return (
            float(self._mcomp[i]),
            float(self._mcomm[i]),
            Confidence(int(self._mconf[i])),
        )

    def slowdowns_batch(
        self, machines: Iterable[int]
    ) -> dict[int, tuple[float, float, Confidence]]:
        """Tagged slowdowns for many machines in one dirty-set sweep."""
        if self._dirty:
            self._refresh_batch()
        out: dict[int, tuple[float, float, Confidence]] = {}
        for machine in machines:
            i = self._row[machine]
            out[machine] = (
                float(self._mcomp[i]),
                float(self._mcomm[i]),
                Confidence(int(self._mconf[i])),
            )
        return out

    def population(self) -> int:
        """Total applications registered across this shard's machines."""
        return int(self._plen.sum())

    # -- recovery -------------------------------------------------------------

    def state_hash(self) -> str:
        """Bit-exact fingerprint — byte-identical to :meth:`Shard.state_hash`."""
        h = hashlib.blake2b(digest_size=16)
        for machine in sorted(self.machine_ids):
            i = self._row[machine]
            h.update(f"m{machine}:".encode())
            slots = self._slots[i]
            for name in sorted(slots):
                slot = slots[name]
                h.update(
                    f"{name},{float(self._frac[slot])!r},"
                    f"{float(self._size[slot])!r};".encode()
                )
            p = int(self._plen[i])
            h.update(self._pcomm[i, : p + 1].tobytes())
        return h.hexdigest()

    def write_snapshot(self, fd: int) -> int:
        """Stream the shard's replay-relevant state into *fd*; return its size.

        The snapshot is everything :meth:`state_hash` covers plus what
        later events read: ``_plen``, the live ``[:, :max_p + 1]``
        columns of the ``pcomm`` matrix, and per machine row its
        app names in insertion order with their fraction and size.
        Slot numbers, free lists, column capacity and the memoized
        slowdowns are not state — :meth:`load_snapshot` rebuilds them.
        Rows go out in bounded chunks through ``pwrite`` (no buffer of
        the whole snapshot), closed by a blake2b digest of every byte
        before it, so a torn or flipped slot never loads.
        """
        n = len(self.machine_ids)
        cols = int(self._plen.max()) + 1 if n else 1
        apps = int(self._plen.sum())
        out = _SnapshotWriter(fd)
        out.write(_SNAPSHOT_MAGIC)
        out.write(_SNAPSHOT_HEADER.pack(n, cols, apps, self.applied))
        out.write(self._plen.tobytes())
        rows = _snapshot_rows(cols)
        for lo in range(0, n, rows):
            out.write(self._pcomm[lo : lo + rows, :cols].tobytes())
        for slots in self._slots:
            if not slots:
                continue
            order = np.fromiter(slots.values(), np.int64, len(slots))
            names = [name.encode("utf-8", "surrogatepass") for name in slots]
            out.write(self._frac[order].tobytes())
            out.write(self._size[order].tobytes())
            out.write(np.fromiter(map(len, names), np.int64, len(names)).tobytes())
            out.write(b"".join(names))
        return out.close()

    def load_snapshot(self, fd: int) -> "ArrayShard":
        """A new shard rebuilt from a :meth:`write_snapshot` stream in *fd*.

        Same id, machines and tables as this one. Raises
        :class:`~repro.errors.ModelError` when the stream is short,
        malformed, shaped for another slice, or fails its digest; the
        caller must still compare the rebuilt :meth:`state_hash`
        against a trusted fingerprint before believing it.
        """
        src = _SnapshotReader(fd)
        if src.read(len(_SNAPSHOT_MAGIC)) != _SNAPSHOT_MAGIC:
            raise ModelError("not a shard snapshot")
        n, cols, apps, applied = _SNAPSHOT_HEADER.unpack(
            src.read(_SNAPSHOT_HEADER.size)
        )
        if n != len(self.machine_ids) or cols < 1 or apps < 0:
            raise ModelError(f"snapshot shaped for {n} machines, not this slice")
        plen = src.array("<i8", n)
        if n and (int(plen.max()) + 1 != cols or int(plen.sum()) != apps):
            raise ModelError("snapshot header disagrees with its app counts")
        shard = self.fresh()
        capacity = shard._COL_CAP
        while capacity < cols + 1:
            capacity *= 2
        shard._pcomm = np.zeros((n, capacity))
        rows = _snapshot_rows(cols)
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            shard._pcomm[lo:hi, :cols] = src.array("<f8", (hi - lo) * cols).reshape(-1, cols)
        shard._plen = plen.astype(np.int64)
        slots_cap = max(shard._SLOT_CAP, apps)
        shard._frac = np.zeros(slots_cap)
        shard._size = np.zeros(slots_cap)
        shard._names = [None] * slots_cap
        slot = 0
        for i, p in enumerate(plen.tolist()):
            if not p:
                continue
            shard._frac[slot : slot + p] = src.array("<f8", p)
            shard._size[slot : slot + p] = src.array("<f8", p)
            lengths = src.array("<i8", p).tolist()
            blob = src.read(sum(lengths))
            row = shard._slots[i]
            start = 0
            for length in lengths:
                try:
                    name = blob[start : start + length].decode("utf-8", "surrogatepass")
                except UnicodeDecodeError as exc:
                    raise ModelError(f"snapshot name is not UTF-8: {exc}") from None
                start += length
                row[name] = slot
                shard._names[slot] = name
                slot += 1
        src.verify_trailer()
        shard._next_slot = slot
        shard.applied = int(applied)
        return shard

    def fresh(self) -> "ArrayShard":
        """A new empty shard with the same id, machines and tables."""
        return ArrayShard(self.shard_id, self.machine_ids, *self._tables)
