"""Heartbeat snapshots: bounded respawn without giving up bit-identity.

Two layers. In process, the :class:`~repro.fleet.shard.ArrayShard`
snapshot stream must round-trip exactly, refuse every torn or flipped
byte, and — loaded at any point *k* of a journal and followed by the
tail replayed from *k*'s byte offset — land on the same state hash,
count and stream chain as a full replay. Across processes, the
supervisor must adopt snapshots only on matching pongs, never let a
worker overwrite the adopted slot, fall back to a full replay on any
reject, keep a corrupted journal tail quarantined, and respawn
bit-identical after every fault kind.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import signal
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError, RecoveryError
from repro.experiments.journal import EventLog
from repro.fleet import (
    AdmissionController,
    ArrayShard,
    FleetService,
    ShardPolicy,
    SupervisedFleetService,
    SupervisorPolicy,
    TenantQuota,
    replay_stream,
    synthetic_feed,
)
from repro.fleet.worker import SnapshotSlot
from repro.parallel.containment import FailurePolicy

MACHINES = 16
SHARDS = 4


def admission() -> AdmissionController:
    return AdmissionController(default=TenantQuota(max_apps=10**9))


# -- in process: the snapshot stream ---------------------------------------------


def journal(tmp_path_factory, events: int = 600) -> tuple[str, list[tuple[int, int]]]:
    """A fleet journal plus the ``(offset, seq)`` start of every record."""
    path = tmp_path_factory.mktemp("snap") / "fleet.jsonl"
    log = EventLog(path, sync=False)
    service = FleetService(
        machines=MACHINES, num_shards=SHARDS, admission=admission(), log=log
    )
    marks = []
    for event in synthetic_feed(seed=13, events=events, machines=MACHINES):
        marks.append((log.offset, log.next_seq))
        service.apply(event)
    marks.append((log.offset, log.next_seq))
    log.close()
    return str(path), marks


@pytest.fixture(scope="module")
def logged(tmp_path_factory):
    return journal(tmp_path_factory)


def shard(sid: int) -> ArrayShard:
    return ArrayShard(sid, range(sid, MACHINES, SHARDS))


def as_rsnap001(data: bytes) -> bytes:
    """Re-encode an ``RSNAP002`` snapshot stream in the ``RSNAP001`` layout.

    ``RSNAP001`` carried a second matrix, each row's ``pcomp`` (the
    reversed ``pcomm`` prefix), right after the ``pcomm`` matrix. The
    digest trailer is recomputed, so only the magic and the layout are
    stale: a loader that refuses it refuses it for its version.
    """
    header = struct.Struct("<4q")
    n, cols, _, _ = header.unpack_from(data, 8)
    at = 8 + header.size
    plen = np.frombuffer(data, "<i8", n, at)
    at += 8 * n
    pcomm = np.frombuffer(data, "<f8", n * cols, at).reshape(n, cols)
    at += 8 * n * cols
    pcomp = np.zeros((n, cols))
    for i, p in enumerate(plen.tolist()):
        pcomp[i, : p + 1] = pcomm[i, p::-1]
    body = b"RSNAP001" + data[8:at] + pcomp.tobytes() + data[at:-16]
    return body + hashlib.blake2b(body, digest_size=16).digest()


def rewrite(fd: int, data: bytes) -> None:
    os.ftruncate(fd, 0)
    os.pwrite(fd, data, 0)


@pytest.fixture
def slot():
    s = SnapshotSlot()
    yield s
    s.close()


class TestSnapshotStream:
    def test_round_trip_preserves_state_and_behaviour(self, logged, slot):
        path, _ = logged
        original = shard(1)
        events = list(EventLog.replay(path))
        half = len(events) // 2
        replay_stream(original, events[:half])
        original.write_snapshot(slot.fd)
        loaded = original.load_snapshot(slot.fd)
        assert loaded.state_hash() == original.state_hash()
        assert loaded.applied == original.applied
        machines = list(original.machine_ids)
        assert loaded.slowdowns_batch(machines) == original.slowdowns_batch(machines)
        # Same future: every later event lands identically.
        replay_stream(original, events[half:])
        replay_stream(loaded, events[half:])
        assert loaded.state_hash() == original.state_hash()
        assert loaded.slowdowns_batch(machines) == original.slowdowns_batch(machines)

    def test_empty_shard_round_trips(self, slot):
        empty = shard(0)
        empty.write_snapshot(slot.fd)
        assert empty.load_snapshot(slot.fd).state_hash() == empty.state_hash()

    def test_every_flipped_or_torn_byte_is_refused(self, logged, slot):
        path, _ = logged
        original = shard(2)
        replay_stream(original, EventLog.replay(path))
        size = original.write_snapshot(slot.fd)
        data = os.pread(slot.fd, size, 0)
        for pos in range(0, size, max(1, size // 200)):
            corrupt = bytearray(data)
            corrupt[pos] ^= 0x01
            os.pwrite(slot.fd, bytes(corrupt), 0)
            with pytest.raises(ModelError):
                original.load_snapshot(slot.fd)
        for cut in (0, 1, size // 2, size - 1):
            os.ftruncate(slot.fd, 0)
            os.pwrite(slot.fd, data[:cut], 0)
            with pytest.raises(ModelError):
                original.load_snapshot(slot.fd)

    def test_rsnap001_stream_is_refused(self, logged, slot):
        path, _ = logged
        original = shard(1)
        replay_stream(original, EventLog.replay(path))
        size = original.write_snapshot(slot.fd)
        rewrite(slot.fd, as_rsnap001(os.pread(slot.fd, size, 0)))
        with pytest.raises(ModelError, match="not a shard snapshot"):
            original.load_snapshot(slot.fd)

    def test_snapshot_of_another_slice_is_refused(self, logged, slot):
        path, _ = logged
        wide = ArrayShard(0, range(0, MACHINES, 2))
        replay_stream(wide, EventLog.replay(path))
        wide.write_snapshot(slot.fd)
        with pytest.raises(ModelError):
            shard(0).load_snapshot(slot.fd)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(min_value=0, max_value=600), sid=st.integers(0, SHARDS - 1))
    def test_snapshot_plus_tail_equals_full_replay(self, logged, k, sid):
        path, marks = logged
        full = shard(sid)
        whole = replay_stream(full, EventLog.replay(path))
        prefix = shard(sid)
        head = replay_stream(
            prefix,
            itertools.takewhile(lambda e: e["seq"] < k, EventLog.replay(path)),
        )
        s = SnapshotSlot()
        try:
            prefix.write_snapshot(s.fd)
            loaded = prefix.load_snapshot(s.fd)
        finally:
            s.close()
        tail = replay_stream(
            loaded,
            EventLog.replay(path, marks[k]),
            chain=head.chain,
            already=loaded.applied,
        )
        assert (tail.count, tail.chain) == (whole.count, whole.chain)
        assert loaded.state_hash() == full.state_hash()


# -- across processes: adoption, respawn, rejects -----------------------------------


def make_supervised(tmp_path, name="fleet.jsonl", **policy) -> SupervisedFleetService:
    settings_ = dict(
        heartbeat_interval=0.05,
        heartbeat_timeout=2.0,
        batch_size=8,
        containment=FailurePolicy(deadline=1.5),
    )
    settings_.update(policy)
    return SupervisedFleetService(
        machines=MACHINES,
        num_shards=SHARDS,
        admission=admission(),
        policy=ShardPolicy(failure_threshold=1, recovery_time=0.1),
        log=EventLog(tmp_path / name, sync=False),
        supervisor=SupervisorPolicy(**settings_),
    )


FEED_SEED = 19
FEED_EVENTS = 900


def feed():
    return list(synthetic_feed(seed=FEED_SEED, events=FEED_EVENTS, machines=MACHINES))


def oracle_hash() -> str:
    service = FleetService(machines=MACHINES, num_shards=SHARDS, admission=admission())
    for event in feed():
        service.apply(event)
    return service.state_hash()


def settle_snapshot(service: SupervisedFleetService, sid: int) -> int:
    """Tick until shard *sid*'s adopted snapshot covers every admitted
    event, then drain: no snapshot-bearing ping is left in flight."""
    deadline = time.monotonic() + 30.0
    while True:
        assert service.await_recovery(timeout=30.0)
        snapshot = service.worker_snapshot(sid)
        if snapshot is not None and snapshot.count == service._stream_count[sid]:
            return snapshot.count
        assert time.monotonic() < deadline, "no snapshot was adopted"
        time.sleep(0.06)
        service.tick(force=True)


def kill_and_recover(service: SupervisedFleetService, sid: int) -> None:
    os.kill(service.worker_pid(sid), signal.SIGKILL)
    assert service.await_recovery(timeout=60.0)


class TestBoundedRespawn:
    def test_respawn_replays_only_the_tail(self, tmp_path):
        events = feed()
        with make_supervised(tmp_path) as service:
            for event in events[:600]:
                service.apply(event)
            covered = settle_snapshot(service, 1)
            for event in events[600:]:
                service.apply(event)
            assert service.await_recovery(timeout=30.0)
            snapshot = service.worker_snapshot(1)
            tail = service._stream_count[1] - snapshot.count
            assert snapshot.count >= covered
            kill_and_recover(service, 1)
            counters = service.counters()
            assert counters["snapshot_loads"] == 1
            assert counters["snapshot_rejects"] == 0
            assert counters["replay_events"] == tail
            assert counters["recovery_mismatches"] == 0
            assert service.state_hash() == oracle_hash()

    def test_hash_free_heartbeats_keep_the_full_replay(self, tmp_path):
        events = feed()
        with make_supervised(tmp_path, heartbeat_hash=False) as service:
            for event in events:
                service.apply(event)
            assert service.await_recovery(timeout=30.0)
            time.sleep(0.1)
            service.tick(force=True)
            assert service.worker_snapshot(2) is None
            owned = service._stream_count[2]
            kill_and_recover(service, 2)
            counters = service.counters()
            assert counters["snapshot_loads"] == counters["snapshot_rejects"] == 0
            assert counters["replay_events"] == owned
            assert service.state_hash() == oracle_hash()

    @pytest.mark.parametrize("where", ["header", "middle", "trailer"])
    def test_corrupted_adopted_slot_is_rejected_then_fully_replayed(
        self, tmp_path, where
    ):
        events = feed()
        with make_supervised(tmp_path) as service:
            for event in events:
                service.apply(event)
            settle_snapshot(service, 3)
            snapshot = service.worker_snapshot(3)
            fd = service._slots[3][snapshot.slot].fd
            size = os.fstat(fd).st_size
            pos = {"header": 10, "middle": size // 2, "trailer": size - 1}[where]
            byte = os.pread(fd, 1, pos)
            os.pwrite(fd, bytes([byte[0] ^ 0x40]), pos)
            owned = service._stream_count[3]
            kill_and_recover(service, 3)
            counters = service.counters()
            assert counters["snapshot_rejects"] == 1
            assert counters["snapshot_loads"] == 0
            assert counters["replay_events"] == owned  # the full fallback
            assert counters["recovery_mismatches"] == 0
            assert service.worker_snapshot(3) is None  # dropped once rejected
            assert service.state_hash() == oracle_hash()

    def test_torn_adopted_slot_is_rejected_then_fully_replayed(self, tmp_path):
        with make_supervised(tmp_path) as service:
            for event in feed():
                service.apply(event)
            settle_snapshot(service, 0)
            snapshot = service.worker_snapshot(0)
            fd = service._slots[0][snapshot.slot].fd
            os.ftruncate(fd, os.fstat(fd).st_size - 7)
            kill_and_recover(service, 0)
            assert service.counters()["snapshot_rejects"] == 1
            assert service.state_hash() == oracle_hash()

    def test_rsnap001_slot_is_rejected_then_fully_replayed(self, tmp_path):
        with make_supervised(tmp_path) as service:
            for event in feed():
                service.apply(event)
            settle_snapshot(service, 2)
            snapshot = service.worker_snapshot(2)
            fd = service._slots[2][snapshot.slot].fd
            rewrite(fd, as_rsnap001(os.pread(fd, os.fstat(fd).st_size, 0)))
            owned = service._stream_count[2]
            kill_and_recover(service, 2)
            counters = service.counters()
            assert counters["snapshot_rejects"] == 1
            assert counters["snapshot_loads"] == 0
            assert counters["replay_events"] == owned  # the full fallback
            assert counters["recovery_mismatches"] == 0
            assert service.state_hash() == oracle_hash()

    def test_two_pings_in_flight_never_touch_the_adopted_slot(self, tmp_path):
        with make_supervised(tmp_path) as service:
            for event in feed():
                service.apply(event)
            settle_snapshot(service, 1)
            # Now ping on every sweep, so heartbeats stack up unanswered.
            service.supervisor = dataclasses.replace(
                service.supervisor, heartbeat_interval=1e-6
            )
            worker = service._workers[1]
            stacked = 0
            for _ in range(200):
                adopted = service.worker_snapshot(1)
                fd = service._slots[1][adopted.slot].fd
                before = os.pread(fd, os.fstat(fd).st_size, 0)
                service.tick(force=True)
                service.tick(force=True)
                pings = [e for e in worker.pending if e.kind == "ping"]
                stacked = max(stacked, len(pings))
                snapshotting = [e.meta for e in pings if e.meta is not None]
                assert len(snapshotting) <= 1
                current = service.worker_snapshot(1)
                assert all(s.slot != current.slot for s in snapshotting)
                if current == adopted:
                    # Still adopted: not a byte of it may have changed.
                    assert os.pread(fd, os.fstat(fd).st_size, 0) == before
            assert stacked >= 2, "the test never had two pings in flight"
            service.supervisor = dataclasses.replace(
                service.supervisor, heartbeat_interval=0.05
            )
            assert service.await_recovery(timeout=30.0)
            assert service.state_hash() == oracle_hash()

    def test_corrupted_journal_line_in_the_tail_keeps_shard_quarantined(
        self, tmp_path
    ):
        events = feed()
        with make_supervised(tmp_path, name="tail.jsonl") as service:
            for event in events[:500]:
                service.apply(event)
            settle_snapshot(service, 1)
            # No further heartbeats: the events below stay in the tail.
            service.supervisor = dataclasses.replace(
                service.supervisor, heartbeat_interval=3600.0
            )
            for event in events[500:]:
                service.apply(event)
            assert service.await_recovery(timeout=30.0)
            start_seq = service.worker_snapshot(1).seq
            path = service.log.path
            lines = path.read_text(encoding="utf-8").splitlines()
            victim = next(
                i
                for i, line in enumerate(lines)
                if i >= start_seq and json.loads(line).get("machine", 0) % SHARDS == 1
            )
            lines[victim] = lines[victim][:-2] + "XX}"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            os.kill(service.worker_pid(1), signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while service.counters()["recovery_mismatches"] == 0:
                assert time.monotonic() < deadline, "mismatch never surfaced"
                service.tick(force=True)
                time.sleep(0.01)
            assert 1 in service.quarantined
            assert service.counters()["snapshot_loads"] >= 1
            error = service.last_recovery_error
            assert isinstance(error, RecoveryError)
            assert error.shard_id == 1
            assert error.replayed_events < error.expected_events

    def test_journal_rewritten_under_the_snapshot_is_refused(self, tmp_path):
        # A line *before* the snapshot's offset grows by one byte: the
        # snapshot itself is fine, but its recorded offset no longer
        # starts a line, so the tail is refused even when it is empty.
        with make_supervised(tmp_path, name="rewritten.jsonl") as service:
            for event in feed():
                service.apply(event)
            settle_snapshot(service, 1)
            path = service.log.path
            lines = path.read_text(encoding="utf-8").splitlines()
            lines[5] = lines[5][:-2] + "XX}"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            os.kill(service.worker_pid(1), signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while service.counters()["recovery_mismatches"] == 0:
                assert time.monotonic() < deadline, "mismatch never surfaced"
                service.tick(force=True)
                time.sleep(0.01)
            assert 1 in service.quarantined
            assert service.counters()["snapshot_loads"] >= 1
            assert "does not start a line" in str(service.last_recovery_error)


class TestFaultsAfterSnapshot:
    @pytest.mark.parametrize("kind", ["exit", "hang", "raise"])
    def test_fault_right_after_snapshot_pong_respawns_bit_identical(
        self, tmp_path, kind
    ):
        events = feed()
        with make_supervised(tmp_path) as service:
            for event in events[:450]:
                service.apply(event)
            settle_snapshot(service, 2)
            assert service.inject_fault(2, kind, after=1)
            for event in events[450:]:
                service.apply(event)
            assert service.await_recovery(timeout=60.0)
            counters = service.counters()
            assert counters["respawns"] >= 1
            assert counters["snapshot_loads"] >= 1
            assert counters["recovery_mismatches"] == 0
            assert service.state_hash() == oracle_hash()


class TestAwaitRecoveryRace:
    def test_await_recovery_straight_after_sigkill_waits_for_the_respawn(
        self, tmp_path
    ):
        with make_supervised(tmp_path, heartbeat_interval=5.0) as service:
            for event in feed():
                service.apply(event)
            assert service.await_recovery(timeout=30.0)
            os.kill(service.worker_pid(0), signal.SIGKILL)
            assert service.await_recovery(timeout=60.0)
            assert service.counters()["respawns"] == 1
            assert service.state_hash() == oracle_hash()
