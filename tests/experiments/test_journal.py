"""Run-journal tests: keying, durability, resume bit-identity."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.experiments import journal as journal_mod
from repro.experiments.journal import (
    JOURNAL_VERSION,
    RunJournal,
    active,
    describe_task,
    journaled,
    point,
    point_key,
)
from repro.experiments.runner import repeat_mean
from repro.sim.rng import RandomStreams


def _draw(streams: RandomStreams) -> float:
    return float(streams.get("x").random())


@dataclass(frozen=True)
class Probe:
    """A describable frozen-dataclass task."""

    size: int
    mode: str

    def __call__(self, streams: RandomStreams) -> float:
        return float(self.size)


class TestPointKey:
    def test_stable_across_calls(self):
        a = point_key("sweep", {"m": 3, "p": 2})
        b = point_key("sweep", {"m": 3, "p": 2})
        assert a == b
        assert len(a) == 32  # blake2b digest_size=16, hex

    def test_key_ordering_insensitive(self):
        assert point_key("k", {"a": 1, "b": 2}) == point_key("k", {"b": 2, "a": 1})

    def test_kind_and_params_distinguish(self):
        base = point_key("sweep", {"m": 3})
        assert point_key("other", {"m": 3}) != base
        assert point_key("sweep", {"m": 4}) != base


class TestDescribeTask:
    def test_primitives_and_containers(self):
        assert describe_task({"a": (1, 2.5), "b": None}) == {"a": [1, 2.5], "b": None}

    def test_frozen_dataclass(self):
        desc = describe_task(Probe(size=8, mode="1hop"))
        assert desc["task"].endswith("Probe")
        assert desc["fields"] == {"size": 8, "mode": "1hop"}

    def test_module_level_function(self):
        desc = describe_task(_draw)
        assert desc == {"callable": f"{_draw.__module__}._draw"}

    def test_lambda_rejected(self):
        assert describe_task(lambda s: 0.0) is None

    def test_closure_rejected(self):
        def outer():
            captured = 3.0

            def inner(streams):
                return captured

            return inner

        assert describe_task(outer()) is None

    def test_dataclass_with_undescribable_field_rejected(self):
        @dataclass(frozen=True)
        class Bad:
            fn: object

        assert describe_task(Bad(fn=lambda: 1)) is None


class TestRunJournal:
    def test_fresh_journal_truncates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("stale garbage\n")
        with RunJournal(path, resume=False) as journal:
            assert len(journal) == 0
        assert path.read_text() == ""

    def test_record_returns_json_round_trip(self, tmp_path):
        with RunJournal(tmp_path / "run.jsonl") as journal:
            value = journal.record("k1", "test", {"m": 1}, {"values": (1.0, 2.0)})
        assert value == {"values": [1.0, 2.0]}  # tuple became list

    def test_point_hits_and_misses(self, tmp_path):
        with RunJournal(tmp_path / "run.jsonl") as journal:
            first = journal.point("test", {"m": 1}, lambda: 42.0)
            second = journal.point("test", {"m": 1}, lambda: pytest.fail("recomputed"))
        assert first == second == 42.0
        assert journal.misses == 1
        assert journal.hits == 1

    def test_resume_replays_completed_points(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.point("test", {"m": 1}, lambda: 1.5)
            journal.point("test", {"m": 2}, lambda: 2.5)
        with RunJournal(path, resume=True) as resumed:
            assert len(resumed) == 2
            assert resumed.point("test", {"m": 1}, lambda: pytest.fail("hit")) == 1.5
            assert resumed.point("test", {"m": 3}, lambda: 3.5) == 3.5
        # The new point was appended, not rewritten.
        with RunJournal(path, resume=True) as again:
            assert len(again) == 3

    def test_torn_last_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.point("test", {"m": 1}, lambda: 1.5)
            journal.point("test", {"m": 2}, lambda: 2.5)
        # Simulate a kill -9 mid-write: truncate the last line.
        torn = path.read_text()[:-20]
        path.write_text(torn)
        with RunJournal(path, resume=True) as resumed:
            assert len(resumed) == 1
            assert resumed.skipped == 1

    def test_foreign_version_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record = {"v": JOURNAL_VERSION + 1, "key": "k", "kind": "t", "params": {}, "value": 1.0}
        path.write_text(json.dumps(record) + "\n")
        with RunJournal(path, resume=True) as resumed:
            assert len(resumed) == 0
            assert resumed.skipped == 1

    def test_version_participates_in_key(self):
        # Bumping JOURNAL_VERSION must invalidate every old key.
        k = point_key("t", {"m": 1})
        original = journal_mod.JOURNAL_VERSION
        try:
            journal_mod.JOURNAL_VERSION = original + 1
            assert point_key("t", {"m": 1}) != k
        finally:
            journal_mod.JOURNAL_VERSION = original


class TestAmbientJournal:
    def test_journaled_installs_and_restores(self, tmp_path):
        assert active() is None
        with RunJournal(tmp_path / "run.jsonl") as journal:
            with journaled(journal):
                assert active() is journal
            assert active() is None

    def test_point_without_journal_round_trips(self):
        # The invariant that makes journaling safe to enable: even with
        # no journal, values pass through JSON exactly once.
        assert point("t", {}, lambda: {"values": (1.0, 2.0)}) == {"values": [1.0, 2.0]}

    def test_point_with_journal_records(self, tmp_path):
        with RunJournal(tmp_path / "run.jsonl") as journal, journaled(journal):
            assert point("t", {"m": 1}, lambda: 5.0) == 5.0
        assert journal.misses == 1


class TestRepeatMeanJournaling:
    def test_replay_is_bit_identical_and_skips_compute(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal, journaled(journal):
            fresh = repeat_mean(_draw, repetitions=4, seed=11)
        assert journal.misses == 1
        with RunJournal(path, resume=True) as resumed, journaled(resumed):
            replayed = repeat_mean(_draw, repetitions=4, seed=11)
        assert resumed.hits == 1 and resumed.misses == 0
        assert replayed.values == fresh.values

    def test_journaled_equals_unjournaled(self, tmp_path):
        bare = repeat_mean(_draw, repetitions=3, seed=4)
        with RunJournal(tmp_path / "run.jsonl") as journal, journaled(journal):
            journaled_rep = repeat_mean(_draw, repetitions=3, seed=4)
        assert journaled_rep.values == bare.values

    def test_key_covers_seed_and_repetitions(self, tmp_path):
        with RunJournal(tmp_path / "run.jsonl") as journal, journaled(journal):
            repeat_mean(_draw, repetitions=2, seed=1)
            repeat_mean(_draw, repetitions=2, seed=2)
            repeat_mean(_draw, repetitions=3, seed=1)
        assert journal.misses == 3

    def test_undescribable_measure_computes_unjournaled(self, tmp_path):
        with RunJournal(tmp_path / "run.jsonl") as journal, journaled(journal):
            rep = repeat_mean(lambda s: 7.0, repetitions=2, seed=0)
        assert rep.mean == 7.0
        assert journal.misses == 0 and len(journal) == 0


class TestSweepResume:
    def test_saturation_sweep_resume_equivalence(self, tmp_path):
        from repro.experiments.robustness import saturation_sweep

        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal, journaled(journal):
            fresh = saturation_sweep(quick=True)
        assert journal.misses > 0
        with RunJournal(path, resume=True) as resumed, journaled(resumed):
            replayed = saturation_sweep(quick=True)
        assert resumed.misses == 0
        assert replayed.rows == fresh.rows
        assert replayed.metrics == fresh.metrics


class TestEventLog:
    def _events(self, n):
        return [{"op": "arrive", "app": f"a{i}", "machine": i % 3} for i in range(n)]

    def test_append_stamps_monotone_seq(self, tmp_path):
        from repro.experiments.journal import EventLog

        with EventLog(tmp_path / "ev.jsonl") as log:
            stamped = [log.append(e) for e in self._events(4)]
        assert [e["seq"] for e in stamped] == [0, 1, 2, 3]
        assert all(e["v"] == JOURNAL_VERSION for e in stamped)

    def test_replay_yields_appended_events_in_order(self, tmp_path):
        from repro.experiments.journal import EventLog

        path = tmp_path / "ev.jsonl"
        with EventLog(path) as log:
            stamped = [log.append(e) for e in self._events(5)]
        assert list(EventLog.replay(path)) == stamped

    def test_append_returns_json_roundtrip(self, tmp_path):
        # Live application and replayed recovery must see identical
        # data, so append returns what replay will yield.
        from repro.experiments.journal import EventLog

        with EventLog(tmp_path / "ev.jsonl") as log:
            out = log.append({"op": "arrive", "app": "a", "comm_fraction": 0.1})
        assert out["comm_fraction"] == json.loads(json.dumps(0.1))

    def test_replay_stops_at_torn_final_line(self, tmp_path):
        from repro.experiments.journal import EventLog

        path = tmp_path / "ev.jsonl"
        with EventLog(path) as log:
            for e in self._events(3):
                log.append(e)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "seq": 3, "op": "arr')  # torn mid-write
        assert [e["seq"] for e in EventLog.replay(path)] == [0, 1, 2]

    def test_replay_stops_at_sequence_gap(self, tmp_path):
        # Events after a hole could double-apply; replay refuses them.
        from repro.experiments.journal import EventLog

        path = tmp_path / "ev.jsonl"
        with EventLog(path) as log:
            for e in self._events(2):
                log.append(e)
        lines = path.read_text(encoding="utf-8").splitlines()
        gap = json.dumps({"v": JOURNAL_VERSION, "seq": 5, "op": "arrive"})
        path.write_text("\n".join([*lines, gap, lines[0]]) + "\n", encoding="utf-8")
        assert [e["seq"] for e in EventLog.replay(path)] == [0, 1]

    def test_resume_truncates_torn_tail_and_continues_seq(self, tmp_path):
        from repro.experiments.journal import EventLog

        path = tmp_path / "ev.jsonl"
        with EventLog(path) as log:
            for e in self._events(3):
                log.append(e)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn')
        with EventLog(path, resume=True) as log:
            assert log.next_seq == 3
            log.append({"op": "depart", "app": "a0"})
        seqs = [e["seq"] for e in EventLog.replay(path)]
        assert seqs == [0, 1, 2, 3]

    def test_missing_file_replays_empty(self, tmp_path):
        from repro.experiments.journal import EventLog

        assert list(EventLog.replay(tmp_path / "nope.jsonl")) == []

    def test_fresh_log_truncates(self, tmp_path):
        from repro.experiments.journal import EventLog

        path = tmp_path / "ev.jsonl"
        with EventLog(path) as log:
            log.append({"op": "arrive", "app": "a"})
        with EventLog(path) as log:
            assert log.next_seq == 0
        assert list(EventLog.replay(path)) == []

    def test_offset_tracks_the_durable_byte_length(self, tmp_path):
        from repro.experiments.journal import EventLog

        path = tmp_path / "ev.jsonl"
        with EventLog(path) as log:
            for e in self._events(4):
                log.append(e)
                assert log.offset == path.stat().st_size
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn')
        with EventLog(path, resume=True) as log:
            assert log.offset == path.stat().st_size  # torn tail cut off
            assert (log.offset, log.next_seq) != (0, 0)

    def test_replay_from_offset_yields_the_tail(self, tmp_path):
        from repro.experiments.journal import EventLog

        path = tmp_path / "ev.jsonl"
        marks = []
        with EventLog(path) as log:
            for e in self._events(6):
                marks.append((log.offset, log.next_seq))
                log.append(e)
        full = list(EventLog.replay(path))
        for offset, seq in marks:
            assert list(EventLog.replay(path, (offset, seq))) == full[seq:]

    def test_replay_from_offset_checks_the_start(self, tmp_path):
        # A start pair that does not name the record at that byte (a
        # rewritten log, a stale offset) never replays the wrong events:
        # a wrong seq yields nothing, an offset inside a line raises.
        from repro.experiments.journal import EventLog

        path = tmp_path / "ev.jsonl"
        with EventLog(path) as log:
            log.append(self._events(1)[0])
            offset = log.offset
            for e in self._events(3):
                log.append(e)
            end = log.offset
        assert list(EventLog.replay(path, (offset, 2))) == []
        assert list(EventLog.replay(path, (end, 4))) == []
        assert [e["seq"] for e in EventLog.replay(path, (offset, 1))] == [1, 2, 3]
        for bad in (offset + 1, offset - 1, end + 7):
            with pytest.raises(ValueError, match="does not start a line"):
                list(EventLog.replay(path, (bad, 1)))
