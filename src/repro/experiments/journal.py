"""Append-only run journal: checkpoint/resume for experiment sweeps.

A figure sweep is hours of per-point simulation; a ``kill -9`` (or an
OOM kill, or a pre-empted node) half-way through used to mean starting
over. The journal makes sweep progress durable: every completed point
is appended to a JSON-lines file as soon as it is computed, and a rerun
with ``--resume`` replays completed points from the file instead of
recomputing them — losing at most the points that were in flight when
the process died.

Three properties make the replay trustworthy:

* **content-hash keys** — a point is named by a blake2b hash of its
  kind and parameters (the same discipline as
  :mod:`repro.experiments.calcache`), so a journal written by a
  different sweep configuration simply never matches;
* **bit-identical values** — JSON round-trips Python floats exactly
  (``repr``-based), and a journaling call *always* returns the
  JSON-round-tripped value even when freshly computed, so a resumed
  sweep and an uninterrupted one produce identical output;
* **torn-write tolerance** — records are single ``write`` + ``flush``
  + ``fsync`` lines, so a crash can only truncate the *last* line,
  and the loader skips any line that does not parse.

The journal is ambient, mirroring :mod:`repro.obs.context`: drivers
call the module-level :func:`point` helper, which computes directly
(zero overhead) when no journal is active and journals when the CLI has
installed one via :func:`journaled`.

Only *describable* work may be journaled: the key must capture
everything that determines the value. :func:`describe_task` renders
frozen-dataclass tasks and module-level functions into canonical JSON
and refuses closures and lambdas (their captured state is invisible to
the hash — journaling them would replay wrong values).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from ..obs import context as _obs

__all__ = [
    "JOURNAL_VERSION",
    "RunJournal",
    "EventLog",
    "describe_task",
    "point_key",
    "active",
    "journaled",
    "point",
]

#: Bump whenever the record format or the keying discipline changes —
#: the version participates in every key, so an old journal resumes as
#: all-misses rather than replaying stale values.
JOURNAL_VERSION = 1


# ---------------------------------------------------------------------------
# Task description and keying
# ---------------------------------------------------------------------------


class _Undescribable(Exception):
    """Internal: the object cannot be canonically described."""


def _describe(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_describe(v) for v in obj]
    if isinstance(obj, Mapping):
        return {str(k): _describe(v) for k, v in obj.items()}
    if isinstance(obj, type):
        return {"type": f"{obj.__module__}.{obj.__qualname__}"}
    if dataclasses.is_dataclass(obj):
        return {
            "task": f"{type(obj).__module__}.{type(obj).__qualname__}",
            "fields": {
                f.name: _describe(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if callable(obj):
        mod = getattr(obj, "__module__", None)
        name = getattr(obj, "__qualname__", None)
        if not mod or not name or "<locals>" in name or "<lambda>" in name:
            # A closure or lambda: its captured state is invisible to
            # the content hash, so replay could return wrong values.
            raise _Undescribable(f"cannot describe {obj!r}")
        return {"callable": f"{mod}.{name}"}
    raise _Undescribable(f"cannot describe {obj!r}")


def describe_task(obj: Any) -> Any | None:
    """Canonical JSON description of *obj*, or ``None`` if impossible.

    Frozen-dataclass task instances describe as their qualified type
    name plus recursively described fields; module-level functions and
    classes as their qualified names; primitives and containers as
    themselves. Closures, lambdas and anything else whose identity does
    not pin down its behaviour return ``None`` — callers must then
    compute without journaling rather than risk replaying a mismatched
    value.
    """
    try:
        return _describe(obj)
    except _Undescribable:
        return None


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def point_key(kind: str, params: Any) -> str:
    """Content hash naming one journal point.

    *params* must already be canonical JSON-able data (run it through
    :func:`describe_task` first when it contains task objects).
    """
    payload = {"kind": kind, "version": JOURNAL_VERSION, "params": params}
    return hashlib.blake2b(_canonical(payload).encode(), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------


class RunJournal:
    """Append-only JSON-lines journal of completed sweep points.

    Parameters
    ----------
    path:
        Journal file. Parent directories are created as needed.
    resume:
        When True, existing records at *path* are loaded and replayed
        (corrupt or version-mismatched lines skipped); when False the
        file is truncated — a fresh run.

    Attributes
    ----------
    hits, misses:
        Points replayed from the journal vs. freshly computed, for the
        CLI's resume report.
    skipped:
        Lines dropped while loading (torn writes, foreign versions).
    """

    def __init__(self, path: str | os.PathLike, resume: bool = False) -> None:
        self.path = Path(path)
        self.hits = 0
        self.misses = 0
        self.skipped = 0
        self._entries: dict[str, Any] = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume:
            self._load()
        self._fh = open(self.path, "a" if resume else "w", encoding="utf-8")

    def _load(self) -> None:
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if record["v"] != JOURNAL_VERSION:
                    raise ValueError("journal version mismatch")
                self._entries[record["key"]] = record["value"]
            except (ValueError, KeyError, TypeError):
                # Torn last line after a kill -9, or a foreign format:
                # losing the point just means recomputing it.
                self.skipped += 1

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> tuple[bool, Any]:
        """``(found, value)`` for *key* — no side effects on the file."""
        if key in self._entries:
            return True, self._entries[key]
        return False, None

    def record(self, key: str, kind: str, params: Any, value: Any) -> Any:
        """Append one completed point durably; return its replay value.

        The returned value is the JSON round-trip of *value* — exactly
        what a resumed run will see — so fresh and resumed runs flow
        identical data downstream.
        """
        line = _canonical(
            {"v": JOURNAL_VERSION, "key": key, "kind": kind, "params": params, "value": value}
        )
        replay = json.loads(line)["value"]
        self._entries[key] = replay
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return replay

    def point(self, kind: str, params: Any, compute: Callable[[], Any]) -> Any:
        """Replay the point named by ``(kind, params)`` or compute it.

        *params* must be canonical JSON-able data and capture everything
        that determines the value. The return value is always the JSON
        round-trip (see :meth:`record`).
        """
        key = point_key(kind, params)
        found, value = self.lookup(key)
        if found:
            self.hits += 1
            _obs.inc("journal.hits")
            return value
        self.misses += 1
        _obs.inc("journal.misses")
        return self.record(key, kind, params, compute())

    def close(self) -> None:
        """Flush and close the journal file (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Streaming event log (write-ahead log for the fleet service)
# ---------------------------------------------------------------------------


class EventLog:
    """Append-only, sequence-numbered event stream with durable replay.

    Where :class:`RunJournal` memoizes *keyed points* (replay by content
    hash, order irrelevant), the event log makes an *ordered stream*
    durable: the fleet service (:mod:`repro.fleet`) appends every
    admitted arrive/depart event before applying it, so a killed shard
    can be rebuilt bit-identically by replaying the log in sequence
    order through the same code path.

    The durability discipline matches :class:`RunJournal`: one canonical
    JSON line per event, flushed on every append (``fsync`` too unless
    ``sync=False`` — benchmarks disable it), so a crash can only tear
    the final line, which :meth:`replay` skips.

    Parameters
    ----------
    path:
        Log file. Parent directories are created as needed.
    resume:
        When True, existing events at *path* are replayed to recover
        the sequence counter (corrupt trailing lines skipped); when
        False the file is truncated — a fresh stream.
    sync:
        ``fsync`` after every append. Keep True whenever recovery
        matters; False trades durability for append throughput.
    """

    def __init__(
        self, path: str | os.PathLike, resume: bool = False, sync: bool = True
    ) -> None:
        self.path = Path(path)
        self.sync = bool(sync)
        self.next_seq = 0
        #: Byte length of the durable prefix: where the record stamped
        #: ``next_seq`` starts. ``(offset, next_seq)`` is a valid
        #: :meth:`replay` start.
        self.offset = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume:
            # Truncate any torn tail (a half-written final line after a
            # kill) so new appends extend the durable prefix — replay
            # stops at the first bad line, and an append landing after
            # one would be unreachable.
            for event, end in self._scan(self.path, 0, 0):
                self.next_seq = int(event["seq"]) + 1
                self.offset = end
            self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.truncate(self.offset)
        else:
            self._fh = open(self.path, "w", encoding="utf-8")

    def append(self, event: Mapping[str, Any]) -> dict[str, Any]:
        """Durably append *event*, stamping the next sequence number.

        Returns the JSON round-trip of the stamped event — exactly what
        :meth:`replay` will yield — so live application and replayed
        recovery flow identical data into the shards.
        """
        record = dict(event)
        record["seq"] = self.next_seq
        record["v"] = JOURNAL_VERSION
        line = _canonical(record)
        replayed = json.loads(line)
        self.next_seq += 1
        # Canonical JSON is pure ASCII: characters are bytes.
        self.offset += len(line) + 1
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())
        return replayed

    @staticmethod
    def replay(
        path: str | os.PathLike, start: tuple[int, int] | None = None
    ) -> Iterator[dict[str, Any]]:
        """Yield the durable events at *path* in sequence order.

        Lines that do not parse (a torn final write after ``kill -9``),
        carry a foreign version, or arrive out of sequence are skipped —
        replay stops trusting the stream at the first gap, since events
        after a hole could double-apply arrivals.

        *start* is an ``(offset, seq)`` pair from :attr:`offset` and
        :attr:`next_seq`: the file is read from that byte on and the
        first record must carry sequence number *seq*. An offset that
        does not begin a line (the log was rewritten or truncated since
        it was taken) raises :class:`ValueError` rather than reading as
        an empty tail. The file is streamed line by line, never read
        whole.
        """
        offset, seq = start if start is not None else (0, 0)
        for event, _ in EventLog._scan(path, offset, seq):
            yield event

    @staticmethod
    def _scan(
        path: str | os.PathLike, offset: int, seq: int
    ) -> Iterator[tuple[dict[str, Any], int]]:
        """``(event, end offset)`` for each durable record from *offset*."""
        try:
            handle = open(path, "rb")
        except OSError:
            return
        with handle:
            if offset:
                handle.seek(offset - 1)
                if handle.read(1) != b"\n":
                    raise ValueError(f"journal offset {offset} does not start a line")
            for line in handle:
                offset += len(line)
                if not line.strip():
                    continue
                try:
                    # Decoding here is ~1 us/line cheaper than handing
                    # json the bytes (it sniffs their encoding per call).
                    event = json.loads(line.decode("utf-8"))
                    if event["v"] != JOURNAL_VERSION or event["seq"] != seq:
                        raise ValueError("version or sequence mismatch")
                except (ValueError, KeyError, TypeError):
                    return
                seq += 1
                yield event, offset

    def close(self) -> None:
        """Flush and close the log file (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            if self.sync:
                os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Ambient journal (mirrors repro.obs.context)
# ---------------------------------------------------------------------------

_active: RunJournal | None = None


def active() -> RunJournal | None:
    """The journal installed by :func:`journaled`, or ``None``."""
    return _active


@contextmanager
def journaled(journal: RunJournal) -> Iterator[RunJournal]:
    """Install *journal* as the ambient journal for the ``with`` body."""
    global _active
    previous = _active
    _active = journal
    try:
        yield journal
    finally:
        _active = previous


def point(kind: str, params: Any, compute: Callable[[], Any]) -> Any:
    """Journal-aware compute: replay/record when a journal is active.

    With no ambient journal this is exactly ``compute()`` — except that
    the result still goes through a JSON round-trip, so enabling the
    journal later never changes a single downstream value. *params*
    follows the same contract as :meth:`RunJournal.point`.
    """
    journal = active()
    if journal is not None:
        return journal.point(kind, params, compute)
    return json.loads(json.dumps(compute()))
