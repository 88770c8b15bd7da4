"""The traced run's span ledger and the timing proxies that feed it.

A :class:`Ledger` keeps every span in memory — name, start, end, parent
span, request id — in compact arrays, and accounts self time online: a
span's self time is its duration minus the time its direct child spans
cover. :class:`Patches` installs timing proxies around the program's
public entry points (class attributes and module-level names) from the
benchmark's own files and restores the originals afterwards; nothing in
the program changes. Proxies are installed only for the traced blocks
of a run, so end-to-end numbers never pay for them.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator


class Ledger:
    """In-memory spans with online self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        #: Request id stamped on every span opened from now on.
        self.request_id = 0
        # Open spans: [span index, start, time covered by children].
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        #: Wall time covered by root spans (spans with no parent).
        self.root_time = 0.0
        #: Free-form counters the proxies' observers fill in.
        self.counts: dict[str, float] = defaultdict(float)

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> None:
        """Open a span named *name* under the innermost open span."""
        index = len(self.start)
        parent = self._stack[-1][0] if self._stack else -1
        now = self.clock()
        self.name_id.append(self._name(name))
        self.start.append(now)
        self.end.append(now)
        self.parent.append(parent)
        self.request.append(self.request_id)
        self._stack.append([index, now, 0.0])

    def exit(self) -> None:
        """Close the innermost open span."""
        now = self.clock()
        index, start, children = self._stack.pop()
        self.end[index] = now
        duration = now - start
        name = self.names[self.name_id[index]]
        self.calls[name] += 1
        self.self_time[name] += duration - children
        self.total_time[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_time += duration

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Let proxied calls through unrecorded (the benchmark's own checks)."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def mean_self_us(self, name: str) -> float:
        """Mean self time per call of *name*, in microseconds (0 if never called)."""
        calls = self.calls.get(name, 0)
        return self.self_time[name] / calls * 1e6 if calls else 0.0

    def unattributed_share(self, wall: float) -> float:
        """Share of *wall* seconds that no root span covers."""
        if wall <= 0:
            return 0.0
        return max(0.0, wall - self.root_time) / wall

    def self_time_of_spans(self) -> list[float]:
        """Self time of every recorded span, recomputed from the arrays.

        The offline counterpart of the online accounting in :meth:`exit`
        (the self-tests check the two agree).
        """
        covered = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - covered[i] for i in range(len(self.start))]

    def write_jsonl(self, path: Path, phase: str, limit: int | None = None) -> int:
        """Append spans as JSON lines (at most *limit*); returns lines written."""
        n = len(self.start) if limit is None else min(limit, len(self.start))
        with open(path, "a", encoding="utf-8") as fh:
            for i in range(n):
                fh.write(
                    json.dumps(
                        {
                            "phase": phase,
                            "span": i,
                            "name": self.names[self.name_id[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": self.parent[i],
                            "request": self.request[i],
                        }
                    )
                    + "\n"
                )
        return n


def timing_proxy(
    ledger: Ledger,
    name: str | Callable[..., str],
    fn: Callable[..., Any],
    observe: Callable[[tuple, Any], None] | None = None,
) -> Callable[..., Any]:
    """Wrap *fn* so each call is a span; *name* may derive from the arguments.

    *observe* sees ``(args, result)`` after a recorded call, so a proxy
    can count what crossed the boundary (events in a frame, machines in
    a refresh) as well as how long it took.
    """
    namer = name if callable(name) else None

    def proxy(*args: Any, **kwargs: Any) -> Any:
        if not ledger.enabled:
            return fn(*args, **kwargs)
        ledger.enter(namer(*args, **kwargs) if namer else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            ledger.exit()
        if observe is not None:
            observe(args, result)
        return result

    proxy.__wrapped__ = fn  # type: ignore[attr-defined]
    return proxy


def iter_proxy(ledger: Ledger, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap a generator function so producing each item is one span."""

    def proxy(*args: Any, **kwargs: Any) -> Iterator[Any]:
        inner = fn(*args, **kwargs)
        while True:
            recording = ledger.enabled
            if recording:
                ledger.enter(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                if recording:
                    ledger.exit()
            if recording:
                ledger.counts[name + ".items"] += 1
            yield item

    proxy.__wrapped__ = fn  # type: ignore[attr-defined]
    return proxy


class Patches:
    """Attribute replacements that :meth:`undo` restores exactly."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attr = make(original)``; classes keep their descriptors."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        if isinstance(original, staticmethod):
            setattr(owner, attr, staticmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def undo(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
