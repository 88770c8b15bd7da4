"""Measured-phase plumbing shared by the workloads: clock, tracing, blocks."""

from __future__ import annotations

import contextlib
import gc
import time
from typing import Any, Callable, ContextManager

from ledger import Ledger, Patches

from repro.obs import ObsContext, observed

#: Ops per block when a traced run alternates untraced and traced blocks.
TRACE_BLOCK_OPS = 2000


class Clock:
    """Measured-phase wall clock that leaves out the benchmark's own pauses."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.excluded = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.excluded

    def pause(self) -> "_Pause":
        """``with clock.pause():`` — time inside is not measured."""
        return _Pause(self)


class _Pause:
    def __init__(self, clock: Clock) -> None:
        self.clock = clock

    def __enter__(self) -> None:
        self.t0 = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        self.clock.excluded += time.perf_counter() - self.t0


class Tracing:
    """Timing proxies plus the program's own counters, switched on and off."""

    def __init__(self, install: Callable[[Ledger, Patches], None]) -> None:
        self.ledger = Ledger()
        self.patches = Patches()
        self.ctx = ObsContext()
        self._install = install
        self._observed: Any = None

    @property
    def on(self) -> bool:
        return self._observed is not None

    def start(self) -> None:
        if self._observed is None:
            self._install(self.ledger, self.patches)
            self._observed = observed(self.ctx)
            self._observed.__enter__()

    def stop(self) -> None:
        if self._observed is not None:
            self._observed.__exit__(None, None, None)
            self._observed = None
            self.patches.undo()

    def counter(self, name: str) -> float:
        """A counter the program itself incremented while tracing was on."""
        return float(self.ctx.snapshot().counters.get(name, 0))


def untraced(tracing: Tracing | None) -> ContextManager[None]:
    """The benchmark's own checks: proxied calls pass through unrecorded."""
    return tracing.ledger.paused() if tracing is not None else contextlib.nullcontext()


class Blocks:
    """Alternating untraced/traced blocks of a traced run's measured phase.

    Both kinds see the same evolving state, so the ratio of their time
    per op is the tracing overhead; only traced blocks feed the ledger.
    Without tracing the whole phase is one untraced block.
    """

    def __init__(self, clock: Clock, tracing: Tracing | None) -> None:
        self.clock = clock
        self.tracing = tracing
        self.wall = {False: 0.0, True: 0.0}
        self.ops = {False: 0, True: 0}
        self._mark = clock.elapsed()
        self._in_block = 0

    def done(self) -> None:
        """Account one finished op; switch block kind when one is full."""
        traced = self.tracing is not None and self.tracing.on
        self.ops[traced] += 1
        self._in_block += 1
        if self.tracing is not None and self._in_block >= TRACE_BLOCK_OPS:
            self._close(traced)
            if traced:
                self.tracing.stop()
            else:
                self.tracing.start()

    def _close(self, traced: bool) -> None:
        now = self.clock.elapsed()
        self.wall[traced] += now - self._mark
        self._mark = now
        self._in_block = 0

    def finish(self) -> None:
        self._close(self.tracing is not None and self.tracing.on)
        if self.tracing is not None:
            self.tracing.stop()

    def overhead_pct(self) -> float:
        if not (self.ops[False] and self.ops[True]):
            return 0.0
        untraced = self.wall[False] / self.ops[False]
        traced = self.wall[True] / self.ops[True]
        return (traced / untraced - 1.0) * 100.0


def prepare_measurement() -> None:
    """Collect garbage and freeze the survivors before a timed phase.

    The phase then starts from the same collector state whatever ran
    before it (a measured phase admits a varying number of operations),
    and pays only for the collections its own allocations cause.
    """
    gc.collect()
    gc.freeze()
