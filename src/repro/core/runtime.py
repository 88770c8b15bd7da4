"""Run-time slowdown bookkeeping.

The slowdown factor "is always calculated at run-time … recalculated
every time the system status changes or when new applications arrive"
(§2), and the paper is explicit about the update costs: generating all
``pcomp_i``/``pcomm_i`` takes O(p²), adding an application O(p),
removing one O(p²) unless the distribution can be deconvolved.

:class:`SlowdownManager` packages that protocol: it holds the profiles
of the applications currently on the front-end, maintains the
``pcomm`` overlap distribution incrementally (``pcomp`` is its reverse,
:func:`~repro.core.probability.comp_distribution`), and answers
slowdown queries in O(p). Incremental maintenance is observable through
:attr:`SlowdownManager.rebuilds` (tested to stay at zero across
arrivals).
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from ..errors import ModelError
from ..obs import context as _obs
from ..reliability.degrade import (
    Confidence,
    DegradationLog,
    TaggedSlowdown,
    analytic_comm_slowdown,
    analytic_comp_slowdown,
)
from .params import DelayTable, SizedDelayTable
from .probability import (
    add_application,
    comp_distribution,
    overlap_distribution,
    remove_application,
)
from .slowdown import weighted_delay
from .workload import ApplicationProfile

__all__ = ["SlowdownManager"]


class SlowdownManager:
    """Tracks competing applications and serves current slowdown factors.

    Parameters
    ----------
    delay_comp:
        Calibrated ``delay_comp^i`` table: the delay imposed by *i*
        compute-bound contenders — a term of the §3.2.1 *communication*
        slowdown. ``None`` degrades communication queries to the
        analytic fallback (see :meth:`comm_slowdown_tagged`).
    delay_comm:
        Calibrated ``delay_comm^i`` table: the delay imposed by *i*
        communicating contenders — the other term of the §3.2.1
        *communication* slowdown. ``None`` degrades like *delay_comp*.
    delay_comm_sized:
        Calibrated ``delay_comm^{i,j}`` tables: the message-size-bucketed
        delays of the §3.2.2 *computation* slowdown. ``None`` degrades
        computation queries to the analytic fallback.
    extrapolate:
        Allow delay-table extrapolation beyond the calibrated maximum
        contention level (the plain query methods; the tagged methods
        always fall back, tagging the answer instead of raising).
    """

    def __init__(
        self,
        delay_comp: DelayTable | None,
        delay_comm: DelayTable | None,
        delay_comm_sized: SizedDelayTable | None,
        extrapolate: bool = False,
    ) -> None:
        self.delay_comp = delay_comp
        self.delay_comm = delay_comm
        self.delay_comm_sized = delay_comm_sized
        self.extrapolate = extrapolate
        self._profiles: dict[str, ApplicationProfile] = {}
        self._pcomm = np.array([1.0])
        #: Number of O(p²) full rebuilds performed (departure fallback).
        self.rebuilds = 0
        #: Every answer served below CALIBRATED confidence, by source.
        self.degradations = DegradationLog()

    # -- population management ------------------------------------------------

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, name: str) -> bool:
        return name in self._profiles

    def __iter__(self) -> Iterator[ApplicationProfile]:
        return iter(self._profiles.values())

    @property
    def p(self) -> int:
        """Number of competing applications currently registered."""
        return len(self._profiles)

    def arrive(self, profile: ApplicationProfile) -> None:
        """Register a new application — O(p) incremental update."""
        if profile.name in self._profiles:
            raise ModelError(f"application {profile.name!r} is already registered")
        self._profiles[profile.name] = profile
        self._pcomm = add_application(self._pcomm, profile.comm_fraction)

    def depart(self, name: str) -> None:
        """Deregister an application.

        Attempts the O(p) deconvolution first and falls back to the
        O(p²) rebuild when the fraction makes deconvolution
        ill-conditioned — the paper's stated costs.
        """
        profile = self._profiles.pop(name, None)
        if profile is None:
            raise ModelError(f"application {name!r} is not registered")
        try:
            self._pcomm = remove_application(self._pcomm, profile.comm_fraction)
        except ModelError:
            self._rebuild()

    def _rebuild(self) -> None:
        fractions = [p.comm_fraction for p in self._profiles.values()]
        self._pcomm = overlap_distribution(fractions)
        self.rebuilds += 1

    # -- distribution access -----------------------------------------------------

    @property
    def pcomm(self) -> np.ndarray:
        """Current ``pcomm_i`` distribution (copy)."""
        return self._pcomm.copy()

    @property
    def pcomp(self) -> np.ndarray:
        """Current ``pcomp_i`` distribution: ``pcomm`` reversed (copy)."""
        return comp_distribution(self._pcomm)

    # -- slowdown queries -----------------------------------------------------------

    def comm_slowdown(self) -> float:
        """Current communication slowdown (§3.2.1) — O(p).

        With a missing table this delegates to the fallback chain of
        :meth:`comm_slowdown_tagged` (dropping the tag); with tables
        present and ``extrapolate=False``, contention beyond the
        calibrated range raises :class:`~repro.errors.ModelError` as it
        always did.
        """
        if not self._profiles:
            return 1.0
        if self.delay_comp is None or self.delay_comm is None:
            return self.comm_slowdown_tagged().value
        _obs.inc("slowdown.comm.hit")
        return (
            1.0
            + weighted_delay(self.pcomp, self.delay_comp, self.extrapolate)
            + weighted_delay(self._pcomm, self.delay_comm, self.extrapolate)
        )

    def comp_slowdown(self, j: float | None = None) -> float:
        """Current computation slowdown (§3.2.2) — O(p).

        *j* defaults to the maximum message size among registered
        applications, per the paper's recommendation. Missing-table
        behaviour mirrors :meth:`comm_slowdown`.
        """
        if not self._profiles:
            return 1.0
        if self.delay_comm_sized is None:
            return self.comp_slowdown_tagged(j).value
        _obs.inc("slowdown.comp.hit")
        pcomp = self.pcomp
        cpu_term = float(np.dot(np.arange(len(pcomp)), pcomp))
        # Subtracting nothing: index 0 contributes 0 to the dot product.
        size = j if j is not None else self.max_message_size()
        comm_term = 0.0
        for i in range(1, len(self._pcomm)):
            if self._pcomm[i] > 0.0:
                comm_term += self._pcomm[i] * self.delay_comm_sized.delay(
                    i, size, self.extrapolate
                )
        return 1.0 + cpu_term + comm_term

    # -- degradation-aware queries ---------------------------------------------

    def _max_active_level(self, dist: np.ndarray) -> int:
        """Largest contention level with nonzero probability mass."""
        return max((i for i in range(1, len(dist)) if dist[i] > 0.0), default=0)

    def comm_slowdown_tagged(self) -> TaggedSlowdown:
        """Communication slowdown through the fallback chain — never raises.

        Chain: calibrated tables → linear extrapolation beyond the
        calibrated range (EXTRAPOLATED) → the ``1 + Σ f_k`` closed form
        when a table is missing entirely (ANALYTIC). Every degraded
        answer is recorded in :attr:`degradations`.
        """
        if not self._profiles:
            return TaggedSlowdown(1.0, Confidence.CALIBRATED)
        if self.delay_comp is None or self.delay_comm is None:
            self.degradations.record("comm", Confidence.ANALYTIC)
            _obs.inc("slowdown.comm.miss")
            fractions = [p.comm_fraction for p in self._profiles.values()]
            return TaggedSlowdown(analytic_comm_slowdown(fractions), Confidence.ANALYTIC)
        pcomp = self.pcomp
        value = (
            1.0
            + weighted_delay(pcomp, self.delay_comp, extrapolate=True)
            + weighted_delay(self._pcomm, self.delay_comm, extrapolate=True)
        )
        within = (
            self._max_active_level(pcomp) <= self.delay_comp.max_level
            and self._max_active_level(self._pcomm) <= self.delay_comm.max_level
        )
        if within:
            _obs.inc("slowdown.comm.hit")
            return TaggedSlowdown(value, Confidence.CALIBRATED)
        self.degradations.record("comm", Confidence.EXTRAPOLATED)
        _obs.inc("slowdown.comm.extrapolated")
        return TaggedSlowdown(value, Confidence.EXTRAPOLATED)

    def comp_slowdown_tagged(self, j: float | None = None) -> TaggedSlowdown:
        """Computation slowdown through the fallback chain — never raises.

        Chain: calibrated ``delay_comm^{i,j}`` bucket → extrapolation
        beyond its contention range (EXTRAPOLATED) → the ``p + 1``
        equal-share law when the sized tables are missing (ANALYTIC).
        """
        if not self._profiles:
            return TaggedSlowdown(1.0, Confidence.CALIBRATED)
        if self.delay_comm_sized is None:
            self.degradations.record("comp", Confidence.ANALYTIC)
            _obs.inc("slowdown.comp.miss")
            return TaggedSlowdown(analytic_comp_slowdown(self.p), Confidence.ANALYTIC)
        pcomp = self.pcomp
        cpu_term = float(np.dot(np.arange(len(pcomp)), pcomp))
        size = j if j is not None else self.max_message_size()
        comm_term = 0.0
        for i in range(1, len(self._pcomm)):
            if self._pcomm[i] > 0.0:
                comm_term += self._pcomm[i] * self.delay_comm_sized.delay(i, size, True)
        value = 1.0 + cpu_term + comm_term
        comm_level = self._max_active_level(self._pcomm)
        if comm_level > 0:
            bucket = self.delay_comm_sized.select_bucket(size)
            if comm_level > self.delay_comm_sized.tables[bucket].max_level:
                self.degradations.record("comp", Confidence.EXTRAPOLATED)
                _obs.inc("slowdown.comp.extrapolated")
                return TaggedSlowdown(value, Confidence.EXTRAPOLATED)
        _obs.inc("slowdown.comp.hit")
        return TaggedSlowdown(value, Confidence.CALIBRATED)

    def cpu_bound_count(self) -> int:
        """Number of registered pure CPU-bound applications (p of §3.1)."""
        return sum(1 for p in self._profiles.values() if p.comm_fraction == 0.0)

    def max_message_size(self) -> float:
        """Largest message size among registered applications."""
        return max((p.message_size for p in self._profiles.values()), default=0.0)

    def snapshot(self) -> Mapping[str, ApplicationProfile]:
        """Immutable view of the registered applications."""
        return dict(self._profiles)
