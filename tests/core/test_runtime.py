"""Unit and property tests for the run-time slowdown manager."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import DelayTable, SizedDelayTable
from repro.core.probability import (
    _DECONV_LIMIT,
    add_application,
    overlap_distribution,
    remove_application,
)
from repro.core.runtime import SlowdownManager
from repro.core.slowdown import paragon_comm_slowdown, paragon_comp_slowdown
from repro.core.workload import ApplicationProfile
from repro.errors import ModelError

DELAY_COMP = DelayTable((0.5, 1.1, 1.8, 2.5, 3.2))
DELAY_COMM = DelayTable((0.2, 0.7, 1.3, 1.9, 2.5))
SIZED = SizedDelayTable(
    tables={
        1: DelayTable((0.1, 0.25, 0.4, 0.6, 0.8)),
        500: DelayTable((0.4, 0.9, 1.4, 1.9, 2.4)),
        1000: DelayTable((0.5, 1.1, 1.7, 2.3, 2.9)),
    }
)


def manager() -> SlowdownManager:
    return SlowdownManager(DELAY_COMP, DELAY_COMM, SIZED)


def profile(name: str, fraction: float, size: float = 200) -> ApplicationProfile:
    return ApplicationProfile(name, fraction, size if fraction > 0 else 0.0)


class TestPopulation:
    def test_empty_slowdowns_are_one(self):
        mgr = manager()
        assert mgr.comm_slowdown() == 1.0
        assert mgr.comp_slowdown() == 1.0
        assert mgr.p == 0

    def test_arrive_depart_roundtrip(self):
        mgr = manager()
        mgr.arrive(profile("a", 0.3))
        mgr.arrive(profile("b", 0.7))
        assert mgr.p == 2
        mgr.depart("a")
        assert mgr.p == 1
        assert "b" in mgr and "a" not in mgr

    def test_duplicate_arrival_rejected(self):
        mgr = manager()
        mgr.arrive(profile("a", 0.3))
        with pytest.raises(ModelError):
            mgr.arrive(profile("a", 0.5))

    def test_unknown_departure_rejected(self):
        with pytest.raises(ModelError):
            manager().depart("ghost")

    def test_cpu_bound_count(self):
        mgr = manager()
        mgr.arrive(ApplicationProfile.cpu_bound("h1"))
        mgr.arrive(profile("c", 0.5))
        assert mgr.cpu_bound_count() == 1

    def test_max_message_size(self):
        mgr = manager()
        mgr.arrive(profile("a", 0.5, 800))
        mgr.arrive(profile("b", 0.5, 300))
        assert mgr.max_message_size() == 800

    def test_snapshot_is_copy(self):
        mgr = manager()
        mgr.arrive(profile("a", 0.5))
        snap = mgr.snapshot()
        mgr.depart("a")
        assert "a" in snap


class TestConsistencyWithBatchFormulas:
    """The incremental manager must agree with the one-shot formulas."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.02, max_value=0.98), min_size=0, max_size=5))
    def test_comm_slowdown_matches(self, fractions):
        mgr = manager()
        profiles = [profile(f"a{i}", f) for i, f in enumerate(fractions)]
        for p in profiles:
            mgr.arrive(p)
        assert mgr.comm_slowdown() == pytest.approx(
            paragon_comm_slowdown(profiles, DELAY_COMP, DELAY_COMM)
        )

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.02, max_value=0.98), min_size=0, max_size=5))
    def test_comp_slowdown_matches(self, fractions):
        mgr = manager()
        profiles = [profile(f"a{i}", f) for i, f in enumerate(fractions)]
        for p in profiles:
            mgr.arrive(p)
        assert mgr.comp_slowdown() == pytest.approx(
            paragon_comp_slowdown(profiles, SIZED)
        )

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.02, max_value=0.98), min_size=2, max_size=6),
        st.integers(min_value=0, max_value=5),
    )
    def test_departure_keeps_distributions_exact(self, fractions, idx):
        idx = idx % len(fractions)
        mgr = manager()
        for i, f in enumerate(fractions):
            mgr.arrive(profile(f"a{i}", f))
        mgr.depart(f"a{idx}")
        rest = [f for i, f in enumerate(fractions) if i != idx]
        assert mgr.pcomm == pytest.approx(overlap_distribution(rest), abs=1e-8)
        assert mgr.pcomp == pytest.approx(
            overlap_distribution([1 - f for f in rest]), abs=1e-8
        )

    def test_arrivals_never_rebuild(self):
        """Paper claim: O(p) incremental updates on arrival."""
        mgr = manager()
        for i in range(5):
            mgr.arrive(profile(f"a{i}", 0.1 * (i + 1)))
        assert mgr.rebuilds == 0

    def test_extreme_fraction_departure_falls_back_cleanly(self):
        mgr = manager()
        mgr.arrive(profile("edge", 1.0))
        mgr.arrive(profile("mid", 0.5))
        mgr.depart("edge")
        assert mgr.pcomm == pytest.approx(overlap_distribution([0.5]), abs=1e-9)

    def test_explicit_j_query(self):
        mgr = manager()
        mgr.arrive(profile("a", 0.5, 800))
        assert mgr.comp_slowdown(j=1) != mgr.comp_slowdown(j=1000)


class DualUpdateManager(SlowdownManager):
    """The manager as it ran with a second, separately updated ``pcomp``: the oracle.

    It folds every arrival into ``pcomp`` with the complementary fraction
    and deconvolves every departure from it, rebuilding both arrays when
    either removal fails. :class:`SlowdownManager` instead keeps
    ``pcomm`` only and reads ``pcomp`` as its reverse; the two must
    agree up to rounding noise.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pcomp = np.array([1.0])

    def arrive(self, profile: ApplicationProfile) -> None:
        super().arrive(profile)
        self._pcomp = add_application(self._pcomp, profile.comp_fraction)

    def depart(self, name: str) -> None:
        profile = self._profiles.pop(name, None)
        if profile is None:
            raise ModelError(f"application {name!r} is not registered")
        try:
            self._pcomm = remove_application(self._pcomm, profile.comm_fraction)
            self._pcomp = remove_application(self._pcomp, profile.comp_fraction)
        except ModelError:
            self._rebuild()

    def _rebuild(self) -> None:
        super()._rebuild()
        fractions = [p.comm_fraction for p in self._profiles.values()]
        self._pcomp = overlap_distribution([1.0 - f for f in fractions])

    @property
    def pcomp(self) -> np.ndarray:
        return self._pcomp.copy()


#: Fractions at or next to 0 and 1; they drive the rebuild fallback.
EXTREME_FRACTIONS = (0.0, 1.0, 1e-12, 1.0 - 1e-12)
#: Fractions inside the exact-division band of ``remove_application``
#: (within ``_DECONV_LIMIT`` of 0/1) but far from the float ends.
BAND_FRACTIONS = EXTREME_FRACTIONS + (1e-10, 1.0 - 1e-10)


def churn(
    seed: int,
    events: int,
    depart_p: float,
    extreme_p: float,
    extremes: tuple[float, ...] = EXTREME_FRACTIONS,
):
    """Seeded arrive/depart stream, capped near 400 apps per machine."""
    rng = np.random.default_rng(seed)
    live: list[str] = []
    for serial in range(events):
        if live and (len(live) >= 400 or rng.random() < depart_p):
            yield "depart", live.pop(int(rng.integers(len(live))))
            continue
        if rng.random() < extreme_p:
            f = float(extremes[int(rng.integers(len(extremes)))])
        else:
            f = float(rng.random())
        size = float(rng.choice([1.0, 500.0, 1000.0, 2048.0]))
        live.append(f"a{serial}")
        yield "arrive", profile(f"a{serial}", f, size)


def assert_close_to_oracle(
    mgr: SlowdownManager, oracle: DualUpdateManager, pcomp_abs: float = 1e-10
) -> None:
    assert np.max(np.abs(mgr.pcomp - oracle.pcomp)) <= pcomp_abs
    for query in ("comm_slowdown_tagged", "comp_slowdown_tagged"):
        got, want = getattr(mgr, query)(), getattr(oracle, query)()
        assert got.confidence == want.confidence, query
        assert got.value == pytest.approx(want.value, rel=1e-11, abs=0.0), query


def replay_against_oracle(stream, pcomp_abs: float = 1e-10):
    """Feed *stream* to both managers, comparing them every 50 events and at the end."""
    mgr, oracle = manager(), DualUpdateManager(DELAY_COMP, DELAY_COMM, SIZED)
    for step, (op, arg) in enumerate(stream):
        getattr(mgr, op)(arg)
        getattr(oracle, op)(arg)
        if step % 50 == 0:
            assert_close_to_oracle(mgr, oracle, pcomp_abs)
    assert_close_to_oracle(mgr, oracle, pcomp_abs)
    return mgr, oracle


class TestDerivedCompDistribution:
    """``pcomp`` read as reversed ``pcomm`` vs the dual-update oracle."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        events=st.integers(min_value=1, max_value=1000),
        depart_p=st.floats(min_value=0.0, max_value=0.45),
        extreme_p=st.sampled_from([0.0, 0.05, 0.3]),
    )
    def test_churn_matches_dual_update_oracle(self, seed, events, depart_p, extreme_p):
        replay_against_oracle(churn(seed, events, depart_p, extreme_p))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        events=st.integers(min_value=1, max_value=1000),
        depart_p=st.floats(min_value=0.0, max_value=0.45),
    )
    def test_exact_division_band_stays_within_its_budget(self, seed, events, depart_p):
        # Departures within _DECONV_LIMIT of 0/1 divide by one end
        # exactly and may leave up to 4 * _DECONV_LIMIT of drift in
        # pcomm, which the derived pcomp inherits. The dual-update
        # oracle sometimes hid it: its second deconvolution failed
        # verification and rebuilt both arrays.
        stream = churn(seed, events, depart_p, 0.8, BAND_FRACTIONS)
        replay_against_oracle(stream, 4 * _DECONV_LIMIT)

    def test_fleet_population_with_extremes(self):
        # ~400 apps per machine, extreme fractions forcing rebuilds.
        mgr, oracle = replay_against_oracle(churn(6, 1000, 0.25, 0.05))
        assert mgr.p >= 390
        assert mgr.rebuilds > 0 and oracle.rebuilds > 0

    def test_pcomp_is_exactly_reversed_pcomm(self):
        mgr = manager()
        for op, arg in churn(7, 300, 0.3, 0.05):
            getattr(mgr, op)(arg)
        assert mgr.pcomp.tobytes() == mgr.pcomm[::-1].tobytes()
