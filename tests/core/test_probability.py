"""Unit and property tests for the Poisson-binomial machinery."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.probability import (
    add_application,
    comm_comp_distributions,
    expected_active,
    overlap_distribution,
    remove_application,
)
from repro.errors import ModelError

fractions_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=0, max_size=8
)


def brute_force(fractions: list[float]) -> np.ndarray:
    """Enumerate all 2^p activity subsets (the definition)."""
    p = len(fractions)
    dist = np.zeros(p + 1)
    for active in itertools.product([0, 1], repeat=p):
        prob = 1.0
        for f, a in zip(fractions, active):
            prob *= f if a else (1.0 - f)
        dist[sum(active)] += prob
    return dist


class TestOverlapDistribution:
    def test_paper_worked_example(self):
        """§3.2.1: p = 2, comm fractions 0.2 and 0.3."""
        pcomm, pcomp = comm_comp_distributions([0.2, 0.3])
        assert pcomm[1] == pytest.approx(0.2 * 0.7 + 0.3 * 0.8)
        assert pcomm[2] == pytest.approx(0.2 * 0.3)
        assert pcomp[1] == pytest.approx(0.2 * 0.7 + 0.3 * 0.8)
        assert pcomp[2] == pytest.approx(0.7 * 0.8)

    def test_empty_population(self):
        dist = overlap_distribution([])
        assert dist.tolist() == [1.0]

    def test_single_application(self):
        dist = overlap_distribution([0.3])
        assert dist == pytest.approx([0.7, 0.3])

    def test_all_always_active(self):
        dist = overlap_distribution([1.0, 1.0, 1.0])
        assert dist[-1] == pytest.approx(1.0)
        assert dist[:-1] == pytest.approx([0.0, 0.0, 0.0])

    def test_all_never_active(self):
        dist = overlap_distribution([0.0, 0.0])
        assert dist[0] == pytest.approx(1.0)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            overlap_distribution([1.5])
        with pytest.raises(ValueError):
            overlap_distribution([-0.1])

    @settings(max_examples=100, deadline=None)
    @given(fractions_lists)
    def test_matches_brute_force(self, fractions):
        dist = overlap_distribution(fractions)
        assert dist == pytest.approx(brute_force(fractions), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(fractions_lists)
    def test_sums_to_one(self, fractions):
        assert overlap_distribution(fractions).sum() == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(fractions_lists)
    def test_expected_active_is_sum_of_fractions(self, fractions):
        dist = overlap_distribution(fractions)
        assert expected_active(dist) == pytest.approx(sum(fractions), abs=1e-9)

    def test_pcomp_is_reverse_of_pcomm(self):
        """Two-phase apps: #comp = p - #comm exactly."""
        pcomm, pcomp = comm_comp_distributions([0.2, 0.5, 0.9])
        assert pcomp == pytest.approx(pcomm[::-1])


class TestIncrementalUpdates:
    @settings(max_examples=100, deadline=None)
    @given(fractions_lists, st.floats(min_value=0.0, max_value=1.0))
    def test_add_matches_rebuild(self, fractions, extra):
        incremental = add_application(overlap_distribution(fractions), extra)
        rebuilt = overlap_distribution(fractions + [extra])
        assert incremental == pytest.approx(rebuilt, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(fractions_lists, st.floats(min_value=0.01, max_value=0.99))
    def test_add_remove_roundtrip(self, fractions, extra):
        base = overlap_distribution(fractions)
        roundtrip = remove_application(add_application(base, extra), extra)
        assert roundtrip == pytest.approx(base, abs=1e-9)

    def test_remove_extreme_fraction_zero(self):
        base = overlap_distribution([0.5])
        out = remove_application(add_application(base, 0.0), 0.0)
        assert out == pytest.approx(base)

    def test_remove_extreme_fraction_one(self):
        base = overlap_distribution([0.5])
        out = remove_application(add_application(base, 1.0), 1.0)
        assert out == pytest.approx(base)

    def test_remove_from_empty_rejected(self):
        with pytest.raises(ModelError):
            remove_application(np.array([1.0]), 0.5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=2, max_size=6),
        st.integers(min_value=0, max_value=5),
    )
    def test_remove_any_member(self, fractions, idx):
        """Removing any member yields the distribution of the rest."""
        idx = idx % len(fractions)
        full = overlap_distribution(fractions)
        rest = fractions[:idx] + fractions[idx + 1 :]
        removed = remove_application(full, fractions[idx])
        assert removed == pytest.approx(overlap_distribution(rest), abs=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=40
        ),
        st.randoms(use_true_random=False),
    )
    def test_long_churn_stays_near_fresh_rebuild(self, fractions, rng):
        """Satellite hardening: arrive/depart churn must not drift.

        A long random interleaving of O(p) incremental adds and O(p)
        deconvolution removals (the fleet's hot event-feed path) must
        leave the distribution within 1e-12 of a brand-new O(p²)
        rebuild from the surviving fractions — any removal whose
        round-trip residual exceeds the accuracy budget raises instead,
        which is the caller's signal to rebuild.
        """
        live: list[float] = []
        dist = np.array([1.0])
        for f in fractions:
            if live and rng.random() < 0.4:
                idx = rng.randrange(len(live))
                gone = live.pop(idx)
                try:
                    dist = remove_application(dist, gone)
                except ModelError:
                    dist = overlap_distribution(live)
            else:
                live.append(f)
                dist = add_application(dist, f)
        fresh = overlap_distribution(live)
        assert dist == pytest.approx(fresh, abs=1e-12)

    def test_remove_clamps_subepsilon_negatives_and_renormalizes(self):
        # A distribution perturbed by one ulp of negative mass must
        # come back clamped to a true probability vector.
        dist = add_application(overlap_distribution([0.3, 0.7]), 0.5)
        dist[0] -= 1e-17  # sub-epsilon corruption
        out = remove_application(dist, 0.5)
        assert np.all(out >= 0.0)
        assert out.sum() == pytest.approx(1.0, abs=1e-15)

    def test_remove_rejects_drifted_distribution(self):
        # Removing a fraction that was never added produces a large
        # round-trip residual (or negative mass): the tightened guard
        # must trip the rebuild fallback instead of returning garbage.
        dist = overlap_distribution([0.1, 0.1, 0.1])
        with pytest.raises(ModelError):
            remove_application(dist, 0.9)

    def test_exact_branch_renormalizes(self):
        # The near-0/1 exact-division branch used to skip verification;
        # it must now return a normalized vector too.
        base = overlap_distribution([0.4, 0.6])
        out = remove_application(add_application(base, 1e-12), 1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-15)
        assert out == pytest.approx(base, abs=1e-9)


def remove_application_numpy_loop(dist: np.ndarray, fraction: float) -> np.ndarray:
    """The departure kernel as it ran on NumPy scalars: the oracle.

    :func:`remove_application` runs the same synthetic-division
    recurrence on Python floats; the IEEE-754 operations are identical,
    so the two must agree byte for byte, fallbacks included.
    """
    from repro.core.probability import _DECONV_LIMIT, _verified
    from repro.units import check_fraction

    f = check_fraction(fraction, "fraction")
    p = len(dist) - 1
    if p < 1:
        raise ModelError("cannot remove an application from an empty distribution")
    dist = np.asarray(dist, dtype=float)
    if min(f, 1.0 - f) < _DECONV_LIMIT:
        tol = 4.0 * _DECONV_LIMIT
        if f < 0.5:
            return _verified(dist[:-1] / (1.0 - f), dist, f, tol)
        return _verified(dist[1:] / f, dist, f, tol)
    out = np.empty(p)
    if f <= 0.5:
        g = 1.0 - f
        acc = 0.0
        for i in range(p):
            out[i] = (dist[i] - acc * f) / g
            acc = out[i]
    else:
        acc = 0.0
        for i in range(p - 1, -1, -1):
            out[i] = (dist[i + 1] - acc * (1.0 - f)) / f
            acc = out[i]
    return _verified(out, dist, f)


def _outcome(kernel, dist: np.ndarray, fraction: float) -> bytes | str:
    try:
        return kernel(dist, fraction).tobytes()
    except ModelError as exc:
        return f"ModelError: {exc}"


edge_fractions = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.sampled_from([0.0, 1e-12, 1e-9, 0.5, 1.0 - 1e-9, 1.0 - 1e-12, 1.0]),
)


class TestDepartureKernelDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(edge_fractions, min_size=1, max_size=40),
        st.integers(min_value=0, max_value=39),
    )
    def test_matches_numpy_loop_byte_for_byte(self, fractions, pick):
        gone = fractions[pick % len(fractions)]
        dist = overlap_distribution(fractions)
        assert _outcome(remove_application, dist, gone) == _outcome(
            remove_application_numpy_loop, dist, gone
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
        edge_fractions,
    )
    def test_matches_on_foreign_fraction(self, fractions, gone):
        # Removing a fraction that was never added drives the
        # ``_verified`` rebuild fallback: both kernels must raise alike.
        dist = overlap_distribution(fractions)
        assert _outcome(remove_application, dist, gone) == _outcome(
            remove_application_numpy_loop, dist, gone
        )

    @pytest.mark.parametrize("gone", [0.2, 0.5, 0.8])
    def test_both_branches_at_fleet_population(self, gone):
        rng = np.random.default_rng(390)
        dist = overlap_distribution(list(rng.uniform(0.05, 0.95, 389)) + [gone])
        assert _outcome(remove_application, dist, gone) == _outcome(
            remove_application_numpy_loop, dist, gone
        )

    def test_fallback_is_exercised(self):
        dist = overlap_distribution([0.1, 0.1, 0.1])
        assert _outcome(remove_application, dist, 0.9).startswith("ModelError")
        assert _outcome(remove_application, dist, 0.9) == _outcome(
            remove_application_numpy_loop, dist, 0.9
        )
