"""Poisson-binomial overlap probabilities (``pcomp_i`` / ``pcomm_i``).

The Sun/Paragon slowdown formulas weight the measured delay tables by
the probability that exactly *i* of the *p* contending applications are
simultaneously computing (``pcomp_i``) or communicating (``pcomm_i``).
Treating each application *k* as independently communicating with
long-run probability ``f_k`` (and computing with ``1 - f_k``), the
number of simultaneous communicators follows a **Poisson-binomial
distribution**.

The paper stresses the run-time efficiency of this computation:

* generating all ``pcomm_i`` (or ``pcomp_i``) for ``1 <= i <= p`` takes
  ``O(p²)`` time by dynamic programming (:func:`overlap_distribution`);
* when a new application arrives, the values update in ``O(p)``
  (:func:`add_application`);
* when an application finishes, the table is regenerated in ``O(p²)``
  (or ``O(p)`` by polynomial deconvolution when numerically safe,
  :func:`remove_application`).

The worked example of §3.2.1 (p = 2, fractions 0.2 and 0.3) is encoded
in the unit tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ModelError
from ..units import check_fraction

__all__ = [
    "overlap_distribution",
    "add_application",
    "remove_application",
    "comm_comp_distributions",
    "expected_active",
]

#: Fractions within this distance of 0 or 1 make polynomial
#: deconvolution in :func:`remove_application` ill-conditioned; the
#: caller should rebuild with :func:`overlap_distribution` instead.
_DECONV_LIMIT = 1e-9

#: Negative probability mass (from round-off) tolerated per removal
#: before the deconvolution is declared lost. Sub-epsilon negatives are
#: clamped to zero and renormalized away; anything larger means the
#: division genuinely diverged and the caller must rebuild.
_NEGATIVE_MASS_LIMIT = 1e-12

#: Per-coefficient round-trip residual (re-adding the removed fraction
#: must reproduce the input distribution) tolerated per removal, scaled
#: by the population size. Synthetic division accumulates one rounding
#: error per recurrence step, so the bound grows linearly in ``p``.
_ROUNDTRIP_LIMIT = 1e-13


def _verified(
    out: np.ndarray, dist: np.ndarray, f: float, tol: float | None = None
) -> np.ndarray:
    """Clamp, renormalize and verify a deconvolution result.

    Three checks, each of which raises :class:`~repro.errors.ModelError`
    so :class:`~repro.core.runtime.SlowdownManager` falls back to the
    O(p²) rebuild instead of propagating a drifted distribution:

    * negative mass beyond :data:`_NEGATIVE_MASS_LIMIT` (round-off
      produces at most sub-epsilon negatives; more means divergence);
    * a non-finite or non-positive total;
    * a round-trip residual — ``add_application(out, f)`` must
      reproduce the input distribution to within *tol* per coefficient
      (default ``p · _ROUNDTRIP_LIMIT``). This is the tight condition:
      accumulated drift that never goes negative still trips it, which
      is what keeps long arrive/depart churn within 1e-12 of a fresh
      rebuild. The exact near-0/1 branch passes a looser *tol*: it
      legitimately discards ``min(f, 1-f) ≤ _DECONV_LIMIT`` of tail
      mass, which is invisible in the output but not in the round trip.
    """
    p = len(out)
    if tol is None:
        tol = _ROUNDTRIP_LIMIT * max(1, p)
    negative = out < 0.0
    if negative.any():
        if float(-out[negative].sum()) > _NEGATIVE_MASS_LIMIT:
            raise ModelError(
                "deconvolution produced non-trivial negative probability mass; "
                "rebuild from fractions"
            )
        out = np.clip(out, 0.0, None)
    total = out.sum()
    if not np.isfinite(total) or total <= 0:
        raise ModelError("deconvolution lost the distribution; rebuild from fractions")
    out = out / total
    residual = float(np.max(np.abs(add_application(out, f) - dist)))
    if residual > tol:
        raise ModelError(
            f"deconvolution round-trip residual {residual:.3e} exceeds the "
            "accuracy budget; rebuild from fractions"
        )
    return out


def overlap_distribution(fractions: Sequence[float]) -> np.ndarray:
    """Distribution of the number of simultaneously *active* applications.

    Parameters
    ----------
    fractions:
        ``f_k`` for each of the *p* applications: the long-run fraction
        of time application *k* is active (communicating, for
        ``pcomm``; computing, for ``pcomp``). Each must lie in [0, 1].

    Returns
    -------
    numpy.ndarray
        Array ``dist`` of length ``p + 1`` with
        ``dist[i] = P[exactly i active]``. ``dist.sum() == 1``.

    Notes
    -----
    This is the classic ``O(p²)`` dynamic program: ``dist`` is the
    coefficient vector of ``∏_k ((1 - f_k) + f_k x)``.
    """
    dist = np.array([1.0])
    for k, f in enumerate(fractions):
        check_fraction(f, f"fractions[{k}]")
        dist = add_application(dist, f)
    return dist


def add_application(dist: np.ndarray, fraction: float) -> np.ndarray:
    """Fold one more application into an overlap distribution in O(p).

    Returns a new array one element longer; *dist* is not modified.
    """
    f = check_fraction(fraction, "fraction")
    p = len(dist)
    new = np.empty(p + 1)
    new[0] = dist[0] * (1.0 - f)
    if p > 1:
        new[1:p] = dist[1:] * (1.0 - f) + dist[:-1] * f
    new[p] = dist[p - 1] * f
    return new


def remove_application(dist: np.ndarray, fraction: float) -> np.ndarray:
    """Remove one application from an overlap distribution.

    Performs the inverse of :func:`add_application` by synthetic
    division of the distribution polynomial by ``(1 - f) + f·x``.
    Division is carried out from the numerically dominant end (the
    constant term when ``f < 0.5``, the leading term otherwise), which
    keeps the recurrence stable for interior fractions.

    Raises
    ------
    ModelError
        If the distribution has length 1 (no application to remove),
        *fraction* is so close to 0 or 1 that deconvolution would
        divide by ~0, or the result fails the accuracy verification in
        :func:`_verified` — rebuild with :func:`overlap_distribution`
        then.
    """
    f = check_fraction(fraction, "fraction")
    p = len(dist) - 1
    if p < 1:
        raise ModelError("cannot remove an application from an empty distribution")
    dist = np.asarray(dist, dtype=float)
    if min(f, 1.0 - f) < _DECONV_LIMIT:
        # (1-f) or f is ~0: one division direction is exact, use it.
        # The discarded opposite-end coefficient holds at most
        # ~_DECONV_LIMIT of mass, so the round trip is bounded by that.
        tol = 4.0 * _DECONV_LIMIT
        if f < 0.5:
            return _verified(dist[:-1] / (1.0 - f), dist, f, tol)
        return _verified(dist[1:] / f, dist, f, tol)
    # The recurrence runs on Python floats: the same IEEE-754 operations
    # as on NumPy scalars, bit for bit, without the per-element boxing.
    coeffs = dist.tolist()
    out = [0.0] * p
    acc = 0.0
    g = 1.0 - f
    if f <= 0.5:
        # Divide from the constant term: dist[i] = out[i](1-f) + out[i-1] f.
        for i in range(p):
            acc = (coeffs[i] - acc * f) / g
            out[i] = acc
    else:
        # Divide from the leading term: dist[p] = out[p-1] f.
        for i in range(p - 1, -1, -1):
            acc = (coeffs[i + 1] - acc * g) / f
            out[i] = acc
    return _verified(np.array(out), dist, f)


def comm_comp_distributions(
    comm_fractions: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """``(pcomm, pcomp)`` arrays for applications with given comm fractions.

    ``pcomm[i]`` is the probability that exactly *i* applications
    communicate simultaneously; ``pcomp[i]`` that exactly *i* compute.
    Each application computes whenever it is not communicating, so
    ``pcomp`` is the overlap distribution of the complementary
    fractions. (The two arrays are reverses of each other only when
    every application is two-phase, which they are in this model.)
    """
    fractions = [check_fraction(f, "comm_fraction") for f in comm_fractions]
    pcomm = overlap_distribution(fractions)
    pcomp = overlap_distribution([1.0 - f for f in fractions])
    return pcomm, pcomp


def expected_active(dist: np.ndarray) -> float:
    """Mean number of simultaneously active applications."""
    return float(np.dot(np.arange(len(dist)), dist))
