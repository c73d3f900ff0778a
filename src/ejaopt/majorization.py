"""Vector majorization predicates and the Lidskii / Ky Fan verifiers.

``u`` is majorized by ``v`` (u < v) when every prefix sum of the sorted
vectors satisfies sum_k u_down <= sum_k v_down and the totals agree;
dropping the total-sum equality gives submajorization.  The verdicts carry
the most-violated prefix margin so property suites can report worst
residuals.  Prefix sums use compensated (Neumaier) summation so verdicts
are reproducible at the tolerance level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, Element, eigenvalues


@dataclass(frozen=True)
class MajorizationVerdict:
    holds: bool
    strict: bool
    worst_prefix_gap: float  # min over k of (prefix_k(v) - prefix_k(u)); < 0 is a violation
    sum_gap: float  # |sum(u) - sum(v)|


def sort_desc(u) -> np.ndarray:
    """Entries of u in non-increasing order along the last axis (stable for
    ties, so -0.0 and 0.0 keep their order)."""
    return -np.sort(-np.asarray(u, dtype=float), axis=-1, kind="stable")


def _prefix_sums(values) -> np.ndarray:
    """Compensated prefix sums along the last axis, for every row at once.

    ``np.cumsum`` adds in order, so the running sums s_k and their
    compensations are the ones a scalar loop over each row would make.
    """
    values = np.asarray(values, dtype=float)
    zero = np.zeros(values.shape[:-1] + (1,))
    sums = np.cumsum(np.concatenate([zero, values], axis=-1), axis=-1)
    prev, s = sums[..., :-1], sums[..., 1:]
    # Neumaier: (larger - s_k) + smaller is the rounding error of s_k
    larger = np.abs(prev) >= np.abs(values)
    err = (np.where(larger, prev, values) - s) + np.where(larger, values, prev)
    return s + np.cumsum(np.concatenate([zero, err], axis=-1), axis=-1)[..., 1:]


def _verdict(v, u, tol, require_sum: bool) -> MajorizationVerdict:
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if v.shape != u.shape or v.ndim != 1:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    return _to_verdict(_majorization(v, u, tol, require_sum))


def _to_verdict(arrays) -> MajorizationVerdict:
    holds, strict, worst, sum_gap = arrays
    return MajorizationVerdict(bool(holds), bool(strict), float(worst), float(sum_gap))


def _majorization(v, u, tol, require_sum: bool):
    """(holds, strict, worst prefix gap, sum gap) of u < v, or of u <_w v
    without ``require_sum``, for vectors or row by row for ``(..., n)``
    stacks: the arithmetic behind every verdict of this module."""
    ud = sort_desc(u)
    vd = sort_desc(v)
    gaps = _prefix_sums(vd) - _prefix_sums(ud)
    worst = gaps.min(axis=-1)
    sum_gap = np.abs(gaps[..., -1])
    holds = (worst >= -tol) & ((sum_gap <= tol) | (not require_sum))
    strict = holds & (np.abs(ud - vd).max(axis=-1) > tol)
    return holds, strict, worst, sum_gap


def majorizes(v, u, tol=DEFAULT_TOL) -> MajorizationVerdict:
    """Verdict for u < v (prefix sums bounded, totals equal within tol)."""
    return _verdict(v, u, tol, require_sum=True)


def submajorizes(v, u, tol=DEFAULT_TOL) -> MajorizationVerdict:
    """Verdict for u <_w v (prefix-sum conditions only)."""
    return _verdict(v, u, tol, require_sum=False)


def _t_transform(U, i, j, t) -> np.ndarray:
    """Row r of the ``(m, n)`` stack U with entries (i[r], j[r]) replaced by
    their t[r]-mixtures, as a new stack."""
    rows = np.arange(len(U))
    ui, uj = U[rows, i], U[rows, j]
    out = U.copy()
    out[rows, i] = t * ui + (1.0 - t) * uj
    out[rows, j] = (1.0 - t) * ui + t * uj
    return out


def t_transform_sample(v, rng) -> np.ndarray:
    """One averaging step: replace (v_i, v_j) by their t-mixtures.

    The result is majorized by v, strictly whenever v_i != v_j and
    t is in the open interval (0, 1).  Compose for deeper strict pairs.
    """
    v = np.asarray(v, dtype=float)
    if len(v) < 2:
        raise ValueError("need length >= 2")
    i, j = rng.choice(len(v), size=2, replace=False)
    t = float(rng.uniform(0.0, 1.0))
    return _t_transform(v[None], [i], [j], np.array([t]))[0]


def lidskii_holds(a: Element, b: Element, tol=DEFAULT_TOL) -> MajorizationVerdict:
    """Lidskii's inequality: lambda(a) - lambda(b) < lambda(a - b)."""
    return _to_verdict(_lidskii(eigenvalues(a), eigenvalues(b), eigenvalues(a - b), tol))


def _lidskii(lam_a, lam_b, lam_diff, tol):
    """``lidskii_holds`` from the eigenvalues of a, b and a - b, as
    ``_majorization`` arrays (row by row for stacks)."""
    return _majorization(lam_diff, lam_a - lam_b, tol, require_sum=True)


def kyfan_holds(a: Element, b: Element, tol=DEFAULT_TOL) -> MajorizationVerdict:
    """Ky Fan's inequality: lambda(a + b) < lambda(a) + lambda(b)."""
    return _to_verdict(_kyfan(eigenvalues(a), eigenvalues(b), eigenvalues(a + b), tol))


def _kyfan(lam_a, lam_b, lam_sum, tol):
    """``kyfan_holds`` from the eigenvalues of a, b and a + b, as
    ``_majorization`` arrays (row by row for stacks)."""
    return _majorization(lam_a + lam_b, lam_sum, tol, require_sum=True)
