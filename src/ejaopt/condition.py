"""Condition numbers, condition vectors, and their minimization over orbits.

For x in the open symmetric cone (all eigenvalues positive) the condition
number is c(x) = lambda_1(x) / lambda_n(x).  It is Schur-convex but not
strictly so; the condition vector kappa(x) with entries
lambda_i / lambda_{n-i+1}, i <= floor(n/2), repairs this: the norm
|kappa(.)| is strictly Schur-convex on the cone and sandwiches c(x) via

    floor(n/2)^(-1/2) |kappa(x)| <= c(x) <= |kappa(x)|.

Minimizing |kappa(x + a)| over the orbit of b therefore has the closed
form of the general alignment principle with shift -a: pair the largest
eigenvalues of b with the smallest of a, giving |phi(lam(b) - lam(-a))|,
with -a and the optimizer strongly operator commuting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraError, Element, _dot, eigenvalues, spectral_decompose
from .orbit import InfeasibleError, Solution, _align, _certify
from .schur import phi_ratios as phi


@dataclass(frozen=True, eq=False)
class ConditionReport:
    cond: float
    kappa: np.ndarray
    kappa_norm: float
    bounds_ok: bool

    def __post_init__(self):
        k = np.asarray(self.kappa, dtype=float).copy()
        k.flags.writeable = False
        object.__setattr__(self, "kappa", k)


def condition_report(x: Element, tol=DEFAULT_TOL) -> ConditionReport:
    """Condition number, condition vector, and the sandwich bounds for x.

    Requires rank >= 2, where kappa has an entry and the sandwich is
    defined (``AlgebraError`` otherwise), and x in the open cone:
    lambda_n(x) > tol.
    """
    cond, kappa, kn, bounds_ok = _condition(eigenvalues(x), tol)
    return ConditionReport(cond=float(cond), kappa=kappa, kappa_norm=float(kn), bounds_ok=bool(bounds_ok))


def _check_rank(rank):
    """The condition vector and its sandwich bounds need rank >= 2."""
    if rank < 2:
        raise AlgebraError(f"the condition vector needs rank >= 2, got rank {rank}")


def _condition(lam, tol):
    """(cond, kappa, |kappa|, sandwich verdict) of ``condition_report`` from
    eigenvalues, row by row for a ``(..., rank)`` stack."""
    _check_rank(lam.shape[-1])
    if np.any(lam[..., -1] <= tol):
        raise InfeasibleError("element is not in the open symmetric cone")
    kappa = phi(lam)
    cond = lam[..., 0] / lam[..., -1]
    kn = np.sqrt(_dot(kappa, kappa))
    half = lam.shape[-1] // 2
    # kappa and c(x) are ratios, unchanged by scaling x: the slack needs no scale
    slack = 1e-12 * (1.0 + kn)
    return cond, kappa, kn, (kn / math.sqrt(half) <= cond + slack) & (cond <= kn + slack)


def minimize_condition_norm_orbit(b: Element, a: Element, tol=DEFAULT_TOL) -> Solution:
    """Closed-form minimum of |kappa(x + a)| over the orbit of b.

    Feasibility asks lambda_n(b) + lambda_n(a) > tol, which is exact for
    the whole orbit, not merely sufficient: by Weyl, lambda_n(x + a) >=
    lambda_n(b) + lambda_n(a) for every x in the orbit, with equality at
    the commuting x that pairs the smallest eigenvalues of b and a.  So the
    test rejects precisely when some x + a has lambda_n(x + a) <= tol.
    The optimizer pairs lambda_i(b) with lambda_{n-i+1}(a) on a's frame and
    strongly operator commutes with -a.  Requires rank >= 2, as
    ``condition_report`` does (``AlgebraError`` otherwise).
    """
    if b.algebra != a.algebra:
        raise InfeasibleError("a and b belong to different algebras")
    _check_rank(a.algebra.rank)
    dec = spectral_decompose(a)
    lam_a = dec.eigenvalues
    lam_b = eigenvalues(b)
    if lam_b[-1] + lam_a[-1] <= tol:
        raise InfeasibleError(
            "cannot certify [b] + a inside the open cone: "
            f"lambda_n(b) + lambda_n(a) = {lam_b[-1] + lam_a[-1]:.3e}"
        )
    # anti-aligned synthesis: largest of b on the frame member carrying the
    # smallest eigenvalue of a
    paired, x_star = _align(dec, lam_b, "max")
    shifted = lam_b + paired  # entries lam_i(b) + lam_{n-i+1}(a)
    value = float(np.linalg.norm(phi(shifted)))
    cert = _certify(a, x_star, "max", tol, lam_a)
    return Solution(x_star=x_star, value=value, certificate=cert)
