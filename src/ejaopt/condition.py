"""Condition numbers, condition vectors, and their minimization over orbits.

For x in the open symmetric cone (all eigenvalues positive) the condition
number is c(x) = lambda_1(x) / lambda_n(x).  It is Schur-convex but not
strictly so; the condition vector kappa(x) with entries
lambda_i / lambda_{n-i+1}, i <= floor(n/2), repairs this: the norm
|kappa(.)| is strictly Schur-convex on the cone and sandwiches c(x) via

    floor(n/2)^(-1/2) |kappa(x)| <= c(x) <= |kappa(x)|.

Minimizing |kappa(x + a)| over the orbit of b is therefore the orbit
solver's closed form for F = |kappa| with shift -a, its domain probe run
with the cone margin lambda_n > tol: pair the largest eigenvalues of b
with the smallest of a, giving |phi(lam(b) - lam(-a))|, with -a and the
optimizer strongly operator commuting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraError, Element, _dot, eigenvalues, spectral_decompose
from .orbit import EigenvalueOrbit, InfeasibleError, OrbitProblem, Solution, _certify, _closed_form
from .schur import builtin
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

    The orbit solver's closed form for F = |kappa| with shift -a: x* pairs
    lambda_i(b) with lambda_{n-i+1}(a) on a's frame and strongly operator
    commutes with -a.  Feasibility is its domain probe with the cone margin
    lambda_n(x + a) > tol as the domain, exact for the whole orbit by Weyl
    (``orbit._check_orbit_domain``).  Requires rank >= 2, as
    ``condition_report`` does (``AlgebraError`` otherwise).
    """
    alg = a.algebra
    _check_rank(alg.rank)
    dec = spectral_decompose(a)
    fn = replace(builtin("cond_vector_norm", alg.rank), in_domain=lambda U: np.all(U > tol, axis=-1))
    # a's own decomposition reversed decomposes -a, with a's order of ties
    neg = replace(dec, eigenvalues=-dec.eigenvalues[::-1], frame=dec.frame[::-1])
    value, x_star, *_ = _closed_form(OrbitProblem(alg, fn, -a, EigenvalueOrbit(b), "min"), neg)
    cert = _certify(a, x_star, "max", tol, dec.eigenvalues)
    return Solution(x_star=x_star, value=value, certificate=cert)
