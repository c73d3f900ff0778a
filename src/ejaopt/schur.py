"""Catalog of symmetric functions and their induced spectral functions.

A :class:`SymmetricFunction` is a permutation-invariant f : R^n -> R with
a domain tag and a convexity-class label.  F(x) = f(lambda(x)) is the
induced spectral function.  The strictness labels are analytic facts; the
randomized checker here is a falsifier, not a prover: it samples strict
majorization pairs and asserts strict decrease.

Built-in names (used by problem files): ``schatten`` (with p),
``squared_norm``, ``cond_number``, ``cond_vector_norm``, ``spread``,
``spread_vector_norm``, ``smoothed_max`` (with eps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import Element, eigenvalues
from .majorization import majorizes, sort_desc, t_transform_sample

STRICTLY_SCHUR_CONVEX = "strictly_schur_convex"
SCHUR_CONVEX = "schur_convex"


class DomainError(ValueError):
    """Evaluation attempted outside the function's domain."""


_TRUE = np.broadcast_to(True, ())  # read-only, shared by every single vector


def _in_all(U) -> np.ndarray:
    return np.ones(np.shape(U)[:-1], dtype=bool) if np.ndim(U) > 1 else _TRUE


def _in_positive(U) -> np.ndarray:
    return np.all(np.asarray(U) > 0.0, axis=-1)


@dataclass(frozen=True)
class SymmetricFunction:
    """Permutation-invariant function on R^arity.

    ``fn`` must accept arrays of shape (..., arity) and act along the last
    axis, which lets brute-force oracles evaluate all permutations at once.
    ``in_domain`` mirrors that shape contract and returns booleans.
    """

    id: str
    arity: int
    domain: str  # "all" | "positive"
    fn: Callable
    declared_class: str
    in_domain: Callable = field(default=None)

    def __post_init__(self):
        if self.in_domain is None:
            chk = _in_positive if self.domain == "positive" else _in_all
            object.__setattr__(self, "in_domain", chk)

    def __call__(self, u) -> float:
        u = np.asarray(u, dtype=float)
        if u.ndim != 1:
            raise ValueError(f"{self.id}: expected a vector of length {self.arity}")
        return float(self._values(u))

    def _values(self, U) -> np.ndarray:
        """f of each row of a (..., arity) stack, every row checked against
        the domain: the validation behind ``__call__``."""
        U = np.asarray(U, dtype=float)
        if U.shape[-1:] != (self.arity,):
            raise ValueError(f"{self.id}: expected a vector of length {self.arity}")
        ok = self.in_domain(U)
        # one vector has a single verdict: bool() is the cheap test there
        if not (ok if U.ndim == 1 else np.all(ok)):
            raise DomainError(f"{self.id}: argument outside domain '{self.domain}'")
        return self.fn(U)


def eval_spectral(fn: SymmetricFunction, x: Element) -> float:
    """F(x) = f(lambda(x)); invariant under automorphisms of the algebra."""
    if fn.arity != x.algebra.rank:
        raise ValueError(
            f"{fn.id}: arity {fn.arity} does not match algebra rank {x.algebra.rank}"
        )
    return fn(eigenvalues(x))


def phi_ratios(U) -> np.ndarray:
    """phi(u) = (u_1/u_n, u_2/u_{n-1}, ...) on the sorted vector, length
    floor(n/2), along the last axis: the condition vector of u read as a
    spectrum.  Raises DomainError unless every entry is positive."""
    U = np.asarray(U, dtype=float)
    if np.any(U <= 0.0):
        raise DomainError("phi needs strictly positive entries")
    half = U.shape[-1] // 2
    S = sort_desc(U)
    return S[..., :half] / S[..., ::-1][..., :half]


def _spread_vector_norm(U) -> np.ndarray:
    """|(u_1 - u_n, u_2 - u_{n-1}, ...)| on the sorted vector."""
    half = U.shape[-1] // 2
    S = sort_desc(U)
    diffs = S[..., :half] - S[..., ::-1][..., :half]
    return np.sqrt(np.sum(diffs**2, axis=-1))


# the catalog functions without parameters: name -> (domain, class, f)
_FIXED = {
    "squared_norm": ("all", STRICTLY_SCHUR_CONVEX, lambda U: np.sum(U * U, axis=-1)),
    "cond_number": ("positive", SCHUR_CONVEX, lambda U: np.max(U, axis=-1) / np.min(U, axis=-1)),
    "cond_vector_norm": (
        "positive",
        STRICTLY_SCHUR_CONVEX,
        lambda U: np.sqrt(np.sum(phi_ratios(U) ** 2, axis=-1)),
    ),
    "spread": ("all", SCHUR_CONVEX, lambda U: np.max(U, axis=-1) - np.min(U, axis=-1)),
    "spread_vector_norm": ("all", STRICTLY_SCHUR_CONVEX, _spread_vector_norm),
}


def builtin(name: str, arity: int, **params) -> SymmetricFunction:
    """Construct a catalog function by name.

    Raises ValueError for unknown names or invalid parameters.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if name == "schatten":
        p = float(params.pop("p", 2.0))
        _no_extra(name, params)
        if p < 1.0:
            raise ValueError("schatten needs p >= 1")
        fid, domain = f"schatten_{p:g}".replace(".", "_"), "all"
        cls = STRICTLY_SCHUR_CONVEX if p > 1.0 else SCHUR_CONVEX
        f = lambda U: np.sum(np.abs(U) ** p, axis=-1) ** (1.0 / p)
    elif name == "smoothed_max":
        # strictly quasi-convex symmetric representative: max + eps*|u|^2
        eps = float(params.pop("eps", 1e-3))
        _no_extra(name, params)
        if eps <= 0.0:
            raise ValueError("smoothed_max needs eps > 0")
        fid, domain, cls = f"smoothed_max_{eps:g}", "all", STRICTLY_SCHUR_CONVEX
        f = lambda U: np.max(U, axis=-1) + eps * np.sum(U * U, axis=-1)
    elif name in _FIXED:
        _no_extra(name, params)
        fid = name
        domain, cls, f = _FIXED[name]
    else:
        raise ValueError(f"unknown builtin function {name!r}")
    return SymmetricFunction(id=fid, arity=arity, domain=domain, fn=f, declared_class=cls)


def _no_extra(name, params):
    if params:
        raise ValueError(f"{name}: unexpected parameters {sorted(params)}")


def from_config(cfg: dict, arity: int) -> SymmetricFunction:
    """Build a function from a problem-file entry like {"fn": "schatten", "p": 2}."""
    cfg = dict(cfg)
    try:
        name = cfg.pop("fn")
    except KeyError as exc:
        raise ValueError("function config needs an 'fn' name") from exc
    if name == "affine":
        base = from_config(cfg.pop("base"), arity)
        return affine_compose(base, scale=cfg.pop("scale", 1.0), shift=cfg.pop("shift", 0.0))
    return builtin(name, arity, **cfg)


def affine_compose(base: SymmetricFunction, scale=1.0, shift=0.0) -> SymmetricFunction:
    """g(u) = base(scale*u + shift*1).

    Requires scale > 0, which preserves (strict) Schur-convexity since the
    map is monotone in the majorization order.
    """
    scale = float(scale)
    shift = float(shift)
    if scale <= 0.0:
        raise ValueError("affine_compose needs scale > 0")
    return SymmetricFunction(
        id=f"{base.id}@affine({scale:g},{shift:g})",
        arity=base.arity,
        domain=base.domain,
        fn=lambda U: base.fn(scale * np.asarray(U, dtype=float) + shift),
        declared_class=base.declared_class,
        in_domain=lambda U: base.in_domain(scale * np.asarray(U, dtype=float) + shift),
    )


@dataclass(frozen=True, eq=False)
class StrictnessReport:
    passed: bool
    trials: int
    violations: tuple  # (u, v, f(u), f(v)) where f(u) >= f(v) despite u strictly < v
    min_margin: float  # min over trials of f(v) - f(u)


_MAX_RESAMPLE = 100  # draws per domain sample and per strict pair


def _sample_in_domain(fn: SymmetricFunction, rng) -> np.ndarray:
    # a positive domain may exclude small entries (a shifted function), so
    # each retry doubles the draw's scale; the first draw is unscaled
    for attempt in range(_MAX_RESAMPLE):
        if fn.domain == "positive":
            v = np.exp(rng.standard_normal(fn.arity)) * 2.0**attempt
        else:
            v = rng.standard_normal(fn.arity)
        if bool(fn.in_domain(v)):
            return v
    raise DomainError(f"{fn.id}: could not sample the domain in {_MAX_RESAMPLE} attempts")


def check_strict_schur_convex(fn: SymmetricFunction, rng, trials=1000) -> StrictnessReport:
    """Falsify strict Schur-convexity on random strict majorization pairs.

    Samples v in the domain, builds u strictly majorized by v via one to
    three composed t-transforms (which stay inside the positive orthant),
    and checks f(u) < f(v).  Domain-escaping or non-strict samples are
    discarded and resampled, at most ``_MAX_RESAMPLE`` times.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    violations = []
    min_margin = np.inf
    for _ in range(trials):
        for _attempt in range(_MAX_RESAMPLE):
            v = _sample_in_domain(fn, rng)
            u = v
            for _k in range(int(rng.integers(1, 4))):
                u = t_transform_sample(u, rng)
            verdict = majorizes(v, u, tol=1e-12)
            if verdict.strict and bool(fn.in_domain(u)):
                break
        else:
            raise DomainError(f"{fn.id}: could not build a strict in-domain pair")
        margin = fn(v) - fn(u)
        min_margin = min(min_margin, margin)
        if margin <= 0.0:
            violations.append((u, v, fn(u), fn(v)))
    return StrictnessReport(
        passed=not violations,
        trials=trials,
        violations=tuple(violations),
        min_margin=float(min_margin),
    )
