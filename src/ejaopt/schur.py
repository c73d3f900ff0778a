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
from .majorization import _majorization, _t_transform, sort_desc

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


_MAX_RESAMPLE = 100  # draws per trial

#: Trials evaluated per stacked call, here and in every ``verify`` suite:
#: memory stays bounded for any trial count, and no result depends on it.
_BLOCK = 128


def _draw_pairs(fn: SymmetricFunction, D, scale=1.0):
    """(v, u) stacks from rows of ``4n + 9`` normals laid out as
    ``check_strict_schur_convex`` states, one row per trial."""
    n = fn.arity
    V = D[:, :n]
    if fn.domain == "positive":
        V = np.exp(V) * scale
    depth = 1 + np.argmax(D[:, n : n + 3], axis=1)
    U = V
    for k in range(3):
        step = D[:, n + 3 + k * (n + 2) : n + 3 + (k + 1) * (n + 2)]
        ij = np.argsort(step[:, :n], axis=1, kind="stable")[:, :2]
        t = (np.arctan2(step[:, n + 1], step[:, n]) + np.pi) / (2.0 * np.pi)
        U = np.where((depth > k)[:, None], _t_transform(U, ij[:, 0], ij[:, 1], t), U)
    return V, U


def _usable(fn: SymmetricFunction, V, U) -> np.ndarray:
    """Per row: u strictly majorized by v, both inside the domain."""
    strict = _majorization(V, U, 1e-12, True)[1]
    return strict & fn.in_domain(V) & fn.in_domain(U)


def check_strict_schur_convex(fn: SymmetricFunction, rng, trials=1000) -> StrictnessReport:
    """Falsify strict Schur-convexity on random strict majorization pairs.

    Each trial samples v in the domain, builds u strictly majorized by v
    via one to three composed t-transforms (which stay inside the positive
    orthant), and checks f(u) < f(v).  A trial takes one row of ``4n + 9``
    standard normals, so a block of trials is one draw, checked and
    evaluated as stacks.  The row holds

    - v: n normals, exponentiated on a positive domain;
    - the chain depth: 1 + the argmax of 3 normals, uniform on {1, 2, 3};
    - per step (three, of which the first ``depth`` apply): n keys and two
      normals z.  The step mixes the entries at the two smallest keys with
      t = (atan2(z_2, z_1) + pi) / 2 pi, uniform on [0, 1).

    A pair that is not strict or leaves the domain is redrawn: the trials
    before it in the block are kept, the stream is replayed up to its row,
    and that trial alone draws a row per attempt, v scaled by 2**attempt
    on a positive domain (a shifted domain may exclude small entries), at
    most ``_MAX_RESAMPLE`` rows per trial.  So the report does not depend
    on the block size.
    """
    n = fn.arity
    if n < 2:
        raise ValueError(f"{fn.id}: strict majorization pairs need arity >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    width = 4 * n + 9
    violations = []
    min_margin = np.inf
    start = 0
    while start < trials:
        m = min(_BLOCK, trials - start)
        state = rng.bit_generator.state
        V, U = _draw_pairs(fn, rng.standard_normal((m, width)))
        ok = _usable(fn, V, U)
        done = m if ok.all() else int(np.argmin(ok))
        if done < m:
            # the rejected trial redraws on its own, from just past its row
            rng.bit_generator.state = state
            rng.standard_normal((done + 1) * width)
            for attempt in range(1, _MAX_RESAMPLE):
                v, u = _draw_pairs(fn, rng.standard_normal((1, width)), 2.0**attempt)
                if _usable(fn, v, u)[0]:
                    break
            else:
                raise DomainError(f"{fn.id}: could not build a strict in-domain pair")
            V, U = np.concatenate([V[:done], v]), np.concatenate([U[:done], u])
        fv, fu = fn._values(V), fn._values(U)
        margins = fv - fu
        min_margin = min(min_margin, float(np.min(margins)))
        for r in np.flatnonzero(margins <= 0.0):
            violations.append((U[r].copy(), V[r].copy(), float(fu[r]), float(fv[r])))
        start += len(V)
    return StrictnessReport(
        passed=not violations,
        trials=trials,
        violations=tuple(violations),
        min_margin=min_margin,
    )
