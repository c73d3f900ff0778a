"""Optimization of shifted spectral functions over eigenvalue orbits.

Solves min/max of F(x - a) = f(lambda(x - a)) where x ranges over an
eigenvalue orbit [b], an automorphism (weak) orbit, or a finite union of
orbits given by a list of spectra.  For Schur-convex f the global optimum
has closed form: decompose a over a Jordan frame and place the eigenvalues
of b on that frame sorted the same way (minimization, by Lidskii) or the
opposite way (maximization, by Ky Fan); one solver does this for every
feasible set.  That optimizer strongly operator commutes with a
(minimization) or with -a (maximization), on a weak orbit of a product
factor by factor, emitted as machine-checkable certificates.  Strictness
is the hypothesis of the converse, that every (local) optimizer commutes:
it decides what a certificate of the local search predicts, not whether
the closed form applies.

A derivative-free local search over pairwise rotation curves is an
independent route to the same optima, one run per weak-orbit component on
products, plus a harness for the product-algebra phenomenon where a
weak-orbit optimizer only operator commutes (strong commutation fails).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraError,
    Element,
    _owners,
    algebra_from_dict,
    eigenvalues,
    element_from_dict,
    inner,
    join,
    jordan_product,
    norm,
    operator_commutation_residual,
    spectral_decompose,
    split,
    synthesize_from_frame,
)
from .majorization import sort_desc
from .schur import DomainError, SymmetricFunction, from_config


class SolverError(ValueError):
    """Problem violates a solver requirement (e.g. a function arity that
    does not match the algebra's rank)."""


class InfeasibleError(ValueError):
    """Feasible set is empty or leaves the function's domain."""


# ---------------------------------------------------------------------------
# Problem and result types


# A feasible set's ``_members(alg)`` are the rows of eigenvalues whose orbits
# make up the set, as a 2-D array, and ``ranks``, the factor ranks that cut
# each row when it is read per factor: a weak orbit of a product lists each
# factor's spectrum in factor order, and its points keep each on its factor.
# ``ranks`` is None for rows read whole, merged spectra whose entries may
# move across factors, and for a weak orbit of one factor, which is its
# eigenvalue orbit.  The closed form, the domain probe, the local search and
# the certificates all read this one reading.  Its ``_points(alg)`` are the
# points ``solve --local-search`` starts from: b for an orbit, one point per
# member for a spectral set.
@dataclass(frozen=True)
class _Orbit:
    b: Element

    def _points(self, alg):
        return [self.b]


class EigenvalueOrbit(_Orbit):
    def _members(self, alg):
        return eigenvalues(self.b)[None, :], None


class WeakOrbit(_Orbit):
    def _members(self, alg):
        ranks = [f.rank for f in alg.factors] if len(alg.factors) > 1 else None
        return np.array(_ordered_assignments(alg, _factor_spectra(self.b))), ranks


@dataclass(frozen=True)
class FiniteSpectralSet:
    spectra: tuple  # tuple of eigenvalue tuples, each sorted non-increasing

    def __post_init__(self):
        spectra = tuple(tuple(float(v) for v in sort_desc(np.asarray(s, dtype=float))) for s in self.spectra)
        if not all(np.isfinite(s).all() for s in spectra):
            raise ValueError("spectral-set members must be finite")
        object.__setattr__(self, "spectra", spectra)

    def _members(self, alg):
        if not self.spectra:
            raise InfeasibleError("empty spectral set")
        if any(len(u) != alg.rank for u in self.spectra):
            raise SolverError("spectral-set member length does not match rank")
        return np.array(self.spectra), None

    def _points(self, alg):
        return [_synthesized(alg, s) for s in self._members(alg)[0]]


@dataclass(frozen=True)
class OrbitProblem:
    algebra: object
    fn: SymmetricFunction
    a: Element
    feasible: object
    sense: str = "min"

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise SolverError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if self.fn.arity != self.algebra.rank:
            raise SolverError(
                f"function arity {self.fn.arity} does not match rank {self.algebra.rank}"
            )
        if self.a.algebra != self.algebra:
            raise SolverError("shift element belongs to a different algebra")
        if not isinstance(self.feasible, (EigenvalueOrbit, WeakOrbit, FiniteSpectralSet)):
            raise SolverError(f"unknown feasible set type {type(self.feasible).__name__}")
        b = getattr(self.feasible, "b", None)
        if b is not None and b.algebra != self.algebra:
            raise SolverError("orbit element belongs to a different algebra")


@dataclass(frozen=True)
class Certificate:
    """Commutation evidence for an optimizer candidate.

    ``kind`` names the check the governing statement predicts for the
    problem's sense and feasible set; ``checks`` carries every boolean
    (three, five on a weak orbit of a product) and ``residuals`` the raw
    numbers behind them.
    """

    kind: str
    passed: bool
    residuals: dict
    tol: float
    checks: dict


@dataclass(frozen=True, eq=False)
class Solution:
    x_star: Element
    value: float
    certificate: Certificate
    iterations: int = 0
    trace: tuple | None = None
    converged: bool = True


def certify(a: Element, x: Element, sense: str = "min", tol=DEFAULT_TOL) -> Certificate:
    """Evaluate all three commutation checks for the pair (a, x).

    The certificate's ``kind``/``passed`` reflect the sense-appropriate
    strong-commutation check (with a for min, with -a for max); operator
    commutation and both strong checks are always reported.

    Every residual is bilinear in (a, x), so each check compares it with
    ``tol * |a| |x|``: scaling a and x by any t > 0 leaves every verdict
    unchanged.

    It takes no feasible set, so it runs the merged checks, which a
    weak-orbit optimum of a product may fail: that is checked by its
    ``Solution.certificate``.

    Callers that already hold lambda(a), as the library's solvers do from
    their decomposition of a, pass it to the same checks through
    ``_certify``: a decomposition's eigenvalues have the bits of
    ``eigenvalues(a)``.  lambda(x) is always solved fresh; it is the check.
    """
    return _certify(a, x, sense, tol, eigenvalues(a))


# the residual behind each strong check
_GAP_OF = {f"strong_commute{t}_with_{s}": f"inner_gap{t}_{s}" for t in ("", "_per_factor") for s in ("a", "neg_a")}


def _certify(a: Element, x: Element, sense: str, tol, lam_a, ranks=None) -> Certificate:
    """``certify`` with lambda(a) from the caller's decomposition of a.

    With ``ranks``, the factor ranks of a weak orbit of a product, ``lam_a``
    holds a's factor spectra in factor order and lambda(x) is solved factor
    by factor (the solves of ``eigenvalues(x)``).  <a, x> = sum_f <a_f, x_f>
    and each term is at most lambda(a_f) . lambda(x_f), so one gap over the
    spectra concatenated per factor is 0 exactly when every factor strongly
    commutes: ``kind`` names that per-factor check, and the merged checks
    are reported too.
    """
    res_op = operator_commutation_residual(a, x)
    ax = inner(a, x)
    thr = tol * norm(a) * norm(x)
    residuals = {"commutator_norm": res_op}
    checks = {"operator_commute": res_op <= thr}

    def strong(tag, lam_a, lam_neg_a, lam_x):
        for sign, side, lam in ((1.0, "a", lam_a), (-1.0, "neg_a", lam_neg_a)):
            check = f"strong_commute{tag}_with_{side}"
            residuals[_GAP_OF[check]] = gap = abs(sign * ax - float(lam @ lam_x))
            checks[check] = gap <= thr

    # one eigensolve, for x: lambda(-a) is -lambda(a) reversed (per factor)
    tag = "" if ranks is None else "_per_factor"
    if ranks is None:
        strong("", lam_a, -lam_a[::-1], eigenvalues(x))
    else:
        lam_x = np.concatenate([eigenvalues(p) for p in split(x)])
        merged = sort_desc(lam_a)
        strong("", merged, -merged[::-1], sort_desc(lam_x))
        strong(tag, lam_a, np.concatenate([-s[::-1] for s in np.split(lam_a, np.cumsum(ranks)[:-1])]), lam_x)
    kind = f"strong_commute{tag}_with_{'a' if sense == 'min' else 'neg_a'}"
    return Certificate(kind=kind, passed=checks[kind], residuals=residuals, tol=tol, checks=checks)


# ---------------------------------------------------------------------------
# Brute-force oracle


@lru_cache(maxsize=None)
def _all_permutations(n):
    P = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    P.flags.writeable = False
    return P


def _pairings(fn: SymmetricFunction, lam_b, lam_a):
    """f at the pairings P lam_b - lam_a that lie in the function's domain.

    Returns those P as rows, in lexicographic order (the cached table
    itself when every pairing is kept), and f at each, from one vectorised
    call; raises DomainError when no pairing is in the domain.
    """
    perms = _all_permutations(len(lam_b))
    cands = lam_b[perms] - lam_a[None, :]
    mask = np.asarray(fn.in_domain(cands), dtype=bool)
    if mask.all():
        return perms, fn.fn(cands)
    if not mask.any():
        raise DomainError(f"{fn.id}: every pairing falls outside the domain")
    return perms[mask], fn.fn(cands[mask])


def permutation_oracle(fn: SymmetricFunction, lam_b, lam_a, sense: str = "min"):
    """Exhaustive optimum of f(P lam_b - lam_a) over all permutations P.

    Independent check for the closed-form solvers at small rank (n <= 9).
    Ties resolve to the lexicographically smallest permutation.  Pairings
    outside the function's domain are skipped; if every pairing is skipped
    a DomainError is raised.
    """
    lam_b = sort_desc(lam_b)
    lam_a = sort_desc(lam_a)
    n = len(lam_b)
    if len(lam_a) != n:
        raise ValueError("spectra length mismatch")
    if n > 9:
        raise ValueError("permutation oracle is guarded to n <= 9")
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    perms, vals = _pairings(fn, lam_b, lam_a)
    idx = int(np.argmin(vals) if sense == "min" else np.argmax(vals))
    return float(vals[idx]), tuple(perms[idx].tolist())


# ---------------------------------------------------------------------------
# Closed-form global solvers


def _check_orbit_domain(fn: SymmetricFunction, rows, lam_a, ranks=None):
    """Feasibility of the orbits of ``rows`` for a domain-restricted function.

    Every x in the orbit of each row b must have x - a in the domain.  The
    built-in domains are lower bounds on the smallest entry (also after an
    affine map with positive scale), and over the whole orbit the smallest
    eigenvalue of x - a is minimized at a commuting pairing: by Weyl,
    lambda_n(x - a) >= lambda_n(b) - lambda_1(a), with equality when x puts
    the smallest eigenvalue of b on a's frame member for lambda_1(a).
    Rows read per factor (``ranks``, as ``_members`` gives it) keep each
    factor's spectrum on its factor, so there the bound holds factor by
    factor and the smallest eigenvalue of x - a is the minimum over factors
    f of lambda_min(b_f) - lambda_max(a_f); ``rows`` and ``lam_a`` are then
    both in factor order.  Floating-point subtraction is monotone, so
    probing that single value per row is exact: it accepts precisely when
    every realisable pairing lies in the domain.  All rows are probed in
    one ``in_domain`` call.
    """
    if fn.domain == "all":
        return
    cuts = [0] if ranks is None else np.cumsum([0, *ranks[:-1]])
    lows = (np.minimum.reduceat(rows, cuts, axis=1) - np.maximum.reduceat(lam_a, cuts)).min(axis=1, keepdims=True)
    if not bool(np.all(fn.in_domain(np.broadcast_to(lows, rows.shape)))):
        raise InfeasibleError(f"{fn.id}: orbit leaves the function domain at smallest eigenvalue {lows.min():.3e}")


def _align(dec, s, sense: str):
    """Place the spectrum s on a's frame.

    Minimization puts s in the order of lambda(a), maximization in the
    reverse order.  Returns the eigenvalues of a that meet s entrywise (so
    x - a has the eigenvalues s minus them) and the synthesized x.
    """
    if sense == "min":
        return dec.eigenvalues, synthesize_from_frame(dec.frame, s, validate=False)
    return dec.eigenvalues[::-1], synthesize_from_frame(dec.frame, s[::-1], validate=False)


def _placed(dec, rows, sense: str):
    """Rows of per-factor spectra in factor order (each factor's sorted
    non-increasing), laid out for ``_align`` on the frame of ``dec``, and
    a's eigenvalues in factor order: each factor's spectrum lands on that
    factor's frame members in a's order, reversed for max.  A product frame
    merges its factors' members by a stable sort, so each factor's members
    keep their order, and ``algebra._owners`` reads each member's factor.
    """
    owner = _owners(dec.algebra, [c.coords for c in dec.frame])
    # _align reverses a row for max, so the slots are read from the other end
    slots = np.argsort(owner if sense == "min" else owner[::-1], kind="stable")
    placed = np.empty((len(rows), len(slots)))
    placed[:, slots] = rows
    return placed, dec.eigenvalues[np.argsort(owner, kind="stable")]


def solve_orbit_global(problem: OrbitProblem) -> Solution:
    """Closed-form global optimum of F(x - a) over the feasible set.

    Every feasible set lists its members, the spectra whose orbits make it
    up, and each is laid on one Jordan frame of a: an eigenvalue orbit [b]
    lists lambda(b), a finite spectral set its members, and a weak orbit one
    spectrum per ordered assignment of b's factor spectra, each factor's
    laid on its own frame members.  Minimization aligns each spectrum with
    the eigenvalues of a, maximization anti-aligns it, and the best spectrum
    wins.  The local search tests its starts against the same members.
    """
    return _solve_on(problem, spectral_decompose(problem.a))


def _solve_on(problem: OrbitProblem, dec) -> Solution:
    """``solve_orbit_global`` on ``dec``, a decomposition of problem.a."""
    value, x_star, lam_a, ranks = _closed_form(problem, dec)
    cert = _certify(problem.a, x_star, problem.sense, DEFAULT_TOL, lam_a, ranks)
    return Solution(x_star=x_star, value=value, certificate=cert)


def _closed_form(problem: OrbitProblem, dec):
    """``_solve_on`` before the certificate: (value, x*, lam_a, ranks), the
    last two as ``_certify`` reads them."""
    fn = problem.fn
    members, ranks = problem.feasible._members(problem.algebra)
    rows, lam_a = (members, dec.eigenvalues) if ranks is None else _placed(dec, members, problem.sense)
    _check_orbit_domain(fn, members, lam_a, ranks)
    best = None
    for s in rows:
        paired, x = _align(dec, s, problem.sense)
        value = fn(s - paired)
        if best is None or (value < best[0] if problem.sense == "min" else value > best[0]):
            best = (value, x)
    return (*best, lam_a, ranks)


# ---------------------------------------------------------------------------
# Rotation curves


def _curve(beta_j: float, beta_k: float, theta: float) -> np.ndarray:
    """Coefficients of (e_j, w, e_k) in beta_j e_j(theta) + beta_k e_k(theta),
    with e_j(theta) = cos^2 e_j + cos sin w + sin^2 e_k and
    e_k(theta) = sin^2 e_j - cos sin w + cos^2 e_k."""
    c, s = math.cos(theta), math.sin(theta)
    cc, cs, ss = c * c, c * s, s * s
    return np.array([beta_j * cc + beta_k * ss, (beta_j - beta_k) * cs, beta_j * ss + beta_k * cc])


def rotation_generator(frame, j: int, k: int, toward: Element | None = None):
    """A unit generator w of the rank-2 rotation between frame members j, k.

    Returns an element of the intersection of the half eigenspaces of e_j
    and e_k with |w|^2 = 2 (so w o w = e_j + e_k), or None when that
    intersection is trivial (diagonal algebras, members in different
    product factors).  ``toward`` biases the choice when the intersection
    has dimension > 1 (spin factors): w is taken in the plane spanned by
    the current frame axis and ``toward``.
    """
    frame = tuple(frame)
    if j == k:
        raise ValueError("need two distinct frame members")
    alg = frame[0].algebra
    w = alg._rotation_generator(
        [c.coords for c in frame], j, k, None if toward is None else toward.coords
    )
    return Element(alg, w) if w.any() else None


def rotation_curve(frame, j: int, k: int, beta_j: float, beta_k: float, w: Element, theta: float) -> Element:
    """The rank-2 rotation curve beta_j e_j(theta) + beta_k e_k(theta).

    e_j(theta) = cos^2 e_j + cos sin w + sin^2 e_k and e_k(theta) is its
    orthogonal complement in the block, so the curve stays on the orbit of
    beta_j e_j + beta_k e_k for every theta and starts there at theta = 0.
    ``w`` must satisfy the half-space conditions e_j o w = w/2 = e_k o w
    with |w|^2 = 2; anything else is rejected.
    """
    frame = tuple(frame)
    if j == k:
        raise ValueError("need two distinct frame members")
    ej, ek = frame[j], frame[k]
    # w (|w|^2 = 2) and the idempotent frame members have a fixed scale, so
    # these thresholds need no operand scale
    scale = 1.0 + norm(w)
    thr = 1e-8 * scale
    if abs(inner(w, w) - 2.0) > thr * scale:
        raise AlgebraError("invalid rotation generator: |w|^2 != 2")
    for e in (ej, ek):
        resid = jordan_product(e, w) - 0.5 * w
        if norm(resid) > thr:
            raise AlgebraError("invalid rotation generator: not in both half spaces")
    block = np.array([ej.coords, w.coords, ek.coords])
    return Element(ej.algebra, _curve(beta_j, beta_k, theta) @ block)


# ---------------------------------------------------------------------------
# Local search over pairwise rotation curves


# Knobs of the rotation-curve search.  A sweep scores every pair once at
# its aligning angle (_RotationSearch.pair), the exact extremiser
# of <x(theta), a> on the pair's curve, and takes that step unless it
# raises the value by more than _ACCEPT_TOL.  By the commutation principle
# an optimizer extremises <x, a> over the orbit whatever F is; for
# squared_norm the aligning angle is the exact line minimiser, and on
# RealDiagonal the aligning step is the transposition that sorts the pair
# against a.  The sweeps stop when one gains at most _EPS_SWEEP, or after
# _MAX_SWEEPS.
#
# _EPS_SWEEP and _ACCEPT_TOL are relative to the current value |F|, with
# no absolute floor, so the search takes the same steps when a and b are
# scaled by a common factor.
#
# After the sweeps a polish takes the aligning step of every pair until
# each first-order commutation term is within its share of
# _POLISH_TOL |a| |x|.  So the result is certified at the library default,
# DEFAULT_TOL.
_MAX_SWEEPS = 500
_EPS_SWEEP = 1e-11
_ACCEPT_TOL = 1e-14
_POLISH_TOL = 1e-3 * DEFAULT_TOL


class _RotationSearch:
    """Rotation-curve search state of one factor.

    Holds x = sum_i beta_i e_i on a Jordan frame {e_i} of the factor with
    the coefficients beta fixed, so x stays on its orbit, the shift a and
    the sign of the sense (+1 for min, -1 for max).  The frame and a are
    held in the basis the kind's ``_search_basis`` chooses (the members'
    coordinates and a's, or for SymMatrix x's eigenvector columns Q and
    Q^T A Q, from one LAPACK ``eigh`` of x), and every kind is served by the
    same code through the kind's ``_search_*`` hooks: the generator of pair
    (j, k) points toward a (on RealDiagonal, which has none, w = 0 and the
    step at pi/2 swaps e_j and e_k), and the rotation is ``_curve`` on
    (e_j, w, e_k) both when a pair is scored and when it is applied, so a
    step is scored on the point it realises.  ``pairs`` holds the frame
    pairs with distinct coefficients (between equal ones every rotation
    leaves x where it is); beta never changes, so neither do they.
    """

    def __init__(self, alg, x, a, sense_mult):
        self.alg = alg
        self.sense_mult = sense_mult
        self.beta, self.frame, self.a = alg._search_basis(x, a)
        b = self.beta
        scale = float(np.max(np.abs(b)))
        self.pairs = [
            (j, k) for j in range(len(b) - 1) for k in range(j + 1, len(b)) if abs(b[j] - b[k]) > 1e-14 * scale
        ]
        # a pair's share of |a| |x|: |x|^2 = sum beta^2 on a Jordan frame
        norm_ax = math.sqrt(alg._inner(a, a)) * float(np.linalg.norm(b))
        self.pair_scale = norm_ax / max(len(self.pairs), 1)

    def lam(self):
        """Eigenvalues of x - a."""
        return self.alg._search_lam(self.beta, self.frame, self.a)

    def pair(self, j, k):
        """(off, angle, data) of pair (j, k): the size of the pair's
        first-order commutation term, its aligning angle, the one that puts
        the pair in line with a for the sense, and its curve data, from
        a_gap = <a, e_j> - <a, e_k> and a_w = <a, w>.

        The pair's share of the commutator of L_a and L_x is proportional
        to (beta_j - beta_k) <a, w> (w points toward a, so <a, w> carries
        a's whole component in the pair's Peirce space).  The angle
        extremises <x(theta), a> = const + (beta_j - beta_k)/2
        ((<a, e_j> - <a, e_k>) cos 2 theta + <a, w> sin 2 theta) for the
        sense; it is near +-pi/2 for a commuting but anti-ordered start, a
        saddle.
        """
        a_gap, a_w, data = self.alg._search_pair(self.beta, self.frame, self.a, j, k)
        gap = self.sense_mult * (self.beta[j] - self.beta[k])
        off = gap * a_w
        return abs(off), 0.5 * math.atan2(off, gap * a_gap), data

    def lam_at(self, j, k, data, theta):
        """Eigenvalues of x(theta) - a on the curve of pair (j, k)."""
        return self.alg._search_curve(data, _curve(self.beta[j], self.beta[k], theta))

    def apply(self, j, k, data, theta):
        # the coefficients of e_j(theta) and e_k(theta) on (e_j, w, e_k)
        rows = (_curve(1.0, 0.0, theta), _curve(0.0, 1.0, theta))
        self.alg._search_turn(self.frame, self.a, j, k, data, rows)

    def x_element(self) -> Element:
        return Element(self.alg, self.alg._search_coords(self.beta, self.frame))


def local_search_orbit(problem: OrbitProblem, x0: Element) -> Solution:
    """Pairwise-rotation descent (ascent for max) over the orbit of x0.

    x0 must lie in the feasible set (``InfeasibleError`` otherwise): its
    sorted spectrum must be a member of an eigenvalue orbit or spectral set,
    its factor spectra, in factor order, one of a weak orbit's assignments
    (identical factors may swap spectra).  Steps keep each factor's
    spectrum, so on a product the run stays in x0's weak-orbit component,
    whose optimum may lie above the set's.

    The search runs on the Jordan frames decomposed from x0, which every
    step rotates in place.  A sweep scores every frame pair once at its
    aligning angle (``_RotationSearch.pair``) and takes that step when the value
    rises by at most ``_ACCEPT_TOL`` (relative); on RealDiagonal the step
    is a transposition.  The sweeps stop when the steps of a full sweep
    improve the value by at most ``_EPS_SWEEP`` (relative), or after
    ``_MAX_SWEEPS`` sweeps, in which case the best-so-far point is
    returned flagged as non-converged.  Then a polish takes the aligning
    step of each pair, under the same rule, until every pair's first-order
    commutation term with a is within ``_POLISH_TOL``.  So x commutes with
    a to rounding and the certificate is taken at ``DEFAULT_TOL``.

    The search computes on its kinds' own routes: on SymMatrix, x0's frame
    comes from one LAPACK ``eigh`` and every eigenvalue it scores, the
    returned value included, from LAPACK ``eigvalsh``.  The independent
    eigensolver (Jacobi on SymMatrix) checks it.  Once per problem it
    solves the set's members (lambda(b) for an orbit), which x0 is checked
    against and the domain probe reads, and a's factor spectra, for the
    probe and the certificate; per start it solves only lambda(x*).  So a
    SymMatrix run makes 3 Jacobi solves, and N starts make 2 + N.
    """
    return _local_searches(problem, [x0])[0]


def _local_searches(problem: OrbitProblem, starts) -> list:
    """``local_search_orbit(problem, x0)`` for each x0 in ``starts``, with
    the eigensolves that depend only on the problem made once: the set's
    members and a's factor spectra.  The domain is probed on every member,
    as the closed form probes it.  Every start is checked before any search
    runs, so a bad start raises as it does alone."""
    alg = problem.algebra
    rows, ranks = problem.feasible._members(alg)
    sense_mult = 1.0 if problem.sense == "min" else -1.0
    runs = []
    for x0 in starts:
        if x0.algebra != alg:
            raise SolverError("start element belongs to a different algebra")
        states = [
            _RotationSearch(f, xf.coords, af.coords, sense_mult)
            for f, xf, af in zip(alg.factors, split(x0), split(problem.a))
        ]
        # the frames just decomposed from x0 carry its eigenvalues, sorted on
        # each factor, checked against the members from the independent
        # route: factor by factor for rows read per factor, else merged
        lam_x0 = np.concatenate([st.beta for st in states])
        if ranks is None:
            lam_x0 = sort_desc(lam_x0)
        if not np.any(np.max(np.abs(rows - lam_x0), axis=1) <= 1e-6 * np.max(np.abs(rows), axis=1)):
            raise InfeasibleError("x0 does not lie in the feasible set")
        runs.append(states)
    # a's factor spectra, in factor order, serve the domain probe and the
    # per-factor certificates; sorted, they are eigenvalues(a) bit for bit,
    # for the merged ones
    a_spectra = np.concatenate([eigenvalues(af) for af in split(problem.a)])
    _check_orbit_domain(problem.fn, rows, a_spectra, ranks)
    lam_a = sort_desc(a_spectra) if ranks is None else a_spectra
    return [_search(problem, states, lam_a, ranks) for states in runs]


def _search(problem: OrbitProblem, states, lam_a, ranks) -> Solution:
    """The sweeps and the polish of ``local_search_orbit`` on the search
    states of one start, certified with lambda(a) and the set's ``ranks``
    from the caller."""
    fn = problem.fn
    sense_mult = states[0].sense_mult

    def one_pass(cur, polish):
        """Score every pair once at its aligning angle, on the current
        frames, and take each step that raises the value by at most
        _ACCEPT_TOL.  The polish passes over pairs whose first-order term
        is within their share of _POLISH_TOL.  Returns the value and
        whether a step was taken."""
        kept = False
        for fi, st in enumerate(states):
            other = [s.lam() for i, s in enumerate(states) if i != fi]
            for j, k in st.pairs:
                off, angle, data = st.pair(j, k)
                if polish and off <= _POLISH_TOL * st.pair_scale:
                    continue
                gval = sense_mult * fn(np.concatenate(other + [st.lam_at(j, k, data, angle)]))
                if gval <= cur + _ACCEPT_TOL * abs(cur):
                    st.apply(j, k, data, angle)
                    cur = gval
                    kept = True
        return cur, kept

    # f is symmetric, so the eigenvalues it scores need not be sorted
    cur = sense_mult * fn(np.concatenate([st.lam() for st in states]))
    trace = [(0, sense_mult * cur)]
    converged = False
    sweeps = 0
    for _sweep in range(_MAX_SWEEPS):
        sweeps += 1
        start = cur
        cur, _kept = one_pass(cur, False)
        trace.append((sweeps, sense_mult * cur))
        if start - cur <= _EPS_SWEEP * abs(cur):
            converged = True
            break
    for _round in range(_MAX_SWEEPS):
        cur, kept = one_pass(cur, True)
        if not kept:
            break
    x_final = join(problem.algebra, [st.x_element() for st in states])
    # sorted as eigenvalues() sorts a product's, so on kinds whose search
    # route is their eigenvalue map the value has the bits of F(x* - a)
    value = fn(sort_desc(np.concatenate([st.lam() for st in states])))
    cert = _certify(problem.a, x_final, problem.sense, DEFAULT_TOL, lam_a, ranks)
    return Solution(
        x_star=x_final,
        value=value,
        certificate=cert,
        iterations=sweeps,
        trace=tuple(trace),
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Weak orbits of product algebras and the counterexample harness


def _factor_spectra(b: Element):
    return tuple(tuple(float(v) for v in eigenvalues(p)) for p in split(b))


def _ordered_assignments(alg, spectra):
    """Distinct assignments of the given per-factor spectra to factor slots,
    permuting only slots with identical descriptors, each as one row of the
    slots' spectra in factor order."""
    per_group = []
    for idxs in alg._groups:
        # dict keys keep first-seen order and dedup in linear time
        seen = list(dict.fromkeys(itertools.permutations([spectra[i] for i in idxs])))
        per_group.append((idxs, seen))
    out = []
    for combo in itertools.product(*(seen for _idxs, seen in per_group)):
        assignment = [None] * len(alg.factors)
        for (idxs, _seen), perm in zip(per_group, combo):
            for pos, spec in zip(idxs, perm):
                assignment[pos] = spec
        out.append(np.concatenate(assignment))
    return out


def weak_orbit_reps(alg, b: Element):
    """One representative per ordered assignment of b's factor spectra.

    For non-product algebras the weak orbit fills the eigenvalue orbit and
    the list is just [b].  For products, every assignment of the multiset
    of per-factor spectra to isomorphic factors is realized (duplicates
    removed), each synthesized on standard frames.
    """
    if len(alg.factors) == 1:
        return [b]
    return [_synthesized(alg, row) for row in _ordered_assignments(alg, _factor_spectra(b))]


def _synthesized(alg, row):
    """The point with the eigenvalues of ``row`` on the factors' standard
    frames, the entries dealt to the factors in order."""
    parts = np.split(row, np.cumsum([f.rank for f in alg.factors])[:-1])
    return join(alg, [Element(f, f._canonical(s)) for f, s in zip(alg.factors, parts)])


_MAX_PARTITIONS = 20000


def orbit_components(alg, b: Element):
    """Weak-orbit components of the eigenvalue orbit [b] of a product.

    Each component is an assignment of the full eigenvalue multiset of b
    to the factors (canonicalized up to swaps of identical factors).
    For non-products there is a single component.  Raises ValueError
    beyond ``_MAX_PARTITIONS`` eigenvalue partitions.
    """
    vals = [float(v) for v in eigenvalues(b)]
    sizes = [f.rank for f in alg.factors]
    count = 1
    rem = len(vals)
    for s in sizes:
        count *= math.comb(rem, s)
        rem -= s
    if count > _MAX_PARTITIONS:
        raise ValueError(f"too many eigenvalue partitions ({count} > {_MAX_PARTITIONS})")

    def _partitions(indices, sizes):
        # enumerate everything; value-level dedup below removes repeats
        if not sizes:
            yield ()
            return
        for combo in itertools.combinations(indices, sizes[0]):
            chosen = set(combo)
            rest = [i for i in indices if i not in chosen]
            for tail in _partitions(rest, sizes[1:]):
                yield (combo,) + tail

    seen = {}
    for part in _partitions(list(range(len(vals))), sizes):
        assignment = tuple(
            tuple(sorted((vals[i] for i in block), reverse=True)) for block in part
        )
        key = _canonical_assignment(alg, assignment)
        if key not in seen:
            seen[key] = assignment
    return list(seen.values())


def _canonical_assignment(alg, assignment):
    """Key identifying an assignment up to swaps of identical factors."""
    return tuple(tuple(sorted(assignment[i] for i in idxs)) for idxs in alg._groups)


@dataclass(frozen=True)
class ComponentReport:
    spectra: tuple
    value: float
    optimizer: Element
    certificate: Certificate
    any_strong_commute: bool
    contains_b: bool


@dataclass(frozen=True)
class CounterexampleReport:
    components: tuple
    spectral_set_solution: Solution
    b_component_value: float
    gap: float
    is_counterexample: bool
    degenerate: bool = False


def counterexample_no_strong(alg, a: Element, b: Element, fn: SymmetricFunction) -> CounterexampleReport:
    """Minimize F(x - a) over every weak-orbit component of [b].

    Exposes the product-algebra gap: a weak-orbit component optimizer can
    operator commute with a while failing strong commutation, even though
    the orbit-wide minimum (over the full spectral set [b]) is attained at
    an aligned point.  ``is_counterexample`` is True when b's component
    optimum exceeds the [b]-wide one by more than 1e-9 of the larger and
    no optimizer of that component strongly commutes with a.  One factor
    gives the single component [b], ``gap`` 0.0 and ``degenerate`` True.
    """
    # one decomposition of a serves the [b]-wide solve and every placement
    dec = spectral_decompose(a)
    full = _solve_on(OrbitProblem(alg, fn, a, EigenvalueOrbit(b), "min"), dec)
    b_key = _canonical_assignment(alg, _factor_spectra(b))
    comps = []
    for assignment in orbit_components(alg, b):
        best = None
        any_strong = False
        for s in _placed(dec, _ordered_assignments(alg, assignment), "min")[0]:
            paired, x = _align(dec, s, "min")
            value = fn(s - paired)
            cert = _certify(a, x, "min", DEFAULT_TOL, dec.eigenvalues)
            any_strong = any_strong or cert.checks["strong_commute_with_a"]
            if best is None or value < best[0]:
                best = (value, x, cert)
        value, x, cert = best
        comps.append(
            ComponentReport(
                spectra=assignment,
                value=value,
                optimizer=x,
                certificate=cert,
                any_strong_commute=any_strong,
                contains_b=_canonical_assignment(alg, assignment) == b_key,
            )
        )
    b_comp = next(c for c in comps if c.contains_b)
    gap = b_comp.value - full.value
    scale = max(abs(b_comp.value), abs(full.value))
    return CounterexampleReport(
        components=tuple(comps),
        spectral_set_solution=full,
        b_component_value=b_comp.value,
        gap=gap,
        is_counterexample=bool(not b_comp.any_strong_commute and gap > 1e-9 * scale),
        degenerate=len(alg.factors) == 1,
    )


# ---------------------------------------------------------------------------
# Problem files


def problem_from_dict(d: dict) -> OrbitProblem:
    """Parse the problem-file schema.

    {"algebra": ..., "fn": {"fn": "schatten", "p": 2}, "a": {...},
     "feasible": {"orbit_of": ...} | {"weak_orbit_of": ...}
                 | {"spectral_set": [[...], ...]},
     "sense": "min"}
    """
    try:
        alg = algebra_from_dict(d["algebra"])
        fn = from_config(d["fn"], arity=alg.rank)
        a = element_from_dict(d["a"], alg)
        feas_doc = d["feasible"]
        sense = d.get("sense", "min")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed problem document: {exc}") from exc
    if "orbit_of" in feas_doc:
        feasible = EigenvalueOrbit(element_from_dict(feas_doc["orbit_of"], alg))
    elif "weak_orbit_of" in feas_doc:
        feasible = WeakOrbit(element_from_dict(feas_doc["weak_orbit_of"], alg))
    elif "spectral_set" in feas_doc:
        feasible = FiniteSpectralSet(tuple(tuple(s) for s in feas_doc["spectral_set"]))
    else:
        raise ValueError("feasible set needs orbit_of, weak_orbit_of, or spectral_set")
    return OrbitProblem(alg, fn, a, feasible, sense)


def solve_problem(problem: OrbitProblem) -> Solution:
    """The closed-form optimum of a problem, as :func:`solve_orbit_global`."""
    return solve_orbit_global(problem)
