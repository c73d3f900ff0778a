"""Euclidean Jordan algebra kernels.

Three concrete algebra kinds and their finite direct products:

* ``RealDiagonal(n)`` -- R^n with the componentwise product, rank n.
* ``SymMatrix(n)``    -- n x n real symmetric matrices with
  X o Y = (XY + YX)/2, rank n.
* ``SpinFactor(d)``   -- R x R^{d-1} with the spin product
  (x0, xb) o (y0, yb) = (x0*y0 + xb.yb, x0*yb + y0*xb), rank 2.

Elements are flat coordinate vectors.  For ``SymMatrix`` the coordinates
are the diagonal entries followed by the strict upper triangle scaled by
sqrt(2), so the trace inner product tr(x o y) is the plain dot product of
coordinates.  For ``SpinFactor`` the trace inner product is twice the dot
product (both eigenvalues x0 +/- |xb| contribute).  Products concatenate
factor coordinates.  The Jordan product kernel takes one vector and a
``(..., dim)`` stack, so the L-operator L_x is the product of x with the
identity basis in one call.

The module provides the spectral machinery (eigenvalues, Jordan frames,
Peirce projections), the two commutation tests (operator commutation via
L-operator matrices, strong commutation via the inner-product identity
<a,b> = <lambda(a),lambda(b)>), and automorphism sampling for
property-style validation.  Each descriptor class carries its kind's
kernels, down to the rotation generator and the eigenvalue routine that
the orbit local search (``orbit.local_search_orbit``) builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

#: Default tolerance of the library's verdicts; the commutation tests and
#: ``orbit.certify`` scale it by the product of the operand norms.
DEFAULT_TOL = 1e-9

_SQRT2 = math.sqrt(2.0)
_PLUS_MINUS = np.array([1.0, -1.0])
_PLUS_MINUS.flags.writeable = False


class AlgebraError(ValueError):
    """Invalid algebra construction or mismatched operands."""


class ConvergenceError(RuntimeError):
    """Eigensolver exceeded its iteration cap (numerical pathology)."""


# ---------------------------------------------------------------------------
# Algebra descriptors
#
# Each descriptor is also its kind's kernel: its underscored methods, most
# of them on flat coordinate arrays, are the only place a kind-specific
# rule is written.  ``_product(u, v)`` takes one vector u and, as v, one
# vector or a ``(..., dim)`` stack of vectors.  ``ProductAlgebra`` states
# each rule once over its factors; a simple kind is its own single factor,
# so code written against ``factors`` needs no product special case.


class _Kind:
    """A single algebra kind: its own only factor."""

    _is_simple = True
    _groups = ((0,),)

    @property
    def factors(self):
        return (self,)

    @property
    def _slices(self):
        return (slice(0, self.dim),)

    def _search_eigvals(self, u):
        """Eigenvalues (non-increasing) scored by the local search, along
        the last axis of a ``(..., dim)`` stack of coordinate vectors, so a
        line-search scan is scored in one call; each row gets the bits of
        its own single-vector call."""
        return self._eigvals(u)


@dataclass(frozen=True)
class RealDiagonal(_Kind):
    """R^n with the componentwise product."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise AlgebraError("RealDiagonal needs n >= 1")

    @property
    def rank(self) -> int:
        return self.n

    @property
    def dim(self) -> int:
        return self.n

    @property
    def _is_simple(self):
        return self.n == 1

    def _product(self, u, v):
        return u * v

    def _inner(self, u, v) -> float:
        return float(u @ v)

    def _trace(self, u) -> float:
        return float(np.sum(u))

    def _eigvals(self, u):
        return -np.sort(-u)

    def _decompose(self, u):
        order = np.argsort(-u, kind="stable")
        return u[order], np.eye(self.n)[order]

    def _unit(self):
        return np.ones(self.n)

    def _apply_auto(self, perm, u):
        return u[perm]

    def _random_auto(self, rng):
        return rng.permutation(self.n)

    def _to_dict(self) -> dict:
        return {"kind": "diag", "n": self.n}

    def _canonical(self, s):
        return s

    def _rotation_generator(self, frame, j, k, toward):
        return None


@dataclass(frozen=True)
class SymMatrix(_Kind):
    """n x n real symmetric matrices under the symmetrized product."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise AlgebraError("SymMatrix needs n >= 1")

    @property
    def rank(self) -> int:
        return self.n

    @property
    def dim(self) -> int:
        return self.n * (self.n + 1) // 2

    def _product(self, u, v):
        M = _mat_from_sym_coords(self.n, u)
        N = _mat_from_sym_coords(self.n, v)
        return _sym_coords_from_mat(self.n, 0.5 * (M @ N + N @ M))

    def _inner(self, u, v) -> float:
        return float(u @ v)

    def _trace(self, u) -> float:
        return float(np.sum(u[: self.n]))

    def _eigh(self, mat, want_vectors=True):
        """Eigenvalues (non-increasing) and eigenvector columns of a dense
        symmetric matrix: the kind's one eigensolver call."""
        return _jacobi_symmetric(mat, want_vectors=want_vectors)

    def _eigvals(self, u):
        return self._eigh(_mat_from_sym_coords(self.n, u), want_vectors=False)[0]

    def _search_eigvals(self, u):
        """LAPACK eigenvalues for the local-search objective, which makes
        hundreds of eigenvalue calls per run, of a ``(..., dim)`` stack in
        one ``eigvalsh``; Jacobi (``_eigh``) stays the eigensolver of
        frames and certificates."""
        return np.linalg.eigvalsh(_mat_from_sym_coords(self.n, u))[..., ::-1]

    def _decompose(self, u):
        vals, Q = self._eigh(_mat_from_sym_coords(self.n, u))
        # row i is the outer product of eigenvector column i with itself
        return vals, _sym_coords_from_mat(self.n, Q.T[:, :, None] * Q.T[:, None, :])

    def _unit(self):
        c = np.zeros(self.dim)
        c[: self.n] = 1.0
        return c

    def _apply_auto(self, Q, u):
        M = _mat_from_sym_coords(self.n, u)
        return _sym_coords_from_mat(self.n, Q @ M @ Q.T)

    def _random_auto(self, rng):
        return _haar_orthogonal(self.n, rng)

    def _to_dict(self) -> dict:
        return {"kind": "sym", "n": self.n}

    def _canonical(self, s):
        return _sym_coords_from_mat(self.n, np.diag(s))

    def _rotation_generator(self, frame, j, k, toward):
        qj = self._rank_one_axis(frame[j])
        qk = self._rank_one_axis(frame[k])
        return _sym_coords_from_mat(self.n, np.outer(qj, qk) + np.outer(qk, qj))

    def _rank_one_axis(self, c):
        M = _mat_from_sym_coords(self.n, c)
        d = np.diagonal(M)
        i = int(np.argmax(d))
        if d[i] <= 0.0:
            raise AlgebraError("frame member is not a rank-one projection")
        return M[:, i] / math.sqrt(d[i])


@dataclass(frozen=True)
class SpinFactor(_Kind):
    """Spin factor of ambient dimension d >= 3; always rank 2 and simple."""

    d: int

    def __post_init__(self):
        if self.d < 3:
            raise AlgebraError("SpinFactor needs d >= 3")

    @property
    def rank(self) -> int:
        return 2

    @property
    def dim(self) -> int:
        return self.d

    def _product(self, u, v):
        out = u[0] * v + v[..., :1] * u
        out[..., 0] = u[0] * v[..., 0] + v[..., 1:] @ u[1:]
        return out

    def _inner(self, u, v) -> float:
        return 2.0 * float(u @ v)

    def _trace(self, u) -> float:
        return 2.0 * float(u[0])

    def _eigvals(self, u):
        r = float(np.linalg.norm(u[1:]))
        x0 = float(u[0])
        return np.array([x0 + r, x0 - r])

    def _search_eigvals(self, u):
        v = u[..., 1:]
        r = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
        return u[..., :1] + r * _PLUS_MINUS

    def _direction(self, u):
        """Unit axis of the vector part; e_1 when it is exactly zero
        (degenerate spectrum, where any unit direction realizes a frame).
        Any nonzero vector part, however small, has its own axis."""
        r = float(np.linalg.norm(u[1:]))
        if r == 0.0:
            v = np.zeros(self.d - 1)
            v[0] = 1.0
            return v
        return u[1:] / r

    def _decompose(self, u):
        v = self._direction(u)
        cplus = np.concatenate([[0.5], 0.5 * v])
        cminus = np.concatenate([[0.5], -0.5 * v])
        return self._eigvals(u), [cplus, cminus]

    def _unit(self):
        c = np.zeros(self.d)
        c[0] = 1.0
        return c

    def _apply_auto(self, Q, u):
        out = np.empty(self.d)
        out[0] = u[0]
        out[1:] = Q @ u[1:]
        return out

    def _random_auto(self, rng):
        return _haar_orthogonal(self.d - 1, rng)

    def _to_dict(self) -> dict:
        return {"kind": "spin", "d": self.d}

    def _canonical(self, s):
        coords = np.zeros(self.d)
        coords[0] = 0.5 * (s[0] + s[1])
        coords[1] = 0.5 * (s[0] - s[1])
        return coords

    def _rotation_generator(self, frame, j, k, toward):
        v = 2.0 * frame[j][1:]
        nv = np.linalg.norm(v)
        if nv <= 1e-12:
            raise AlgebraError("degenerate spin frame member")
        z = self._plane(v / nv, None if toward is None else toward[1:])
        return np.concatenate([[0.0], z])

    @staticmethod
    def _plane(u, toward):
        """Unit vector orthogonal to the unit axis u: in the plane of u and
        ``toward`` when they span one, else from the coordinate axis least
        aligned with u.  A rotation in that plane moves the frame axis
        toward ``toward``.

        When ``toward`` is nearly parallel to u, one projection leaves a
        component along u of order eps |toward| / |proj|, so the normalised
        result is projected once more ("twice is enough", Kahan's rule for
        Gram-Schmidt; Parlett, *The Symmetric Eigenvalue Problem*)."""
        z = None if toward is None else toward - (toward @ u) * u
        if z is None or np.linalg.norm(z) <= 1e-12 * np.linalg.norm(toward):
            z = np.zeros(len(u))
            z[int(np.argmin(np.abs(u)))] = 1.0
            z = z - (z @ u) * u
        z = z / np.linalg.norm(z)
        z = z - (z @ u) * u
        return z / np.linalg.norm(z)


@dataclass(frozen=True)
class ProductAlgebra:
    """Finite direct product of simple-kind factors."""

    factors: tuple

    _is_simple = False

    def __post_init__(self):
        if len(self.factors) < 2:
            raise AlgebraError("ProductAlgebra needs >= 2 factors (use product_algebra)")
        for f in self.factors:
            if len(f.factors) != 1:
                raise AlgebraError("nested products must be flattened (use product_algebra)")

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @cached_property
    def _slices(self):
        out = []
        off = 0
        for f in self.factors:
            out.append(slice(off, off + f.dim))
            off += f.dim
        return tuple(out)

    @cached_property
    def _groups(self):
        """Indices of identical factors, one group per distinct descriptor
        in order of first appearance."""
        groups = {}
        for i, f in enumerate(self.factors):
            groups.setdefault(f, []).append(i)
        return tuple(tuple(idxs) for idxs in groups.values())

    def _product(self, u, v):
        return np.concatenate(
            [f._product(u[s], v[..., s]) for f, s in zip(self.factors, self._slices)], axis=-1
        )

    def _inner(self, u, v) -> float:
        return sum(f._inner(u[s], v[s]) for f, s in zip(self.factors, self._slices))

    def _trace(self, u) -> float:
        return sum(f._trace(u[s]) for f, s in zip(self.factors, self._slices))

    def _eigvals(self, u):
        vals = np.concatenate([f._eigvals(u[s]) for f, s in zip(self.factors, self._slices)])
        return -np.sort(-vals)

    def _decompose(self, u):
        """Factor decompositions merged by a stable sort, so ties keep
        factor order."""
        vals = []
        members = []
        for f, s in zip(self.factors, self._slices):
            fvals, fframe = f._decompose(u[s])
            vals.append(fvals)
            for c in fframe:
                coords = np.zeros(self.dim)
                coords[s] = c
                members.append(coords)
        vals = np.concatenate(vals)
        order = np.argsort(-vals, kind="stable")
        return vals[order], [members[i] for i in order]

    def _unit(self):
        return np.concatenate([f._unit() for f in self.factors])

    def _apply_auto(self, data, u):
        autos, src = data
        return np.concatenate(
            [f._apply_auto(t.data, u[self._slices[i]]) for f, t, i in zip(self.factors, autos, src)]
        )

    def _random_auto(self, rng):
        src = np.arange(len(self.factors))
        for idxs in self._groups:
            perm = rng.permutation(len(idxs))
            idxs = np.array(idxs)
            src[idxs] = idxs[perm]
        autos = tuple(Automorphism(f, f._random_auto(rng)) for f in self.factors)
        return autos, tuple(int(i) for i in src)

    def _to_dict(self) -> dict:
        return {"kind": "product", "factors": [f._to_dict() for f in self.factors]}

    def _rotation_generator(self, frame, j, k, toward):
        """Both members must live in one factor; rotate there."""
        owner = [int(np.argmax([float(np.linalg.norm(c[s])) for s in self._slices])) for c in frame]
        fi = owner[j]
        if owner[k] != fi:
            return None
        s = self._slices[fi]
        members = [i for i, o in enumerate(owner) if o == fi]
        w = self.factors[fi]._rotation_generator(
            [frame[i][s] for i in members],
            members.index(j),
            members.index(k),
            None if toward is None else toward[s],
        )
        if w is None:
            return None
        coords = np.zeros(self.dim)
        coords[s] = w
        return coords


def product_algebra(*factors):
    """Build a product descriptor, flattening nested products.

    A product of a single factor is normalized away to the factor itself.
    """
    flat = [g for f in factors for g in f.factors]
    if not flat:
        raise AlgebraError("product of zero factors")
    if len(flat) == 1:
        return flat[0]
    return ProductAlgebra(tuple(flat))


def is_simple(alg) -> bool:
    """True when the algebra is not a nontrivial direct product.

    ``RealDiagonal(n)`` is simple only for n = 1; note however that its
    eigenvalue orbits and automorphism orbits coincide for every n, since
    Aut(R^n) is the full permutation group.
    """
    return alg._is_simple


# ---------------------------------------------------------------------------
# Elements


@dataclass(frozen=True, eq=False)
class Element:
    """A point of the algebra, stored as coordinates in the canonical basis."""

    algebra: object
    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        if c.shape != (self.algebra.dim,):
            raise AlgebraError(
                f"coords length {c.shape} does not match algebra dim {self.algebra.dim}"
            )
        if not np.isfinite(c).all():
            raise AlgebraError("non-finite coordinates")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    def __add__(self, other):
        _check_same(self, other)
        return Element(self.algebra, self.coords + other.coords)

    def __sub__(self, other):
        _check_same(self, other)
        return Element(self.algebra, self.coords - other.coords)

    def __neg__(self):
        return Element(self.algebra, -self.coords)

    def __mul__(self, scalar):
        return Element(self.algebra, self.coords * float(scalar))

    __rmul__ = __mul__


def _check_same(x: Element, y: Element):
    if x.algebra != y.algebra:
        raise AlgebraError(f"algebra mismatch: {x.algebra} vs {y.algebra}")


def zero(alg) -> Element:
    return Element(alg, np.zeros(alg.dim))


def unit(alg) -> Element:
    """The unit element e (identity for the Jordan product)."""
    return Element(alg, alg._unit())


def split(x: Element):
    """Factor components of an element (a single component if not a product)."""
    alg = x.algebra
    return [Element(f, x.coords[s]) for f, s in zip(alg.factors, alg._slices)]


def join(alg, parts) -> Element:
    """Assemble an element from its factor components."""
    if len(parts) != len(alg.factors):
        raise AlgebraError("wrong number of factors in join")
    for part, f in zip(parts, alg.factors):
        if part.algebra != f:
            raise AlgebraError("factor/algebra mismatch in join")
    return Element(alg, np.concatenate([p.coords for p in parts]))


# ---------------------------------------------------------------------------
# Symmetric-matrix coordinate maps


@lru_cache(maxsize=None)
def _triu_indices(n):
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


def sym_to_matrix(x: Element) -> np.ndarray:
    """Dense symmetric matrix of a SymMatrix element."""
    alg = x.algebra
    if not isinstance(alg, SymMatrix):
        raise AlgebraError("sym_to_matrix needs a SymMatrix element")
    return _mat_from_sym_coords(alg.n, x.coords)


def sym_from_matrix(alg: SymMatrix, mat) -> Element:
    """SymMatrix element from a dense symmetric matrix."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (alg.n, alg.n):
        raise AlgebraError(f"matrix shape {mat.shape} does not match n={alg.n}")
    return Element(alg, _sym_coords_from_mat(alg.n, mat))


@lru_cache(maxsize=None)
def _sym_gather(n):
    """Coordinate index and divisor (1 on the diagonal, sqrt(2) off it) of
    each entry of the dense n x n matrix."""
    iu, ju = _triu_indices(n)
    idx = np.empty((n, n), dtype=np.intp)
    idx[np.diag_indices(n)] = np.arange(n)
    idx[iu, ju] = idx[ju, iu] = n + np.arange(len(iu))
    div = np.ones((n, n))
    div[iu, ju] = div[ju, iu] = _SQRT2
    idx.flags.writeable = False
    div.flags.writeable = False
    return idx, div


def _mat_from_sym_coords(n, coords):
    """Dense matrices of the coordinate vectors along the last axis."""
    idx, div = _sym_gather(n)
    # one vector takes plain indexing, a few times faster than the ellipsis
    return (coords[idx] if coords.ndim == 1 else coords[..., idx]) / div


def _sym_coords_from_mat(n, M):
    """Coordinate vectors of the symmetric matrices on the last two axes."""
    iu, ju = _triu_indices(n)
    return np.concatenate([np.diagonal(M, axis1=-2, axis2=-1), _SQRT2 * M[..., iu, ju]], axis=-1)


# ---------------------------------------------------------------------------
# Jordan product, inner product, trace


def jordan_product(x: Element, y: Element) -> Element:
    """The Jordan product x o y (commutative, non-associative)."""
    _check_same(x, y)
    return Element(x.algebra, x.algebra._product(x.coords, y.coords))


def inner(x: Element, y: Element) -> float:
    """Trace inner product <x, y> = tr(x o y)."""
    _check_same(x, y)
    return x.algebra._inner(x.coords, y.coords)


def norm(x: Element) -> float:
    """Norm induced by the trace inner product."""
    return math.sqrt(max(0.0, inner(x, x)))


def trace(x: Element) -> float:
    """tr(x), the sum of the eigenvalues (a linear functional)."""
    return x.algebra._trace(x.coords)


# ---------------------------------------------------------------------------
# Eigenvalues and spectral decomposition


def _jacobi_symmetric(mat, want_vectors=True, off_tol=1e-13, max_sweeps=100):
    """Cyclic Jacobi diagonalization of a dense symmetric matrix.

    Sweeps rows in cyclic order until the Frobenius mass of the
    off-diagonal part drops below ``off_tol * ||mat||_F``.  Raises
    :class:`ConvergenceError` after ``max_sweeps`` sweeps.
    Returns eigenvalues sorted non-increasing and, when requested, the
    matching orthonormal eigenvector columns.
    """
    A = np.array(mat, dtype=float)
    n = A.shape[0]
    Q = np.eye(n) if want_vectors else None
    scale = float(np.linalg.norm(A))
    if scale == 0.0 or n == 1:
        vals = np.diagonal(A).copy()
        order = np.argsort(-vals, kind="stable")
        return vals[order], (Q[:, order] if want_vectors else None)
    thr = off_tol * scale
    skip = thr / (n * n)
    for _sweep in range(max_sweeps):
        off_sq = 0.0
        for p in range(n - 1):
            row = A[p, p + 1 :]
            off_sq += 2.0 * float(row @ row)
        if math.sqrt(off_sq) <= thr:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                A[p, q] = 0.0
                A[q, p] = 0.0
                if want_vectors:
                    qp = Q[:, p].copy()
                    qq = Q[:, q].copy()
                    Q[:, p] = c * qp - s * qq
                    Q[:, q] = s * qp + c * qq
    else:
        raise ConvergenceError(f"Jacobi sweep cap {max_sweeps} exceeded")
    vals = np.diagonal(A).copy()
    order = np.argsort(-vals, kind="stable")
    if want_vectors:
        return vals[order], Q[:, order]
    return vals[order], None


def eigenvalues(x: Element) -> np.ndarray:
    """Eigenvalue map: the rank eigenvalues of x, sorted non-increasing."""
    return x.algebra._eigvals(x.coords)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Sorted eigenvalues plus a Jordan frame realizing them."""

    eigenvalues: np.ndarray
    frame: tuple

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float).copy()
        vals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "frame", tuple(self.frame))

    @property
    def algebra(self):
        return self.frame[0].algebra


def spectral_decompose(x: Element) -> SpectralDecomposition:
    """Write x = sum_i lambda_i c_i over a Jordan frame {c_i}.

    Eigenvalues come out sorted non-increasing with the frame aligned to
    them.  Frames are not unique for repeated eigenvalues; the order of
    tied members is fixed: on diagonal input (``RealDiagonal`` coordinates,
    a ``SymMatrix`` element with a diagonal matrix) ties keep ascending
    index order; a ``SpinFactor`` element with zero vector part uses the
    direction e_1; products decompose each factor and merge with a stable
    sort, so ties keep factor order.
    """
    alg = x.algebra
    vals, frame = alg._decompose(x.coords)
    return SpectralDecomposition(vals, tuple(Element(alg, c) for c in frame))


def synthesize_from_frame(frame, coeffs, validate=True) -> Element:
    """sum_i coeffs[i] * frame[i]; the eigenvalues are the sorted coeffs."""
    frame = tuple(frame)
    alg = frame[0].algebra
    coeffs = np.asarray(coeffs, dtype=float)
    if len(coeffs) != len(frame):
        raise AlgebraError("coeffs length does not match frame size")
    if len(frame) != alg.rank:
        raise AlgebraError("frame size does not match algebra rank")
    if validate:
        validate_frame(frame)
    out = np.zeros(alg.dim)
    for c, member in zip(coeffs, frame):
        out += c * member.coords
    return Element(alg, out)


def validate_frame(frame, tol=1e-8):
    """Check the Jordan-frame invariants; raise AlgebraError on failure."""
    frame = tuple(frame)
    alg = frame[0].algebra
    e = unit(alg)
    total = np.zeros(alg.dim)
    for i, c in enumerate(frame):
        if c.algebra != alg:
            raise AlgebraError("frame members from different algebras")
        sq = alg._product(c.coords, c.coords)
        if alg._inner(sq - c.coords, sq - c.coords) > tol**2:
            raise AlgebraError(f"frame member {i} is not idempotent")
        if abs(trace(c) - 1.0) > tol:
            raise AlgebraError(f"frame member {i} is not primitive (trace != 1)")
        total += c.coords
        for j in range(i):
            pr = alg._product(c.coords, frame[j].coords)
            if alg._inner(pr, pr) > tol**2:
                raise AlgebraError(f"frame members {j},{i} are not orthogonal")
    if np.max(np.abs(total - e.coords)) > tol:
        raise AlgebraError("frame members do not sum to the unit")


# ---------------------------------------------------------------------------
# L-operator, Peirce decomposition, commutation tests


def l_operator(x: Element) -> np.ndarray:
    """Matrix of L_x : y -> x o y in the canonical coordinates (symmetric)."""
    alg = x.algebra
    # row i of the stacked product is x o e_i, column i of L_x
    return alg._product(x.coords, np.eye(alg.dim)).T


def peirce_project(p: Element, x: Element):
    """Peirce projections of x for the idempotent p.

    Returns (x1, x0, xhalf), the components in the eigenspaces of L_p for
    eigenvalues 1, 0, 1/2.  Uses the exact polynomial projections
    2t^2 - t, 1 - 3t + 2t^2, 4t - 4t^2 evaluated on L_p, so no eigensolve
    is involved.  Raises AlgebraError when p is not an idempotent to
    within 1e-8 (relative to 1 + |p|^2).
    """
    _check_same(p, x)
    alg = p.algebra
    psq = alg._product(p.coords, p.coords)
    # an idempotent has a fixed scale (its eigenvalues are 0 and 1), so
    # this threshold needs no operand scale
    if math.sqrt(alg._inner(psq - p.coords, psq - p.coords)) > 1e-8 * (
        1.0 + alg._inner(p.coords, p.coords)
    ):
        raise AlgebraError("p is not an idempotent within tolerance")
    px = alg._product(p.coords, x.coords)
    ppx = alg._product(p.coords, px)
    x1 = 2.0 * ppx - px
    xh = 4.0 * (px - ppx)
    x0 = x.coords - x1 - xh
    return Element(alg, x1), Element(alg, x0), Element(alg, xh)


def operator_commutation_residual(a: Element, b: Element) -> float:
    """Frobenius norm of the commutator [L_a, L_b]."""
    _check_same(a, b)
    La = l_operator(a)
    Lb = l_operator(b)
    return float(np.linalg.norm(La @ Lb - Lb @ La))


def operator_commute(a: Element, b: Element, tol=DEFAULT_TOL) -> bool:
    """L_a L_b = L_b L_a, i.e. a and b share some Jordan frame.

    Compares |[L_a, L_b]| with ``tol * |a| |b|``; verdicts do not depend on
    units."""
    res = operator_commutation_residual(a, b)
    return res <= tol * norm(a) * norm(b)


def strong_commutation_gap(a: Element, b: Element) -> float:
    """|<a,b> - <lambda(a), lambda(b)>| (zero iff strong operator commutation)."""
    _check_same(a, b)
    return abs(inner(a, b) - float(eigenvalues(a) @ eigenvalues(b)))


def strongly_operator_commute(a: Element, b: Element, tol=DEFAULT_TOL) -> bool:
    """a, b share a frame with both eigenvalue lists in sorted order.

    Uses the frame-free characterization <a,b> = <lambda(a), lambda(b)>,
    which is robust to repeated eigenvalues.  Compares the gap with
    ``tol * |a| |b|``; verdicts do not depend on units.
    """
    gap = strong_commutation_gap(a, b)
    return gap <= tol * norm(a) * norm(b)


# ---------------------------------------------------------------------------
# Automorphisms and sampling


@dataclass(frozen=True, eq=False)
class Automorphism:
    """An invertible linear map preserving the Jordan product.

    ``data`` is kind-specific: a permutation of coordinates for
    RealDiagonal, an orthogonal matrix Q acting by x -> QxQ^T for
    SymMatrix, an orthogonal matrix acting on the vector part for
    SpinFactor, and for products a tuple of per-slot factor automorphisms
    together with a source permutation of isomorphic factors.
    """

    algebra: object
    data: object


def apply_automorphism(auto: Automorphism, x: Element) -> Element:
    if auto.algebra != x.algebra:
        raise AlgebraError("automorphism/element algebra mismatch")
    return Element(x.algebra, x.algebra._apply_auto(auto.data, x.coords))


def _haar_orthogonal(n, rng) -> np.ndarray:
    M = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    return Q * np.sign(np.diagonal(R))


def random_element(alg, rng) -> Element:
    """Element with i.i.d. standard normal coordinates."""
    return Element(alg, rng.standard_normal(alg.dim))


def random_automorphism(alg, rng) -> Automorphism:
    """Sample an automorphism: Haar orthogonal factors, and for products a
    uniformly random permutation of factors with identical descriptors."""
    return Automorphism(alg, alg._random_auto(rng))


# ---------------------------------------------------------------------------
# Serialization (JSON-compatible dicts)


def algebra_to_dict(alg) -> dict:
    return alg._to_dict()


def algebra_from_dict(d) -> object:
    try:
        kind = d["kind"]
        if kind == "diag":
            return RealDiagonal(int(d["n"]))
        if kind == "sym":
            return SymMatrix(int(d["n"]))
        if kind == "spin":
            return SpinFactor(int(d["d"]))
        if kind == "product":
            return product_algebra(*(algebra_from_dict(f) for f in d["factors"]))
    except (KeyError, TypeError) as exc:
        raise AlgebraError(f"malformed algebra document: {d!r}") from exc
    raise AlgebraError(f"unknown algebra kind {kind!r}")


def element_to_dict(x: Element) -> dict:
    return {"algebra": algebra_to_dict(x.algebra), "coords": [float(v) for v in x.coords]}


def element_from_dict(d, algebra=None) -> Element:
    """Load an element; symmetric matrices may be given as full square arrays.

    A full matrix is symmetrized with (M + M^T)/2; asymmetry beyond 1e-8
    (relative to the matrix norm) is an error.
    """
    if algebra is None:
        algebra = algebra_from_dict(d["algebra"])
    if "matrix" in d:
        if not isinstance(algebra, SymMatrix):
            raise AlgebraError("'matrix' form is only valid for SymMatrix algebras")
        M = np.asarray(d["matrix"], dtype=float)
        if M.shape != (algebra.n, algebra.n):
            raise AlgebraError(f"matrix shape {M.shape} does not match n={algebra.n}")
        asym = np.linalg.norm(M - M.T)
        if asym > 1e-8 * np.linalg.norm(M):
            raise AlgebraError(f"matrix asymmetry {asym:.3e} beyond tolerance")
        return sym_from_matrix(algebra, 0.5 * (M + M.T))
    if "coords" not in d:
        raise AlgebraError("element document needs 'coords' or 'matrix'")
    return Element(algebra, np.asarray(d["coords"], dtype=float))
