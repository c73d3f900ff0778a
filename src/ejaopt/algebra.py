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
factor coordinates.  The kernels that ``verify`` stacks (the Jordan
product, inner product, trace, eigenvalues and spectral decomposition)
take ``(..., dim)`` stacks of coordinate vectors as well as single vectors,
and every row of a stack gets the bits of its own single-vector call, as
does every row of a stacked automorphism or frame draw from normals; the
L-operator L_x is the product of x with the identity basis in one call.

The module provides the spectral machinery (eigenvalues, Jordan frames,
Peirce projections), the two commutation tests (operator commutation via
L-operator matrices, strong commutation via the inner-product identity
<a,b> = <lambda(a),lambda(b)>), and automorphism sampling for
property-style validation.  Each descriptor class carries its kind's
kernels, down to the rotation generator and the basis in which the orbit
local search (``orbit.local_search_orbit``) holds its frame.
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
# a norm in this range keeps the squares the kernels take far from
# underflow and overflow; ``_prescaled`` scales a vector whose norm is not
_NORM_LO, _NORM_HI = 2.0**-400, 2.0**400


class AlgebraError(ValueError):
    """Invalid algebra construction or mismatched operands."""


class ConvergenceError(RuntimeError):
    """Eigensolver exceeded its iteration cap (numerical pathology)."""


def _dot(u, v):
    """Dot products along the last axis: a float for two vectors, else one
    value per row of the broadcast stacks.  A stacked matmul of vectors
    runs the single dot's kernel, so each row gets the bits of ``u @ v``
    (a gemv or an elementwise sum would not)."""
    if u.ndim == 1 and v.ndim == 1:
        return float(u @ v)
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _norm_probe(x):
    """Euclidean norm of a flat vector (a float) or of each row of a stack,
    by the single dot kernel; squares that underflow or overflow, which
    ``_prescaled`` mends, raise no floating-point warning."""
    if x.ndim == 1:
        return math.sqrt(np.vdot(x, x))  # vdot runs u @ v's kernel and sets no warning
    with np.errstate(over="ignore", under="ignore"):
        return np.sqrt(_dot(x, x))


def _prescaled(x):
    """The norm of the kernels that square (both Jacobi loops and
    ``SpinFactor._radius``) behind a guarded power-of-two prescale, as LAPACK
    ``dsyev`` rescales only a matrix whose norm is out of range.

    ``x`` is one flat vector or a stack of them along the last axis; returns
    ``(norm, x, e)``.  A vector whose norm leaves [2^-400, 2^400] while it
    is finite and not all zero has lost bits to underflow or overflow of its
    squares: it is scaled by 2^-e, e the ``np.frexp`` exponent of its
    largest magnitude, its norm is the scaled one, and the caller scales its
    eigenvalues back by 2^e.  A power of two commutes with every rounding
    off the subnormals, so the result keeps the bits of the in-range one.
    In range, e is None and x is returned as it is, after one comparison
    (one vectorised test on a stack), as it is where the only vectors out
    of range are exactly zero, such as the vector part of a multiple of
    the spin unit.
    """
    norm = _norm_probe(x)
    if x.ndim == 1:
        if _NORM_LO <= norm <= _NORM_HI or not x.any():
            return norm, x, None
    elif norm.max(initial=0.0) <= _NORM_HI:
        if norm.min(initial=1.0) >= _NORM_LO or not x[norm < _NORM_LO].any():
            return norm, x, None
    top = np.max(np.abs(x), axis=-1)
    e = np.where(((norm < _NORM_LO) | (norm > _NORM_HI)) & np.isfinite(top), np.frexp(top)[1], 0)
    x = np.ldexp(x, -e[..., None])
    return _norm_probe(x), x, e


def _reorder(a, order):
    """``a`` permuted along the last axis of ``order``, which indexes the
    entries of ``(..., n)`` or the rows of ``(..., n, dim)``: a[order] for
    one order, row by row for a stack of them."""
    if order.ndim == 1:
        return a[order]
    return np.take_along_axis(a, order.reshape(order.shape + (1,) * (a.ndim - order.ndim)), order.ndim - 1)


# ---------------------------------------------------------------------------
# Algebra descriptors
#
# Each descriptor is also its kind's kernel: its underscored methods, most
# of them on flat coordinate arrays, are the only place a kind-specific
# rule is written.  ``_product``, ``_inner``, ``_trace``, ``_eigvals`` and
# ``_decompose`` act along the last axis, so their operands may be single
# vectors or ``(..., dim)`` stacks (broadcast against each other); a frame
# comes back as a ``(..., rank, dim)`` array.  A kind also states how it
# draws from standard normals, for one row or a ``(..., width)`` stack:
# ``_auto_width`` normals make an automorphism (``_autos_from``) and
# ``_frame_width`` normals a Jordan frame (``_frames_from``).
# ``ProductAlgebra`` states each rule once over its factors; a simple kind
# is its own single factor, so code written against ``factors`` needs no
# product special case.


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

    @property
    def _frame_width(self):
        return self.dim

    def _frames_from(self, D):
        """Jordan frames from a row or a ``(..., width)`` stack of rows of
        ``_frame_width`` standard normals: here the frame of the row read as
        coordinates."""
        return self._decompose(D)[1]

    def _check_eigvals(self, u):
        """Eigenvalues (non-increasing) by a second route, for ``verify``
        to check ``_eigvals`` and ``_decompose`` against: LAPACK on
        SymMatrix, independent of their Jacobi sweep; a kind with a closed
        form has only that one."""
        return self._eigvals(u)

    # The local search (``orbit._RotationSearch``) holds x = sum beta_i e_i
    # on a Jordan frame, and the shift a, in a basis its kind chooses, and
    # reaches them only through the ``_search_*`` hooks.  Here the frame is
    # its members' coordinate rows and a its coordinates; ``SymMatrix``
    # carries eigenvector columns instead.

    def _search_basis(self, u, a):
        """(beta, frame, a) of a search started at x = u: the eigenvalues
        of x, its frame and a, in the search's basis."""
        beta, frame = self._decompose(u)
        return beta, frame, a

    def _search_lam(self, beta, frame, a):
        """Eigenvalues of x - a."""
        return self._eigvals(beta @ frame - a)

    def _search_pair(self, beta, frame, a, j, k):
        """<a, e_j> - <a, e_k>, <a, w> and the curve data of pair (j, k),
        with w the pair's generator pointed toward a."""
        w = self._rotation_generator(frame, j, k, a)
        rest = beta.copy()
        rest[j] = rest[k] = 0.0
        inner = self._inner
        block = np.array([frame[j], w, frame[k]])
        return inner(a, frame[j]) - inner(a, frame[k]), inner(a, w), (rest @ frame - a, block)

    def _search_curve(self, pair, coeffs):
        """Eigenvalues (non-increasing) of x(theta) - a at one angle of the
        pair's curve, from the coefficients of (e_j, w, e_k) in x(theta)
        that ``orbit._curve`` gives."""
        base, block = pair
        return self._eigvals(base + coeffs @ block)

    def _search_turn(self, frame, a, j, k, pair, rows):
        """Step the pair along its curve, in place: ``rows`` holds the
        coefficients of e_j(theta) and e_k(theta) on (e_j, w, e_k)."""
        block = pair[1]
        frame[j] = rows[0] @ block
        frame[k] = rows[1] @ block

    def _search_coords(self, beta, frame):
        """Coordinates of x."""
        return beta @ frame


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

    def _inner(self, u, v):
        return _dot(u, v)

    def _trace(self, u):
        return np.sum(u, axis=-1)

    def _eigvals(self, u):
        return -np.sort(-u)

    def _decompose(self, u):
        order = np.argsort(-u, axis=-1, kind="stable")
        return _reorder(u, order), np.eye(self.n)[order]

    def _unit(self):
        return np.ones(self.n)

    def _apply_auto(self, perm, u):
        return _reorder(u, perm)

    @property
    def _auto_width(self):
        return self.n

    def _autos_from(self, D):
        # the order of n i.i.d. normals is a uniform permutation
        return np.argsort(D, axis=-1, kind="stable")

    def _to_dict(self) -> dict:
        return {"kind": "diag", "n": self.n}

    def _canonical(self, s):
        return s

    def _rotation_generator(self, frame, j, k, toward):
        return None

    def _search_pair(self, beta, frame, a, j, k):
        # No pair has a generator.  With w = 0 the aligning angle is 0 or
        # +-pi/2, and the curve at pi/2 swaps the pair's coefficients: the
        # step is the transposition that sorts x against a, a T-transform
        # of x - a, which no Schur-convex F rises under (Marshall, Olkin &
        # Arnold, *Inequalities: Theory of Majorization*, ch. 2).
        rest = beta.copy()
        rest[j] = rest[k] = 0.0
        block = np.array([frame[j], np.zeros(self.n), frame[k]])
        return _dot(a, frame[j]) - _dot(a, frame[k]), 0.0, (rest @ frame - a, block)


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
        # in place, so a stacked product holds two fewer temporaries
        P = M @ N
        P += N @ M
        P *= 0.5
        return _sym_coords_from_mat(self.n, P)

    def _inner(self, u, v):
        return _dot(u, v)

    def _trace(self, u):
        return np.sum(u[..., : self.n], axis=-1)

    def _eigh(self, mat, want_vectors=True):
        """Eigenvalues (non-increasing) and eigenvector columns of a dense
        symmetric matrix, or of each matrix of a ``(..., n, n)`` stack in
        one stacked Jacobi call: the kind's eigensolver of spectra, frames
        and certificates."""
        return _jacobi_symmetric(mat, want_vectors=want_vectors)

    def _eigvals(self, u):
        return self._eigh(_mat_from_sym_coords(self.n, u), want_vectors=False)[0]

    def _check_eigvals(self, u):
        return _eigvalsh(_mat_from_sym_coords(self.n, u))

    def _decompose(self, u):
        vals, Q = self._eigh(_mat_from_sym_coords(self.n, u))
        return vals, self._members(Q)

    def _members(self, Q):
        """The frame of orthonormal columns Q: member i is the outer product
        of column i with itself."""
        Qt = np.swapaxes(Q, -1, -2)
        return _sym_coords_from_mat(self.n, Qt[..., :, :, None] * Qt[..., :, None, :])

    def _unit(self):
        c = np.zeros(self.dim)
        c[: self.n] = 1.0
        return c

    def _apply_auto(self, Q, u):
        M = _mat_from_sym_coords(self.n, u)
        return _sym_coords_from_mat(self.n, Q @ M @ np.swapaxes(Q, -1, -2))

    @property
    def _auto_width(self):
        return self.n * self.n

    def _autos_from(self, D):
        return _haar_orthogonal(D, self.n)

    # Aut(V) is transitive on Jordan frames (Faraut & Koranyi, *Analysis on
    # Symmetric Cones*, IV.2.5), so the columns of a Haar orthogonal Q give
    # a frame with the law of a Gaussian element's eigenvectors, without an
    # eigensolve.
    _frame_width = _auto_width

    def _frames_from(self, D):
        return self._members(self._autos_from(D))

    def _to_dict(self) -> dict:
        return {"kind": "sym", "n": self.n}

    def _canonical(self, s):
        return _sym_coords_from_mat(self.n, np.diag(s))

    def _rotation_generator(self, frame, j, k, toward):
        qj = self._rank_one_axis(frame[j])
        qk = self._rank_one_axis(frame[k])
        return _sym_coords_from_mat(self.n, np.outer(qj, qk) + np.outer(qk, qj))

    # The local search runs in the basis of x's eigenvector columns Q, with
    # a as B = Q^T A Q: member e_i is q_i q_i^T and the generator of pair
    # (j, k) is q_j q_k^T + q_k q_j^T, so <a, e_j> = B_jj, <a, w> = 2 B_jk,
    # x(theta) - a is diag(beta) - B with the (j, k) block moved, and a step
    # rotates columns j, k of Q and rows and columns j, k of B (the
    # Jacobi-method view; Golub & Van Loan, *Matrix Computations*, 8.5).
    # The search computes on LAPACK alone: x0's frame (``_lapack_eigh``),
    # the objective's eigenvalues and the final value (``_eigvalsh``).  Jacobi
    # (``_eigh``) checks it: lambda(b) against x0's LAPACK spectrum, and both
    # operands of ``orbit.certify``.  It also stays the eigensolver of
    # ``spectral_decompose`` and ``verify``, which checks it against LAPACK
    # (``_check_eigvals``).

    def _search_basis(self, u, a):
        beta, Q = _lapack_eigh(_mat_from_sym_coords(self.n, u))
        return beta, Q, Q.T @ _mat_from_sym_coords(self.n, a) @ Q

    def _search_lam(self, beta, Q, B):
        return _eigvalsh(np.diag(beta) - B)

    def _search_pair(self, beta, Q, B, j, k):
        rest = beta.copy()
        rest[j] = rest[k] = 0.0
        return B[j, j] - B[k, k], 2.0 * B[j, k], ((np.diag(rest) - B).ravel(), _pair_block(self.n, j, k))

    def _search_curve(self, pair, coeffs):
        base, block = pair
        return _eigvalsh((base + coeffs @ block).reshape(self.n, self.n))

    def _search_turn(self, Q, B, j, k, pair, rows):
        # the rotation whose column j is the axis (c, s) of e_j(theta), whose
        # coefficients are (c^2, c s, s^2); c >= 0 on |theta| <= pi/2
        cc, cs, ss = rows[0]
        c, s = math.sqrt(cc), math.copysign(math.sqrt(ss), cs)
        # as an n x n rotation: at these sizes three small matmuls take less
        # time than the row and column updates of the plane
        R = np.eye(self.n)
        R[j, j] = R[k, k] = c
        R[k, j], R[j, k] = s, -s
        Q[:] = Q @ R
        B[:] = R.T @ B @ R

    def _search_coords(self, beta, Q):
        return _sym_coords_from_mat(self.n, (Q * beta) @ Q.T)

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
        out = u[..., :1] * v + v[..., :1] * u
        out[..., 0] = u[..., 0] * v[..., 0] + _dot(v[..., 1:], u[..., 1:])
        return out

    def _inner(self, u, v):
        return 2.0 * _dot(u, v)

    def _trace(self, u):
        return 2.0 * u[..., 0]

    def _radius(self, u):
        """|xb|, the norm of the vector part, by the one formula behind both
        the eigenvalues and the frame: a float for one vector, else a
        ``(..., 1)`` column; right over the whole float range (``_prescaled``)."""
        r, _, e = _prescaled(u[..., 1:])
        if u.ndim == 1:
            return float(np.ldexp(r, e)) if e else r
        return (r if e is None else np.ldexp(r, e))[..., None]

    def _eigvals(self, u):
        # x0 +- |xb|; on a stack x0 + (-1) r, which is x0 - r exactly
        r = self._radius(u)
        return np.array([u[0] + r, u[0] - r]) if u.ndim == 1 else u[..., :1] + r * _PLUS_MINUS

    def _decompose(self, u):
        """Frame members (1/2)(1, +-xb/|xb|).  The axis is e_1 when the
        vector part is exactly zero (degenerate spectrum, where any unit
        direction realizes a frame); any nonzero vector part, however
        small, has its own axis."""
        r = self._radius(u)
        zero = r == 0.0
        half = 0.5 * np.where(zero, _first_axis(self.d - 1), u[..., 1:] / np.where(zero, 1.0, r))
        frame = np.empty(u.shape[:-1] + (2, self.d))
        frame[..., 0] = 0.5
        frame[..., 0, 1:] = half
        frame[..., 1, 1:] = -half
        return u[..., :1] + r * _PLUS_MINUS, frame

    def _unit(self):
        c = np.zeros(self.d)
        c[0] = 1.0
        return c

    def _apply_auto(self, Q, u):
        out = u.copy()
        out[..., 1:] = (Q @ u[..., 1:, None])[..., 0]
        return out

    @property
    def _auto_width(self):
        return (self.d - 1) ** 2

    def _autos_from(self, D):
        return _haar_orthogonal(D, self.d - 1)

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
            [f._product(u[..., s], v[..., s]) for f, s in zip(self.factors, self._slices)], axis=-1
        )

    def _inner(self, u, v):
        return sum(f._inner(u[..., s], v[..., s]) for f, s in zip(self.factors, self._slices))

    def _trace(self, u):
        return sum(f._trace(u[..., s]) for f, s in zip(self.factors, self._slices))

    def _eigvals(self, u):
        vals = np.concatenate([f._eigvals(u[..., s]) for f, s in zip(self.factors, self._slices)], axis=-1)
        return -np.sort(-vals)

    def _check_eigvals(self, u):
        vals = np.concatenate([f._check_eigvals(u[..., s]) for f, s in zip(self.factors, self._slices)], axis=-1)
        return -np.sort(-vals)

    def _decompose(self, u):
        """Factor decompositions merged by a stable sort along the last
        axis, so ties keep factor order."""
        vals = []
        members = []
        for f, s in zip(self.factors, self._slices):
            fvals, fframe = f._decompose(u[..., s])
            vals.append(fvals)
            members.append(self._placed(fframe, s))
        vals = np.concatenate(vals, axis=-1)
        order = np.argsort(-vals, axis=-1, kind="stable")
        return _reorder(vals, order), _reorder(np.concatenate(members, axis=-2), order)

    def _unit(self):
        return np.concatenate([f._unit() for f in self.factors])

    def _apply_auto(self, data, u):
        """Slot i maps the coordinates of factor ``src[i]`` (an identical
        factor, so of the same dim) by its factor automorphism.  A stack of
        data holds one stack per slot and a ``(..., factors)`` source array."""
        autos, src = data
        starts = np.array([s.start for s in self._slices])[np.asarray(src)]
        parts = [
            f._apply_auto(a, np.take_along_axis(u, starts[..., i, None] + np.arange(f.dim), -1))
            for i, (f, a) in enumerate(zip(self.factors, autos))
        ]
        return np.concatenate(parts, axis=-1)

    @cached_property
    def _auto_width(self):
        return len(self.factors) + sum(f._auto_width for f in self.factors)

    def _autos_from(self, D):
        """One normal per factor, whose order within each group of identical
        factors gives the source of each slot, then each factor's own row."""
        src = np.empty(D.shape[:-1] + (len(self.factors),), dtype=int)
        for idxs in map(np.array, self._groups):
            src[..., idxs] = idxs[np.argsort(D[..., idxs], axis=-1, kind="stable")]
        off = np.cumsum([len(self.factors)] + [f._auto_width for f in self.factors])
        autos = tuple(f._autos_from(D[..., i:j]) for f, i, j in zip(self.factors, off, off[1:]))
        return autos, (tuple(src.tolist()) if src.ndim == 1 else src)

    @cached_property
    def _frame_width(self):
        return self.rank + sum(f._frame_width for f in self.factors)

    def _frames_from(self, D):
        """``rank`` normals whose stable argsort orders the members, then
        each factor's row, whose frame is placed in the factor's slice."""
        off = np.cumsum([self.rank] + [f._frame_width for f in self.factors])
        members = [
            self._placed(f._frames_from(D[..., i:j]), s)
            for f, s, i, j in zip(self.factors, self._slices, off, off[1:])
        ]
        return _reorder(np.concatenate(members, axis=-2), np.argsort(D[..., : self.rank], axis=-1, kind="stable"))

    def _placed(self, fframe, s):
        """A factor's frame members as product coordinates, zero off slice s."""
        placed = np.zeros(fframe.shape[:-1] + (self.dim,))
        placed[..., s] = fframe
        return placed

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
def _first_axis(m):
    """e_1 of R^m (read-only)."""
    e = np.zeros(m)
    e[0] = 1.0
    e.flags.writeable = False
    return e


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


def _eigvalsh(M):
    """LAPACK eigenvalues (non-increasing) of the symmetric matrices on the
    last two axes, each matrix of a stack with the bits of its own call."""
    return np.linalg.eigvalsh(M)[..., ::-1]


def _lapack_eigh(M):
    """LAPACK eigenvalues (non-increasing) and eigenvector columns of a
    symmetric matrix: ``_eigvalsh`` with the vectors, in the same order."""
    vals, Q = np.linalg.eigh(M)
    return vals[::-1], Q[:, ::-1]


@lru_cache(maxsize=None)
def _pair_block(n, j, k):
    """Frame members e_j, e_k and generator w of pair (j, k) in the basis
    of a frame's own columns, as flat n x n matrices: E_jj, E_jk + E_kj and
    E_kk (read-only)."""
    block = np.zeros((3, n, n))
    block[0, j, j] = block[1, j, k] = block[1, k, j] = block[2, k, k] = 1.0
    block = block.reshape(3, n * n)
    block.flags.writeable = False
    return block


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
    return float(x.algebra._trace(x.coords))


# ---------------------------------------------------------------------------
# Eigenvalues and spectral decomposition


# Jacobi stops when the off-diagonal Frobenius mass is at most this share
# of ||mat||_F
_OFF_TOL = 1e-13


def _jacobi_symmetric(mat, want_vectors=True, max_sweeps=100):
    """Cyclic Jacobi diagonalization of a dense symmetric matrix.

    Sweeps rows in cyclic order until the Frobenius mass of the
    off-diagonal part drops below ``_OFF_TOL * ||mat||_F``.  Raises
    :class:`ConvergenceError` after ``max_sweeps`` sweeps.
    Returns eigenvalues sorted non-increasing and, when requested, the
    matching orthonormal eigenvector columns.  A ``(..., n, n)`` stack goes
    to ``_jacobi_stacked``, which returns ``(..., n)`` eigenvalues and
    ``(..., n, n)`` vectors with the bits of one call per matrix.

    ``mat`` must be exactly symmetric, as ``_mat_from_sym_coords`` builds
    it for every library caller: each rotation takes ``_rotate``'s
    arithmetic (the two rotated rows computed once, written to rows and
    columns p, q) and needs its precondition.  A matrix whose Frobenius
    norm leaves [2^-400, 2^400] is solved at a power-of-two scale and its
    eigenvalues scaled back (``_prescaled``), so they are right over the
    whole float range; in range nothing is scaled.
    """
    A = np.array(mat, dtype=float)
    if A.ndim != 2:
        return _jacobi_stacked(A, want_vectors, max_sweeps)
    n = A.shape[0]
    Q = np.eye(n) if want_vectors else None
    scale, flat, e = _prescaled(A.reshape(-1))
    if e:
        A = flat.reshape(n, n)
    if scale != 0.0 and n > 1:
        thr = _OFF_TOL * scale
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
                    rp, rq = A[p], A[q]
                    new_p = c * rp - s * rq
                    new_q = s * rp + c * rq
                    app = c * new_p[p] - s * new_p[q]
                    aqq = s * new_q[p] + c * new_q[q]
                    A[p] = A[:, p] = new_p
                    A[q] = A[:, q] = new_q
                    A[p, p] = app
                    A[q, q] = aqq
                    A[p, q] = A[q, p] = 0.0
                    if want_vectors:
                        qp, qq = Q[:, p], Q[:, q]
                        Q[:, p], Q[:, q] = c * qp - s * qq, s * qp + c * qq
        else:
            raise ConvergenceError(f"Jacobi sweep cap {max_sweeps} exceeded")
    vals = np.diagonal(A).copy()
    order = np.argsort(-vals, kind="stable")
    vals = np.ldexp(vals[order], e) if e else vals[order]
    return vals, (Q[:, order] if want_vectors else None)


def _jacobi_stacked(A, want_vectors, max_sweeps):
    """The sweeps of ``_jacobi_symmetric`` run once over a stack of matrices.

    Every matrix keeps its own threshold, skip rule and convergence test: a
    converged matrix leaves the active set, and a rotation is applied only
    to the matrices that do not skip the pair.  The arithmetic is the
    single call's, elementwise, so each matrix gets its bits, the prescale
    of an out-of-range matrix included.  ``A`` is a fresh ``(..., n, n)``
    array of exactly symmetric matrices (the precondition of ``_rotate``)
    and is overwritten.
    """
    lead, n = A.shape[:-2], A.shape[-1]
    A = A.reshape((-1, n, n))
    k = len(A)
    Q = np.tile(np.eye(n), (k, 1, 1)) if want_vectors else None
    scale, flat, e = _prescaled(A.reshape(k, n * n))
    A = flat.reshape(k, n, n)
    thr = _OFF_TOL * scale
    skip = thr / (n * n)
    active = np.flatnonzero(scale != 0.0) if n > 1 else np.arange(0)
    for _sweep in range(max_sweeps):
        off_sq = np.zeros(len(active))
        for p in range(n - 1):
            row = A[active, p, p + 1 :]
            off_sq += 2.0 * _dot(row, row)
        # negated tests, so that a NaN matrix runs into the cap as it does alone
        active = active[~(np.sqrt(off_sq) <= thr[active])]
        if not len(active):
            break
        S = A[active]
        V = Q[active] if want_vectors else None
        skip_active = skip[active]
        for p in range(n - 1):
            for q in range(p + 1, n):
                rot = ~(np.abs(S[:, p, q]) <= skip_active)
                if rot.all():
                    _rotate(S, V, p, q)
                elif rot.any():
                    sub = np.flatnonzero(rot)
                    T = S[sub]
                    W = V[sub] if want_vectors else None
                    _rotate(T, W, p, q)
                    S[sub] = T
                    if want_vectors:
                        V[sub] = W
        A[active] = S
        if want_vectors:
            Q[active] = V
    else:
        if len(active):
            raise ConvergenceError(f"Jacobi sweep cap {max_sweeps} exceeded")
    vals = np.diagonal(A, axis1=-2, axis2=-1)
    order = np.argsort(-vals, axis=-1, kind="stable")
    vals = np.take_along_axis(vals, order, -1)
    vals = (vals if e is None else np.ldexp(vals, e[:, None])).reshape(lead + (n,))
    if want_vectors:
        return vals, np.take_along_axis(Q, order[:, None, :], -1).reshape(lead + (n, n))
    return vals, None


def _rotate(A, Q, p, q):
    """One Jacobi rotation of pair (p, q) on every matrix of the stack A
    (and on the columns of Q), with the arithmetic and the bits of the 2-D
    loop of ``_jacobi_symmetric``.

    Every matrix of A must be exactly symmetric, as ``_mat_from_sym_coords``
    builds it; a rotation keeps it so.  Then a column step's result off the
    (p, q) block would be the row step's result transposed, bit for bit, so
    the two rotated rows are computed once and written to rows and columns
    p, q; the block's diagonal takes the column step's formula on them.
    """
    apq = A[:, p, q]
    tau = (A[:, q, q] - A[:, p, p]) / (2.0 * apq)
    t = np.copysign(1.0, tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    c_col, s_col = c[:, None], s[:, None]
    rp, rq = A[:, p, :], A[:, q, :]
    new_p = c_col * rp - s_col * rq
    new_q = s_col * rp + c_col * rq
    app = c * new_p[:, p] - s * new_p[:, q]
    aqq = s * new_q[:, p] + c * new_q[:, q]
    A[:, p, :] = A[:, :, p] = new_p
    A[:, q, :] = A[:, :, q] = new_q
    A[:, p, p] = app
    A[:, q, q] = aqq
    A[:, p, q] = A[:, q, p] = 0.0
    if Q is not None:
        qp = Q[:, :, p].copy()
        qq = Q[:, :, q].copy()
        Q[:, :, p] = c_col * qp - s_col * qq
        Q[:, :, q] = s_col * qp + c_col * qq


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
    return Element(alg, _synthesize([c.coords for c in frame], coeffs))


def _synthesize(members, coeffs):
    """sum_i coeffs[..., i] members[i], added in frame order.  ``members``
    runs over the frame: one frame's member vectors, or the ``(..., dim)``
    member slices of a stack of frames, ``np.moveaxis(frames, -2, 0)``."""
    out = np.zeros(np.shape(members[0]))
    for i, member in enumerate(members):
        out += coeffs[..., i, None] * member
    return out


def validate_frame(frame, tol=1e-8):
    """Check the Jordan-frame invariants; raise AlgebraError on failure."""
    frame = tuple(frame)
    alg = frame[0].algebra
    if any(c.algebra != alg for c in frame):
        raise AlgebraError("frame members from different algebras")
    idempotent, primitive, orthogonal, sums_to_unit = _frame_checks(
        alg, np.array([c.coords for c in frame]), tol
    )
    for i in range(len(frame)):
        if not idempotent[i]:
            raise AlgebraError(f"frame member {i} is not idempotent")
        if not primitive[i]:
            raise AlgebraError(f"frame member {i} is not primitive (trace != 1)")
        for j in range(i):
            if not orthogonal[i, j]:
                raise AlgebraError(f"frame members {j},{i} are not orthogonal")
    if not sums_to_unit:
        raise AlgebraError("frame members do not sum to the unit")


def _frame_checks(alg, frames, tol):
    """The invariants ``validate_frame`` checks, for one frame given as a
    ``(rank, dim)`` array or for a ``(..., rank, dim)`` stack: per member,
    idempotence and unit trace; per pair of members i > j, orthogonality
    (entry [..., i, j]; True for i <= j); per frame, that the members sum
    to the unit."""
    sq = alg._product(frames, frames)
    idempotent = ~(alg._inner(sq - frames, sq - frames) > tol**2)
    primitive = ~(np.abs(alg._trace(frames) - 1.0) > tol)
    rank = frames.shape[-2]
    i, j = np.tril_indices(rank, -1)
    pr = alg._product(frames[..., i, :], frames[..., j, :])
    orthogonal = np.ones(frames.shape[:-1] + (rank,), dtype=bool)
    orthogonal[..., i, j] = ~(alg._inner(pr, pr) > tol**2)
    total = np.zeros(frames.shape[:-2] + frames.shape[-1:])
    for i in range(rank):
        total += frames[..., i, :]
    sums_to_unit = ~(np.max(np.abs(total - alg._unit()), axis=-1) > tol)
    return idempotent, primitive, orthogonal, sums_to_unit


# ---------------------------------------------------------------------------
# L-operator, Peirce decomposition, commutation tests


def l_operator(x: Element) -> np.ndarray:
    """Matrix of L_x : y -> x o y in the canonical coordinates (symmetric)."""
    return _l_operator(x.algebra, x.coords)


def _l_operator(alg, u):
    """L-operator matrices of a coordinate vector or a ``(..., dim)`` stack."""
    # row i of the stacked product is u o e_i, column i of L_u
    return np.swapaxes(alg._product(u if u.ndim == 1 else u[..., None, :], np.eye(alg.dim)), -1, -2)


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
    return tuple(Element(alg, c) for c in _peirce_parts(alg, p.coords, x.coords))


def _peirce_parts(alg, p, x):
    """Coordinates (x1, x0, xhalf) of ``peirce_project`` for coordinate
    vectors or ``(..., dim)`` stacks; raises AlgebraError when any p is not
    an idempotent."""
    psq = alg._product(p, p)
    # an idempotent has a fixed scale (its eigenvalues are 0 and 1), so
    # this threshold needs no operand scale
    if np.any(np.sqrt(alg._inner(psq - p, psq - p)) > 1e-8 * (1.0 + alg._inner(p, p))):
        raise AlgebraError("p is not an idempotent within tolerance")
    px = alg._product(p, x)
    ppx = alg._product(p, px)
    x1 = 2.0 * ppx - px
    xh = 4.0 * (px - ppx)
    return x1, x - x1 - xh, xh


def operator_commutation_residual(a: Element, b: Element) -> float:
    """Frobenius norm of the commutator [L_a, L_b]."""
    _check_same(a, b)
    return float(_commutator_norm(a.algebra, a.coords, b.coords))


def _commutator_norm(alg, u, v):
    """|[L_u, L_v]|_F of coordinate vectors or ``(..., dim)`` stacks."""
    Lu = _l_operator(alg, u)
    Lv = _l_operator(alg, v)
    C = Lu @ Lv - Lv @ Lu
    flat = C.reshape(C.shape[:-2] + (-1,))
    return np.sqrt(_dot(flat, flat))


def _norm(alg, u):
    """``norm`` of coordinate vectors or ``(..., dim)`` stacks."""
    return np.sqrt(np.maximum(0.0, alg._inner(u, u)))


def operator_commute(a: Element, b: Element, tol=DEFAULT_TOL) -> bool:
    """L_a L_b = L_b L_a, i.e. a and b share some Jordan frame.

    Compares |[L_a, L_b]| with ``tol * |a| |b|``; verdicts do not depend on
    units."""
    return bool(operator_commutation_residual(a, b) <= tol * norm(a) * norm(b))


def strong_commutation_gap(a: Element, b: Element) -> float:
    """|<a,b> - <lambda(a), lambda(b)>| (zero iff strong operator commutation)."""
    _check_same(a, b)
    return float(_strong_gap(a.algebra, a.coords, b.coords, eigenvalues(a), eigenvalues(b)))


def _strong_gap(alg, u, v, lam_u, lam_v):
    """``strong_commutation_gap`` of coordinate vectors or ``(..., dim)``
    stacks, given their eigenvalues."""
    return np.abs(alg._inner(u, v) - _dot(lam_u, lam_v))


def strongly_operator_commute(a: Element, b: Element, tol=DEFAULT_TOL) -> bool:
    """a, b share a frame with both eigenvalue lists in sorted order.

    Uses the frame-free characterization <a,b> = <lambda(a), lambda(b)>,
    which is robust to repeated eigenvalues.  Compares the gap with
    ``tol * |a| |b|``; verdicts do not depend on units.
    """
    return bool(strong_commutation_gap(a, b) <= tol * norm(a) * norm(b))


# ---------------------------------------------------------------------------
# Automorphisms and sampling


@dataclass(frozen=True, eq=False)
class Automorphism:
    """An invertible linear map preserving the Jordan product.

    ``data`` is kind-specific, and ``random_automorphism`` draws it from
    one row of standard normals laid out per kind:

    * RealDiagonal(n): a permutation of coordinates, the argsort of n
      normals.
    * SymMatrix(n): an orthogonal matrix Q acting by x -> QxQ^T, from
      n * n normals read row by row as a matrix.
    * SpinFactor(d): an orthogonal matrix acting on the vector part, from
      (d - 1)^2 normals read the same way.
    * Products: a tuple of per-slot factor automorphism data together with
      a tuple ``src``, slot i taking the coordinates of factor ``src[i]``
      (an identical factor); one normal per factor, argsorted within each
      group of identical factors, followed by each factor's row in order.
    """

    algebra: object
    data: object


def apply_automorphism(auto: Automorphism, x: Element) -> Element:
    if auto.algebra != x.algebra:
        raise AlgebraError("automorphism/element algebra mismatch")
    return Element(x.algebra, x.algebra._apply_auto(auto.data, x.coords))


def _haar_orthogonal(D, k):
    """Haar orthogonal k x k matrices from rows of k * k standard normals, each
    read as a matrix: Q of the QR factorization, columns signed by R's diagonal."""
    Q, R = np.linalg.qr(D.reshape(D.shape[:-1] + (k, k)))
    return Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]


def random_element(alg, rng) -> Element:
    """Element with i.i.d. standard normal coordinates."""
    return Element(alg, rng.standard_normal(alg.dim))


def random_automorphism(alg, rng) -> Automorphism:
    """Sample an automorphism from one ``standard_normal`` call of
    ``alg._auto_width`` normals, laid out as ``Automorphism`` states: n for
    RealDiagonal(n), n * n for SymMatrix(n), (d - 1)^2 for SpinFactor(d),
    and for a product one per factor then the factors' rows.  Haar
    orthogonal factors (QR with columns signed by R's diagonal; Mezzadri,
    Notices AMS 2007), uniform permutations of coordinates and of
    identical factors."""
    return Automorphism(alg, alg._autos_from(rng.standard_normal(alg._auto_width)))


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
