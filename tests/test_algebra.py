import numpy as np
import pytest

from ejaopt import (
    AlgebraError,
    Automorphism,
    ConvergenceError,
    Element,
    ProductAlgebra,
    RealDiagonal,
    SpinFactor,
    SymMatrix,
    algebra_from_dict,
    algebra_to_dict,
    apply_automorphism,
    eigenvalues,
    element_from_dict,
    element_to_dict,
    inner,
    is_simple,
    jordan_product,
    l_operator,
    norm,
    operator_commute,
    peirce_project,
    product_algebra,
    random_automorphism,
    random_element,
    spectral_decompose,
    strongly_operator_commute,
    sym_from_matrix,
    sym_to_matrix,
    synthesize_from_frame,
    trace,
    unit,
    zero,
)
from ejaopt.algebra import (
    _frame_checks,
    _jacobi_symmetric,
    _sym_coords_from_mat,
    validate_frame,
)
from ejaopt import algebra as algebra_module
from ejaopt.orbit import _curve

KINDS = [
    RealDiagonal(4),
    SymMatrix(2),
    SymMatrix(3),
    SymMatrix(5),
    SpinFactor(3),
    SpinFactor(5),
    product_algebra(SymMatrix(2), SymMatrix(2)),
    product_algebra(RealDiagonal(2), SpinFactor(4), SymMatrix(3)),
]


def diag2(a, b):
    return sym_from_matrix(SymMatrix(2), np.diag([float(a), float(b)]))


# ---------------------------------------------------------------------------
# descriptors


def test_descriptor_ranks_and_dims():
    assert RealDiagonal(4).rank == 4 and RealDiagonal(4).dim == 4
    assert SymMatrix(3).rank == 3 and SymMatrix(3).dim == 6
    assert SpinFactor(5).rank == 2 and SpinFactor(5).dim == 5
    prod = product_algebra(SymMatrix(2), SpinFactor(3))
    assert prod.rank == 4 and prod.dim == 6


def test_descriptor_validation():
    with pytest.raises(AlgebraError):
        SpinFactor(2)
    with pytest.raises(AlgebraError):
        RealDiagonal(0)
    with pytest.raises(AlgebraError):
        ProductAlgebra((SymMatrix(2),))


def test_product_normalization():
    assert product_algebra(SymMatrix(3)) == SymMatrix(3)
    nested = product_algebra(product_algebra(SymMatrix(2), SymMatrix(2)), SpinFactor(3))
    assert len(nested.factors) == 3


def test_simplicity():
    assert is_simple(SymMatrix(3))
    assert is_simple(SpinFactor(4))
    assert is_simple(RealDiagonal(1))
    assert not is_simple(RealDiagonal(2))
    assert not is_simple(product_algebra(SymMatrix(2), SymMatrix(2)))


# ---------------------------------------------------------------------------
# elements


def test_element_validation():
    with pytest.raises(AlgebraError):
        Element(SymMatrix(2), [1.0, 2.0])  # needs dim 3
    with pytest.raises(AlgebraError):
        Element(RealDiagonal(2), [np.nan, 0.0])
    x = Element(RealDiagonal(2), [1.0, 2.0])
    with pytest.raises(ValueError):
        x.coords[0] = 5.0  # coords are frozen


def test_element_owns_a_frozen_float_copy():
    alg = RealDiagonal(3)
    src = np.array([1.0, 2.0, 3.0])
    x = Element(alg, src)
    src[0] = 7.0  # a later write to the source does not reach the element
    assert x.coords.tolist() == [1.0, 2.0, 3.0]
    assert src.flags.writeable  # the caller's array is not frozen
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(AlgebraError):
            Element(alg, [1.0, bad, 0.0])
    frozen = np.array([4.0, 5.0, 6.0])
    frozen.flags.writeable = False
    for given in ([1, 2, 3], np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]), frozen):
        c = Element(alg, given).coords
        assert c.dtype == np.float64
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[1] = 0.0
    assert Element(alg, [1, 2, 3]).coords.tolist() == [1.0, 2.0, 3.0]


def test_element_arithmetic_algebra_mismatch():
    x = Element(RealDiagonal(2), [1.0, 2.0])
    y = Element(RealDiagonal(3), [1.0, 2.0, 3.0])
    with pytest.raises(AlgebraError):
        _ = x + y
    with pytest.raises(AlgebraError):
        jordan_product(x, y)


# ---------------------------------------------------------------------------
# jordan product


def test_jordan_product_diagonal_matrices():
    out = jordan_product(diag2(1, 2), diag2(3, 4))
    np.testing.assert_allclose(sym_to_matrix(out), np.diag([3.0, 8.0]))


def test_unit_is_identity():
    rng = np.random.default_rng(0)
    for alg in KINDS:
        e = unit(alg)
        for _ in range(20):
            x = random_element(alg, rng)
            assert norm(jordan_product(e, x) - x) <= 1e-12 * (1 + norm(x))


def test_spin_product_rule():
    sp = SpinFactor(3)
    x = Element(sp, [1.0, 1.0, 0.0])
    y = Element(sp, [2.0, 0.0, 1.0])
    # (x0*y0 + xb.yb, x0*yb + y0*xb) = (2, (2, 1))
    np.testing.assert_allclose(jordan_product(x, y).coords, [2.0, 2.0, 1.0])
    # cross-check: multiplication by x is the linear map l_operator(x)
    np.testing.assert_allclose(l_operator(x) @ y.coords, [2.0, 2.0, 1.0])


def test_jordan_identity_probes():
    rng = np.random.default_rng(1)
    for alg in KINDS:
        for _ in range(100):
            x = random_element(alg, rng)
            y = random_element(alg, rng)
            xx = jordan_product(x, x)
            lhs = jordan_product(jordan_product(x, y), xx)
            rhs = jordan_product(x, jordan_product(y, xx))
            scale = (1 + norm(x)) ** 2 * (1 + norm(y))
            assert norm(lhs - rhs) <= 1e-9 * scale


def test_commutativity_and_bilinearity():
    rng = np.random.default_rng(2)
    for alg in KINDS[:4]:
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        z = random_element(alg, rng)
        assert norm(jordan_product(x, y) - jordan_product(y, x)) <= 1e-12
        lhs = jordan_product(x, 2.0 * y + z)
        rhs = 2.0 * jordan_product(x, y) + jordan_product(x, z)
        assert norm(lhs - rhs) <= 1e-12 * (1 + norm(x)) * (1 + norm(y) + norm(z))


# ---------------------------------------------------------------------------
# inner product and trace


def test_inner_examples():
    assert inner(diag2(2, 1), diag2(5, 3)) == pytest.approx(13.0, abs=1e-14)
    for alg in KINDS:
        e = unit(alg)
        assert inner(e, e) == pytest.approx(alg.rank, abs=1e-12)
    sp = SpinFactor(3)
    x = Element(sp, [1.0, 1.0, 0.0])
    assert inner(x, x) == pytest.approx(4.0, abs=1e-14)


def test_inner_is_trace_of_product():
    rng = np.random.default_rng(3)
    for alg in KINDS:
        for _ in range(20):
            x = random_element(alg, rng)
            y = random_element(alg, rng)
            assert inner(x, y) == pytest.approx(trace(jordan_product(x, y)), abs=1e-10)
            assert inner(x, y) == pytest.approx(inner(y, x), abs=1e-12)
        x = random_element(alg, rng)
        assert inner(x, x) > 0 or norm(x) == 0


def test_sym_inner_is_frobenius():
    rng = np.random.default_rng(4)
    alg = SymMatrix(3)
    for _ in range(10):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        assert inner(x, y) == pytest.approx(
            float(np.sum(sym_to_matrix(x) * sym_to_matrix(y))), abs=1e-12
        )


# ---------------------------------------------------------------------------
# eigenvalues


def test_eigenvalues_examples():
    flip = sym_from_matrix(SymMatrix(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(eigenvalues(flip), [1.0, -1.0], atol=1e-13)
    sp = SpinFactor(3)
    # roots of t^2 - 2 x0 t + (x0^2 - |xb|^2) with x0 = 1, |xb| = 5
    np.testing.assert_allclose(eigenvalues(Element(sp, [1.0, 3.0, 4.0])), [6.0, -4.0])


def test_product_eigenvalues_merge_sorted():
    s2 = SymMatrix(2)
    prod = product_algebra(s2, s2)
    b = Element(prod, np.concatenate([diag2(4, 1).coords, diag2(3, 2).coords]))
    np.testing.assert_allclose(eigenvalues(b), [4.0, 3.0, 2.0, 1.0])


def test_eigenvalue_sum_is_trace():
    rng = np.random.default_rng(5)
    for alg in KINDS:
        for _ in range(50):
            x = random_element(alg, rng)
            lam = eigenvalues(x)
            assert len(lam) == alg.rank
            assert np.all(np.diff(lam) <= 1e-12)
            assert float(np.sum(lam)) == pytest.approx(trace(x), abs=1e-9 * (1 + norm(x)))


def test_check_eigvals_rows_match_single_calls():
    # a (..., dim) stack is checked in one call, each row with the bits of
    # its own single-vector call
    rng = np.random.default_rng(23)
    for alg in (RealDiagonal(1), RealDiagonal(4), SymMatrix(1), SymMatrix(3), SymMatrix(5),
                SpinFactor(3), SpinFactor(5), SpinFactor(12), product_algebra(SymMatrix(2), SpinFactor(3))):
        for scale in (1e-12, 1.0, 1e12):
            U = scale * rng.standard_normal((3, 4, alg.dim))
            U[0, 0, 1:] = 0.0
            stacked = alg._check_eigvals(U)
            assert stacked.shape == (3, 4, alg.rank)
            for idx in np.ndindex(3, 4):
                single = alg._check_eigvals(U[idx])
                assert single.shape == (alg.rank,)
                np.testing.assert_array_equal(stacked[idx], single)
                assert np.all(np.diff(single) <= 0.0)
                expect = eigenvalues(Element(alg, U[idx]))
                assert np.max(np.abs(single - expect)) <= 1e-13 * (scale + np.max(np.abs(expect)))


def test_search_curve_rows_match_single_calls():
    # SymMatrix scores a pair's curve in the basis of x's eigenvector
    # columns Q: a (..., 3) stack of curve coefficients is one eigvalsh
    # call, each row with the bits of its own single call, and each row is
    # the spectrum of x(theta) - a built densely from the columns of Q
    rng = np.random.default_rng(23)
    for alg in (SymMatrix(2), SymMatrix(3), SymMatrix(5)):
        n = alg.n
        for scale in (1e-12, 1.0, 1e12):
            u, a = scale * rng.standard_normal((2, alg.dim))
            beta, Q, B = alg._search_basis(u, a)
            A = sym_to_matrix(Element(alg, a))
            assert np.max(np.abs(B - Q.T @ A @ Q)) <= 1e-14 * n * np.linalg.norm(A)
            lam = alg._search_lam(beta, Q, B)
            expect = eigenvalues(Element(alg, u - a))
            assert np.max(np.abs(lam - expect)) <= 1e-13 * (scale + np.max(np.abs(expect)))
            for j, k in sorted({(0, 1), (0, n - 1), (n - 2, n - 1)}):
                _gap, _w, pair = alg._search_pair(beta, Q, B, j, k)
                coeffs = _curve(beta[j], beta[k], rng.uniform(-1.5, 1.5, size=12)).reshape(3, 4, 3)
                stacked = alg._search_curve(pair, coeffs)
                assert stacked.shape == (3, 4, n)
                for idx in np.ndindex(3, 4):
                    single = alg._search_curve(pair, coeffs[idx])
                    np.testing.assert_array_equal(stacked[idx], single)
                    assert np.all(np.diff(single) <= 0.0)
                    c0, c1, c2 = coeffs[idx]
                    qj, qk = Q[:, j], Q[:, k]
                    rest = sum(beta[i] * np.outer(Q[:, i], Q[:, i]) for i in range(n) if i not in (j, k))
                    X = rest + c0 * np.outer(qj, qj) + c1 * (np.outer(qj, qk) + np.outer(qk, qj)) + c2 * np.outer(qk, qk)
                    expect = eigenvalues(sym_from_matrix(alg, X - A))
                    assert np.max(np.abs(single - expect)) <= 1e-13 * (scale + np.max(np.abs(expect)))


def test_jacobi_matches_numpy():
    rng = np.random.default_rng(6)
    for n in (2, 3, 5, 7):
        for _ in range(25):
            M = rng.standard_normal((n, n))
            M = 0.5 * (M + M.T)
            vals, Q = _jacobi_symmetric(M)
            ref = np.sort(np.linalg.eigvalsh(M))[::-1]
            np.testing.assert_allclose(vals, ref, atol=1e-11)
            np.testing.assert_allclose(Q @ np.diag(vals) @ Q.T, M, atol=1e-11)


def test_jacobi_iteration_cap():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ConvergenceError):
        _jacobi_symmetric(M, max_sweeps=0)
    # on a stack the cap holds for every matrix: one sweep does not settle
    # the 4 x 4 matrices; the 2 x 2 one needs a rotation sweep and a check
    rng = np.random.default_rng(12)
    M4 = rng.standard_normal((3, 4, 4))
    with pytest.raises(ConvergenceError):
        _jacobi_symmetric(M4 + np.swapaxes(M4, 1, 2), max_sweeps=1)
    _jacobi_symmetric(np.array([M, np.zeros((2, 2))]), max_sweeps=2)


def jacobi_test_stack(n, rng):
    """Random, graded (diag(10^-k) conjugated), clustered, exactly repeated
    (diagonal and conjugated) spectra and the zero matrix: matrices that
    converge in zero sweeps next to ones that take the most.  Each is
    followed by its 2^600 and 2^-600 copies, whose norms leave the range of
    unscaled squares, so the stack mixes prescaled and unscaled matrices."""
    def conjugated(spectrum):
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        M = Q @ np.diag(spectrum) @ Q.T
        return 0.5 * (M + M.T)

    mats = []
    for _ in range(4):
        M = rng.standard_normal((n, n))
        mats += [
            M + M.T,
            conjugated(10.0 ** -np.arange(0, 3 * n, 3)),
            conjugated(1.0 + 1e-10 * rng.standard_normal(n)),
            np.diag(rng.integers(-2, 3, size=n).astype(float)),
            conjugated(rng.integers(-2, 3, size=n).astype(float)),
            np.zeros((n, n)),
        ]
    return np.array([np.ldexp(M, k) for M in mats for k in (0, 600, -600)])


def test_stacked_jacobi_rows_equal_single_calls():
    rng = np.random.default_rng(13)
    for n in range(1, 8):
        S = jacobi_test_stack(n, rng)
        for want_vectors in (True, False):
            vals, Q = _jacobi_symmetric(S, want_vectors=want_vectors)
            assert vals.shape == (len(S), n)
            for M, row_vals, row_Q in zip(S, vals, Q if want_vectors else [None] * len(S)):
                single_vals, single_Q = _jacobi_symmetric(M, want_vectors=want_vectors)
                # bit for bit, down to the sign of a zero
                assert row_vals.tobytes() == single_vals.tobytes(), n
                if want_vectors:
                    assert row_Q.tobytes() == single_Q.tobytes(), n
        # any leading shape; a stack of one takes the stacked sweep too
        vals, Q = _jacobi_symmetric(S[:6].reshape(2, 3, n, n))
        assert vals.shape == (2, 3, n) and Q.shape == (2, 3, n, n)
        assert np.array_equal(vals.reshape(6, n), _jacobi_symmetric(S[:6])[0])
        assert np.array_equal(_jacobi_symmetric(S[:1])[0][0], _jacobi_symmetric(S[0])[0])


def test_stacked_eigvals_and_decompose_rows_equal_single_calls():
    from ejaopt.verify import DEFAULT_KINDS

    rng = np.random.default_rng(14)
    for label, alg in DEFAULT_KINDS + (("mixed", KINDS[-1]),):
        U = rng.standard_normal((12, alg.dim))
        U[0] = 0.0
        U[1] = alg._unit()
        U[2] = U[3] = 1e-12 * U[3]
        vals = alg._eigvals(U)
        dvals, frames = alg._decompose(U)
        assert vals.shape == dvals.shape == (12, alg.rank)
        assert frames.shape == (12, alg.rank, alg.dim)
        for u, row_vals, row_dvals, row_frame in zip(U, vals, dvals, frames):
            single_dvals, single_frame = alg._decompose(u.copy())
            assert row_vals.tobytes() == alg._eigvals(u.copy()).tobytes(), label
            assert row_dvals.tobytes() == single_dvals.tobytes(), label
            assert row_frame.tobytes() == np.asarray(single_frame).tobytes(), label


# ---------------------------------------------------------------------------
# spectral decomposition


def test_decompose_diagonal():
    dec = spectral_decompose(diag2(2, 1))
    np.testing.assert_allclose(dec.eigenvalues, [2.0, 1.0])
    np.testing.assert_allclose(sym_to_matrix(dec.frame[0]), np.diag([1.0, 0.0]), atol=1e-13)
    np.testing.assert_allclose(sym_to_matrix(dec.frame[1]), np.diag([0.0, 1.0]), atol=1e-13)


def test_decompose_spin_closed_form():
    sp = SpinFactor(4)
    x = Element(sp, [1.0, 0.0, 3.0, 4.0])
    dec = spectral_decompose(x)
    # c_pm = (1/2, +-xb / (2|xb|))
    np.testing.assert_allclose(dec.frame[0].coords, [0.5, 0.0, 0.3, 0.4])
    np.testing.assert_allclose(dec.frame[1].coords, [0.5, 0.0, -0.3, -0.4])
    for c in dec.frame:
        assert norm(jordan_product(c, c) - c) <= 1e-13
    assert norm(jordan_product(dec.frame[0], dec.frame[1])) <= 1e-13
    recon = synthesize_from_frame(dec.frame, dec.eigenvalues)
    assert norm(recon - x) <= 1e-13


def test_decompose_unit():
    for alg in KINDS:
        dec = spectral_decompose(unit(alg))
        np.testing.assert_allclose(dec.eigenvalues, np.ones(alg.rank), atol=1e-13)
        validate_frame(dec.frame)


def test_decompose_roundtrip_random_and_degenerate():
    rng = np.random.default_rng(7)
    for alg in KINDS:
        for i in range(40):
            if i % 4 == 3:
                base = spectral_decompose(random_element(alg, rng)).frame
                coeffs = rng.integers(-2, 3, size=alg.rank).astype(float)
                x = synthesize_from_frame(base, coeffs, validate=False)
            else:
                x = random_element(alg, rng)
            dec = spectral_decompose(x)
            validate_frame(dec.frame, tol=1e-7)
            np.testing.assert_allclose(dec.eigenvalues, eigenvalues(x), atol=1e-9)
            recon = synthesize_from_frame(dec.frame, dec.eigenvalues, validate=False)
            assert norm(recon - x) <= 1e-9 * (1 + norm(x))


def test_frame_tie_order_is_pinned():
    # repeated eigenvalues: diagonal input keeps ascending index order, a
    # spin element with zero vector part uses e_1, and products merge the
    # factor frames with a stable sort, so ties keep factor order
    def sym_diag(alg, i):
        return sym_from_matrix(alg, np.diag(np.eye(alg.n)[i])).coords

    d4, d2, sp, s3, s5 = RealDiagonal(4), RealDiagonal(2), SpinFactor(4), SymMatrix(3), SymMatrix(5)
    spin_plus, spin_minus = [0.5, 0.5, 0.0, 0.0], [0.5, -0.5, 0.0, 0.0]
    prod = product_algebra(d2, sp, s3)
    sym_part = sym_from_matrix(s3, np.diag([2.0, 1.0, 2.0])).coords
    x_prod = Element(prod, np.concatenate([[1.0, 2.0], [1.0, 0.0, 0.0, 0.0], sym_part]))
    z2, z4, z6 = np.zeros(2), np.zeros(4), np.zeros(6)
    cases = [
        (Element(d4, [1.0, 3.0, 1.0, 3.0]), [3.0, 3.0, 1.0, 1.0], [np.eye(4)[i] for i in (1, 3, 0, 2)]),
        (sym_from_matrix(s3, np.diag([2.0, 5.0, 2.0])), [5.0, 2.0, 2.0], [sym_diag(s3, i) for i in (1, 0, 2)]),
        # LAPACK eigh with a stable descending argsort gives (1, 0, 2) and
        # (2, 0, 1, 3, 4) on these two
        (sym_from_matrix(s3, np.diag([1.0, 1.0, 0.0])), [1.0, 1.0, 0.0], [sym_diag(s3, i) for i in (0, 1, 2)]),
        (
            sym_from_matrix(s5, np.diag([3.0, 3.0, 3.0, 0.0, 0.0])),
            [3.0, 3.0, 3.0, 0.0, 0.0],
            [sym_diag(s5, i) for i in range(5)],
        ),
        (Element(sp, [2.0, 0.0, 0.0, 0.0]), [2.0, 2.0], [spin_plus, spin_minus]),
        (
            x_prod,
            [2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0],
            [
                np.concatenate([[0.0, 1.0], z4, z6]),
                np.concatenate([z2, z4, sym_diag(s3, 0)]),
                np.concatenate([z2, z4, sym_diag(s3, 2)]),
                np.concatenate([[1.0, 0.0], z4, z6]),
                np.concatenate([z2, spin_plus, z6]),
                np.concatenate([z2, spin_minus, z6]),
                np.concatenate([z2, z4, sym_diag(s3, 1)]),
            ],
        ),
    ]
    for x, vals, frame in cases:
        dec = spectral_decompose(x)
        np.testing.assert_array_equal(dec.eigenvalues, vals)
        np.testing.assert_array_equal([c.coords for c in dec.frame], frame)
        # the same order for each row of a stacked decomposition
        stack_vals, stack_frames = x.algebra._decompose(np.array([x.coords, 2.0 * x.coords]))
        np.testing.assert_array_equal(stack_vals, [vals, 2.0 * np.array(vals)])
        np.testing.assert_array_equal(stack_frames, [frame, frame])


def test_spin_degenerate_direction_is_fixed():
    sp = SpinFactor(3)
    dec = spectral_decompose(Element(sp, [2.0, 0.0, 0.0]))
    np.testing.assert_allclose(dec.frame[0].coords, [0.5, 0.5, 0.0])
    # |xb|^2 underflows to 0 here, but xb is not zero: its axis is xb / |xb|
    dec = spectral_decompose(Element(sp, [1.0, 1e-170, 1e-170]))
    np.testing.assert_allclose(dec.frame[0].coords, [0.5, 0.5 / np.sqrt(2.0), 0.5 / np.sqrt(2.0)], rtol=1e-15)


POWER_OF_TWO_SCALES = (-1000, -600, -200, 0, 200, 600, 1000)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eigenvalues_scale_with_powers_of_two_bit_for_bit():
    """lambda(2^k x) = 2^k lambda(x) and the frame of 2^k x is the frame of
    x, bit for bit, over the whole float range: out of [2^-400, 2^400] the
    kernels that square solve at a power-of-two scale."""
    from ejaopt.verify import DEFAULT_KINDS

    rng = np.random.default_rng(16)
    mixed = product_algebra(SymMatrix(3), SpinFactor(3), RealDiagonal(2))
    for label, alg in DEFAULT_KINDS + (("sym3xspin3xdiag2", mixed),):
        X = rng.standard_normal((5, alg.dim))
        vals, frames = alg._decompose(X)
        for k in POWER_OF_TWO_SCALES:
            Xk = np.ldexp(X, k)
            assert alg._eigvals(Xk).tobytes() == np.ldexp(vals, k).tobytes(), (label, k)
            kvals, kframes = alg._decompose(Xk)
            assert kvals.tobytes() == np.ldexp(vals, k).tobytes(), (label, k)
            assert kframes.tobytes() == frames.tobytes(), (label, k)
            for x, row_vals, row_frame in zip(Xk, vals, frames):
                xk = Element(alg, x)
                assert eigenvalues(xk).tobytes() == np.ldexp(row_vals, k).tobytes(), (label, k)
                dec = spectral_decompose(xk)
                assert dec.eigenvalues.tobytes() == np.ldexp(row_vals, k).tobytes(), (label, k)
                assert np.array([c.coords for c in dec.frame]).tobytes() == row_frame.tobytes(), (label, k)


def test_spin_spectral_roundtrip_at_any_scale():
    # a small nonzero vector part has its own axis: an absolute cut-off
    # replaced it by e_1 and lost the element at small scales
    sp = SpinFactor(5)
    base = np.array([1.0, 0.6, 0.8, 0.0, 0.0])
    for e in range(-15, 16):
        x = Element(sp, 10.0**e * base)
        dec = spectral_decompose(x)
        recon = synthesize_from_frame(dec.frame, dec.eigenvalues)
        assert norm(recon - x) <= 1e-14 * norm(x), e
        np.testing.assert_allclose(dec.eigenvalues, 10.0**e * np.array([2.0, 0.0]), atol=1e-15 * 10.0**e)


# ---------------------------------------------------------------------------
# L-operator


def test_l_operator_unit_is_identity():
    for alg in KINDS:
        np.testing.assert_allclose(l_operator(unit(alg)), np.eye(alg.dim), atol=1e-13)


def test_l_operator_diagonal_kind():
    alg = RealDiagonal(3)
    x = Element(alg, [1.0, -2.0, 5.0])
    np.testing.assert_allclose(l_operator(x), np.diag([1.0, -2.0, 5.0]))


def test_l_operator_matches_product_probes():
    rng = np.random.default_rng(8)
    for alg in KINDS:
        x = random_element(alg, rng)
        L = l_operator(x)
        np.testing.assert_allclose(L, L.T, atol=1e-12)
        for _ in range(5):
            y = random_element(alg, rng)
            np.testing.assert_allclose(L @ y.coords, jordan_product(x, y).coords, atol=1e-12)


STACK_KINDS = [
    RealDiagonal(1),
    RealDiagonal(4),
    SymMatrix(1),
    SymMatrix(3),
    SymMatrix(7),
    SpinFactor(3),
    SpinFactor(12),
    product_algebra(SymMatrix(2), SpinFactor(4), RealDiagonal(2)),
]


def probe_l_operator(x):
    """L_x by definition: column i is x o e_i, one product per basis vector."""
    alg = x.algebra
    L = np.empty((alg.dim, alg.dim))
    for i in range(alg.dim):
        probe = np.zeros(alg.dim)
        probe[i] = 1.0
        L[:, i] = alg._product(x.coords, probe)
    return L


def test_l_operator_equals_probe_columns_exactly():
    rng = np.random.default_rng(40)
    for alg in STACK_KINDS:
        for scale in (1e-12, 1.0, 1e12):
            for _ in range(4):
                x = random_element(alg, rng) * scale
                assert np.array_equal(l_operator(x), probe_l_operator(x)), (alg, scale)


def test_stacked_product_rows_match_single_calls():
    rng = np.random.default_rng(41)
    for alg in STACK_KINDS:
        u = rng.standard_normal(alg.dim)
        V = rng.standard_normal((3, 50, alg.dim))
        P = alg._product(u, V)
        assert P.shape == V.shape
        U = rng.standard_normal(V.shape)
        PU = alg._product(U, V)
        for idx in np.ndindex(V.shape[:-1]):
            assert np.array_equal(P[idx], alg._product(u, V[idx].copy())), alg
            assert np.array_equal(PU[idx], alg._product(U[idx].copy(), V[idx].copy())), alg
        I = np.eye(alg.dim)
        PI = alg._product(u, I)
        for i in range(alg.dim):
            assert np.array_equal(PI[i], alg._product(u, I[i].copy())), alg


def test_sym_decompose_frame_rows_are_outer_products():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 7):
        alg = SymMatrix(n)
        for _ in range(5):
            u = rng.standard_normal(alg.dim)
            _vals, Q = alg._eigh(sym_to_matrix(Element(alg, u)))
            _vals, frame = alg._decompose(u)
            ref = [_sym_coords_from_mat(n, np.outer(q, q)) for q in Q.T]
            assert np.array_equal(frame, ref), n


def test_drawn_frames_keep_the_frames_from_contract():
    from ejaopt.verify import DEFAULT_KINDS

    rng = np.random.default_rng(43)
    mixed = product_algebra(SymMatrix(2), SpinFactor(3), RealDiagonal(2))
    for label, alg in DEFAULT_KINDS + (("mixed", mixed),):
        D = rng.standard_normal((40, alg._frame_width))
        frames = alg._frames_from(D)
        assert frames.shape == (40, alg.rank, alg.dim), label
        idempotent, primitive, orthogonal, sums_to_unit = _frame_checks(alg, frames, 1e-12)
        assert idempotent.all() and primitive.all() and orthogonal.all() and sums_to_unit.all(), label
        # each stacked row has the bits of its single-row call
        for d, frame in zip(D, frames):
            assert frame.tobytes() == alg._frames_from(d).tobytes(), label
        for f in alg.factors:
            Df = rng.standard_normal((10, f._frame_width))
            if isinstance(f, SymMatrix):
                # the outer products of the columns of a Haar orthogonal draw
                ref = [[_sym_coords_from_mat(f.n, np.outer(q, q)) for q in Q.T] for Q in f._autos_from(Df)]
            else:
                # the frame of the row read as coordinates
                ref = f._decompose(Df)[1]
            assert np.array_equal(f._frames_from(Df), ref), (label, f)
    # a product places each factor's frame in its slice, after rank leading
    # normals whose stable argsort orders the members
    off = np.cumsum([mixed.rank] + [f._frame_width for f in mixed.factors])
    D = rng.standard_normal((40, mixed._frame_width))
    for d, frame in zip(D, mixed._frames_from(D)):
        members = np.zeros((mixed.rank, mixed.dim))
        rows = np.cumsum([0] + [f.rank for f in mixed.factors])
        for f, s, i, j, r0, r1 in zip(mixed.factors, mixed._slices, off, off[1:], rows, rows[1:]):
            members[r0:r1, s] = f._frames_from(d[i:j])
        assert np.array_equal(frame, members[np.argsort(d[: mixed.rank], kind="stable")])
    # so the first member lies in either factor of SymMatrix(2) x SymMatrix(2)
    prod = dict(DEFAULT_KINDS)["sym2xsym2"]
    first = prod._frames_from(rng.standard_normal((200, prod._frame_width)))[:, 0]
    owners = [int(np.argmax([np.linalg.norm(m[s]) for s in prod._slices])) for m in first]
    assert set(owners) == {0, 1}


# ---------------------------------------------------------------------------
# Peirce decomposition


def test_peirce_trivial_idempotents():
    rng = np.random.default_rng(9)
    for alg in KINDS[:5]:
        x = random_element(alg, rng)
        x1, x0, xh = peirce_project(unit(alg), x)
        assert norm(x1 - x) <= 1e-12 * (1 + norm(x))
        assert norm(x0) <= 1e-12 * (1 + norm(x)) and norm(xh) <= 1e-12 * (1 + norm(x))
        x1, x0, xh = peirce_project(zero(alg), x)
        assert norm(x0 - x) <= 1e-12 * (1 + norm(x))
        assert norm(x1) <= 1e-12 * (1 + norm(x)) and norm(xh) <= 1e-12 * (1 + norm(x))


def test_peirce_sym2_explicit():
    a, b, c = 1.7, -0.4, 2.5
    x = sym_from_matrix(SymMatrix(2), np.array([[a, c], [c, b]]))
    p = diag2(1, 0)
    x1, x0, xh = peirce_project(p, x)
    np.testing.assert_allclose(sym_to_matrix(x1), np.diag([a, 0.0]), atol=1e-12)
    np.testing.assert_allclose(sym_to_matrix(x0), np.diag([0.0, b]), atol=1e-12)
    np.testing.assert_allclose(sym_to_matrix(xh), np.array([[0.0, c], [c, 0.0]]), atol=1e-12)


def test_peirce_eigenspace_relations_and_orthogonality():
    rng = np.random.default_rng(10)
    for alg in KINDS:
        frame = spectral_decompose(random_element(alg, rng)).frame
        k = rng.integers(1, alg.rank + 1)
        idx = rng.choice(alg.rank, size=k, replace=False)
        p = Element(alg, np.sum([frame[i].coords for i in idx], axis=0))
        x = random_element(alg, rng)
        x1, x0, xh = peirce_project(p, x)
        s = 1 + norm(x)
        assert norm(x1 + x0 + xh - x) <= 1e-9 * s
        assert norm(jordan_product(p, x1) - x1) <= 1e-9 * s
        assert norm(jordan_product(p, x0)) <= 1e-9 * s
        assert norm(jordan_product(p, xh) - 0.5 * xh) <= 1e-9 * s
        assert abs(inner(x1, x0)) <= 1e-9 * s * s
        assert abs(inner(x1, xh)) <= 1e-9 * s * s
        assert abs(inner(x0, xh)) <= 1e-9 * s * s


def test_peirce_rejects_non_idempotent():
    with pytest.raises(AlgebraError):
        peirce_project(diag2(2, 0), diag2(1, 1))


# ---------------------------------------------------------------------------
# commutation


def test_operator_commute_examples():
    rng = np.random.default_rng(11)
    assert operator_commute(diag2(1, 5), diag2(-2, 3))
    a = diag2(1, 0)
    b = sym_from_matrix(SymMatrix(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not operator_commute(a, b, tol=1e-6)
    from ejaopt.algebra import operator_commutation_residual

    assert operator_commutation_residual(a, b) > 0.1
    for alg in KINDS:
        x = random_element(alg, rng)
        assert operator_commute(unit(alg), x)


def test_strongly_operator_commute_examples():
    assert strongly_operator_commute(diag2(2, 1), diag2(5, 3))  # <a,b> = 13 = <(2,1),(5,3)>
    assert not strongly_operator_commute(diag2(2, 1), diag2(3, 5))  # 11 != 13
    rng = np.random.default_rng(12)
    for alg in KINDS:
        x = random_element(alg, rng)
        assert strongly_operator_commute(zero(alg), x)


def test_strong_commute_implies_operator_commute():
    rng = np.random.default_rng(13)
    for alg in KINDS:
        frame = spectral_decompose(random_element(alg, rng)).frame
        from ejaopt.majorization import sort_desc

        a = synthesize_from_frame(frame, sort_desc(rng.standard_normal(alg.rank)), validate=False)
        b = synthesize_from_frame(frame, sort_desc(rng.standard_normal(alg.rank)), validate=False)
        assert strongly_operator_commute(a, b, tol=1e-8)
        assert operator_commute(a, b, tol=1e-8)


def test_matrix_commutator_crosscheck_sym():
    # Der(S^n) consists of commutators with skew-symmetric matrices, so L_a
    # and L_b commute iff the matrices do: |AB - BA| against the same
    # tol |a| |b| must give operator_commute's verdict, at any scale
    def matrix_commute(a, b, tol):
        A, B = sym_to_matrix(a), sym_to_matrix(b)
        return float(np.linalg.norm(A @ B - B @ A)) <= tol * norm(a) * norm(b)

    rng = np.random.default_rng(14)
    alg = SymMatrix(3)
    for _ in range(50):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        assert matrix_commute(a, b, 1e-8) == operator_commute(a, b, tol=1e-8)
    frame = spectral_decompose(random_element(alg, rng)).frame
    for eps in (0.0, 1e-14, 1e-3, 1.0):
        for t in (1e-6, 1.0, 1e6):
            a = t * synthesize_from_frame(frame, rng.standard_normal(3), validate=False)
            b = synthesize_from_frame(frame, rng.standard_normal(3), validate=False)
            b = t * (b + eps * random_element(alg, rng))
            verdict = operator_commute(a, b, tol=1e-8)
            assert verdict == matrix_commute(a, b, 1e-8) == (eps <= 1e-14), (eps, t)


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_examples():
    s3 = SymMatrix(3)
    frame = spectral_decompose(unit(s3)).frame
    t = 2.5
    assert norm(synthesize_from_frame(frame, [t, t, t]) - t * unit(s3)) <= 1e-13
    x = synthesize_from_frame(frame, [3.0, 1.0, 2.0])
    np.testing.assert_allclose(sym_to_matrix(x), np.diag([3.0, 1.0, 2.0]), atol=1e-13)
    np.testing.assert_allclose(eigenvalues(x), [3.0, 2.0, 1.0], atol=1e-13)


def test_synthesize_rejects_bad_frame():
    s2 = SymMatrix(2)
    c = diag2(1, 0)
    with pytest.raises(AlgebraError):
        synthesize_from_frame([c, c], [1.0, 2.0])  # duplicated member
    with pytest.raises(AlgebraError):
        synthesize_from_frame([c], [1.0])  # wrong size
    with pytest.raises(AlgebraError):
        synthesize_from_frame(spectral_decompose(unit(s2)).frame, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# automorphisms


def test_automorphisms_fix_unit_and_spectra():
    rng = np.random.default_rng(15)
    for alg in KINDS:
        e = unit(alg)
        for _ in range(25):
            A = random_automorphism(alg, rng)
            x = random_element(alg, rng)
            assert norm(apply_automorphism(A, e) - e) <= 1e-12
            lam_gap = np.max(np.abs(eigenvalues(apply_automorphism(A, x)) - eigenvalues(x)))
            assert lam_gap <= 1e-9 * (1 + norm(x))


def test_automorphisms_preserve_product():
    rng = np.random.default_rng(16)
    for alg in KINDS:
        for _ in range(10):
            A = random_automorphism(alg, rng)
            x = random_element(alg, rng)
            y = random_element(alg, rng)
            lhs = apply_automorphism(A, jordan_product(x, y))
            rhs = jordan_product(apply_automorphism(A, x), apply_automorphism(A, y))
            assert norm(lhs - rhs) <= 1e-9 * (1 + norm(x)) * (1 + norm(y))


def test_product_automorphism_swaps_only_isomorphic_factors():
    rng = np.random.default_rng(18)
    alg = product_algebra(SymMatrix(2), SpinFactor(3))
    for _ in range(20):
        A = random_automorphism(alg, rng)
        _autos, src = A.data
        assert src == (0, 1)  # distinct descriptors never permute
    alg2 = product_algebra(SymMatrix(2), SymMatrix(2))
    seen = set()
    for _ in range(50):
        seen.add(random_automorphism(alg2, rng).data[1])
    assert seen == {(0, 1), (1, 0)}
    # slot i takes the coordinates of factor src[i], one call or a stack
    eye = np.eye(2)
    X = rng.standard_normal((2, alg2.dim))
    swap = Automorphism(alg2, ((eye, eye), (1, 0)))
    close = dict(rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(apply_automorphism(swap, Element(alg2, X[0])).coords, np.roll(X[0], 3), **close)
    stacked = ((np.stack([eye, eye]), np.stack([eye, eye])), np.array([[1, 0], [0, 1]]))
    np.testing.assert_allclose(alg2._apply_auto(stacked, X), [np.roll(X[0], 3), X[1]], **close)


def auto_row(alg, data, r):
    """Trial r of a stack of automorphism data, in the single-call form."""
    if len(alg.factors) == 1:
        return data[r]
    slots, src = data
    return tuple(s[r] for s in slots), tuple(int(i) for i in src[r])


def auto_bytes(alg, data):
    """Single-call automorphism data, compared bit for bit."""
    if len(alg.factors) == 1:
        return data.tobytes()
    slots, src = data
    return tuple(s.tobytes() for s in slots), src


def test_stacked_automorphisms_equal_single_calls(monkeypatch):
    from ejaopt.verify import DEFAULT_KINDS

    haar = algebra_module._haar_orthogonal
    calls = []

    def counted_haar(D, k):
        calls.append(D.shape)
        return haar(D, k)

    monkeypatch.setattr(algebra_module, "_haar_orthogonal", counted_haar)
    # every verify kind, a product whose identical factors trade places
    # while its distinct factor stays put, and one that mixes all three kinds
    mixed = product_algebra(SymMatrix(2), SymMatrix(2), SpinFactor(4))
    five = product_algebra(SymMatrix(3), RealDiagonal(3), SpinFactor(4), RealDiagonal(3), SymMatrix(3))
    for ki, alg in enumerate([alg for _, alg in DEFAULT_KINDS] + [mixed, five]):
        m, lead = 40, 2 * alg.dim
        rng_block = np.random.default_rng([23, ki])
        D = rng_block.standard_normal((m, lead + alg._auto_width))
        calls.clear()
        normals, autos = D[:, :lead], alg._autos_from(D[:, lead:])
        # one stacked QR per SymMatrix or SpinFactor slot, m rows each
        qr_slots = sum(not isinstance(f, RealDiagonal) for f in alg.factors)
        assert len(calls) == qr_slots and all(shape[0] == m for shape in calls), (alg, calls)
        # the block draw is the stream of m trials of lead normals and one
        # random_automorphism call, and leaves the generator where they do
        rng = np.random.default_rng([23, ki])
        singles = []
        for r in range(m):
            assert normals[r].tobytes() == rng.standard_normal(lead).tobytes(), alg
            singles.append(random_automorphism(alg, rng))
            assert auto_bytes(alg, auto_row(alg, autos, r)) == auto_bytes(alg, singles[-1].data), alg
        assert rng_block.bit_generator.state == rng.bit_generator.state, alg
        if alg is mixed:
            assert {auto_row(alg, autos, r)[1] for r in range(m)} == {(0, 1, 2), (1, 0, 2)}
        if alg is five:
            assert len({auto_row(alg, autos, r)[1] for r in range(m)}) > 1
        # a stack of automorphisms applied to a stack: each row has the
        # bits of apply_automorphism
        U = rng.standard_normal((m, alg.dim))
        stacked = alg._apply_auto(autos, U)
        for auto, u, row in zip(singles, U, stacked):
            assert row.tobytes() == apply_automorphism(auto, Element(alg, u)).coords.tobytes(), alg


class CallLog:
    """A Generator that records every draw method called, with its arguments."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def record(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return method(*args, **kwargs)

        return record


def test_random_automorphism_is_one_normal_row():
    for ki, alg in enumerate(KINDS):
        rng, ref = CallLog(np.random.default_rng([26, ki])), np.random.default_rng([26, ki])
        auto = random_automorphism(alg, rng)
        assert rng.calls == [("standard_normal", (alg._auto_width,), {})], alg
        assert auto_bytes(alg, auto.data) == auto_bytes(alg, alg._autos_from(ref.standard_normal(alg._auto_width)))
        assert rng.rng.bit_generator.state == ref.bit_generator.state, alg


def test_random_automorphism_permutations_are_uniform():
    # 6000 permutations of RealDiagonal(3) and 2000 slot orders of
    # SymMatrix(2) x SymMatrix(2): every outcome within 15% of its expected
    # count (more than 5 standard deviations in both cases)
    rng = np.random.default_rng(27)
    diag = RealDiagonal(3)
    counts = {}
    for _ in range(6000):
        perm = tuple(random_automorphism(diag, rng).data.tolist())
        counts[perm] = counts.get(perm, 0) + 1
    assert len(counts) == 6
    assert all(abs(c - 1000) <= 150 for c in counts.values()), counts
    prod = product_algebra(SymMatrix(2), SymMatrix(2))
    orders = [random_automorphism(prod, rng).data[1] for _ in range(2000)]
    assert set(orders) == {(0, 1), (1, 0)}
    assert abs(orders.count((0, 1)) - 1000) <= 150, orders.count((0, 1))


def test_single_haar_draws_keep_their_stream():
    # one QR of an n x n standard normal draw, columns signed by diag(R)
    for alg, k in ((SymMatrix(3), 3), (SpinFactor(5), 4)):
        rng, ref = np.random.default_rng(24), np.random.default_rng(24)
        Q, R = np.linalg.qr(ref.standard_normal((k, k)))
        assert random_automorphism(alg, rng).data.tobytes() == (Q * np.sign(np.diag(R))).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# serialization


def test_serialization_roundtrip():
    rng = np.random.default_rng(19)
    for alg in KINDS:
        assert algebra_from_dict(algebra_to_dict(alg)) == alg
        x = random_element(alg, rng)
        y = element_from_dict(element_to_dict(x))
        assert y.algebra == alg
        assert norm(y - x) <= 1e-15


def test_matrix_loader_symmetrizes():
    doc = {"algebra": {"kind": "sym", "n": 2}, "matrix": [[1.0, 2.0 + 5e-10], [2.0, 3.0]]}
    x = element_from_dict(doc)
    np.testing.assert_allclose(sym_to_matrix(x), [[1.0, 2.0 + 2.5e-10], [2.0 + 2.5e-10, 3.0]])
    bad = {"algebra": {"kind": "sym", "n": 2}, "matrix": [[1.0, 2.0], [0.5, 3.0]]}
    with pytest.raises(AlgebraError):
        element_from_dict(bad)


def test_matrix_loader_asymmetry_check_is_scale_free():
    # relative asymmetry 0.58 is rejected and 1.2e-10 symmetrized at every scale
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    near = np.array([[1.0, 2.0 + 5e-10], [2.0, 3.0]])
    for e in range(-12, 13):
        t = 10.0**e
        with pytest.raises(AlgebraError):
            element_from_dict({"algebra": {"kind": "sym", "n": 2}, "matrix": (t * skew).tolist()})
        x = element_from_dict({"algebra": {"kind": "sym", "n": 2}, "matrix": (t * near).tolist()})
        np.testing.assert_allclose(sym_to_matrix(x), 0.5 * t * (near + near.T), rtol=1e-15)
    for m in ([[0.0, 0.0], [0.0, 0.0]], [[1e-300, 2e-300], [2e-300, 0.0]]):
        x = element_from_dict({"algebra": {"kind": "sym", "n": 2}, "matrix": m})
        np.testing.assert_allclose(sym_to_matrix(x), m, rtol=1e-15, atol=0.0)


def test_bad_documents_raise():
    with pytest.raises(AlgebraError):
        algebra_from_dict({"kind": "octonion", "n": 3})
    with pytest.raises(AlgebraError):
        algebra_from_dict({"n": 3})
    with pytest.raises(AlgebraError):
        element_from_dict({"algebra": {"kind": "sym", "n": 2}})


# ---------------------------------------------------------------------------
# shared half-eigenspace generator (rank >= 2 simple kinds)


def test_half_space_unit_exists_sym_and_spin():
    from ejaopt import rotation_generator

    rng = np.random.default_rng(20)
    for alg in [SymMatrix(3), SpinFactor(4)]:
        frame = spectral_decompose(random_element(alg, rng)).frame
        w = rotation_generator(frame, 0, 1)
        assert abs(inner(w, w) - 2.0) <= 1e-9
        ww = jordan_product(w, w)
        assert norm(ww - (frame[0] + frame[1])) <= 1e-9
        for e in (frame[0], frame[1]):
            assert norm(jordan_product(e, w) - 0.5 * w) <= 1e-9
