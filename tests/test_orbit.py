import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from ejaopt import (
    AlgebraError,
    DomainError,
    EigenvalueOrbit,
    FiniteSpectralSet,
    InfeasibleError,
    OrbitProblem,
    RealDiagonal,
    SolverError,
    SpinFactor,
    SymMatrix,
    WeakOrbit,
    apply_automorphism,
    builtin,
    certify,
    counterexample_no_strong,
    eigenvalues,
    eval_spectral,
    local_search_orbit,
    minimize_condition_norm_orbit,
    norm,
    operator_commute,
    orbit_components,
    permutation_oracle,
    problem_from_dict,
    product_algebra,
    random_automorphism,
    random_element,
    rotation_curve,
    rotation_generator,
    solve_orbit_global,
    solve_problem,
    spectral_decompose,
    strongly_operator_commute,
    sym_from_matrix,
    sym_to_matrix,
    synthesize_from_frame,
    unit,
    weak_orbit_reps,
    zero,
)
from ejaopt import orbit as orbit_module
from ejaopt.algebra import DEFAULT_TOL, Element, inner, join, split, strong_commutation_gap
from ejaopt.majorization import sort_desc
from ejaopt.orbit import _RotationSearch
from ejaopt.schur import SymmetricFunction, affine_compose

EPS = np.finfo(float).eps
S2 = SymMatrix(2)
SCHATTEN2_2 = builtin("schatten", 2, p=2)


def diag2(a, b):
    return sym_from_matrix(S2, np.diag([float(a), float(b)]))


def sample_pos(alg, rng, floor=None):
    """Element of the open cone with smallest eigenvalue exp-normal."""
    x = random_element(alg, rng)
    smallest = float(np.exp(rng.standard_normal())) if floor is None else floor
    return x + (smallest - float(eigenvalues(x)[-1])) * unit(alg)


def brute_force_best(fn, lam_b, lam_a, sense):
    """Plain-python enumeration, kept independent of permutation_oracle."""
    best = None
    for perm in itertools.permutations(range(len(lam_b))):
        u = np.array([lam_b[i] for i in perm]) - np.asarray(lam_a)
        try:
            val = fn(u)
        except DomainError:
            continue
        if best is None or (val < best if sense == "min" else val > best):
            best = val
    return best


# ---------------------------------------------------------------------------
# permutation oracle


def test_oracle_sqrt2_instance():
    val, perm = permutation_oracle(SCHATTEN2_2, [3.0, 0.0], [2.0, 1.0], "min")
    assert val == pytest.approx(math.sqrt(2.0), abs=1e-14)  # (1, -1)
    assert perm == (0, 1)
    val, perm = permutation_oracle(SCHATTEN2_2, [3.0, 0.0], [2.0, 1.0], "max")
    assert val == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)  # (-2, 2)
    assert perm == (1, 0)


def test_oracle_degenerate_cases():
    fn = builtin("schatten", 3, p=2)
    val, perm = permutation_oracle(fn, [2.0, 1.0, 0.0], [0.0, 0.0, 0.0], "min")
    assert val == pytest.approx(math.sqrt(5.0))
    assert perm == (0, 1, 2)  # all permutations tie; lex-smallest reported
    fn1 = builtin("schatten", 1, p=2)
    val, perm = permutation_oracle(fn1, [4.0], [1.0], "min")
    assert val == pytest.approx(3.0) and perm == (0,)


def test_oracle_matches_independent_enumeration():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        fn = builtin("schatten", n, p=4)
        for _ in range(25):
            lam_b = sort_desc(rng.standard_normal(n))
            lam_a = sort_desc(rng.standard_normal(n))
            val, _ = permutation_oracle(fn, lam_b, lam_a, "min")
            assert val == pytest.approx(brute_force_best(fn, lam_b, lam_a, "min"), abs=1e-12)
            val, _ = permutation_oracle(fn, lam_b, lam_a, "max")
            assert val == pytest.approx(brute_force_best(fn, lam_b, lam_a, "max"), abs=1e-12)


def test_oracle_guards():
    fn = builtin("schatten", 10, p=2)
    with pytest.raises(ValueError):
        permutation_oracle(fn, list(range(10)), list(range(10)), "min")
    pos = builtin("cond_vector_norm", 2)
    # only the identity pairing stays positive: (5-1, 3-2) vs (3-1, 5-2) both ok;
    # shrink until one side dies
    val, perm = permutation_oracle(pos, [5.0, 0.5], [0.4, 0.1], "min")
    assert perm in ((0, 1), (1, 0))
    with pytest.raises(DomainError):
        permutation_oracle(pos, [1.0, 0.5], [2.0, 2.0], "min")


# ---------------------------------------------------------------------------
# closed-form orbit solver


def test_worked_instance_min_max():
    a = diag2(2, 1)
    b = diag2(3, 0)
    smin = solve_orbit_global(OrbitProblem(S2, SCHATTEN2_2, a, EigenvalueOrbit(b), "min"))
    assert smin.value == pytest.approx(math.sqrt(2.0), abs=1e-12)
    np.testing.assert_allclose(sym_to_matrix(smin.x_star), np.diag([3.0, 0.0]), atol=1e-12)
    assert smin.certificate.passed and smin.certificate.kind == "strong_commute_with_a"
    assert smin.iterations == 0

    smax = solve_orbit_global(OrbitProblem(S2, SCHATTEN2_2, a, EigenvalueOrbit(b), "max"))
    assert smax.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    np.testing.assert_allclose(sym_to_matrix(smax.x_star), np.diag([0.0, 3.0]), atol=1e-12)
    assert smax.certificate.passed and smax.certificate.kind == "strong_commute_with_neg_a"


def test_singleton_orbit():
    alg = SymMatrix(3)
    rng = np.random.default_rng(1)
    a = random_element(alg, rng)
    fn = builtin("schatten", 3, p=2)
    b = 2.0 * unit(alg)
    sol = solve_orbit_global(OrbitProblem(alg, fn, a, EigenvalueOrbit(b), "min"))
    assert sol.value == pytest.approx(fn(2.0 - eigenvalues(a)), abs=1e-12)
    assert norm(sol.x_star - b) <= 1e-9


def test_solver_refuses_non_strict_fn():
    fn = builtin("spread", 2)
    with pytest.raises(SolverError):
        solve_orbit_global(OrbitProblem(S2, fn, diag2(2, 1), EigenvalueOrbit(diag2(3, 0)), "min"))


def test_solver_domain_infeasible():
    fn = builtin("cond_vector_norm", 2)
    # lam(b) - lam(a) can go non-positive under some pairing
    with pytest.raises(InfeasibleError):
        solve_orbit_global(OrbitProblem(S2, fn, diag2(2, 1), EigenvalueOrbit(diag2(3, 0)), "min"))


def test_orbit_domain_probe_matches_pairing_enumeration():
    # the single Weyl probe lambda_n(b) - lambda_1(a) must give the verdict
    # of checking every pairing P lam_b - lam_a, also on exact boundaries
    # (quarter-integer spectra hit the domain thresholds exactly)
    from ejaopt import affine_compose
    from ejaopt.orbit import _check_orbit_domain

    rng = np.random.default_rng(41)
    for n in range(1, 8):
        perms = np.array(list(itertools.permutations(range(n))))
        fns = [
            builtin("cond_vector_norm", n),
            builtin("cond_number", n),
            affine_compose(builtin("cond_vector_norm", n), scale=2.0, shift=1.0),
            affine_compose(builtin("cond_number", n), scale=0.5, shift=-0.25),
        ]
        for trial in range(120):
            if trial % 2:
                lam_a = sort_desc(rng.standard_normal(n))
                lam_b = sort_desc(rng.standard_normal(n) + 1.5)
            else:
                lam_a = sort_desc(rng.integers(-6, 7, size=n) / 4.0)
                lam_b = sort_desc(rng.integers(-2, 11, size=n) / 4.0)
            for fn in fns:
                expected = bool(np.all(fn.in_domain(lam_b[perms] - lam_a[None, :])))
                try:
                    _check_orbit_domain(fn, lam_b, lam_a)
                    got = True
                except InfeasibleError:
                    got = False
                assert got == expected, (n, fn.id, lam_b, lam_a)


def test_weak_orbit_domain_probe_is_per_factor():
    # a weak orbit keeps each factor's spectrum on its factor, so the probe
    # pairs lambda_min(b_f) with lambda_max(a_f) factor by factor; an
    # eigenvalue orbit may move b's eigenvalues across factors and keeps
    # the whole-spectrum probe
    def spin3(hi, lo):
        return Element(SpinFactor(3), [0.5 * (hi + lo), 0.5 * (hi - lo), 0.0])

    alg = product_algebra(SymMatrix(2), SpinFactor(3))
    fn = builtin("cond_vector_norm", 4)
    a = join(alg, [diag2(0, 0), spin3(10, 9)])
    b = join(alg, [diag2(2, 2), spin3(20, 19)])
    for sense in ("min", "max"):
        # every x of the weak orbit has lambda(x - a) >= 2
        ref, _assignments = weak_orbit_brute_force(alg, fn, a, b, sense)
        problem = OrbitProblem(alg, fn, a, WeakOrbit(b), sense)
        assert solve_orbit_global(problem).value == pytest.approx(ref, rel=1e-12)
        assert local_search_orbit(problem, b).value == pytest.approx(ref, rel=1e-9)
        with pytest.raises(InfeasibleError):
            solve_orbit_global(OrbitProblem(alg, fn, a, EigenvalueOrbit(b), sense))
        # the spin factor's 9.5 - 10 leaves the domain
        out = join(alg, [diag2(2, 2), spin3(11, 9.5)])
        for run in (solve_orbit_global, lambda p: local_search_orbit(p, out)):
            with pytest.raises(InfeasibleError):
                run(OrbitProblem(alg, fn, a, WeakOrbit(out), sense))
    # identical factors may swap spectra: (1, 1) lands on the factor of (5, 5)
    s22 = product_algebra(SymMatrix(2), SymMatrix(2))
    a = join(s22, [diag2(0, 0), diag2(5, 5)])
    b = join(s22, [diag2(1, 1), diag2(6, 6)])
    fn = builtin("cond_vector_norm", 4)
    for run in (solve_orbit_global, lambda p: local_search_orbit(p, b)):
        with pytest.raises(InfeasibleError):
            run(OrbitProblem(s22, fn, a, WeakOrbit(b), "min"))


def test_pairings_return_the_kept_permutation_rows():
    from ejaopt.orbit import _all_permutations, _pairings

    lam_b, lam_a = np.array([3.0, 1.0, 0.5]), np.array([2.0, 0.25, 0.0])
    # every pairing kept: the cached table itself, not a copy
    perms, vals = _pairings(builtin("squared_norm", 3), lam_b, lam_a)
    assert perms is _all_permutations(3)
    assert vals.tolist() == [float(np.sum((lam_b[list(P)] - lam_a) ** 2)) for P in perms]
    # some pairings outside the domain: the rows kept, in lexicographic order
    fn = builtin("cond_number", 3)
    perms, vals = _pairings(fn, lam_b, lam_a)
    kept = [P for P in itertools.permutations(range(3)) if np.all(lam_b[list(P)] - lam_a > 0)]
    assert perms.tolist() == [list(P) for P in kept]
    assert vals.tolist() == [fn(lam_b[list(P)] - lam_a) for P in kept]


def test_global_matches_oracle_many_kinds():
    rng = np.random.default_rng(2)
    kinds = [SymMatrix(2), SymMatrix(3), SymMatrix(5), SpinFactor(4), RealDiagonal(4),
             product_algebra(SymMatrix(2), SymMatrix(2))]
    fns = [("schatten", {"p": 2}), ("schatten", {"p": 4}), ("squared_norm", {})]
    for alg in kinds:
        for name, params in fns:
            fn = builtin(name, alg.rank, **params)
            for sense in ("min", "max"):
                for _ in range(30):
                    a = random_element(alg, rng)
                    b = random_element(alg, rng)
                    sol = solve_orbit_global(OrbitProblem(alg, fn, a, EigenvalueOrbit(b), sense))
                    ref, _ = permutation_oracle(fn, eigenvalues(b), eigenvalues(a), sense)
                    assert sol.value == pytest.approx(ref, abs=1e-10)
                    assert sol.certificate.passed
                    key = "inner_gap_a" if sense == "min" else "inner_gap_neg_a"
                    assert sol.certificate.residuals[key] <= 1e-9
                    assert eval_spectral(fn, sol.x_star - a) == pytest.approx(sol.value, abs=1e-9)


# ---------------------------------------------------------------------------
# spectral sets


def test_spectral_set_examples():
    a = diag2(2, 1)
    fn = SCHATTEN2_2
    sol = solve_orbit_global(
        OrbitProblem(S2, fn, a, FiniteSpectralSet(((2.0, 1.0),)), "min")
    )
    assert sol.value == pytest.approx(0.0, abs=1e-14)
    assert norm(sol.x_star - a) <= 1e-12

    sol = solve_orbit_global(
        OrbitProblem(S2, fn, a, FiniteSpectralSet(((3.0, 0.0), (2.0, 1.0))), "min")
    )
    assert sol.value == pytest.approx(0.0, abs=1e-14)

    sol = solve_orbit_global(
        OrbitProblem(S2, fn, a, FiniteSpectralSet(((3.0, 0.0), (4.0, 1.0))), "min")
    )
    assert sol.value == pytest.approx(math.sqrt(2.0), abs=1e-12)  # (4,1) scores 2
    np.testing.assert_allclose(eigenvalues(sol.x_star), [3.0, 0.0], atol=1e-12)

    with pytest.raises(InfeasibleError):
        solve_orbit_global(OrbitProblem(S2, fn, a, FiniteSpectralSet(()), "min"))


def test_spectral_set_members_get_sorted():
    fs = FiniteSpectralSet(((0.0, 3.0),))
    assert fs.spectra == ((3.0, 0.0),)


def test_spectral_set_members_must_be_finite():
    # a non-finite member has no point in the algebra, so the closed form
    # and the local search could not agree on the set
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            FiniteSpectralSet(((bad, 1.0, 2.0), (3.0, 2.0, 1.0)))


def test_spectral_set_max_sense():
    a = diag2(2, 1)
    sol = solve_orbit_global(
        OrbitProblem(S2, SCHATTEN2_2, a, FiniteSpectralSet(((3.0, 0.0), (2.0, 1.0))), "max")
    )
    # anti-aligned against lam(-a) = (-1, -2): (3,0) gives (3,0) + (-1,-2)
    # = (2,-2), value 2 sqrt(2); (2,1) gives (1,-1), value sqrt(2)
    assert sol.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# rotation curves


def test_rotation_curve_at_zero_and_pi4():
    frame = spectral_decompose(unit(S2)).frame
    w = rotation_generator(frame, 0, 1)
    x0 = rotation_curve(frame, 0, 1, 3.0, 0.0, w, 0.0)
    np.testing.assert_allclose(sym_to_matrix(x0), np.diag([3.0, 0.0]), atol=1e-13)
    x = rotation_curve(frame, 0, 1, 3.0, 0.0, w, math.pi / 4.0)
    np.testing.assert_allclose(sym_to_matrix(x), [[1.5, 1.5], [1.5, 1.5]], atol=1e-13)
    np.testing.assert_allclose(eigenvalues(x), [3.0, 0.0], atol=1e-13)


def test_rotation_curve_constant_for_equal_coeffs():
    frame = spectral_decompose(unit(S2)).frame
    w = rotation_generator(frame, 0, 1)
    for theta in (0.3, 1.0, -0.7):
        x = rotation_curve(frame, 0, 1, 2.0, 2.0, w, theta)
        np.testing.assert_allclose(sym_to_matrix(x), np.diag([2.0, 2.0]), atol=1e-12)


def test_rotation_curve_stays_on_orbit():
    rng = np.random.default_rng(3)
    for alg in [SymMatrix(3), SpinFactor(5)]:
        x = random_element(alg, rng)
        dec = spectral_decompose(x)
        pairs = [(0, 1)] if alg.rank == 2 else [(0, 1), (0, 2), (1, 2)]
        for (j, k) in pairs:
            w = rotation_generator(dec.frame, j, k)
            for theta in np.linspace(-1.4, 1.4, 9):
                blk = rotation_curve(
                    dec.frame, j, k, dec.eigenvalues[j], dec.eigenvalues[k], w, theta
                )
                rest = sum(
                    (dec.eigenvalues[i] * dec.frame[i] for i in range(alg.rank) if i not in (j, k)),
                    start=0.0 * unit(alg),
                )
                full = rest + blk
                assert np.max(np.abs(eigenvalues(full) - dec.eigenvalues)) <= 1e-9 * (
                    1 + norm(x)
                )


def test_rotation_curve_rejects_bad_w():
    frame = spectral_decompose(unit(S2)).frame
    with pytest.raises(AlgebraError):
        rotation_curve(frame, 0, 1, 1.0, 0.0, unit(S2), 0.1)
    w = rotation_generator(frame, 0, 1)
    with pytest.raises(AlgebraError):
        rotation_curve(frame, 0, 1, 1.0, 0.0, 2.0 * w, 0.1)


def test_rotation_generator_kinds():
    rng = np.random.default_rng(4)
    assert rotation_generator(spectral_decompose(random_element(RealDiagonal(3), rng)).frame, 0, 1) is None
    alg = product_algebra(SymMatrix(2), SymMatrix(2))
    dec = spectral_decompose(random_element(alg, rng))
    # find two members in different factors: supports differ
    from ejaopt.algebra import split

    facs = [int(np.argmax([norm(p) for p in split(c)])) for c in dec.frame]
    j = facs.index(0)
    k = facs.index(1)
    assert rotation_generator(dec.frame, j, k) is None
    same = [i for i in range(4) if facs[i] == 0]
    w = rotation_generator(dec.frame, same[0], same[1])
    assert w is not None
    assert abs(np.dot(w.coords, w.coords) - 2.0) <= 1e-9  # sym block: plain dot


def test_rotation_generator_spin_toward():
    sp = SpinFactor(4)
    rng = np.random.default_rng(5)
    x = random_element(sp, rng)
    a = random_element(sp, rng)
    dec = spectral_decompose(x)
    w = rotation_generator(dec.frame, 0, 1, toward=a)
    # w lies in span(frame axis, a's vector part), orthogonal to the axis
    v = 2.0 * dec.frame[0].coords[1:]
    assert abs(w.coords[0]) <= 1e-14
    assert abs(w.coords[1:] @ v) <= 1e-9
    basis = np.stack([v, a.coords[1:]])
    resid = w.coords[1:] - np.linalg.lstsq(basis.T, w.coords[1:], rcond=None)[0] @ basis
    assert np.linalg.norm(resid) <= 1e-9


def test_rotation_generator_spin_toward_nearly_parallel_shift():
    # one projection of a shift nearly parallel to the frame axis leaves a
    # component along the axis, which rotation_curve rejects
    sp = SpinFactor(5)
    rng = np.random.default_rng(13)
    for _ in range(200):
        dec = spectral_decompose(random_element(sp, rng))
        u = 2.0 * dec.frame[0].coords[1:]
        v = rng.standard_normal(4)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        angle = 10.0 ** rng.uniform(-11.0, -3.0)
        shift = rng.uniform(0.1, 10.0) * (math.cos(angle) * u + math.sin(angle) * v)
        a = Element(sp, np.concatenate([[rng.standard_normal()], shift]))
        w = rotation_generator(dec.frame, 0, 1, toward=a)
        assert abs(w.coords[1:] @ u) <= 1e-14
        rotation_curve(dec.frame, 0, 1, dec.eigenvalues[0], dec.eigenvalues[1], w, 0.4)


def search_frame(st, j, k, toward):
    """The frame of a search state as Elements and the generator of its
    pair (j, k): on SymMatrix those of the state's own eigenvector columns
    Q (q_i q_i^T and q_j q_k^T + q_k q_j^T), on the other kinds the
    state's coordinate rows and rotation_generator pointed toward
    ``toward``."""
    f = st.alg
    if isinstance(f, SymMatrix):
        Q = st.frame
        frame = [sym_from_matrix(f, np.outer(q, q)) for q in Q.T]
        return frame, sym_from_matrix(f, np.outer(Q[:, j], Q[:, k]) + np.outer(Q[:, k], Q[:, j]))
    frame = [Element(f, c) for c in st.frame]
    return frame, rotation_generator(frame, j, k, toward=toward)


def test_search_state_scores_the_rotation_curve():
    # the local search scores and applies each rotation with the formula of
    # rotation_curve, and a step lands on the point it was scored at
    rng = np.random.default_rng(14)
    for alg in (SymMatrix(3), SpinFactor(5), product_algebra(SymMatrix(2), SpinFactor(4))):
        b = random_element(alg, rng)
        a = random_element(alg, rng)
        x = apply_automorphism(random_automorphism(alg, rng), b)
        for xf, af, bf in zip(split(x), split(a), split(b)):
            f = xf.algebra
            scale = 1.0 + norm(xf) + norm(af)
            st = _RotationSearch(f, xf.coords, af.coords, 1.0)
            beta = st.beta
            assert st.pairs
            for j, k in st.pairs:
                frame, w = search_frame(st, j, k, af)
                a_gap, a_w, data = f._search_pair(beta, st.frame, st.a, j, k)
                # the aligning data are <a, e_j> - <a, e_k> and <a, w>
                assert abs(a_gap - (inner(af, frame[j]) - inner(af, frame[k]))) <= 1e-13 * scale**2
                assert abs(a_w - inner(af, w)) <= 1e-13 * scale**2
                _data, lam_at, _aligning = st.rotation(j, k)
                if not isinstance(f, SymMatrix):
                    np.testing.assert_array_equal(data[1][1], w.coords)
                rest = sum(
                    (beta[i] * frame[i] for i in range(f.rank) if i not in (j, k)),
                    start=zero(f),
                )
                for theta in rng.uniform(-1.5, 1.5, size=5):
                    curve = rotation_curve(frame, j, k, beta[j], beta[k], w, theta)
                    expect = eigenvalues(curve + rest - af)
                    assert np.max(np.abs(lam_at(theta) - expect)) <= 1e-12 * scale
                theta = rng.uniform(-1.5, 1.5)
                target = rotation_curve(frame, j, k, beta[j], beta[k], w, theta) + rest
                st.apply(j, k, data, theta)
                moved = st.x_element()
                assert norm(moved - target) <= 1e-12 * scale
                assert np.max(np.abs(eigenvalues(moved) - eigenvalues(bf))) <= 1e-12 * scale
                assert np.max(np.abs(st.lam() - eigenvalues(moved - af))) <= 1e-12 * scale


def test_aligning_step_is_the_line_minimiser_of_squared_norm():
    # For squared_norm, F(x - a) = |x|^2 - 2 <x, a> + |a|^2 and |x| is fixed
    # on the orbit, so the aligning angle, which extremises <x(theta), a>
    # for the sense, minimises the pair's curve objective exactly.  A dense
    # grid over the whole curve (theta and theta + pi give the same point)
    # finds no lower value; the slack covers rounding only (the smallest
    # margin here is 7e-11 relative).  The grid's points are built densely
    # from the state's frame, one row of curve coefficients per angle.
    rng = np.random.default_rng(15)
    grid = np.linspace(-math.pi / 2, math.pi / 2, 2001)[1:-1]
    cc, cs, ss = np.cos(grid) ** 2, np.cos(grid) * np.sin(grid), np.sin(grid) ** 2
    for alg in (SymMatrix(3), SymMatrix(4), SpinFactor(5), product_algebra(SymMatrix(2), SpinFactor(4))):
        for sense, mult in (("min", 1.0), ("max", -1.0)):
            for _ in range(5):
                a = random_element(alg, rng)
                x = random_element(alg, rng)
                for xf, af in zip(split(x), split(a)):
                    f = xf.algebra
                    fn = builtin("squared_norm", f.rank)
                    st = _RotationSearch(f, xf.coords, af.coords, mult)
                    beta = st.beta
                    for j, k in st.pairs:
                        _block, lam_at, (_off, angle) = st.rotation(j, k)
                        aligned = mult * fn(lam_at(angle))
                        frame, w = search_frame(st, j, k, af)
                        rest = sum(beta[i] * frame[i].coords for i in range(f.rank) if i not in (j, k))
                        bj, bk = beta[j], beta[k]
                        rows = np.stack([bj * cc + bk * ss, (bj - bk) * cs, bj * ss + bk * cc], axis=1)
                        block = np.array([frame[j].coords, w.coords, frame[k].coords])
                        on_grid = mult * fn._values(f._eigvals(rest - af.coords + rows @ block))
                        assert aligned <= on_grid.min() + 4 * EPS * abs(aligned), (alg, sense, j, k)


# ---------------------------------------------------------------------------
# local search


def test_local_search_sqrt2_from_random_starts():
    rng = np.random.default_rng(6)
    a = diag2(2, 1)
    b = diag2(3, 0)
    problem = OrbitProblem(S2, SCHATTEN2_2, a, EigenvalueOrbit(b), "min")
    for _ in range(5):
        x0 = apply_automorphism(random_automorphism(S2, rng), b)
        sol = local_search_orbit(problem, x0)
        assert sol.converged
        assert sol.value == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert sol.certificate.passed
        assert norm(sol.x_star - diag2(3, 0)) <= 1e-5


def test_local_search_max_sense():
    rng = np.random.default_rng(7)
    a = diag2(2, 1)
    b = diag2(3, 0)
    problem = OrbitProblem(S2, SCHATTEN2_2, a, EigenvalueOrbit(b), "max")
    x0 = apply_automorphism(random_automorphism(S2, rng), b)
    sol = local_search_orbit(problem, x0)
    assert sol.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    assert sol.certificate.kind == "strong_commute_with_neg_a" and sol.certificate.passed


def test_local_search_max_sense_spin():
    rng = np.random.default_rng(71)
    alg = SpinFactor(4)
    fn = builtin("schatten", 2, p=4)
    for _ in range(5):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(b), "max")
        ref = solve_orbit_global(problem)
        x0 = apply_automorphism(random_automorphism(alg, rng), b)
        sol = local_search_orbit(problem, x0)
        assert sol.converged
        assert sol.value == pytest.approx(ref.value, abs=1e-6)
        assert sol.certificate.residuals["inner_gap_neg_a"] <= 1e-6


def test_local_search_fixed_point():
    a = diag2(2, 1)
    b = diag2(3, 0)
    problem = OrbitProblem(S2, SCHATTEN2_2, a, EigenvalueOrbit(b), "min")
    sol = local_search_orbit(problem, diag2(3, 0))
    assert sol.converged and sol.iterations == 1
    vals = [v for _s, v in sol.trace]
    assert vals[0] == pytest.approx(vals[-1], abs=1e-12)
    assert sol.value == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_local_search_monotone_trace():
    rng = np.random.default_rng(8)
    alg = SymMatrix(3)
    fn = builtin("schatten", 3, p=4)
    a = random_element(alg, rng)
    b = random_element(alg, rng)
    problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(b), "min")
    x0 = apply_automorphism(random_automorphism(alg, rng), b)
    sol = local_search_orbit(problem, x0)
    vals = [v for _s, v in sol.trace]
    assert all(vals[i + 1] <= vals[i] + 1e-11 * (1 + abs(vals[i])) for i in range(len(vals) - 1))


def test_local_search_spin_sweeps_never_raise_the_value():
    # A rotation scored on one axis but applied on another (the rotated
    # axis left unnormalised when scored) let sweeps raise the value.
    for d in (3, 5):
        alg = SpinFactor(d)
        rng = np.random.default_rng([7, d])
        for fn in (builtin("squared_norm", 2), builtin("schatten", 2, p=4)):
            for _ in range(60):
                a = random_element(alg, rng)
                b = random_element(alg, rng)
                x0 = apply_automorphism(random_automorphism(alg, rng), b)
                for sense, mult in (("min", 1.0), ("max", -1.0)):
                    problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(b), sense)
                    vals = [mult * v for _s, v in local_search_orbit(problem, x0).trace]
                    for prev, nxt in zip(vals, vals[1:]):
                        assert nxt <= prev + 1e-13 * (1.0 + abs(prev)), (d, fn.id, sense, vals)


def counting_search(monkeypatch, solver=local_search_orbit):
    """``solver`` with counters: returns run(*args) -> (result, counts) for
    one call of ``solver(*args)``, by default one ``local_search_orbit``
    run, counting its ``SymmetricFunction`` calls, Jacobi solves, LAPACK
    ``eigh`` calls and the orbit module's ``spectral_decompose`` calls."""
    call = SymmetricFunction.__call__
    eigh = SymMatrix._eigh
    lapack_eigh = np.linalg.eigh
    decompose = orbit_module.spectral_decompose
    keys = ("calls", "solves", "eighs", "decomposes")
    counts = dict.fromkeys(keys, 0)

    def counted_call(self, u):
        counts["calls"] += 1
        return call(self, u)

    def counted_eigh(self, mat, want_vectors=True):
        counts["solves"] += 1
        return eigh(self, mat, want_vectors)

    def counted_lapack_eigh(M):
        counts["eighs"] += 1
        return lapack_eigh(M)

    def counted_decompose(x):
        counts["decomposes"] += 1
        return decompose(x)

    monkeypatch.setattr(SymmetricFunction, "__call__", counted_call)
    monkeypatch.setattr(SymMatrix, "_eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "eigh", counted_lapack_eigh)
    monkeypatch.setattr(orbit_module, "spectral_decompose", counted_decompose)

    def run(*args):
        counts.update(dict.fromkeys(keys, 0))
        return solver(*args), dict(counts)

    return run


def search_set(algs=(SymMatrix(3), SymMatrix(4), SpinFactor(5)), seed=31):
    """(problem, start) of the local search's count set: the algebras;
    ``schatten`` p=4 and ``squared_norm``; min and max; three draws of
    (a, b, start) each."""
    rng = np.random.default_rng(seed)
    for alg in algs:
        for fn in (builtin("schatten", alg.rank, p=4), builtin("squared_norm", alg.rank)):
            for sense in ("min", "max"):
                for _ in range(3):
                    a = random_element(alg, rng)
                    b = random_element(alg, rng)
                    x0 = apply_automorphism(random_automorphism(alg, rng), b)
                    yield OrbitProblem(alg, fn, a, EigenvalueOrbit(b), sense), x0


def search_set_counts(monkeypatch):
    """Per-run counts of the local search on its count set, keyed by algebra.
    Every run must converge."""
    run = counting_search(monkeypatch)
    per_kind = {}
    for problem, x0 in search_set():
        sol, counts = run(problem, x0)
        assert sol.converged
        per_kind.setdefault(problem.algebra, []).append(counts)
    return per_kind


def test_local_search_objective_calls_per_run(monkeypatch):
    # Counts, not timings.  The means on this set: 13.00, 29.50 and 4.00
    # objective calls per run, in 3.67, 4.58 and 2.00 sweeps; every pair is
    # scored once per sweep, at its aligning angle, which is the exact line
    # minimiser for squared_norm.  With a Brent line search as the fallback
    # when that step gained nothing (0.08, 0.58 and 0.00 per run) they were
    # 14.08, 34.67 and 4.00.  Line-searching every pair that failed a
    # first-order skip, in 3.75, 4.58 and 2.00 sweeps, made 66.5, 160.0 and
    # 10.08 calls.  Before that, stopping Brent at 1e-10 rad with no polish
    # made 114.4, 286.8 and 12.25 calls; searching every pair as well made
    # 169, 398 and 27.
    runs = [[run["calls"] for run in kind_runs] for kind_runs in search_set_counts(monkeypatch).values()]
    means = [float(np.mean(r)) for r in runs]
    assert all(m <= bound for m, bound in zip(means, (22, 50, 6))), means
    assert np.mean(runs) <= 26, means


def test_local_search_eigensolves_per_run(monkeypatch):
    # A count, on the set of test_local_search_objective_calls_per_run.
    # A SymMatrix run decomposes x0 once, with LAPACK eigh, carries its frame
    # across sweeps, and takes its value from the eigvalsh of its own basis.
    # Jacobi only checks it: lambda(b) and the two operands of certify, 3
    # solves whatever the sweep count.  Decomposing x0 and evaluating
    # F(x* - a) with Jacobi made it 5; refreshing the frame on every sweep
    # but the first made it sweeps + 4.  The frame is carried as eigenvector
    # columns, so no pair rebuilds a rank-one axis.
    def no_axis(self, c):
        raise AssertionError("the local search rebuilt a rank-one axis")

    monkeypatch.setattr(SymMatrix, "_rank_one_axis", no_axis)
    for alg, runs in search_set_counts(monkeypatch).items():
        for run in runs:
            sym = isinstance(alg, SymMatrix)
            assert run["solves"] == (3 if sym else 0), (alg, run)
            assert run["eighs"] == (1 if sym else 0), (alg, run)


def lifted(alg, a, b):
    """b shifted by a multiple of the unit so that every x - a on its orbit
    has positive eigenvalues."""
    return b + float(eigenvalues(a)[0] - eigenvalues(b)[-1] + 1.0) * unit(alg)


def test_closed_form_eigensolves_per_solve(monkeypatch):
    # A count.  A SymMatrix closed-form solve makes 3 Jacobi solves: a with
    # its vectors, lambda(b) and lambda(x*) in the certificate, which takes
    # lambda(a) from a's decomposition.  Solving lambda(a) again in the
    # certificate made 4.
    run = counting_search(monkeypatch, solve_orbit_global)
    rng = np.random.default_rng(51)
    for n in (2, 3, 5):
        alg = SymMatrix(n)
        for fn in (builtin("schatten", n, p=4), builtin("squared_norm", n)):
            for sense in ("min", "max"):
                a = random_element(alg, rng)
                b = random_element(alg, rng)
                sol, counts = run(OrbitProblem(alg, fn, a, EigenvalueOrbit(b), sense))
                assert sol.certificate.passed, (n, fn.id, sense)
                assert counts["solves"] == 3 and counts["decomposes"] == 1, (n, fn.id, sense, counts)


def test_condition_solver_eigensolves_per_solve(monkeypatch):
    # A count: a with its vectors, lambda(b) and lambda(x*) in the
    # certificate, 3 Jacobi solves per SymMatrix solve; it was 4.
    run = counting_search(monkeypatch, minimize_condition_norm_orbit)
    rng = np.random.default_rng(52)
    for n in (2, 3, 5):
        alg = SymMatrix(n)
        for _ in range(3):
            a = random_element(alg, rng)
            b = lifted(alg, -a, random_element(alg, rng))
            sol, counts = run(b, a)
            assert sol.certificate.passed, n
            assert counts["solves"] == 3, (n, counts)


def test_counterexample_decomposes_a_once(monkeypatch):
    # The [b]-wide solve and every placement of every component share one
    # decomposition of a; the [b]-wide solve decomposed a a second time.
    run = counting_search(monkeypatch, counterexample_no_strong)
    rng = np.random.default_rng(53)
    algs = (product_algebra(SymMatrix(2), SymMatrix(2)), product_algebra(SymMatrix(3), SpinFactor(3)), SymMatrix(3))
    for alg in algs:
        fn = builtin("squared_norm", alg.rank)
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        report, counts = run(alg, a, b, fn)
        assert report.components, alg
        assert counts["decomposes"] == 1, (alg, counts)


def test_local_searches_solve_each_operand_once(monkeypatch):
    # A count: N starts of one SymMatrix problem through the multi-start
    # helper make 2 + N Jacobi solves, lambda(b) and lambda(a) once and
    # lambda(x*) per start, and one LAPACK eigh per start; each start
    # solving both again made 3N.  A domain-restricted F makes the same
    # 2 + N: its domain probe reads the members the start check reads and
    # a's factor spectra, so it neither decomposes a nor solves lambda(b)
    # again, as it did through the feasible set's frame-laid spectra (3 + N;
    # each start repeating all three made 5N).
    run = counting_search(monkeypatch, orbit_module._local_searches)
    rng = np.random.default_rng(54)
    for alg in (SymMatrix(3), SymMatrix(4)):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        for fn, orbit_of in (
            (builtin("schatten", alg.rank, p=4), b),
            (builtin("cond_vector_norm", alg.rank), lifted(alg, a, b)),
        ):
            problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(orbit_of), "min")
            for n_starts in (1, 5):
                starts = [apply_automorphism(random_automorphism(alg, rng), orbit_of) for _ in range(n_starts)]
                sols, counts = run(problem, starts)
                assert len(sols) == n_starts and all(sol.converged for sol in sols)
                assert counts["solves"] == 2 + n_starts, (alg, fn.id, n_starts, counts)
                assert counts["eighs"] == n_starts, (alg, fn.id, n_starts, counts)
                assert counts["decomposes"] == 0, (alg, fn.id, n_starts, counts)


def test_local_searches_match_single_runs():
    # Each start of the multi-start helper returns what local_search_orbit
    # returns from it alone: an eigenvalue orbit, a weak orbit and a
    # domain-restricted F on a lifted b.
    rng = np.random.default_rng(55)
    mixed = product_algebra(SymMatrix(3), SpinFactor(3))
    cases = []
    for alg in (SymMatrix(4), SpinFactor(5), mixed):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        cases.append((alg, builtin("schatten", alg.rank, p=4), a, EigenvalueOrbit(b), "min"))
        cases.append((alg, builtin("cond_vector_norm", alg.rank), a, EigenvalueOrbit(lifted(alg, a, b)), "max"))
    a = random_element(mixed, rng)
    b = random_element(mixed, rng)
    cases.append((mixed, builtin("squared_norm", mixed.rank), a, WeakOrbit(b), "min"))
    cases.append((mixed, builtin("cond_vector_norm", mixed.rank), a, WeakOrbit(lifted(mixed, a, b)), "min"))
    for alg, fn, a, feasible, sense in cases:
        problem = OrbitProblem(alg, fn, a, feasible, sense)
        starts = [apply_automorphism(random_automorphism(alg, rng), feasible.b) for _ in range(4)]
        for x0, sol in zip(starts, orbit_module._local_searches(problem, starts), strict=True):
            ref = local_search_orbit(problem, x0)
            case = (alg, fn.id, type(feasible).__name__, sense)
            assert sol.x_star.coords.tobytes() == ref.x_star.coords.tobytes(), case
            assert sol.value == ref.value and sol.trace == ref.trace, case
            assert (sol.iterations, sol.converged) == (ref.iterations, ref.converged), case
            assert sol.certificate == ref.certificate, case


def test_local_search_value_is_the_value_of_its_point():
    # The search reports F at its own spectrum of x* - a (LAPACK eigvalsh in
    # a SymMatrix frame's basis); it must be the value of the point it
    # returns, by the library's eigenvalue map (Jacobi on SymMatrix).  On
    # kinds whose search spectrum is their eigenvalue map it has the same
    # bits.  Cases: the count set, a mixed product and a positive-domain
    # function, with b lifted so that every x - a on the orbit is positive.
    rng = np.random.default_rng(33)
    mixed = product_algebra(SymMatrix(3), SpinFactor(3))
    cases = list(search_set()) + list(search_set((mixed,), seed=34))
    for alg in (SymMatrix(4), SpinFactor(5), mixed):
        fn = builtin("cond_vector_norm", alg.rank)
        for sense in ("min", "max"):
            a = random_element(alg, rng)
            b = lifted(alg, a, random_element(alg, rng))
            x0 = apply_automorphism(random_automorphism(alg, rng), b)
            cases.append((OrbitProblem(alg, fn, a, EigenvalueOrbit(b), sense), x0))
    for problem, x0 in cases:
        sol = local_search_orbit(problem, x0)
        ref = eval_spectral(problem.fn, sol.x_star - problem.a)
        case = (problem.algebra, problem.fn.id, problem.sense)
        assert abs(sol.value - ref) <= 1e-12 * (1.0 + abs(sol.value)), (case, sol.value, ref)
        if problem.algebra == SpinFactor(5):
            assert sol.value == ref, case


def test_local_search_from_the_optimizer_takes_one_certified_sweep():
    # Started at the closed-form optimizer, every pair already passes the
    # first-order certificate and its aligning step gains nothing, so the
    # first sweep ends the search, at the optimizer's value, certified.
    rng = np.random.default_rng(41)
    for alg in (SymMatrix(4), SpinFactor(5), product_algebra(SymMatrix(2), SpinFactor(4))):
        fn = builtin("schatten", alg.rank, p=4)
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        for sense in ("min", "max"):
            problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(b), sense)
            ref = solve_problem(problem)
            sol = local_search_orbit(problem, ref.x_star)
            assert sol.converged and sol.iterations == 1 and sol.certificate.passed
            assert sol.value == pytest.approx(ref.value, rel=1e-12)


def test_local_search_searches_an_anti_ordered_commuting_start():
    # The optimizer of the opposite sense commutes with a, so every pair's
    # first-order term vanishes, but it carries b's eigenvalues in the
    # wrong order: a saddle.  Its pairs' aligning angles are near +-pi/2,
    # where the value drops, so the first sweep's aligning steps leave the
    # saddle.
    rng = np.random.default_rng(42)
    for alg in (SymMatrix(3), SymMatrix(4), SpinFactor(5)):
        fn = builtin("schatten", alg.rank, p=4)
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        for sense, other, mult in (("min", "max", 1.0), ("max", "min", -1.0)):
            problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(b), sense)
            x0 = solve_problem(OrbitProblem(alg, fn, a, EigenvalueOrbit(b), other)).x_star
            sol = local_search_orbit(problem, x0)
            (_s0, v0), (_s1, v1) = sol.trace[:2]
            assert mult * v1 < mult * v0, (alg, sense, sol.trace)
            assert sol.converged and sol.certificate.passed, (alg, sense)
            assert sol.value == pytest.approx(solve_problem(problem).value, rel=1e-9), (alg, sense)


def test_local_search_repeated_eigenvalue_of_b():
    # Pairs between the two frame members of the repeated eigenvalue are
    # never searched; the others still align x with a.
    alg = SymMatrix(3)
    spectrum = sym_from_matrix(alg, np.diag([2.0, 2.0, -1.0]))
    rng = np.random.default_rng(43)
    for fn in (builtin("schatten", 3, p=4), builtin("squared_norm", 3)):
        for sense in ("min", "max"):
            a = random_element(alg, rng)
            b = apply_automorphism(random_automorphism(alg, rng), spectrum)
            problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(b), sense)
            x0 = apply_automorphism(random_automorphism(alg, rng), b)
            sol = local_search_orbit(problem, x0)
            assert sol.converged and sol.certificate.passed, (fn.id, sense)
            assert sol.value == pytest.approx(solve_problem(problem).value, rel=1e-9), (fn.id, sense)


def test_local_search_stops_at_a_zero_optimum():
    # b = a: the min is F(0) = 0, where a value-relative sweep stop would
    # read rounding as progress; a sweep is judged on its own steps, so it
    # stops.  F(x - a) is small there next to |a| |x|, so commutation with a
    # alone must not end a pair's search: the runs reach 1e-9 F(a), and the
    # closed form of b = a + 1e-8 d.  Skipping every pair that commuted with
    # a to 1e-6 left gaps up to 2e-7 F(a) here; searching every pair, and
    # the skip rule, 8e-11 F(a).
    rng = np.random.default_rng(5)
    for alg in (SymMatrix(3), SymMatrix(4), product_algebra(SymMatrix(3), SpinFactor(4))):
        for fn in (builtin("schatten", alg.rank, p=2), builtin("squared_norm", alg.rank)):
            a = random_element(alg, rng)
            floor = 1e-9 * eval_spectral(fn, a)
            for b in (a, a + 1e-8 * random_element(alg, rng)):
                problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(b), "min")
                ref = solve_problem(problem).value
                for _ in range(3):
                    sol = local_search_orbit(problem, apply_automorphism(random_automorphism(alg, rng), b))
                    assert sol.converged and sol.certificate.checks["operator_commute"], (alg, fn.id)
                    assert abs(sol.value - ref) <= floor, (alg, fn.id, sol.value, ref)


def test_local_search_is_scale_free():
    # Scaling a and b by t scales the problem, so every run must converge,
    # certify and meet the closed form at every t.  With (1 + |.|) floors in
    # the sweep stop, the step accept, the tie test of pairs and the spin
    # plane's cut-off, 25 of these 72 runs, all at t <= 1e-6, stopped early:
    # converged, but with a failed certificate and a relative value gap up
    # to 3.1.
    rng = np.random.default_rng(5)
    for alg in (SymMatrix(3), SymMatrix(4), SpinFactor(5)):
        for fn in (builtin("schatten", alg.rank, p=4), builtin("squared_norm", alg.rank)):
            for sense in ("min", "max"):
                a = random_element(alg, rng)
                b = random_element(alg, rng)
                auto = random_automorphism(alg, rng)
                for t in (1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e9):
                    problem = OrbitProblem(alg, fn, t * a, EigenvalueOrbit(t * b), sense)
                    ref = solve_problem(problem).value
                    sol = local_search_orbit(problem, apply_automorphism(auto, t * b))
                    case = (alg, fn.id, sense, t)
                    assert sol.converged and sol.certificate.passed, case
                    assert abs(sol.value - ref) <= 1e-6 * abs(ref), case


def test_local_search_meets_the_closed_form_across_the_catalog():
    # Every strictly Schur-convex catalog function but smoothed_max, on
    # SymMatrix(2..5) and two spin factors, min and max: each run converges,
    # certifies, and meets the closed form.  For cond_vector_norm b is
    # shifted so that every x - a on the orbit is positive definite.
    # (smoothed_max is left out: its max term has kinks, and its min runs
    # miss the closed form on some SymMatrix instances.)
    def catalog(r):
        fns = [builtin("schatten", r, p=p) for p in (1.5, 2, 4, 10)]
        return fns + [builtin(name, r) for name in ("squared_norm", "spread_vector_norm", "cond_vector_norm")]

    for seed in range(3):
        rng = np.random.default_rng(seed)
        for alg in (SymMatrix(2), SymMatrix(3), SymMatrix(4), SymMatrix(5), SpinFactor(3), SpinFactor(5)):
            for fn in catalog(alg.rank):
                for sense in ("min", "max"):
                    a = random_element(alg, rng)
                    b = random_element(alg, rng)
                    if fn.domain == "positive":
                        lift = float(eigenvalues(a)[0] - eigenvalues(b)[-1] + np.exp(rng.standard_normal()))
                        b = b + lift * unit(alg)
                    problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(b), sense)
                    ref = solve_problem(problem).value
                    sol = local_search_orbit(problem, apply_automorphism(random_automorphism(alg, rng), b))
                    case = (seed, alg, fn.id, sense)
                    assert sol.converged and sol.certificate.passed, case
                    assert abs(sol.value - ref) <= 1e-6 * abs(ref), case


def test_local_search_commutes_on_a_flat_valley():
    # On the non-global component of this weak orbit (the automorphism swapped
    # RealDiagonal's entries) F is flat to fourth order in the SymMatrix
    # misalignment, so value-based line searches leave the misalignment at
    # about eps^(1/4).  Ending the sweeps there, 55 of these 100 runs missed
    # operator commutation at DEFAULT_TOL (worst residual 1.3e-4); the exact
    # commutation polish aligns them all.
    alg = product_algebra(SymMatrix(3), RealDiagonal(2))
    fn = builtin("schatten", alg.rank, p=4)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = random_element(alg, rng)
        x0 = apply_automorphism(random_automorphism(alg, rng), a)
        sol = local_search_orbit(OrbitProblem(alg, fn, a, WeakOrbit(a), "min"), x0)
        assert sol.converged and operator_commute(a, sol.x_star), seed


def test_local_search_optimum_of_every_component_commutes():
    # The paper's local theorem: a local optimizer of F(x - a) operator
    # commutes with a.  Each weak-orbit component of [b] in a product holds
    # one local optimum, the component's aligned point; a run started in the
    # component must reach its value and commute with a.  Before the polish
    # 196 of these 200 runs reached the value but missed commutation at
    # DEFAULT_TOL.
    alg = product_algebra(SymMatrix(3), SpinFactor(3))
    for fn in (builtin("schatten", alg.rank, p=4), builtin("squared_norm", alg.rank)):
        for sense in ("min", "max"):
            for seed in range(5):
                rng = np.random.default_rng(seed)
                a = random_element(alg, rng)
                b = random_element(alg, rng)
                problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(b), sense)
                for comp in orbit_components(alg, b):
                    parts = [Element(f, f._canonical(np.asarray(s))) for f, s in zip(alg.factors, comp)]
                    rep = join(alg, parts)
                    # the factors differ, so the weak orbit of rep is the component
                    ref = solve_orbit_global(OrbitProblem(alg, fn, a, WeakOrbit(rep), sense)).value
                    x0 = apply_automorphism(random_automorphism(alg, rng), rep)
                    sol = local_search_orbit(problem, x0)
                    case = (fn.id, sense, seed, comp)
                    assert sol.value == pytest.approx(ref, rel=1e-9), case
                    assert operator_commute(a, sol.x_star), case


def test_local_search_frames_stay_on_the_orbit(monkeypatch):
    # The frames carry across sweeps, rotated in place by every step taken.
    # 50 forced sweeps, each taking the aligning step of every pair, must
    # keep x on the orbit of b, and a SymMatrix state its basis: Q stays
    # orthonormal and B = Q^T A Q, both to a small multiple of eps (at most
    # 7.5 and 2.7 eps here, 17.5 and 4.3 over 120 seeded runs that add
    # SymMatrix(5)).
    monkeypatch.setattr(orbit_module, "_EPS_SWEEP", -math.inf)
    monkeypatch.setattr(orbit_module, "_MAX_SWEEPS", 50)
    states = []
    init = _RotationSearch.__init__

    def recording(st, alg, x, a, sense_mult):
        init(st, alg, x, a, sense_mult)
        states.append((st, a))

    monkeypatch.setattr(_RotationSearch, "__init__", recording)
    rng = np.random.default_rng(44)
    for alg in (SymMatrix(4), product_algebra(SymMatrix(3), SpinFactor(4))):
        fn = builtin("schatten", alg.rank, p=4)
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        x0 = apply_automorphism(random_automorphism(alg, rng), b)
        states.clear()
        sol = local_search_orbit(OrbitProblem(alg, fn, a, EigenvalueOrbit(b), "min"), x0)
        assert sol.iterations == 50 and not sol.converged
        lam_b = eigenvalues(b)
        drift = np.max(np.abs(eigenvalues(sol.x_star) - lam_b))
        assert drift <= 1e-13 * np.max(np.abs(lam_b)), (alg, drift)
        sym = [(st, af) for st, af in states if isinstance(st.alg, SymMatrix)]
        assert len(sym) == 1
        for st, af in sym:
            Q, B = st.frame, st.a
            A = sym_to_matrix(Element(st.alg, af))
            assert np.linalg.norm(Q.T @ Q - np.eye(st.alg.n)) <= 32 * EPS, alg
            assert np.linalg.norm(B - Q.T @ A @ Q) <= 32 * EPS * np.linalg.norm(A), alg


def test_local_search_agrees_with_global():
    rng = np.random.default_rng(9)
    for alg in [SymMatrix(3), SpinFactor(5)]:
        fn = builtin("schatten", alg.rank, p=4)
        for _ in range(3):
            a = random_element(alg, rng)
            b = random_element(alg, rng)
            problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(b), "min")
            ref = solve_orbit_global(problem)
            for _ in range(5):
                x0 = apply_automorphism(random_automorphism(alg, rng), b)
                sol = local_search_orbit(problem, x0)
                assert sol.converged
                assert sol.value == pytest.approx(ref.value, abs=1e-6)
                assert sol.certificate.residuals["inner_gap_a"] <= 1e-6


def test_local_search_sorts_a_diagonal_start_by_transpositions():
    # RealDiagonal has no rotation generator, so each aligning step is a
    # transposition, which sorts x against a (for max, against -a).  From
    # every permutation of b the search meets the closed form and
    # certifies.  When the search could not move on RealDiagonal, 10 of
    # these 12 runs ended where they started, each reported as converged.
    alg = RealDiagonal(3)
    fn = builtin("schatten", 3, p=2)
    a = Element(alg, np.array([1.0, 3.0, 2.0]))
    b = np.array([5.0, -1.0, 2.0])
    for sense in ("min", "max"):
        problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(Element(alg, b)), sense)
        ref = solve_orbit_global(problem)
        for perm in itertools.permutations(range(3)):
            sol = local_search_orbit(problem, Element(alg, b[list(perm)]))
            assert sol.converged and sol.certificate.passed, (sense, perm)
            assert sol.value == pytest.approx(ref.value, rel=1e-12), (sense, perm)


def test_local_search_meets_the_closed_form_on_real_diagonal():
    rng = np.random.default_rng(72)
    for n in range(2, 8):
        alg = RealDiagonal(n)
        fns = (builtin("schatten", n, p=4), builtin("squared_norm", n), builtin("spread_vector_norm", n))
        for fn, sense in itertools.product(fns, ("min", "max")):
            for _ in range(3):
                a = random_element(alg, rng)
                b = random_element(alg, rng)
                problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(b), sense)
                x0 = apply_automorphism(random_automorphism(alg, rng), b)
                sol = local_search_orbit(problem, x0)
                assert sol.converged and sol.certificate.passed, (n, fn.id, sense)
                assert sol.value == pytest.approx(solve_orbit_global(problem).value, rel=1e-12), (n, fn.id, sense)


def test_local_search_sweep_cap_flag(monkeypatch):
    monkeypatch.setattr(orbit_module, "_MAX_SWEEPS", 1)
    rng = np.random.default_rng(10)
    alg = SymMatrix(3)
    fn = builtin("schatten", 3, p=4)
    a = random_element(alg, rng)
    b = random_element(alg, rng)
    problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(b), "min")
    x0 = apply_automorphism(random_automorphism(alg, rng), b)
    sol = local_search_orbit(problem, x0)
    assert sol.iterations == 1
    if not sol.converged:
        assert sol.value >= solve_orbit_global(problem).value - 1e-9


def test_local_search_rejects_off_orbit_start():
    problem = OrbitProblem(S2, SCHATTEN2_2, diag2(2, 1), EigenvalueOrbit(diag2(3, 0)), "min")
    with pytest.raises(InfeasibleError):
        local_search_orbit(problem, diag2(5, 0))
    # same spectrum, other algebra
    with pytest.raises(SolverError):
        local_search_orbit(problem, Element(RealDiagonal(2), np.array([3.0, 0.0])))
    # the orbit check is relative to the scale of b: at small scale an
    # unrelated start is rejected and an automorphism of b still converges
    alg = SymMatrix(3)
    for t in (1e-9, 1e-12):
        rng = np.random.default_rng(3)
        a, b, c = (t * random_element(alg, rng) for _ in range(3))
        problem = OrbitProblem(alg, builtin("schatten", 3, p=4), a, EigenvalueOrbit(b), "min")
        with pytest.raises(InfeasibleError):
            local_search_orbit(problem, c)
        sol = local_search_orbit(problem, apply_automorphism(random_automorphism(alg, rng), b))
        assert sol.converged
        assert sol.value == pytest.approx(solve_orbit_global(problem).value, rel=1e-6)
    zero_orbit = OrbitProblem(alg, builtin("schatten", 3, p=4), a, EigenvalueOrbit(zero(alg)), "min")
    with pytest.raises(InfeasibleError):
        local_search_orbit(zero_orbit, 1e-300 * unit(alg))


def test_local_search_rejects_a_start_outside_the_weak_orbit():
    # x0 has b's merged spectrum but another weak-orbit component: its
    # factors hold (4, 3) and (2, 1), where b's hold (4, 1) and (3, 2).  A
    # merged-spectrum check accepted it, and the run reported 20.18, below
    # the weak orbit's global minimum 22.38, converged and certified.
    s22 = product_algebra(S2, S2)
    a = join(s22, [diag2(1, 0.5), diag2(0.2, -0.3)])
    b = join(s22, [diag2(4, 1), diag2(3, 2)])
    problem = OrbitProblem(s22, builtin("squared_norm", 4), a, WeakOrbit(b), "min")
    assert solve_orbit_global(problem).value == pytest.approx(22.38, rel=1e-12)
    with pytest.raises(InfeasibleError):
        local_search_orbit(problem, join(s22, [diag2(4, 3), diag2(2, 1)]))
    # identical factors may swap their spectra: the swapped assignment is in
    # the weak orbit, and the search from it meets the closed form
    sol = local_search_orbit(problem, join(s22, [diag2(3, 2), diag2(4, 1)]))
    assert sol.converged
    assert sol.value == pytest.approx(22.38, rel=1e-9)
    assert sol.certificate.checks["operator_commute"]


def on_member(alg, rng, member):
    """A point with eigenvalues ``member`` on a random Jordan frame."""
    frame = spectral_decompose(random_element(alg, rng)).frame
    return synthesize_from_frame(frame, np.asarray(member, dtype=float))


def test_local_search_on_a_spectral_set():
    # A start on a member's orbit searches that orbit: it meets the closed
    # form of the set holding that member alone and certifies.
    rng = np.random.default_rng(71)
    for alg in (SymMatrix(3), SpinFactor(4)):
        fn = builtin("schatten", alg.rank, p=4)
        a = random_element(alg, rng)
        members = tuple(tuple(sort_desc(rng.standard_normal(alg.rank))) for _ in range(3))
        for sense in ("min", "max"):
            problem = OrbitProblem(alg, fn, a, FiniteSpectralSet(members), sense)
            for member in members:
                ref = solve_orbit_global(OrbitProblem(alg, fn, a, FiniteSpectralSet((member,)), sense))
                sol = local_search_orbit(problem, on_member(alg, rng, member))
                assert sol.converged, (alg, sense, member)
                assert sol.value == pytest.approx(ref.value, rel=1e-9, abs=1e-12), (alg, sense, member)
                assert sol.certificate.passed, (alg, sense, member)
        off = sort_desc(rng.standard_normal(alg.rank))
        with pytest.raises(InfeasibleError):
            local_search_orbit(problem, on_member(alg, rng, off))
    # the errors of the closed form
    b = diag2(3, 0)
    with pytest.raises(InfeasibleError):
        local_search_orbit(OrbitProblem(S2, SCHATTEN2_2, diag2(2, 1), FiniteSpectralSet(()), "min"), b)
    with pytest.raises(SolverError):
        local_search_orbit(OrbitProblem(S2, SCHATTEN2_2, diag2(2, 1), FiniteSpectralSet(((3.0, 0.0, 1.0),)), "min"), b)


def test_local_search_on_a_product_spectral_set_stays_in_its_component():
    # A spectral-set member's orbit on a product spans several weak-orbit
    # components; the search keeps each factor's spectrum, so it optimizes
    # over its start's component only, at or above the set's optimum.
    alg = product_algebra(SymMatrix(3), SpinFactor(3))
    fn = builtin("squared_norm", alg.rank)
    rng = np.random.default_rng(72)
    a = random_element(alg, rng)
    member = (5.0, 3.0, 1.0, -1.0, -4.0)
    problem = OrbitProblem(alg, fn, a, FiniteSpectralSet((member,)), "min")
    best = solve_orbit_global(problem).value
    values = []
    for spin in ((5.0, -4.0), (3.0, 1.0), (-1.0, -4.0)):
        sym = [v for v in member if v not in spin]
        x0 = join(alg, [on_member(SymMatrix(3), rng, sym), on_member(SpinFactor(3), rng, spin)])
        sol = local_search_orbit(problem, x0)
        assert sol.converged, spin
        for part, ref in zip(split(sol.x_star), (sym, spin)):
            np.testing.assert_allclose(eigenvalues(part), ref, atol=1e-9)
        assert sol.value >= best - 1e-9 * abs(best), spin
        # a local optimizer over the set: the paper's local theorem holds
        assert sol.certificate.checks["operator_commute"], spin
        values.append(sol.value)
    # the components differ, so not every start can reach the set's optimum
    assert max(values) > best + 1e-3 * abs(best)


def test_local_search_mixed_product_and_weak_orbit_feasible():
    alg = product_algebra(RealDiagonal(2), SpinFactor(4), SymMatrix(3))
    fn = builtin("schatten", alg.rank, p=2)
    rng = np.random.default_rng(70)
    a = random_element(alg, rng)
    b = random_element(alg, rng)
    problem = OrbitProblem(alg, fn, a, WeakOrbit(b), "min")
    ref = solve_orbit_global(problem)
    x0 = apply_automorphism(random_automorphism(alg, rng), b)
    sol = local_search_orbit(problem, x0)
    assert sol.converged
    assert sol.certificate.checks["operator_commute"]
    # the diagonal factor steps by transpositions, the other two by
    # rotations, and no two factors are identical, so the weak orbit is one
    # component and the search meets the closed form
    assert sol.value == pytest.approx(ref.value, abs=1e-6)


def test_local_search_on_product_stays_in_component():
    s2 = SymMatrix(2)
    alg = product_algebra(s2, s2)
    from ejaopt.algebra import join

    a = join(alg, [diag2(4, 3), diag2(2, 1)])
    b = join(alg, [diag2(4, 1), diag2(3, 2)])
    fn = builtin("schatten", 4, p=2)
    problem = OrbitProblem(alg, fn, a, EigenvalueOrbit(b), "min")
    rng = np.random.default_rng(11)
    for _ in range(5):
        x0 = apply_automorphism(random_automorphism(alg, rng), b)
        sol = local_search_orbit(problem, x0)
        assert sol.converged
        # confined to b's weak-orbit component: sqrt(6), not the orbit-wide 0
        assert sol.value == pytest.approx(math.sqrt(6.0), abs=1e-6)
        assert sol.certificate.checks["operator_commute"]
        assert not sol.certificate.checks["strong_commute_with_a"]


# ---------------------------------------------------------------------------
# certificates


def test_certify_aligned_and_anti_aligned():
    rng = np.random.default_rng(12)
    alg = SymMatrix(4)
    dec = spectral_decompose(random_element(alg, rng))
    lam_b = sort_desc(rng.standard_normal(4))
    aligned = synthesize_from_frame(dec.frame, lam_b, validate=False)
    anti = synthesize_from_frame(dec.frame, lam_b[::-1], validate=False)
    a = synthesize_from_frame(dec.frame, dec.eigenvalues, validate=False)

    cert = certify(a, aligned, "min")
    assert cert.passed and cert.checks["operator_commute"]
    cert = certify(a, anti, "min")
    assert not cert.passed
    assert cert.checks["operator_commute"]
    assert cert.checks["strong_commute_with_neg_a"]


def test_certify_eigensolves_once_per_operand(monkeypatch):
    alg = SymMatrix(4)
    rng = np.random.default_rng(14)
    eigvals = SymMatrix._eigvals
    calls = []

    def counted(self, u):
        calls.append(1)
        return eigvals(self, u)

    monkeypatch.setattr(SymMatrix, "_eigvals", counted)
    for sense in ("min", "max"):
        a = random_element(alg, rng)
        x = random_element(alg, rng)
        calls.clear()
        certify(a, x, sense)
        assert len(calls) == 2


def test_certify_gaps_equal_strong_commutation_gap():
    # lambda(-a) = -lambda(a) reversed holds exactly in floating point, so
    # the shortcut reports the same bits as the direct evaluation
    rng = np.random.default_rng(15)
    algs = (SymMatrix(4), SpinFactor(5), RealDiagonal(3), product_algebra(SymMatrix(2), SpinFactor(3)))
    for alg in algs:
        for _ in range(10):
            a = random_element(alg, rng)
            dec = spectral_decompose(a)
            aligned = synthesize_from_frame(dec.frame, sort_desc(rng.standard_normal(alg.rank)), validate=False)
            for x in (random_element(alg, rng), aligned):
                cert = certify(a, x, "max")
                assert cert.residuals["inner_gap_a"] == strong_commutation_gap(a, x)
                assert cert.residuals["inner_gap_neg_a"] == strong_commutation_gap(-a, x)


def test_certify_verdicts_do_not_depend_on_scale():
    # every residual is bilinear in (a, x) and so is the threshold: scaling
    # both operands by t leaves each verdict as it is at t = 1, in certify
    # and in both public predicates
    rng = np.random.default_rng(16)
    frame = spectral_decompose(random_element(SymMatrix(3), rng)).frame
    diag = [Element(RealDiagonal(3), np.eye(3)[i]) for i in range(3)]
    lam = np.array([3.0, 2.0, 1.0])
    generic = (random_element(SymMatrix(3), rng), random_element(SymMatrix(3), rng))
    for t in 10.0 ** np.arange(-12, 13):
        for fr in (diag, frame):
            a = synthesize_from_frame(fr, t * lam, validate=False)
            aligned = synthesize_from_frame(fr, t * lam, validate=False)
            anti = synthesize_from_frame(fr, t * lam[::-1], validate=False)
            assert certify(a, aligned, "min").passed, t
            cert = certify(a, anti, "min")
            assert not cert.passed, (t, cert.residuals)
            assert cert.checks["operator_commute"] and cert.checks["strong_commute_with_neg_a"], t
            assert certify(a, anti, "max").passed, t
            assert operator_commute(a, aligned) and operator_commute(a, anti), t
            assert strongly_operator_commute(a, aligned), t
            assert not strongly_operator_commute(a, anti), t
        g0, g1 = t * generic[0], t * generic[1]
        cert = certify(g0, g1, "min")
        assert not any(cert.checks.values()), (t, cert.residuals)
        assert not operator_commute(g0, g1) and not strongly_operator_commute(g0, g1), t


def premise_elements(rng, count=30):
    """(algebra, element) pairs over verify's default kinds and a mixed
    product: random elements, zero, the unit, and integer spectra with
    repeated eigenvalues on a random frame."""
    from ejaopt.verify import DEFAULT_KINDS

    for alg in [alg for _label, alg in DEFAULT_KINDS] + [product_algebra(SymMatrix(3), SpinFactor(3))]:
        for _ in range(count):
            yield alg, random_element(alg, rng)
        yield alg, zero(alg)
        yield alg, unit(alg)
        for _ in range(count // 3):
            frame = spectral_decompose(random_element(alg, rng)).frame
            yield alg, synthesize_from_frame(frame, sort_desc(rng.integers(-2, 3, alg.rank).astype(float)))


def test_decomposed_eigenvalues_are_the_eigenvalue_map():
    # The premise that lets a solver certify with the eigenvalues of the
    # decomposition of a it already holds: they have the bits of
    # eigenvalues(a), so solving lambda(a) again checked nothing.
    rng = np.random.default_rng(17)
    for alg, a in premise_elements(rng):
        assert spectral_decompose(a).eigenvalues.tobytes() == eigenvalues(a).tobytes(), (alg, a.coords)


def test_certify_with_a_callers_eigenvalues_is_certify():
    # certify and its private route, given lambda(a) by eigenvalues(a) or by
    # a's decomposition, report the same residuals and checks, on random
    # pairs and on pairs that commute.
    rng = np.random.default_rng(18)
    for alg, a in premise_elements(rng, count=10):
        frame = spectral_decompose(a).frame
        aligned = synthesize_from_frame(frame, sort_desc(rng.standard_normal(alg.rank)), validate=False)
        for x in (random_element(alg, rng), aligned):
            for sense in ("min", "max"):
                ref = certify(a, x, sense)
                for lam_a in (eigenvalues(a), spectral_decompose(a).eigenvalues):
                    cert = orbit_module._certify(a, x, sense, DEFAULT_TOL, lam_a)
                    assert cert.residuals == ref.residuals and cert.checks == ref.checks, (alg, sense)
                    assert cert == ref


def test_certify_generic_pair_fails_everything():
    rng = np.random.default_rng(13)
    alg = SymMatrix(3)
    for _ in range(20):
        a = random_element(alg, rng)
        x = random_element(alg, rng)
        cert = certify(a, x, "min")
        assert not any(cert.checks.values())
        assert cert.residuals["commutator_norm"] > 0.01


# ---------------------------------------------------------------------------
# weak orbits, components, counterexample


def test_weak_orbit_reps_two_assignments():
    s2 = SymMatrix(2)
    alg = product_algebra(s2, s2)
    from ejaopt.algebra import join

    b = join(alg, [diag2(4, 1), diag2(3, 2)])
    reps = weak_orbit_reps(alg, b)
    assert len(reps) == 2
    got = set()
    for r in reps:
        from ejaopt.algebra import split

        got.add(tuple(tuple(np.round(eigenvalues(p), 9)) for p in split(r)))
    assert got == {((4.0, 1.0), (3.0, 2.0)), ((3.0, 2.0), (4.0, 1.0))}


def test_weak_orbit_reps_identical_spectra_and_simple():
    s2 = SymMatrix(2)
    alg = product_algebra(s2, s2)
    from ejaopt.algebra import join

    b = join(alg, [diag2(2, 1), diag2(2, 1)])
    assert len(weak_orbit_reps(alg, b)) == 1
    b3 = sym_from_matrix(SymMatrix(3), np.diag([3.0, 2.0, 1.0]))
    assert weak_orbit_reps(SymMatrix(3), b3) == [b3]


def test_orbit_components_count():
    s2 = SymMatrix(2)
    alg = product_algebra(s2, s2)
    from ejaopt.algebra import join

    b = join(alg, [diag2(4, 1), diag2(3, 2)])
    comps = orbit_components(alg, b)
    assert len(comps) == 3
    keys = {tuple(sorted(c)) for c in comps}
    assert keys == {
        (((2.0, 1.0)), ((4.0, 3.0))),
        (((3.0, 1.0)), ((4.0, 2.0))),
        (((3.0, 2.0)), ((4.0, 1.0))),
    }


def test_solve_weak_orbit_global_product():
    s2 = SymMatrix(2)
    alg = product_algebra(s2, s2)
    from ejaopt.algebra import join

    a = join(alg, [diag2(4, 3), diag2(2, 1)])
    b = join(alg, [diag2(4, 1), diag2(3, 2)])
    fn = builtin("schatten", 4, p=2)
    problem = OrbitProblem(alg, fn, a, WeakOrbit(b), "min")
    sol = solve_orbit_global(problem)
    assert sol.value == pytest.approx(math.sqrt(6.0), abs=1e-12)
    # solve_problem is the same solver
    other = solve_problem(problem)
    assert other.value == sol.value
    assert np.array_equal(other.x_star.coords, sol.x_star.coords)
    # orbit-wide (spectral set) minimum is strictly better
    full = solve_orbit_global(OrbitProblem(alg, fn, a, EigenvalueOrbit(b), "min"))
    assert full.value == pytest.approx(0.0, abs=1e-12)


def weak_orbit_brute_force(alg, fn, a, b, sense):
    """Optimum of f(x - a) over the weak orbit of b, by enumerating every
    ordered assignment of b's factor spectra (a factor takes the spectrum of
    a factor with the same descriptor) and every per-factor permutation of
    it against that factor's eigenvalues of a; also the assignments."""
    b_specs = [tuple(eigenvalues(p)) for p in split(b)]
    a_specs = [eigenvalues(p) for p in split(a)]
    assignments = {
        tuple(b_specs[i] for i in order)
        for order in itertools.permutations(range(len(alg.factors)))
        if all(alg.factors[i] == f for i, f in zip(order, alg.factors))
    }
    values = [
        fn(np.concatenate([np.asarray(p) - la for p, la in zip(perms, a_specs)]))
        for assignment in assignments
        for perms in itertools.product(*(itertools.permutations(s) for s in assignment))
    ]
    return (min(values) if sense == "min" else max(values)), assignments


def test_product_weak_orbit_matches_brute_force():
    # Independent of the frame layout of the solver: enumerate every ordered
    # assignment of b's factor spectra (a factor takes the spectrum of a
    # factor with the same descriptor) and every per-factor permutation of
    # it against that factor's eigenvalues of a.  a = t e and an a with ties
    # across factors make assignments tie in value.
    rng = np.random.default_rng(31)
    s2 = SymMatrix(2)
    algs = (
        product_algebra(s2, s2, RealDiagonal(2)),
        product_algebra(SymMatrix(3), SpinFactor(3)),
        product_algebra(SpinFactor(4), s2, SpinFactor(4)),
    )
    for alg in algs:
        n = alg.rank
        fns = (builtin("schatten", n, p=2), builtin("schatten", n, p=3.5), builtin("squared_norm", n))
        tied = join(alg, [Element(f, f._canonical(np.linspace(1.0, 0.0, f.rank))) for f in alg.factors])
        shifts = (1.7 * unit(alg), tied, random_element(alg, rng))
        for a, fn, sense, _ in itertools.product(shifts, fns, ("min", "max"), range(2)):
            b = random_element(alg, rng)
            ref, assignments = weak_orbit_brute_force(alg, fn, a, b, sense)
            sol = solve_orbit_global(OrbitProblem(alg, fn, a, WeakOrbit(b), sense))
            case = (alg, fn.id, sense)
            assert sol.value == pytest.approx(ref, rel=1e-12, abs=1e-12), case
            x_specs = [eigenvalues(p) for p in split(sol.x_star)]
            assert any(
                all(np.allclose(xs, bs, rtol=0, atol=1e-12) for xs, bs in zip(x_specs, assignment))
                for assignment in assignments
            ), case
            assert operator_commute(a, sol.x_star), case


def test_counterexample_reference_instance():
    s2 = SymMatrix(2)
    alg = product_algebra(s2, s2)
    from ejaopt.algebra import join

    a = join(alg, [diag2(4, 3), diag2(2, 1)])
    b = join(alg, [diag2(4, 1), diag2(3, 2)])
    fn = builtin("schatten", 4, p=2)
    rep = counterexample_no_strong(alg, a, b, fn)
    assert not rep.degenerate
    assert len(rep.components) == 3
    b_comp = next(c for c in rep.components if c.contains_b)
    assert rep.b_component_value == pytest.approx(math.sqrt(6.0), abs=1e-12)
    assert rep.b_component_value > 0.5
    assert not b_comp.any_strong_commute
    assert b_comp.certificate.residuals["inner_gap_a"] > 0.5
    assert b_comp.certificate.checks["operator_commute"]
    assert rep.spectral_set_solution.value == pytest.approx(0.0, abs=1e-12)
    assert norm(rep.spectral_set_solution.x_star - a) <= 1e-9
    assert rep.is_counterexample
    # component values: 0 (a's own), sqrt(2), sqrt(6)
    vals = sorted(c.value for c in rep.components)
    assert vals == pytest.approx([0.0, math.sqrt(2.0), math.sqrt(6.0)], abs=1e-12)


def test_counterexample_verdict_is_scale_free():
    # scaling a and b by t scales the gap by t (degree 1 or 2): the verdict
    # must not change, and b = a is never a counterexample
    s2 = SymMatrix(2)
    alg = product_algebra(s2, s2)
    from ejaopt.algebra import join

    a = join(alg, [diag2(4, 3), diag2(2, 1)])
    b = join(alg, [diag2(4, 1), diag2(3, 2)])
    for fn in (builtin("squared_norm", 4), builtin("schatten", 4, p=2)):
        for t in (1.0, 1e-6, 1e-12):
            assert counterexample_no_strong(alg, t * a, t * b, fn).is_counterexample
            assert not counterexample_no_strong(alg, t * a, t * a, fn).is_counterexample


def test_counterexample_a_equals_b_is_not_one():
    s2 = SymMatrix(2)
    alg = product_algebra(s2, s2)
    from ejaopt.algebra import join

    a = join(alg, [diag2(4, 1), diag2(3, 2)])
    rep = counterexample_no_strong(alg, a, a, builtin("schatten", 4, p=2))
    b_comp = next(c for c in rep.components if c.contains_b)
    assert rep.b_component_value == pytest.approx(0.0, abs=1e-12)
    assert b_comp.any_strong_commute
    assert not rep.is_counterexample


def test_counterexample_simple_algebra_degenerates():
    # one factor: the single component is [b] itself, solved bit for bit
    # like the eigenvalue orbit
    rng = np.random.default_rng(14)
    for alg in (SymMatrix(3), RealDiagonal(3), SpinFactor(5)):
        a, b = random_element(alg, rng), random_element(alg, rng)
        fn = builtin("schatten", alg.rank, p=2)
        rep = counterexample_no_strong(alg, a, b, fn)
        assert rep.degenerate and not rep.is_counterexample
        assert rep.gap == 0.0
        (comp,) = rep.components
        full = solve_orbit_global(OrbitProblem(alg, fn, a, EigenvalueOrbit(b), "min"))
        assert comp.contains_b and comp.value == full.value == rep.b_component_value
        assert np.array_equal(comp.optimizer.coords, full.x_star.coords)
        assert comp.certificate.residuals == full.certificate.residuals


def test_weak_orbit_of_one_factor_algebra_is_the_eigenvalue_orbit():
    # a one-factor weak orbit places its single assignment on a's frame,
    # which must do exactly the arithmetic of the eigenvalue orbit
    rng = np.random.default_rng(22)
    algs = (RealDiagonal(1), RealDiagonal(3), SymMatrix(1), SymMatrix(2), SymMatrix(4),
            SpinFactor(3), SpinFactor(6))
    for alg in algs:
        n = alg.rank
        cond = builtin("cond_vector_norm", n)
        fns = (builtin("schatten", n, p=2), builtin("schatten", n, p=3.5),
               builtin("squared_norm", n), builtin("spread_vector_norm", n),
               cond, affine_compose(cond, scale=2.0, shift=0.5))
        for fn, sense, _ in itertools.product(fns, ("min", "max"), range(3)):
            a = random_element(alg, rng)
            # lambda_n(b) > |a| >= lambda_1(a): every x - a is positive
            b = sample_pos(alg, rng) + norm(a) * unit(alg)
            weak = solve_orbit_global(OrbitProblem(alg, fn, a, WeakOrbit(b), sense))
            full = solve_orbit_global(OrbitProblem(alg, fn, a, EigenvalueOrbit(b), sense))
            assert weak.value == full.value, (alg, fn.id, sense)
            assert np.array_equal(weak.x_star.coords, full.x_star.coords)
            assert weak.certificate.residuals == full.certificate.residuals


# ---------------------------------------------------------------------------
# problem files


def test_problem_from_dict_and_solve():
    doc = {
        "algebra": {"kind": "sym", "n": 2},
        "fn": {"fn": "schatten", "p": 2},
        "a": {"matrix": [[2.0, 0.0], [0.0, 1.0]]},
        "feasible": {"orbit_of": {"matrix": [[3.0, 0.0], [0.0, 0.0]]}},
        "sense": "min",
    }
    problem = problem_from_dict(doc)
    sol = solve_problem(problem)
    assert sol.value == pytest.approx(math.sqrt(2.0), abs=1e-12)

    doc["feasible"] = {"spectral_set": [[2.0, 1.0]]}
    assert solve_problem(problem_from_dict(doc)).value == pytest.approx(0.0, abs=1e-13)

    doc["feasible"] = {"weak_orbit_of": {"matrix": [[3.0, 0.0], [0.0, 0.0]]}}
    assert solve_problem(problem_from_dict(doc)).value == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_unknown_feasible_set_type_is_a_solver_error():
    # an object with a ``b`` looks like an orbit but is no feasible set type
    @dataclass(frozen=True)
    class Ball:
        b: Element

    b = diag2(3, 0)
    for run in (solve_problem, lambda problem: local_search_orbit(problem, b)):
        with pytest.raises(SolverError, match="unknown feasible set type Ball"):
            run(OrbitProblem(S2, SCHATTEN2_2, diag2(2, 1), Ball(b), "min"))


def test_problem_from_dict_malformed():
    with pytest.raises(ValueError):
        problem_from_dict({"algebra": {"kind": "sym", "n": 2}})
    with pytest.raises(ValueError):
        problem_from_dict(
            {
                "algebra": {"kind": "sym", "n": 2},
                "fn": {"fn": "schatten", "p": 2},
                "a": {"coords": [1.0, 2.0, 0.0]},
                "feasible": {"nonsense": 1},
            }
        )
