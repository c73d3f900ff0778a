import itertools
import math
import warnings

import numpy as np
import pytest

from ejaopt import (
    AlgebraError,
    DomainError,
    InfeasibleError,
    RealDiagonal,
    SpinFactor,
    SymMatrix,
    apply_automorphism,
    builtin,
    condition_report,
    eigenvalues,
    minimize_condition_norm_orbit,
    permutation_oracle,
    phi,
    product_algebra,
    random_automorphism,
    random_element,
    sym_from_matrix,
    t_transform_sample,
    unit,
)
from ejaopt.majorization import majorizes, sort_desc

KINDS = [RealDiagonal(4), SymMatrix(3), SymMatrix(4), SpinFactor(4),
         product_algebra(SymMatrix(2), SymMatrix(2))]


def sample_pos(alg, rng):
    x = random_element(alg, rng)
    smallest = float(np.exp(rng.standard_normal()))
    return x + (smallest - float(eigenvalues(x)[-1])) * unit(alg)


def test_report_unit():
    for alg in KINDS:
        rep = condition_report(unit(alg))
        half = alg.rank // 2
        assert rep.cond == pytest.approx(1.0)
        np.testing.assert_allclose(rep.kappa, np.ones(half))
        assert rep.kappa_norm == pytest.approx(math.sqrt(half))
        assert rep.bounds_ok


def test_report_refuses_rank_1():
    # kappa is empty at rank 1 and floor(n/2)^(-1/2) |kappa| is 0/0; the
    # report once came back with bounds_ok False and a RuntimeWarning
    for alg in (RealDiagonal(1), SymMatrix(1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AlgebraError, match="rank >= 2"):
                condition_report(2.0 * unit(alg))
    assert condition_report(unit(product_algebra(RealDiagonal(1), SymMatrix(1)))).bounds_ok


def test_solver_refuses_rank_1():
    # the solver once certified 0.0 at rank 1, where the report refuses; it
    # refuses the rank before it tests feasibility
    for alg in (RealDiagonal(1), SymMatrix(1)):
        for b in (2.0 * unit(alg), -2.0 * unit(alg)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(AlgebraError, match="rank >= 2"):
                    minimize_condition_norm_orbit(b, unit(alg))
    prod = product_algebra(RealDiagonal(1), SymMatrix(1))
    sol = minimize_condition_norm_orbit(2.0 * unit(prod), unit(prod))
    assert sol.certificate.passed and sol.value == pytest.approx(1.0)


def test_report_explicit_spectrum():
    x = sym_from_matrix(SymMatrix(4), np.diag([4.0, 3.0, 2.0, 1.0]))
    rep = condition_report(x)
    assert rep.cond == pytest.approx(4.0)
    np.testing.assert_allclose(rep.kappa, [4.0, 1.5])
    assert rep.kappa_norm == pytest.approx(math.sqrt(18.25))
    assert rep.bounds_ok


def test_report_kappa_sorted_and_at_least_one():
    rng = np.random.default_rng(0)
    for alg in KINDS:
        for _ in range(50):
            rep = condition_report(sample_pos(alg, rng))
            assert np.all(np.diff(rep.kappa) <= 1e-12)
            assert np.all(rep.kappa >= 1.0 - 1e-12)
            assert rep.kappa[0] == pytest.approx(rep.cond)
            assert rep.bounds_ok


def test_report_rejects_outside_cone():
    with pytest.raises(InfeasibleError):
        condition_report(sym_from_matrix(SymMatrix(2), np.diag([2.0, -1.0])))
    with pytest.raises(InfeasibleError):
        condition_report(sym_from_matrix(SymMatrix(2), np.diag([2.0, 0.0])))


def test_phi_examples():
    np.testing.assert_allclose(phi(np.ones(5)), np.ones(2))
    np.testing.assert_allclose(phi([4.0, 1.0, 3.0, 2.0]), [4.0, 1.5])
    with pytest.raises(DomainError):
        phi([1.0, 0.0])


def test_phi_norm_strictly_increases_along_strict_majorization():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        v = np.exp(rng.standard_normal(n))
        u = v
        for _k in range(int(rng.integers(1, 4))):
            u = t_transform_sample(u, rng)
        verdict = majorizes(v, u, tol=1e-12)
        if not verdict.strict:
            continue
        assert np.linalg.norm(phi(u)) < np.linalg.norm(phi(v))


def test_minimize_worked_instance():
    s2 = SymMatrix(2)
    a = sym_from_matrix(s2, np.diag([3.0, 1.0]))
    b = sym_from_matrix(s2, np.diag([2.0, 1.0]))
    sol = minimize_condition_norm_orbit(b, a)
    # swap pairing gives spectra {3, 4}: value 4/3; aligned pairing gives 5/2
    assert sol.value == pytest.approx(4.0 / 3.0, abs=1e-12)
    pair_vals = []
    for perm in itertools.permutations(range(2)):
        shifted = np.array([2.0, 1.0])[list(perm)] + np.array([3.0, 1.0])
        pair_vals.append(float(np.linalg.norm(phi(shifted))))
    assert sorted(pair_vals) == pytest.approx([4.0 / 3.0, 2.5], abs=1e-12)
    assert sol.certificate.kind == "strong_commute_with_neg_a" and sol.certificate.passed
    np.testing.assert_allclose(eigenvalues(sol.x_star + a), [4.0, 3.0], atol=1e-12)


def test_minimize_singleton_and_unit_shift():
    rng = np.random.default_rng(2)
    alg = SymMatrix(3)
    a = sample_pos(alg, rng)
    t = 2.0
    sol = minimize_condition_norm_orbit(t * unit(alg), a)
    rep = condition_report(a + t * unit(alg))
    assert sol.value == pytest.approx(rep.kappa_norm, abs=1e-10)

    b = sample_pos(alg, rng)
    s = 1.5
    sol = minimize_condition_norm_orbit(b, s * unit(alg))
    assert sol.value == pytest.approx(
        float(np.linalg.norm(phi(eigenvalues(b) + s))), abs=1e-10
    )


def test_minimize_infeasible():
    s2 = SymMatrix(2)
    a = sym_from_matrix(s2, np.diag([3.0, 1.0]))
    b = sym_from_matrix(s2, np.diag([2.0, -1.0]))
    with pytest.raises(InfeasibleError):
        minimize_condition_norm_orbit(b, a)


def test_minimize_matches_oracle():
    rng = np.random.default_rng(3)
    for alg in [SymMatrix(2), SymMatrix(3), SymMatrix(5), SpinFactor(4)]:
        fn = builtin("cond_vector_norm", alg.rank)
        for _ in range(40):
            a = sample_pos(alg, rng)
            b = sample_pos(alg, rng)
            sol = minimize_condition_norm_orbit(b, a)
            lam_neg_a = sort_desc(-eigenvalues(a))
            ref, _ = permutation_oracle(fn, eigenvalues(b), lam_neg_a, "min")
            assert sol.value == pytest.approx(ref, abs=1e-10)
            assert sol.certificate.residuals["inner_gap_neg_a"] <= 1e-9


def test_minimize_beats_random_feasible_points():
    rng = np.random.default_rng(4)
    alg = SymMatrix(4)
    for _ in range(5):
        a = sample_pos(alg, rng)
        b = sample_pos(alg, rng)
        sol = minimize_condition_norm_orbit(b, a)
        for _ in range(50):
            x = apply_automorphism(random_automorphism(alg, rng), b)
            rep = condition_report(x + a)
            assert sol.value <= rep.kappa_norm + 1e-9
