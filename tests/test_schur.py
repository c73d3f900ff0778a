import math

import numpy as np
import pytest

from ejaopt import (
    DomainError,
    RealDiagonal,
    SpinFactor,
    SymMatrix,
    affine_compose,
    apply_automorphism,
    builtin,
    check_strict_schur_convex,
    eval_spectral,
    majorizes,
    random_automorphism,
    random_element,
    sym_from_matrix,
)
import ejaopt.schur as schur_module
from ejaopt.schur import SCHUR_CONVEX, STRICTLY_SCHUR_CONVEX, phi_ratios

ALL_BUILTINS = [
    ("schatten", {"p": 2}),
    ("schatten", {"p": 4}),
    ("squared_norm", {}),
    ("cond_number", {}),
    ("cond_vector_norm", {}),
    ("spread", {}),
    ("spread_vector_norm", {}),
    ("smoothed_max", {}),
]


def test_builtin_values():
    assert builtin("schatten", 2, p=2)([3.0, 4.0]) == pytest.approx(5.0)
    assert builtin("cond_number", 4)([4.0, 3.0, 2.0, 1.0]) == pytest.approx(4.0)
    assert builtin("spread", 4)([4.0, 3.0, 2.0, 1.0]) == pytest.approx(3.0)
    assert builtin("squared_norm", 3)([1.0, 2.0, 2.0]) == pytest.approx(9.0)
    assert builtin("cond_vector_norm", 4)([4.0, 3.0, 2.0, 1.0]) == pytest.approx(
        math.sqrt(16.0 + 2.25)
    )
    assert builtin("spread_vector_norm", 4)([4.0, 3.0, 2.0, 1.0]) == pytest.approx(
        math.sqrt(9.0 + 1.0)
    )
    assert builtin("smoothed_max", 2, eps=0.5)([1.0, 2.0]) == pytest.approx(2.0 + 0.5 * 5.0)


def test_builtin_classes_and_domains():
    S, C = STRICTLY_SCHUR_CONVEX, SCHUR_CONVEX
    catalog = [
        ("schatten", {}, ("schatten_2", "all", S)),
        ("schatten", {"p": 1}, ("schatten_1", "all", C)),
        ("schatten", {"p": 1.5}, ("schatten_1_5", "all", S)),
        ("schatten", {"p": 4}, ("schatten_4", "all", S)),
        ("squared_norm", {}, ("squared_norm", "all", S)),
        ("cond_number", {}, ("cond_number", "positive", C)),
        ("cond_vector_norm", {}, ("cond_vector_norm", "positive", S)),
        ("spread", {}, ("spread", "all", C)),
        ("spread_vector_norm", {}, ("spread_vector_norm", "all", S)),
        ("smoothed_max", {}, ("smoothed_max_0.001", "all", S)),
        ("smoothed_max", {"eps": 0.5}, ("smoothed_max_0.5", "all", S)),
    ]
    for name, params, expected in catalog:
        fn = builtin(name, 3, **params)
        assert (fn.id, fn.domain, fn.declared_class) == expected, name
        assert fn.arity == 3
    errors = [
        ("does_not_exist", {}, "unknown builtin function 'does_not_exist'"),
        ("squared_norm", {"p": 2}, r"squared_norm: unexpected parameters \['p'\]"),
        ("spread_vector_norm", {"eps": 1}, r"spread_vector_norm: unexpected parameters \['eps'\]"),
        # extra parameters are reported before an invalid p
        ("schatten", {"p": 0.5, "q": 1}, r"schatten: unexpected parameters \['q'\]"),
        ("schatten", {"p": 0.5}, "schatten needs p >= 1"),
        ("smoothed_max", {"p": 1}, r"smoothed_max: unexpected parameters \['p'\]"),
        ("smoothed_max", {"eps": 0.0}, "smoothed_max needs eps > 0"),
        ("smoothed_max", {"eps": -1.0}, "smoothed_max needs eps > 0"),
    ]
    for name, params, message in errors:
        with pytest.raises(ValueError, match=f"^{message}$"):
            builtin(name, 3, **params)
    with pytest.raises(ValueError, match="^arity must be >= 1$"):
        builtin("squared_norm", 0)


def test_domain_violation_is_an_error():
    fn = builtin("cond_number", 2)
    with pytest.raises(DomainError):
        fn([2.0, -1.0])
    with pytest.raises(DomainError):
        fn([2.0, 0.0])


def test_arity_checked():
    fn = builtin("schatten", 3, p=2)
    with pytest.raises(ValueError):
        fn([1.0, 2.0])
    x = sym_from_matrix(SymMatrix(2), np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        eval_spectral(fn, x)


def test_stacked_values_check_every_row():
    # the stacked evaluator behind __call__: one value per row, the domain
    # checked on every row and the last axis checked against the arity
    fn = builtin("cond_number", 3)
    rng = np.random.default_rng(4)
    U = np.exp(rng.standard_normal((4, 5, 3)))
    vals = fn._values(U)
    assert vals.shape == (4, 5)
    for idx in np.ndindex(4, 5):
        assert vals[idx] == fn(U[idx])
    U[2, 3, 1] = -1.0
    with pytest.raises(DomainError):
        fn._values(U)
    with pytest.raises(DomainError):
        fn._values(U[2])
    fn._values(np.delete(U[2], 3, axis=0))
    with pytest.raises(ValueError):
        fn._values(np.ones((5, 2)))
    with pytest.raises(ValueError):
        fn._values(np.ones(4))
    # __call__ keeps its exact-vector rule: a one-row stack is not a vector
    with pytest.raises(ValueError):
        fn(np.ones((1, 3)))
    with pytest.raises(ValueError):
        fn(2.0)


def test_eval_spectral_domain_violation():
    fn = builtin("cond_vector_norm", 2)
    x = sym_from_matrix(SymMatrix(2), np.diag([1.0, -2.0]))
    with pytest.raises(DomainError):
        eval_spectral(fn, x)


def test_eval_spectral_examples():
    fn = builtin("schatten", 2, p=2)
    x = sym_from_matrix(SymMatrix(2), np.diag([3.0, -4.0]))
    assert eval_spectral(fn, x) == pytest.approx(5.0)
    sp = SpinFactor(3)
    from ejaopt import unit

    t = -1.3
    for name, params in ALL_BUILTINS:
        f = builtin(name, 2, **params)
        if f.domain == "positive":
            continue
        assert eval_spectral(f, t * unit(sp)) == pytest.approx(f(np.array([t, t])), abs=1e-12)


def test_eval_spectral_automorphism_invariant():
    rng = np.random.default_rng(0)
    for alg in [SymMatrix(3), SpinFactor(4), RealDiagonal(4)]:
        fn = builtin("schatten", alg.rank, p=4)
        for _ in range(30):
            x = random_element(alg, rng)
            A = random_automorphism(alg, rng)
            assert eval_spectral(fn, x) == pytest.approx(
                eval_spectral(fn, apply_automorphism(A, x)), abs=1e-9
            )


def test_permutation_invariance_all_builtins():
    rng = np.random.default_rng(1)
    for name, params in ALL_BUILTINS:
        fn = builtin(name, 5, **params)
        for _ in range(100):
            u = np.exp(rng.standard_normal(5)) if fn.domain == "positive" else rng.standard_normal(5)
            ref = fn(u)
            p = rng.permutation(5)
            assert fn(u[p]) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_vectorized_fn_matches_scalar():
    rng = np.random.default_rng(2)
    for name, params in ALL_BUILTINS:
        fn = builtin(name, 4, **params)
        U = np.exp(rng.standard_normal((20, 4))) if fn.domain == "positive" else rng.standard_normal((20, 4))
        batch = fn.fn(U)
        for i in range(20):
            assert batch[i] == pytest.approx(fn(U[i]), rel=1e-13, abs=1e-13)


def test_strict_checker_passes_for_strict_builtins():
    rng = np.random.default_rng(3)
    for name, params in ALL_BUILTINS:
        fn = builtin(name, 4, **params)
        if fn.declared_class != STRICTLY_SCHUR_CONVEX:
            continue
        rep = check_strict_schur_convex(fn, rng, trials=300)
        assert rep.passed, f"{fn.id}: {rep.violations[:1]}"
        assert rep.min_margin > 0.0


def test_strict_checker_samples_a_shifted_positive_domain():
    # base(u + shift) needs every entry above -shift: redraws scale up
    # until one lands there
    for shift in (-2.0, -5.0, -1e6):
        fn = affine_compose(builtin("cond_vector_norm", 4), shift=shift)
        rep = check_strict_schur_convex(fn, np.random.default_rng(5), trials=50)
        assert rep.passed and rep.min_margin > 0.0


class DrawRecorder:
    """An rng whose normal draws are recorded by size."""

    def __init__(self, rng):
        self.rng = rng
        self.bit_generator = rng.bit_generator
        self.sizes = []

    def standard_normal(self, size):
        self.sizes.append(size)
        return self.rng.standard_normal(size)


def test_strict_checker_draws_one_block_on_an_unshifted_domain():
    # every first pair is strict and in the domain, so nothing is replayed,
    # and each v is exp of the first n normals of its trial's row
    for n in (4, 5, 6):
        rng = DrawRecorder(np.random.default_rng(6))
        rep = check_strict_schur_convex(builtin("cond_number", n), rng, trials=100)
        assert rng.sizes == [(100, 4 * n + 9)], n
        ref = np.random.default_rng(6)
        v_rows = np.exp(ref.standard_normal((100, 4 * n + 9))[:, :n])
        assert rng.bit_generator.state == ref.bit_generator.state, n
        assert rep.violations, n
        for _u, v, _fu, _fv in rep.violations:
            assert any(np.array_equal(v, row) for row in v_rows), n


def reference_strict_check(fn, rng, trials):
    """The checker trial by trial: each attempt draws one row of 4n + 9
    normals and builds its pair as the docstring lays the row out."""
    n = fn.arity
    violations = []
    min_margin = np.inf
    for _ in range(trials):
        for attempt in range(100):
            row = rng.standard_normal(4 * n + 9)
            v = np.exp(row[:n]) * 2.0**attempt if fn.domain == "positive" else row[:n]
            u = v.copy()
            for k in range(1 + int(np.argmax(row[n : n + 3]))):
                step = row[n + 3 + k * (n + 2) : n + 3 + (k + 1) * (n + 2)]
                i, j = np.argsort(step[:n], kind="stable")[:2]
                t = (np.arctan2(step[n + 1], step[n]) + np.pi) / (2.0 * np.pi)
                u[i], u[j] = t * u[i] + (1.0 - t) * u[j], (1.0 - t) * u[i] + t * u[j]
            if majorizes(v, u, tol=1e-12).strict and fn.in_domain(v) and fn.in_domain(u):
                break
        fu, fv = fn(u), fn(v)
        min_margin = min(min_margin, fv - fu)
        if fv - fu <= 0.0:
            violations.append((u, v, fu, fv))
    return violations, min_margin


def test_strict_checker_equals_a_trial_by_trial_run(monkeypatch):
    # block size 1 evaluates trial by trial; 7 leaves a partial last block.
    # Shifted domains reject and redraw pairs; cond_number and spread find
    # violations.
    fns = [
        builtin("cond_vector_norm", 4),
        builtin("cond_number", 4),
        builtin("spread", 3),
        builtin("squared_norm", 2),
        affine_compose(builtin("cond_vector_norm", 3), shift=-2.0),
        affine_compose(builtin("cond_number", 5), shift=-5.0),
        affine_compose(builtin("cond_vector_norm", 4), shift=-1e6),
    ]
    for k, fn in enumerate(fns):
        rng_ref = np.random.default_rng([7, k])
        want, want_margin = reference_strict_check(fn, rng_ref, 40)
        for block in (1, 7, 128):
            monkeypatch.setattr(schur_module, "_BLOCK", block)
            rng = np.random.default_rng([7, k])
            rep = check_strict_schur_convex(fn, rng, trials=40)
            assert rep.min_margin == want_margin, (fn.id, block)
            assert len(rep.violations) == len(want), (fn.id, block)
            for got, ref in zip(rep.violations, want):
                assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()
                assert got[2:] == ref[2:]
            assert rng.bit_generator.state == rng_ref.bit_generator.state, (fn.id, block)


def test_strict_checker_violations_are_row_copies():
    # a violation keeps its own two vectors, not views of the whole block
    rep = check_strict_schur_convex(builtin("cond_number", 4), np.random.default_rng(4), trials=300)
    assert rep.violations
    for u, v, fu, fv in rep.violations:
        assert u.base is None and v.base is None
        assert u.shape == v.shape == (4,)
        assert type(fu) is float and type(fv) is float


def test_strict_checker_needs_two_entries():
    # an arity-1 function has no strict majorization pair: it fails before
    # drawing anything
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="arity >= 2"):
        check_strict_schur_convex(builtin("squared_norm", 1), rng, trials=10)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check_strict_schur_convex(builtin("squared_norm", 2), rng, trials=0)


def test_cond_number_is_not_strict_witness_from_checker():
    rng = np.random.default_rng(4)
    fn = builtin("cond_number", 4)
    rep = check_strict_schur_convex(fn, rng, trials=2000)
    assert not rep.passed
    # Schur-convexity still holds: margins never go genuinely negative
    assert rep.min_margin >= -1e-12
    u, v, fu, fv = rep.violations[0]
    verdict = majorizes(v, u, tol=1e-12)
    assert verdict.holds and verdict.strict
    assert fu == pytest.approx(fv, abs=1e-9)


def test_cond_number_fixed_witness():
    # u < v strictly with equal max/min ratio 4
    u = np.array([4.0, 2.0, 2.0, 1.0])
    v = np.array([4.0, 3.0, 1.0, 1.0])
    verdict = majorizes(v, u)
    assert verdict.holds and verdict.strict
    fn = builtin("cond_number", 4)
    assert fn(u) == pytest.approx(fn(v), abs=1e-15)


def test_kappa_norm_bounds_against_cond():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5, 7):
        cond = builtin("cond_number", n)
        kappa = builtin("cond_vector_norm", n)
        half = n // 2
        for _ in range(200):
            u = np.exp(rng.standard_normal(n))
            c = cond(u)
            k = kappa(u)
            assert k / math.sqrt(half) <= c + 1e-12 * (1 + k)
            assert c <= k + 1e-12 * (1 + k)


def test_affine_compose():
    base = builtin("schatten", 3, p=2)
    g = affine_compose(base, scale=2.0, shift=1.0)
    u = np.array([1.0, -2.0, 0.5])
    assert g(u) == pytest.approx(base(2.0 * u + 1.0))
    assert g.declared_class == STRICTLY_SCHUR_CONVEX
    with pytest.raises(ValueError):
        affine_compose(base, scale=0.0)
    with pytest.raises(ValueError):
        affine_compose(base, scale=-1.0)
    pos = affine_compose(builtin("cond_number", 2), scale=1.0, shift=5.0)
    assert pos([1.0, 2.0]) == pytest.approx(7.0 / 6.0)
    with pytest.raises(DomainError):
        pos([1.0, -6.0])


def test_phi_ratios():
    np.testing.assert_allclose(phi_ratios(np.array([4.0, 1.0, 3.0, 2.0])), [4.0, 1.5])
    with pytest.raises(DomainError):
        phi_ratios(np.array([1.0, -1.0]))
