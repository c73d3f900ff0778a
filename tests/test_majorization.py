import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ejaopt import (
    RealDiagonal,
    SpinFactor,
    SymMatrix,
    kyfan_holds,
    lidskii_holds,
    majorizes,
    product_algebra,
    random_element,
    sort_desc,
    spectral_decompose,
    submajorizes,
    synthesize_from_frame,
    t_transform_sample,
    unit,
    zero,
)
from ejaopt.majorization import _prefix_sums

KINDS = [
    RealDiagonal(4),
    SymMatrix(3),
    SpinFactor(4),
    product_algebra(SymMatrix(2), SymMatrix(2)),
]


def test_sort_desc_examples():
    np.testing.assert_allclose(sort_desc([1.0, 3.0, 2.0]), [3.0, 2.0, 1.0])
    np.testing.assert_allclose(sort_desc([3.0, 2.0, 1.0]), [3.0, 2.0, 1.0])
    np.testing.assert_allclose(sort_desc([2.0, 2.0, 1.0]), [2.0, 2.0, 1.0])


def test_sort_desc_sorts_each_row_of_a_stack():
    rng = np.random.default_rng(43)
    U = rng.integers(-3, 4, size=(40, 6)) * 0.5
    U[U == 0.0] = np.where(rng.random(int(np.sum(U == 0.0))) < 0.5, -0.0, 0.0)
    S = sort_desc(U)
    for row, u in zip(S, U):
        single = sort_desc(u)
        gathered = u[np.argsort(-u, kind="stable")]
        for ref in (single, gathered):
            assert np.array_equal(row, ref)
            assert np.array_equal(np.signbit(row), np.signbit(ref))
    # ties keep their order, so the sign of zero is kept in place
    assert np.array_equal(np.signbit(sort_desc([-0.0, 0.0])), [True, False])
    assert np.array_equal(np.signbit(sort_desc([0.0, -0.0])), [False, True])


def test_majorizes_examples():
    v = majorizes([2.0, 0.0], [1.0, 1.0])  # (1,1) < (2,0)
    assert v.holds and v.strict
    assert not majorizes([1.0, 1.0], [2.0, 0.0]).holds
    v = majorizes([3.0, 2.0, 1.0], [3.0, 2.0, 1.0])
    assert v.holds and not v.strict


def test_submajorizes_examples():
    assert submajorizes([2.0, 0.0], [1.0, 0.0]).holds
    assert not submajorizes([2.0, 0.0], [3.0, 0.0]).holds
    # any majorization pair also submajorizes
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.standard_normal(5)
        u = t_transform_sample(v, rng)
        assert submajorizes(v, u).holds


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        majorizes([1.0, 2.0], [1.0])


def test_t_transform_examples():
    rng = np.random.default_rng(1)
    # equal entries can never produce a strict pair
    for _ in range(20):
        u = t_transform_sample([3.0, 3.0], rng)
        v = majorizes([3.0, 3.0], u)
        assert v.holds and not v.strict
    for _ in range(500):
        n = int(rng.integers(2, 7))
        v = rng.standard_normal(n)
        u = t_transform_sample(v, rng)
        assert majorizes(v, u).holds


def test_composed_t_transforms_with_distinct_entries_are_strict():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        v = np.cumsum(0.5 + np.abs(rng.standard_normal(n)))  # distinct entries
        u = v.copy()
        moved = False
        for _k in range(int(rng.integers(1, 4))):
            i, j = rng.choice(n, size=2, replace=False)
            t = float(rng.uniform(0.05, 0.95))
            if abs(u[i] - u[j]) > 1e-12:
                moved = True
            ui = t * u[i] + (1 - t) * u[j]
            u[j] = (1 - t) * u[i] + t * u[j]
            u[i] = ui
        verdict = majorizes(v, u)
        assert verdict.holds
        if moved:
            assert verdict.strict


def test_reflexive_transitive_permutation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        v = rng.standard_normal(n)
        assert majorizes(v, v).holds and not majorizes(v, v).strict
        u = t_transform_sample(v, rng)
        w = t_transform_sample(u, rng)
        assert majorizes(v, w).holds  # transitivity on the sampled chain
        assert majorizes(rng.permutation(v), u[rng.permutation(n)]).holds


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(2, 6),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
)
def test_hypothesis_self_majorization_and_transform(v):
    assert majorizes(v, v, tol=1e-9 * (1 + np.max(np.abs(v)))).holds
    rng = np.random.default_rng(abs(hash(v.tobytes())) % 2**32)
    u = t_transform_sample(v, rng)
    assert majorizes(v, u, tol=1e-9 * (1 + np.max(np.abs(v)))).holds


def test_prefix_sums_are_compensated():
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = rng.standard_normal(64) * np.exp(rng.uniform(0, 12, size=64))
        got = _prefix_sums(v)
        want = [math.fsum(v[: k + 1]) for k in range(len(v))]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-9)


def compensated_prefix_sums(row):
    """Neumaier's compensated prefix sums of one row, in Python floats."""
    sums, s, comp = [], 0.0, 0.0
    for v in row:
        t = s + v
        comp += (s - t) + v if abs(s) >= abs(v) else (v - t) + s
        s = t
        sums.append(s + comp)
    return sums


def test_prefix_sums_rows_equal_single_calls_bit_for_bit():
    # a stack is summed for all rows at once, and each row must keep the
    # bits of its own call and of the scalar recurrence, signed zeros and
    # cancelling large entries included
    rng = np.random.default_rng(5)
    stacks = [
        rng.standard_normal((40, 6)) * np.exp(rng.uniform(0, 30, size=(40, 6))),
        rng.standard_normal((3, 4, 5)),
        np.array([[-0.0, -0.0, 0.0], [0.0, -0.0, -0.0], [1e16, 1.0, -1e16]]),
        np.array([[1e16, 1.0, -1e16, 1.0, 1e-16], [-1.0, 1e16, 3.0, -1e16, 0.5]]),
    ]
    for stack in stacks:
        got = _prefix_sums(stack)
        assert got.shape == stack.shape
        for idx in np.ndindex(stack.shape[:-1]):
            single = _prefix_sums(stack[idx])
            want = np.array(compensated_prefix_sums(stack[idx].tolist()))
            assert got[idx].tobytes() == single.tobytes() == want.tobytes(), idx
    assert _prefix_sums(np.empty((0, 4))).shape == (0, 4)


def test_equal_sum_smaller_norm_pairs_are_strictly_majorized():
    # for 2-vectors with equal sums, a strictly smaller Euclidean norm
    # forces strict majorization
    rng = np.random.default_rng(8)
    for _ in range(500):
        v = rng.standard_normal(2)
        u = rng.standard_normal(2)
        u = u + (np.sum(v) - np.sum(u)) / 2.0  # match the sums
        if np.dot(u, u) >= np.dot(v, v) - 1e-12:
            continue
        verdict = majorizes(v, u)
        assert verdict.holds and verdict.strict


def test_lidskii_zero_and_aligned_cases():
    rng = np.random.default_rng(5)
    for alg in KINDS:
        a = random_element(alg, rng)
        v = lidskii_holds(a, zero(alg))
        assert v.holds and v.sum_gap <= 1e-10
        # shared-frame aligned pair: equality case of the inequality
        frame = spectral_decompose(random_element(alg, rng)).frame
        a = synthesize_from_frame(frame, sort_desc(rng.standard_normal(alg.rank)), validate=False)
        b = synthesize_from_frame(frame, sort_desc(rng.standard_normal(alg.rank)), validate=False)
        v = lidskii_holds(a, b)
        assert v.holds and not v.strict


def test_kyfan_unit_shift_and_aligned_cases():
    rng = np.random.default_rng(6)
    for alg in KINDS:
        a = random_element(alg, rng)
        v = kyfan_holds(a, 1.7 * unit(alg))
        assert v.holds and not v.strict
        frame = spectral_decompose(random_element(alg, rng)).frame
        a = synthesize_from_frame(frame, sort_desc(rng.standard_normal(alg.rank)), validate=False)
        b = synthesize_from_frame(frame, sort_desc(rng.standard_normal(alg.rank)), validate=False)
        v = kyfan_holds(a, b)
        assert v.holds and not v.strict


def test_lidskii_kyfan_random_pairs():
    rng = np.random.default_rng(7)
    for alg in KINDS:
        for _ in range(200):
            a = random_element(alg, rng)
            b = random_element(alg, rng)
            assert lidskii_holds(a, b, tol=1e-9).holds
            assert kyfan_holds(a, b, tol=1e-9).holds
