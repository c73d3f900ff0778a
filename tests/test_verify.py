import warnings

import numpy as np
import pytest

import ejaopt.schur as schur_module
import ejaopt.verify as verify_module
from ejaopt.algebra import (
    Element,
    RealDiagonal,
    SpinFactor,
    SymMatrix,
    apply_automorphism,
    eigenvalues,
    jordan_product,
    norm,
    product_algebra,
    random_automorphism,
    random_element,
    spectral_decompose,
    strong_commutation_gap,
    synthesize_from_frame,
    unit,
)
from ejaopt.majorization import sort_desc
from ejaopt.verify import (
    DEFAULT_KINDS,
    SUITES,
    _strong_equivalence_gaps,
    run_verify,
    suite_automorphism_invariance,
    suite_jordan_identity,
    suite_strong_commutation_equivalence,
)


def fresh_gaps(a, b):
    """The three strong-commutation gaps through the public predicate and a
    fresh eigenvalue call for every operand."""
    return (
        strong_commutation_gap(a, b),
        float(np.max(np.abs(eigenvalues(a + b) - (eigenvalues(a) + eigenvalues(b))))),
        float(np.max(np.abs(sort_desc(eigenvalues(a) - eigenvalues(b)) - eigenvalues(a - b)))),
    )


def test_strong_equivalence_gaps_equal_fresh_solves_bit_for_bit():
    for ki, (label, alg) in enumerate(DEFAULT_KINDS):
        rng = np.random.default_rng([7, ki])
        pairs = []
        for _ in range(10):
            frame = spectral_decompose(random_element(alg, rng)).frame
            constructed = [
                synthesize_from_frame(frame, sort_desc(rng.standard_normal(alg.rank)), validate=False)
                for _ in range(2)
            ]
            generic = [random_element(alg, rng) for _ in range(2)]
            pairs += [constructed, generic]
        A = np.array([a.coords for a, _ in pairs])
        B = np.array([b.coords for _, b in pairs])
        stacked = _strong_equivalence_gaps(alg, A, B)
        for row, (a, b) in enumerate(pairs):
            assert tuple(float(g[row]) for g in stacked) == fresh_gaps(a, b), label


class EighCounter:
    """Counts the stacked ``SymMatrix._eigh`` calls, and the matrices they
    solve, while installed on ``monkeypatch``; a stacked call solves one
    matrix per row."""

    def __init__(self, monkeypatch):
        self.calls = self.matrices = 0
        eigh = SymMatrix._eigh

        def counted_eigh(alg, mat, want_vectors=True):
            self.calls += 1
            self.matrices += int(np.prod(np.shape(mat)[:-2]))
            return eigh(alg, mat, want_vectors)

        monkeypatch.setattr(SymMatrix, "_eigh", counted_eigh)


def test_strong_commutation_equivalence_solves_each_spectrum_once(monkeypatch):
    # Per trial: lambda of a, b, a + b and a - b for the constructed pair and
    # for every generic draw; the shared frame is a Haar draw, not a
    # decomposition.  Solving lambda(a) and lambda(b) afresh for each of the
    # three tests would make 6 per trial and 8 per draw.
    count = EighCounter(monkeypatch)
    trials = 20
    out = suite_strong_commutation_equivalence(SymMatrix(3), np.random.default_rng(3), trials, 1e-9)
    assert out["failures"] == 0
    assert count.matrices == 4 * trials + 4 * (trials + out["resampled"])


# Stacked SymMatrix._eigh calls per block of each suite on SymMatrix(3).
# Spectra that do not depend on each other share one call, and a suite
# draws its frames from normals (``_frames_from``) without a solve.
EIGH_CALLS_PER_BLOCK = {
    "jordan_identity": 0,
    # the trials' frames
    "spectral_roundtrip": 1,
    # lambda(Ax) and lambda(x)
    "automorphism_invariance": 1,
    # lambda(a), lambda(b) and lambda(a -+ b)
    "lidskii": 1,
    "kyfan": 1,
    # lambda of a, b, a + b and a - b for the constructed and the generic pairs
    "strong_commutation_equivalence": 1,
    # lambda of a and of b aligned and anti-aligned
    "shared_frame_commutation": 1,
    # P is picked from drawn frames
    "peirce": 0,
    # lambda(x); lambda(x + t e) is lambda(x) + t
    "condition_bounds": 1,
    "phi_strict_schur": 0,
}


def test_a_block_of_every_suite_makes_7_stacked_eigh_calls(monkeypatch):
    # one block per suite, across all suites: 7 calls per SymMatrix factor,
    # where solving each drawn frame and each shifted spectrum made 12
    assert sum(EIGH_CALLS_PER_BLOCK.values()) == 7
    count = EighCounter(monkeypatch)
    for alg, factors in ((SymMatrix(3), 1), (product_algebra(SymMatrix(2), SymMatrix(2)), 2)):
        count.calls = 0
        report = run_verify(4, 20, 1e-9, kinds=(("alg", alg),))
        assert report["passed"] and all(r.get("resampled", 0) == 0 for r in report["suites"]), alg
        assert count.calls == 7 * factors, alg


@pytest.mark.parametrize("name, suite", SUITES)
def test_suites_make_their_stacked_eigh_calls_per_block(monkeypatch, name, suite):
    count = EighCounter(monkeypatch)
    # each SymMatrix factor of a product takes its own call
    for alg, factors in ((SymMatrix(3), 1), (product_algebra(SymMatrix(2), SymMatrix(2)), 2)):
        for trials, blocks in ((20, 1), (300, 3)):
            count.calls = 0
            out = suite(alg, np.random.default_rng(4), trials, 1e-9)
            assert out["failures"] == 0 and out.get("resampled", 0) == 0, (name, alg)
            assert count.calls == factors * EIGH_CALLS_PER_BLOCK[name] * blocks, (name, alg, trials)


def test_strong_equivalence_resamples_a_pair_in_one_call(monkeypatch):
    # At a generic tolerance of 0.3 many generic pairs fall in the boundary
    # layer.  One trial is one block, and each redrawn pair one more call.
    monkeypatch.setattr(verify_module, "_GENERIC_TOL", 0.3)
    count = EighCounter(monkeypatch)
    resampled = 0
    for alg, factors in ((SymMatrix(3), 1), (product_algebra(SymMatrix(2), SymMatrix(2)), 2)):
        for seed in range(10):
            count.calls = 0
            out = suite_strong_commutation_equivalence(alg, np.random.default_rng(seed), 1, 1e-9)
            assert out["failures"] == 0, (alg, seed)
            assert count.calls == factors * (1 + out["resampled"]), (alg, seed)
            resampled += out["resampled"]
    assert resampled > 0


def test_spectral_roundtrip_checks_eigenvalues_without_jacobi(monkeypatch):
    # Per block, one stacked Jacobi decomposition of the trials (one per
    # SymMatrix factor of a product); the repeated-eigenvalue draws take
    # drawn frames, and the eigenvalue term checks the decomposition against
    # LAPACK, where another Jacobi call compared the sweep with itself.
    count = EighCounter(monkeypatch)
    for alg, per_block in ((SymMatrix(3), 1), (product_algebra(SymMatrix(2), SymMatrix(2)), 2)):
        for trials, blocks in ((20, 1), (300, 3)):
            count.calls = 0
            out = verify_module.suite_spectral_roundtrip(alg, np.random.default_rng(4), trials, 1e-9)
            assert out["failures"] == 0
            assert count.calls == per_block * blocks, (alg, trials, count.calls)


def install_ascending_eigh(monkeypatch):
    """An eigensolver that returns its eigenpairs in ascending order."""
    eigh = SymMatrix._eigh

    def ascending(self, mat, want_vectors=True):
        vals, vecs = eigh(self, mat, want_vectors)
        return vals[..., ::-1], None if vecs is None else vecs[..., ::-1]

    monkeypatch.setattr(SymMatrix, "_eigh", ascending)


def constant_spectrum_trials(alg, seed, trials):
    """Repeated-eigenvalue trials of ``suite_spectral_roundtrip`` whose
    coefficients are all equal, counted from the suite's own draw: per trial
    x, 5 normals per coefficient, then the frame's row."""
    n, dim = alg.rank, alg.dim
    D = np.random.default_rng(seed).standard_normal((trials, dim + 5 * n + alg._frame_width))
    coeffs = np.argmax(D[3::4, dim : dim + 5 * n].reshape(-1, n, 5), axis=-1)
    return int(np.count_nonzero(np.all(coeffs == coeffs[:, :1], axis=-1)))


def test_spectral_roundtrip_catches_a_misordered_eigensolver(monkeypatch):
    # An ascending eigensolver still synthesizes x from its frame; only the
    # second eigenvalue route sees the order.  Checked against another
    # Jacobi call, every trial passed.  A constant spectrum hides the order.
    install_ascending_eigh(monkeypatch)
    hidden = constant_spectrum_trials(SymMatrix(3), 0, 50)
    out = verify_module.suite_spectral_roundtrip(SymMatrix(3), np.random.default_rng(0), 50, 1e-9)
    assert out["failures"] == 50 - hidden
    assert hidden < 5


def test_misordered_eigenpairs_hide_only_in_a_constant_spectrum(monkeypatch):
    # A repeated-eigenvalue trial whose coefficients are all equal is c
    # times the unit, whose eigenvalues read the same in any order; every
    # other trial catches the ascending solver.
    install_ascending_eigh(monkeypatch)
    trials = 50
    hidden = 0
    for alg in (SymMatrix(3), SymMatrix(5)):
        for seed in range(20):
            constant = constant_spectrum_trials(alg, seed, trials)
            out = verify_module.suite_spectral_roundtrip(alg, np.random.default_rng(seed), trials, 1e-9)
            assert out["failures"] == trials - constant, (alg, seed)
            hidden += constant
    assert hidden > 0


class RecordingRng:
    """A Generator that records the name of every draw method called."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


# every suite that never resamples
@pytest.mark.parametrize("name", [
    "jordan_identity",
    "spectral_roundtrip",
    "automorphism_invariance",
    "lidskii",
    "kyfan",
    "shared_frame_commutation",
    "peirce",
    "condition_bounds",
])
def test_suites_draw_a_block_in_one_normal_call(monkeypatch, name):
    suite = dict(SUITES)[name]
    trials = 30
    for block in (1, 7, verify_module._BLOCK):
        monkeypatch.setattr(verify_module, "_BLOCK", block)
        for label, alg in DEFAULT_KINDS:
            rng = RecordingRng(np.random.default_rng(6))
            suite(alg, rng, trials, 1e-9)
            assert rng.calls == ["standard_normal"] * -(-trials // block), (name, label, block)


def test_shared_frame_commutation_reports_its_worst_gap():
    for ki, (label, alg) in enumerate(DEFAULT_KINDS):
        out = verify_module.suite_shared_frame_commutation(alg, np.random.default_rng([8, ki]), 100, 1e-9)
        assert out["failures"] == 0, label
        assert 0.0 < out["worst_residual"] <= 1e-7, label


@pytest.mark.parametrize("name, suite", SUITES)
def test_suites_do_not_depend_on_the_block_size(monkeypatch, name, suite):
    # block size 1 evaluates trial by trial; 7 leaves a partial last block
    trials = 30
    for ki, (label, alg) in enumerate(DEFAULT_KINDS):
        outs, states = [], []
        for block in (1, 7, verify_module._BLOCK):
            # one block size, read by the suites and by the strictness checker
            monkeypatch.setattr(verify_module, "_BLOCK", block)
            monkeypatch.setattr(schur_module, "_BLOCK", block)
            rng = np.random.default_rng([5, ki])
            outs.append(suite(alg, rng, trials, 1e-9))
            states.append(rng.bit_generator.state)
        assert outs[0] == outs[1] == outs[2], (name, label)
        assert states[0] == states[1] == states[2], (name, label)


def reference_strong_equivalence(alg, rng, trials, tol, generic_tol):
    """The suite trial by trial on Elements through the public eigenvalue
    and norm calls, resampling as it goes."""
    failures = worst = disagreements = resampled = 0
    for _ in range(trials):
        frame = [Element(alg, c) for c in alg._frames_from(rng.standard_normal(alg._frame_width))]
        alpha = sort_desc(rng.standard_normal(alg.rank))
        beta = sort_desc(rng.standard_normal(alg.rank))
        a = synthesize_from_frame(frame, alpha, validate=False)
        b = synthesize_from_frame(frame, beta, validate=False)
        _, rb, rc = fresh_gaps(a, b)
        worst = max(worst, rb, rc)
        failures += rb > tol or rc > tol
        for _attempt in range(50):
            a = random_element(alg, rng)
            b = random_element(alg, rng)
            ra, rb, rc = fresh_gaps(a, b)
            scale = 1.0 + norm(a) + norm(b)
            resid = (ra / (1.0 + norm(a) * norm(b)), rb / scale, rc / scale)
            if all(r <= 1e-3 * generic_tol for r in resid) or all(r > generic_tol for r in resid):
                break
            resampled += 1
        else:
            failures += 1
            continue
        bools = [r <= generic_tol for r in resid]
        if not (bools[0] == bools[1] == bools[2]):
            disagreements += 1
            failures += 1
    return {"failures": failures, "worst_residual": worst, "disagreements": disagreements,
            "resampled": resampled}


def test_strong_equivalence_resamples_as_a_trial_by_trial_run(monkeypatch):
    # At a generic tolerance of 0.3 a good share of the generic pairs fall
    # in the boundary layer, so blocks are cut and replayed often; at 10
    # no pair is decisive and every trial uses up its 50 attempts.
    kinds = [(label, alg) for label, alg in DEFAULT_KINDS if label in ("diag4", "sym3", "spin4", "sym2xsym2")]
    for generic_tol, trials in ((0.3, 20), (10.0, 2)):
        monkeypatch.setattr(verify_module, "_GENERIC_TOL", generic_tol)
        for ki, (label, alg) in enumerate(kinds):
            rng_ref = np.random.default_rng([9, ki])
            ref = reference_strong_equivalence(alg, rng_ref, trials, 1e-9, generic_tol)
            assert ref["resampled"] > 0, label
            for block in (1, 7, 128):
                monkeypatch.setattr(verify_module, "_BLOCK", block)
                rng = np.random.default_rng([9, ki])
                got = suite_strong_commutation_equivalence(alg, rng, trials, 1e-9)
                assert got == ref, (label, generic_tol, block)
                # the suite leaves the stream where the trial-by-trial run does
                assert rng.bit_generator.state == rng_ref.bit_generator.state


def reference_jordan_identity(alg, rng, trials, tol):
    """The suite trial by trial on Elements."""
    failures = worst = 0
    for _ in range(trials):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        xx = jordan_product(x, x)
        lhs = jordan_product(jordan_product(x, y), xx)
        rhs = jordan_product(x, jordan_product(y, xx))
        resid = norm(lhs - rhs) / ((1.0 + norm(x)) ** 2 * (1.0 + norm(y)))
        worst = max(worst, resid)
        failures += resid > tol
    return {"failures": failures, "worst_residual": worst}


def reference_automorphism_invariance(alg, rng, trials, tol):
    """The suite trial by trial on Elements: each trial draws x, y and then
    one automorphism."""
    failures = worst = 0
    e = unit(alg)
    for _ in range(trials):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        auto = random_automorphism(alg, rng)
        ax = apply_automorphism(auto, x)
        resid = float(np.max(np.abs(eigenvalues(ax) - eigenvalues(x)))) / (1.0 + norm(x))
        ay = apply_automorphism(auto, y)
        hom = norm(apply_automorphism(auto, jordan_product(x, y)) - jordan_product(ax, ay))
        hom = hom / ((1.0 + norm(x)) * (1.0 + norm(y)))
        resid = max(resid, hom, norm(apply_automorphism(auto, e) - e))
        worst = max(worst, resid)
        failures += resid > tol
    return {"failures": failures, "worst_residual": worst}


@pytest.mark.parametrize(
    "suite, reference",
    [
        (suite_jordan_identity, reference_jordan_identity),
        (suite_automorphism_invariance, reference_automorphism_invariance),
    ],
)
def test_stacked_suites_equal_a_trial_by_trial_run(monkeypatch, suite, reference):
    kinds = DEFAULT_KINDS + (("sym2xsym2xspin4", product_algebra(SymMatrix(2), SymMatrix(2), SpinFactor(4))),)
    for ki, (label, alg) in enumerate(kinds):
        rng_ref = np.random.default_rng([11, ki])
        ref = reference(alg, rng_ref, 30, 1e-9)
        for block in (1, 7, 128):
            monkeypatch.setattr(verify_module, "_BLOCK", block)
            rng = np.random.default_rng([11, ki])
            assert suite(alg, rng, 30, 1e-9) == ref, (label, block)
            assert rng.bit_generator.state == rng_ref.bit_generator.state, (label, block)


def test_rank_1_kinds_skip_the_condition_vector_suites():
    # the condition vector has no entry at rank 1: both of its suites skip
    # such a kind, where condition_bounds once failed every trial with a
    # worst residual of 0.0 (max(0.0, nan) drops the NaN)
    kinds = (("diag1", RealDiagonal(1)), ("sym1", SymMatrix(1)), ("sym2", SymMatrix(2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_verify(3, 10, 1e-9, kinds=kinds)
    assert report["passed"]
    cases = {(r["suite"], r["algebra"]) for r in report["suites"]}
    for name, _suite in SUITES:
        skipped = name in ("condition_bounds", "phi_strict_schur")
        assert ((name, "diag1") in cases) is not skipped, name
        assert ((name, "sym1") in cases) is not skipped, name
        assert (name, "sym2") in cases, name
