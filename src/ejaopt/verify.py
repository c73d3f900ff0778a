"""Randomized property suites behind the ``verify`` command.

Each suite draws seeded probes for one algebra, checks an identity or an
inequality the library must satisfy (Jordan identity, spectral round
trips, Lidskii and Ky Fan majorizations, the equivalence of the three
strong-commutation characterizations, Peirce projections, the condition
number sandwich bounds, strict Schur-convexity of the condition-vector
norm), and reports the failure count plus the worst residual seen.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    AlgebraError,
    Element,
    RealDiagonal,
    SpinFactor,
    SymMatrix,
    apply_automorphism,
    eigenvalues,
    inner,
    jordan_product,
    norm,
    product_algebra,
    random_automorphism,
    random_element,
    spectral_decompose,
    strongly_operator_commute,
    synthesize_from_frame,
    trace,
    unit,
    validate_frame,
    operator_commute,
    peirce_project,
)
from .condition import condition_report
from .majorization import kyfan_holds, lidskii_holds, sort_desc
from .schur import builtin, check_strict_schur_convex

DEFAULT_KINDS = (
    ("diag4", RealDiagonal(4)),
    ("sym2", SymMatrix(2)),
    ("sym3", SymMatrix(3)),
    ("sym4", SymMatrix(4)),
    ("sym5", SymMatrix(5)),
    ("spin3", SpinFactor(3)),
    ("spin4", SpinFactor(4)),
    ("spin5", SpinFactor(5)),
    ("spin6", SpinFactor(6)),
    ("sym2xsym2", product_algebra(SymMatrix(2), SymMatrix(2))),
)

#: configurations exercised by the majorization acceptance runs
ACCEPTANCE_KINDS = (
    ("diag4", RealDiagonal(4)),
    ("sym2", SymMatrix(2)),
    ("sym3", SymMatrix(3)),
    ("sym5", SymMatrix(5)),
    ("spin4", SpinFactor(4)),
    ("sym2xsym2", product_algebra(SymMatrix(2), SymMatrix(2))),
)


def _random_frame(alg, rng):
    return spectral_decompose(random_element(alg, rng)).frame


def _distinct_coeffs(n, rng):
    gaps = 0.1 + np.abs(rng.standard_normal(n))
    return float(rng.standard_normal()) + np.cumsum(gaps)[::-1]


def suite_jordan_identity(alg, rng, trials, tol):
    worst = 0.0
    failures = 0
    for _ in range(trials):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        xx = jordan_product(x, x)
        lhs = jordan_product(jordan_product(x, y), xx)
        rhs = jordan_product(x, jordan_product(y, xx))
        scale = (1.0 + norm(x)) ** 2 * (1.0 + norm(y))
        resid = norm(lhs - rhs) / scale
        worst = max(worst, resid)
        failures += resid > tol
    return {"failures": failures, "worst_residual": worst}


def suite_spectral_roundtrip(alg, rng, trials, tol):
    worst = 0.0
    failures = 0
    for i in range(trials):
        if i % 4 == 3:
            # deliberately repeated eigenvalues on a generic frame
            frame = _random_frame(alg, rng)
            coeffs = rng.integers(-2, 3, size=alg.rank).astype(float)
            x = synthesize_from_frame(frame, coeffs, validate=False)
        else:
            x = random_element(alg, rng)
        dec = spectral_decompose(x)
        recon = synthesize_from_frame(dec.frame, dec.eigenvalues, validate=False)
        scale = 1.0 + norm(x)
        resid = norm(recon - x) / scale
        resid = max(resid, float(np.max(np.abs(dec.eigenvalues - eigenvalues(x)))) / scale)
        resid = max(resid, abs(float(np.sum(dec.eigenvalues)) - trace(x)) / scale)
        ok = resid <= tol
        try:
            validate_frame(dec.frame, tol=1e-7)
        except AlgebraError:
            ok = False
        worst = max(worst, resid)
        failures += not ok
    return {"failures": failures, "worst_residual": worst}


def suite_automorphism_invariance(alg, rng, trials, tol):
    worst = 0.0
    failures = 0
    e = unit(alg)
    for _ in range(trials):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        A = random_automorphism(alg, rng)
        Ax = apply_automorphism(A, x)
        scale = 1.0 + norm(x)
        resid = float(np.max(np.abs(eigenvalues(Ax) - eigenvalues(x)))) / scale
        hom = norm(
            apply_automorphism(A, jordan_product(x, y)) - jordan_product(Ax, apply_automorphism(A, y))
        ) / (scale * (1.0 + norm(y)))
        resid = max(resid, hom, norm(apply_automorphism(A, e) - e))
        worst = max(worst, resid)
        failures += resid > tol
    return {"failures": failures, "worst_residual": worst}


def _majorization_suite(holds, alg, rng, trials, tol):
    """Failures and worst gaps of a majorization verifier over random pairs."""
    failures = 0
    worst_prefix = np.inf
    worst_sum = 0.0
    for _ in range(trials):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        v = holds(a, b, tol=tol)
        worst_prefix = min(worst_prefix, v.worst_prefix_gap)
        worst_sum = max(worst_sum, v.sum_gap)
        failures += not v.holds
    return {
        "failures": failures,
        "worst_residual": max(0.0, -worst_prefix, worst_sum),
        "worst_prefix_gap": worst_prefix,
        "worst_sum_gap": worst_sum,
    }


def suite_lidskii(alg, rng, trials, tol):
    return _majorization_suite(lidskii_holds, alg, rng, trials, tol)


def suite_kyfan(alg, rng, trials, tol):
    return _majorization_suite(kyfan_holds, alg, rng, trials, tol)


def _strong_equivalence_gaps(a, b):
    """Gaps of the three strong-commutation tests: the inner-product
    identity, eigenvalue additivity under +, and sorted eigenvalue
    subtractivity under -.  lambda(a) and lambda(b) are solved once."""
    la, lb = eigenvalues(a), eigenvalues(b)
    return (
        abs(inner(a, b) - float(la @ lb)),
        float(np.max(np.abs(eigenvalues(a + b) - (la + lb)))),
        float(np.max(np.abs(sort_desc(la - lb) - eigenvalues(a - b)))),
    )


_GENERIC_TOL = 1e-7  # classifies the generic pairs of suite_strong_commutation_equivalence


def suite_strong_commutation_equivalence(alg, rng, trials, tol):
    """Constructed strongly-commuting pairs satisfy the eigenvalue
    identities; on generic pairs the three characterizations agree.

    The three residuals vanish together but scale differently near the
    commuting variety (one like distance, another like distance squared),
    so pairs landing inside the boundary layer around the shared
    tolerance cannot be classified consistently by any implementation.
    Such near-threshold draws are resampled: a pair counts only when all
    three residuals are decisively below (by 1e3) or above the tolerance.
    """
    failures = 0
    worst = 0.0
    disagreements = 0
    resampled = 0
    for _ in range(trials):
        frame = _random_frame(alg, rng)
        alpha = sort_desc(rng.standard_normal(alg.rank))
        beta = sort_desc(rng.standard_normal(alg.rank))
        a = synthesize_from_frame(frame, alpha, validate=False)
        b = synthesize_from_frame(frame, beta, validate=False)
        _, rb, rc = _strong_equivalence_gaps(a, b)
        worst = max(worst, rb, rc)
        failures += rb > tol or rc > tol

        for _attempt in range(50):
            a = random_element(alg, rng)
            b = random_element(alg, rng)
            ra, rb, rc = _strong_equivalence_gaps(a, b)
            # each gap scaled to its pass threshold at tolerance 1
            scale = 1.0 + norm(a) + norm(b)
            resid = (ra / (1.0 + norm(a) * norm(b)), rb / scale, rc / scale)
            decisive_true = all(r <= 1e-3 * _GENERIC_TOL for r in resid)
            decisive_false = all(r > _GENERIC_TOL for r in resid)
            if decisive_true or decisive_false:
                break
            resampled += 1
        else:
            failures += 1
            continue
        bools = [r <= _GENERIC_TOL for r in resid]
        if not (bools[0] == bools[1] == bools[2]):
            disagreements += 1
            failures += 1
    return {
        "failures": failures,
        "worst_residual": worst,
        "disagreements": disagreements,
        "resampled": resampled,
    }


def suite_shared_frame_commutation(alg, rng, trials, tol):
    """From one shared frame: operator commutation always; strong
    commutation exactly when the coefficient orderings agree."""
    failures = 0
    for _ in range(trials):
        frame = _random_frame(alg, rng)
        n = alg.rank
        alpha = _distinct_coeffs(n, rng)
        beta = _distinct_coeffs(n, rng)
        perm = rng.permutation(n)
        a = synthesize_from_frame(frame, alpha[perm], validate=False)
        b_aligned = synthesize_from_frame(frame, beta[perm], validate=False)
        b_anti = synthesize_from_frame(frame, beta[::-1][perm], validate=False)
        ok = operator_commute(a, b_aligned, tol=1e-7) and operator_commute(a, b_anti, tol=1e-7)
        ok = ok and strongly_operator_commute(a, b_aligned, tol=1e-7)
        if n >= 2:
            ok = ok and not strongly_operator_commute(a, b_anti, tol=1e-7)
        failures += not ok
    return {"failures": failures, "worst_residual": 0.0 if not failures else 1.0}


def suite_peirce(alg, rng, trials, tol):
    failures = 0
    worst = 0.0
    for i in range(trials):
        frame = _random_frame(alg, rng)
        k = int(rng.integers(0, alg.rank + 1)) if i % 8 else 0
        coords = np.zeros(alg.dim)
        for idx in rng.choice(alg.rank, size=k, replace=False):
            coords = coords + frame[idx].coords
        p = Element(alg, coords)
        x = random_element(alg, rng)
        x1, x0, xh = peirce_project(p, x)
        scale = 1.0 + norm(x)
        resid = norm(x1 + x0 + xh - x) / scale
        resid = max(resid, norm(jordan_product(p, x1) - x1) / scale)
        resid = max(resid, norm(jordan_product(p, x0)) / scale)
        resid = max(resid, norm(jordan_product(p, xh) - 0.5 * xh) / scale)
        resid = max(
            resid,
            max(abs(inner(x1, x0)), abs(inner(x1, xh)), abs(inner(x0, xh))) / scale**2,
        )
        worst = max(worst, resid)
        failures += resid > tol
    return {"failures": failures, "worst_residual": worst}


def suite_condition_bounds(alg, rng, trials, tol):
    failures = 0
    worst = 0.0
    e = unit(alg)
    for _ in range(trials):
        x = random_element(alg, rng)
        smallest = float(np.exp(rng.standard_normal()))
        x = x + (smallest - float(eigenvalues(x)[-1])) * e
        rep = condition_report(x)
        half = alg.rank // 2
        viol = max(
            rep.kappa_norm / np.sqrt(half) - rep.cond,
            rep.cond - rep.kappa_norm,
        )
        worst = max(worst, viol)
        failures += not rep.bounds_ok
    return {"failures": failures, "worst_residual": max(0.0, worst)}


def suite_phi_strict_schur(alg, rng, trials, tol):
    fn = builtin("cond_vector_norm", alg.rank)
    rep = check_strict_schur_convex(fn, rng, trials=trials)
    return {
        "failures": len(rep.violations),
        "worst_residual": max(0.0, -rep.min_margin),
        "min_margin": rep.min_margin,
    }


SUITES = (
    ("jordan_identity", suite_jordan_identity),
    ("spectral_roundtrip", suite_spectral_roundtrip),
    ("automorphism_invariance", suite_automorphism_invariance),
    ("lidskii", suite_lidskii),
    ("kyfan", suite_kyfan),
    ("strong_commutation_equivalence", suite_strong_commutation_equivalence),
    ("shared_frame_commutation", suite_shared_frame_commutation),
    ("peirce", suite_peirce),
    ("condition_bounds", suite_condition_bounds),
    ("phi_strict_schur", suite_phi_strict_schur),
)


def run_verify(seed, trials, tol, kinds=DEFAULT_KINDS, suites=SUITES) -> dict:
    """Run every suite over every algebra kind with per-case seeded rngs."""
    results = []
    passed = True
    for si, (suite_name, suite_fn) in enumerate(suites):
        for ki, (label, alg) in enumerate(kinds):
            if suite_name == "phi_strict_schur" and alg.rank < 2:
                continue
            rng = np.random.default_rng([int(seed), si, ki])
            out = suite_fn(alg, rng, trials, tol)
            ok = out["failures"] == 0
            passed = passed and ok
            row = {"suite": suite_name, "algebra": label, "trials": trials, "passed": ok}
            row.update(out)
            results.append(row)
    results.sort(key=lambda r: (r["suite"], r["algebra"]))
    return {
        "command": "verify",
        "seed": int(seed),
        "trials": int(trials),
        "tol": float(tol),
        "suites": results,
        "passed": passed,
    }
