"""Randomized property suites behind the ``verify`` command.

Each suite draws seeded probes for one algebra, checks an identity or an
inequality the library must satisfy (Jordan identity, spectral round
trips, Lidskii and Ky Fan majorizations, the equivalence of the three
strong-commutation characterizations, Peirce projections, the condition
number sandwich bounds, strict Schur-convexity of the condition-vector
norm), and reports the failure count plus the worst residual seen.

A suite draws each trial as one fixed-width row of standard normals, so
a block of trials is one rng call, and makes its discrete choices from
normals of the row (argsorts and argmaxes); an automorphism is the row
of ``random_automorphism``, and a Jordan frame the row of the kind's
``_frames_from`` (a Haar orthogonal draw on SymMatrix, not an
eigensolve).  It evaluates the block at once with the algebra's stacked
kernels, and spectra that do not depend on each other (lambda of a, b,
a + b and a - b, say) share one stacked call (``_spectra``), so a block
makes at most one stacked Jacobi call per SymMatrix factor, and only for
spectra that it checks.  Each row of a stacked kernel has the bits of its
single-vector call, and the checks run the private helpers behind the
public predicates (``lidskii_holds``, ``kyfan_holds``,
``strong_commutation_gap``, ``operator_commute``, ``condition_report``),
so neither the report nor the rng's end state depends on the block size.
``phi_strict_schur`` runs ``check_strict_schur_convex``, which stacks its
trials the same way.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    RealDiagonal,
    SpinFactor,
    SymMatrix,
    _commutator_norm,
    _frame_checks,
    _norm,
    _peirce_parts,
    _strong_gap,
    _synthesize,
    product_algebra,
)
from .condition import _condition
from .majorization import _kyfan, _lidskii, sort_desc
from .schur import _BLOCK, builtin, check_strict_schur_convex

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


def _blocks(trials):
    """Consecutive trial index ranges of at most ``_BLOCK`` trials."""
    return [range(i, min(i + _BLOCK, trials)) for i in range(0, trials, _BLOCK)]


def _spectra(alg, *stacks):
    """Eigenvalues of equal-shape ``(m, dim)`` stacks in one stacked call,
    split back into one ``(m, rank)`` array per stack."""
    return np.split(alg._eigvals(np.concatenate(stacks)), len(stacks))


def _distinct_coeffs(Z):
    """Distinct non-increasing coefficients from rows of n + 1 normals: the
    last as an offset, plus the reversed running sum of gaps 0.1 + |z|."""
    return Z[:, -1:] + np.cumsum(0.1 + np.abs(Z[:, :-1]), axis=-1)[:, ::-1]


def suite_jordan_identity(alg, rng, trials, tol):
    worst = 0.0
    failures = 0
    for block in _blocks(trials):
        pairs = rng.standard_normal((len(block), 2, alg.dim))
        X, Y = pairs[:, 0], pairs[:, 1]
        XX = alg._product(X, X)
        resid = _norm(alg, alg._product(alg._product(X, Y), XX) - alg._product(X, alg._product(Y, XX)))
        # Python's float power (libm pow), whose last bit can differ from s * s
        nx, ny = _norm(alg, X).tolist(), _norm(alg, Y).tolist()
        resid = resid / np.array([(1.0 + a) ** 2 * (1.0 + b) for a, b in zip(nx, ny)])
        worst = max(worst, float(np.max(resid)))
        failures += int(np.count_nonzero(resid > tol))
    return {"failures": failures, "worst_residual": worst}


def suite_spectral_roundtrip(alg, rng, trials, tol):
    n, dim = alg.rank, alg.dim
    worst = 0.0
    failures = 0
    for block in _blocks(trials):
        # per trial: x, 5 normals per coefficient, then the frame's row; every
        # fourth trial puts coefficients uniform on {-2..2} (repeated
        # eigenvalues) on its frame in place of x
        D = rng.standard_normal((len(block), dim + 5 * n + alg._frame_width))
        X = D[:, :dim]
        repeated = np.arange(block.start, block.stop) % 4 == 3
        if repeated.any():
            members = np.moveaxis(alg._frames_from(D[repeated, dim + 5 * n :]), -2, 0)
            coeffs = np.argmax(D[repeated, dim : dim + 5 * n].reshape(-1, n, 5), axis=-1) - 2.0
            X[repeated] = _synthesize(members, coeffs)
        vals, frames = alg._decompose(X)
        scale = 1.0 + _norm(alg, X)
        resid = _norm(alg, _synthesize(np.moveaxis(frames, -2, 0), vals) - X) / scale
        # the frame's eigenvalues against a second route: LAPACK on the
        # SymMatrix factors, so not the Jacobi sweep that made them
        resid = np.maximum(resid, np.max(np.abs(vals - alg._check_eigvals(X)), axis=-1) / scale)
        resid = np.maximum(resid, np.abs(np.sum(vals, axis=-1) - alg._trace(X)) / scale)
        idempotent, primitive, orthogonal, sums_to_unit = _frame_checks(alg, frames, tol=1e-7)
        valid = idempotent.all(-1) & primitive.all(-1) & orthogonal.all((-2, -1)) & sums_to_unit
        worst = max(worst, float(np.max(resid)))
        failures += int(np.count_nonzero(~((resid <= tol) & valid)))
    return {"failures": failures, "worst_residual": worst}


def suite_automorphism_invariance(alg, rng, trials, tol):
    worst = 0.0
    failures = 0
    e = alg._unit()
    for block in _blocks(trials):
        # per trial: x, y, then the automorphism's row
        D = rng.standard_normal((len(block), 2 * alg.dim + alg._auto_width))
        X, Y = D[:, : alg.dim], D[:, alg.dim : 2 * alg.dim]
        autos = alg._autos_from(D[:, 2 * alg.dim :])

        def apply(U):
            return alg._apply_auto(autos, U)

        AX = apply(X)
        scale = 1.0 + _norm(alg, X)
        lax, lx = _spectra(alg, AX, X)
        resid = np.max(np.abs(lax - lx), axis=-1) / scale
        hom = _norm(alg, apply(alg._product(X, Y)) - alg._product(AX, apply(Y)))
        hom = hom / (scale * (1.0 + _norm(alg, Y)))
        resid = np.maximum(np.maximum(resid, hom), _norm(alg, apply(np.broadcast_to(e, X.shape)) - e))
        worst = max(worst, float(np.max(resid)))
        failures += int(np.count_nonzero(resid > tol))
    return {"failures": failures, "worst_residual": worst}


def _majorization_suite(verdicts, combine, alg, rng, trials, tol):
    """Failures and worst gaps of a majorization verifier over random pairs
    (a, b): ``verdicts`` takes the eigenvalues of a, b and combine(a, b)."""
    failures = 0
    worst_prefix = np.inf
    worst_sum = 0.0
    for block in _blocks(trials):
        pairs = rng.standard_normal((len(block), 2, alg.dim))
        A, B = pairs[:, 0], pairs[:, 1]
        holds, _strict, prefix, sum_gap = verdicts(*_spectra(alg, A, B, combine(A, B)), tol)
        worst_prefix = min(worst_prefix, float(np.min(prefix)))
        worst_sum = max(worst_sum, float(np.max(sum_gap)))
        failures += int(np.count_nonzero(~holds))
    return {
        "failures": failures,
        "worst_residual": max(0.0, -worst_prefix, worst_sum),
        "worst_prefix_gap": worst_prefix,
        "worst_sum_gap": worst_sum,
    }


def suite_lidskii(alg, rng, trials, tol):
    return _majorization_suite(_lidskii, np.subtract, alg, rng, trials, tol)


def suite_kyfan(alg, rng, trials, tol):
    return _majorization_suite(_kyfan, np.add, alg, rng, trials, tol)


def _strong_equivalence_gaps(alg, A, B):
    """Gaps of the three strong-commutation tests, row by row: the
    inner-product identity, eigenvalue additivity under +, and sorted
    eigenvalue subtractivity under -.  lambda of a, b, a + b and a - b are
    solved once each, all four in one stacked call."""
    la, lb, l_sum, l_diff = _spectra(alg, A, B, A + B, A - B)
    return (
        _strong_gap(alg, A, B, la, lb),
        np.max(np.abs(l_sum - (la + lb)), axis=-1),
        np.max(np.abs(sort_desc(la - lb) - l_diff), axis=-1),
    )


_GENERIC_TOL = 1e-7  # classifies the generic pairs of suite_strong_commutation_equivalence


def _generic_verdicts(alg, A, B, gaps):
    """Per generic pair: whether all three residuals are decisive, and
    whether the three characterizations agree."""
    ra, rb, rc = gaps
    na, nb = _norm(alg, A), _norm(alg, B)
    # each gap scaled to its pass threshold at tolerance 1
    scale = 1.0 + na + nb
    resid = np.stack([ra / (1.0 + na * nb), rb / scale, rc / scale])
    decisive = np.all(resid <= 1e-3 * _GENERIC_TOL, axis=0) | np.all(resid > _GENERIC_TOL, axis=0)
    holds = resid <= _GENERIC_TOL
    return decisive, (holds[0] == holds[1]) & (holds[1] == holds[2])


def suite_strong_commutation_equivalence(alg, rng, trials, tol):
    """Constructed strongly-commuting pairs satisfy the eigenvalue
    identities; on generic pairs the three characterizations agree.

    The three residuals vanish together but scale differently near the
    commuting variety (one like distance, another like distance squared),
    so pairs landing inside the boundary layer around the shared
    tolerance cannot be classified consistently by any implementation.
    Such near-threshold draws are resampled: a pair counts only when all
    three residuals are decisively below (by 1e3) or above the tolerance.

    A trial draws a frame, two coefficient vectors and a generic pair, all
    standard normal, so a block of trials is one draw.  A resample shifts
    the stream: the trials after it in the block are dropped, and the
    stream is replayed up to the resampling trial's first pair.
    """
    n, dim, fw = alg.rank, alg.dim, alg._frame_width
    width = fw + 2 * n + 2 * dim
    failures = 0
    worst = 0.0
    disagreements = 0
    resampled = 0
    start = 0
    while start < trials:
        m = min(_BLOCK, trials - start)
        state = rng.bit_generator.state
        D = rng.standard_normal((m, width))
        members = np.moveaxis(alg._frames_from(D[:, :fw]), -2, 0)
        A = _synthesize(members, sort_desc(D[:, fw : fw + n]))
        B = _synthesize(members, sort_desc(D[:, fw + n : fw + 2 * n]))
        GA, GB = D[:, fw + 2 * n : fw + 2 * n + dim], D[:, fw + 2 * n + dim :]
        gaps = _strong_equivalence_gaps(alg, np.concatenate([A, GA]), np.concatenate([B, GB]))
        decisive, agree = _generic_verdicts(alg, GA, GB, [g[m:] for g in gaps])
        # trials before the first resample are final, and so is the
        # constructed pair of the resampling trial
        done = int(np.argmin(decisive)) if not decisive.all() else m
        kept = min(done + 1, m)
        rb, rc = gaps[1][:kept], gaps[2][:kept]
        worst = max(worst, float(np.max(np.maximum(rb, rc))))
        failures += int(np.count_nonzero((rb > tol) | (rc > tol)))
        disagreements += int(np.count_nonzero(~agree[:done]))
        failures += int(np.count_nonzero(~agree[:done]))
        start += kept
        if done == m:
            continue
        rng.bit_generator.state = state
        rng.standard_normal((done + 1) * width)
        resampled += 1
        for _attempt in range(1, 50):
            pair = rng.standard_normal((1, 2, dim))
            GA, GB = pair[:, 0], pair[:, 1]
            decisive, agree = _generic_verdicts(alg, GA, GB, _strong_equivalence_gaps(alg, GA, GB))
            if decisive[0]:
                break
            resampled += 1
        else:
            failures += 1
            continue
        if not agree[0]:
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
    commutation exactly when the coefficient orderings agree.  The worst
    residual is the largest gap that must vanish, over |a| |b|."""
    n, fw = alg.rank, alg._frame_width
    failures = 0
    worst = 0.0
    for block in _blocks(trials):
        # per trial: the frame's row, alpha and beta, then a permutation
        D = rng.standard_normal((len(block), fw + 3 * n + 2))
        members = np.moveaxis(alg._frames_from(D[:, :fw]), -2, 0)
        alpha = _distinct_coeffs(D[:, fw : fw + n + 1])
        beta = _distinct_coeffs(D[:, fw + n + 1 : fw + 2 * n + 2])
        perm = np.argsort(D[:, fw + 2 * n + 2 :], axis=-1)
        a = _synthesize(members, np.take_along_axis(alpha, perm, -1))
        b_aligned = _synthesize(members, np.take_along_axis(beta, perm, -1))
        b_anti = _synthesize(members, np.take_along_axis(beta[:, ::-1], perm, -1))
        la, l_aligned, l_anti = _spectra(alg, a, b_aligned, b_anti)
        na = _norm(alg, a)
        s_aligned, s_anti = na * _norm(alg, b_aligned), na * _norm(alg, b_anti)
        resid = np.maximum.reduce([
            _commutator_norm(alg, a, b_aligned) / s_aligned,
            _commutator_norm(alg, a, b_anti) / s_anti,
            _strong_gap(alg, a, b_aligned, la, l_aligned) / s_aligned,
        ])
        ok = resid <= 1e-7
        if n >= 2:
            ok &= _strong_gap(alg, a, b_anti, la, l_anti) / s_anti > 1e-7
        worst = max(worst, float(np.max(resid)))
        failures += int(np.count_nonzero(~ok))
    return {"failures": failures, "worst_residual": worst}


def suite_peirce(alg, rng, trials, tol):
    n, dim, fw = alg.rank, alg.dim, alg._frame_width
    failures = 0
    worst = 0.0
    for block in _blocks(trials):
        # per trial: the frame's row, k uniform on {0..rank} (0 on every
        # eighth trial), the order that picks k members of the frame, then x
        D = rng.standard_normal((len(block), fw + 2 * n + 1 + dim))
        frames = alg._frames_from(D[:, :fw])
        k = np.argmax(D[:, fw : fw + n + 1], axis=-1) * (np.arange(block.start, block.stop) % 8 != 0)
        # member j is picked when it is among the first k of the argsort
        pick = np.argsort(np.argsort(D[:, fw + n + 1 : fw + 2 * n + 1], axis=-1), axis=-1) < k[:, None]
        P = (pick[:, None, :].astype(float) @ frames)[:, 0]
        X = D[:, fw + 2 * n + 1 :]
        x1, x0, xh = _peirce_parts(alg, P, X)
        scale = 1.0 + _norm(alg, X)
        resid = _norm(alg, x1 + x0 + xh - X) / scale
        resid = np.maximum(resid, _norm(alg, alg._product(P, x1) - x1) / scale)
        resid = np.maximum(resid, _norm(alg, alg._product(P, x0)) / scale)
        resid = np.maximum(resid, _norm(alg, alg._product(P, xh) - 0.5 * xh) / scale)
        cross = np.abs([alg._inner(x1, x0), alg._inner(x1, xh), alg._inner(x0, xh)]).max(axis=0)
        # Python's float power (libm pow), whose last bit can differ from s * s
        resid = np.maximum(resid, cross / np.array([s**2 for s in scale.tolist()]))
        worst = max(worst, float(np.max(resid)))
        failures += int(np.count_nonzero(resid > tol))
    return {"failures": failures, "worst_residual": worst}


def suite_condition_bounds(alg, rng, trials, tol):
    failures = 0
    worst = 0.0
    half = alg.rank // 2
    for block in _blocks(trials):
        # per trial: x, then the log of the smallest eigenvalue to shift it
        # to; lambda(x + t e) = lambda(x) + t, so the shift needs no solve
        draws = rng.standard_normal((len(block), alg.dim + 1))
        lam = alg._eigvals(draws[:, :-1])
        lam = lam + (np.exp(draws[:, -1]) - lam[:, -1])[:, None]
        cond, _kappa, kappa_norm, bounds_ok = _condition(lam, DEFAULT_TOL)
        viol = np.maximum(kappa_norm / np.sqrt(half) - cond, cond - kappa_norm)
        worst = max(worst, float(np.max(viol)))
        failures += int(np.count_nonzero(~bounds_ok))
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
    """Run every suite over every algebra kind with per-case seeded rngs;
    the condition-vector suites skip kinds of rank 1."""
    results = []
    passed = True
    for si, (suite_name, suite_fn) in enumerate(suites):
        for ki, (label, alg) in enumerate(kinds):
            # the condition vector has no entry below rank 2
            if alg.rank < 2 and suite_name in ("condition_bounds", "phi_strict_schur"):
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
