"""The three seeded, closed-loop workloads of the ejaopt benchmark.

Each workload builds its inputs from a seed outside the timed region and
defines one *op*: ``run`` calls the library, ``check`` decides whether the
result is correct.  A measured phase runs ops ``0, 1, 2, ...`` (item ``i``
is ``items[i % len(items)]``) and stops only on a multiple of ``cycle``,
so every run executes the same mix of instance classes whatever its
length.

The library is reached only through module attributes of ``lib`` (the
``ejaopt`` package and its ``verify`` and ``cli`` modules), looked up at
call time, so a traced phase sees the wrappers installed by ``spans``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

VERIFY_TOL = 1e-9  # the ``ejaopt verify`` default
SOLVE_RTOL = 1e-10  # closed form vs permutation oracle, times (1 + |ref|)
SEARCH_RTOL = 1e-6  # local search vs closed form, times (1 + |ref|)


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str = ""
    gap: float = 0.0  # |value - reference| / (1 + |reference|)
    residual: float = 0.0  # the certificate's sense-appropriate residual
    sweeps: int = 0  # local-search sweeps
    converged: bool = False  # local-search convergence flag
    trials: int = 0  # verify trials run


def _cert_residual(cert) -> float:
    key = "inner_gap_a" if cert.kind == "strong_commute_with_a" else "inner_gap_neg_a"
    return float(cert.residuals[key])


def _value_outcome(sol, ref, rtol, **extra) -> Outcome:
    gap = abs(sol.value - ref) / (1.0 + abs(ref))
    residual = _cert_residual(sol.certificate)
    if not sol.certificate.passed:
        return Outcome(False, f"certificate {sol.certificate.kind} failed", gap, residual, **extra)
    if not gap <= rtol:
        return Outcome(False, f"value {sol.value!r} vs reference {ref!r}", gap, residual, **extra)
    return Outcome(True, "", gap, residual, **extra)


class Workload:
    name = ""
    why = ""
    cycle = 1
    warmup_stride = 1
    # reported as latency_p99_ms; lower where a run has too few ops for at
    # least ten to lie beyond p99
    tail_percentile = 99.0

    def build(self, lib, seed: int) -> list:
        raise NotImplementedError

    def run(self, lib, item):
        raise NotImplementedError

    def check(self, item, result) -> Outcome:
        raise NotImplementedError

    def describe(self, item):
        """Arrays and strings that identify an input, for the digest."""
        raise NotImplementedError

    def op(self, lib, item) -> Outcome:
        return self.check(item, self.run(lib, item))

    def warmup_indices(self):
        return range(0, self.cycle, self.warmup_stride)

    def digest(self, items) -> str:
        h = hashlib.sha256()
        for item in items:
            for part in self.describe(item):
                h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# certified_solve


@dataclass(frozen=True)
class SolveItem:
    label: str
    problem: object  # OrbitProblem, or None for a condition op
    a: object
    b: object
    fn: object  # the objective (cond_vector_norm for a condition op)


class CertifiedSolve(Workload):
    name = "certified_solve"
    why = (
        "closed-form solve + permutation-oracle cross-check over SymMatrix(2..7), SpinFactor(3..6), "
        "RealDiagonal(4); time sits in eigensolves, spectral_decompose and certify; no line search"
    )
    FNS = (("schatten", {"p": 2}), ("schatten", {"p": 4}), ("squared_norm", {}), ("spread_vector_norm", {}))
    SENSES = ("min", "max")
    CYCLES = 4  # distinct instance sets in the pool
    # per algebra (11 of them): every (fn, sense) solve, then one condition op
    warmup_stride = len(FNS) * len(SENSES) + 1
    cycle = 11 * warmup_stride

    def algebras(self, ej):
        return (
            [(f"sym{n}", ej.SymMatrix(n)) for n in range(2, 8)]
            + [(f"spin{d}", ej.SpinFactor(d)) for d in range(3, 7)]
            + [("diag4", ej.RealDiagonal(4))]
        )

    def build(self, lib, seed):
        ej = lib.ej
        rng = np.random.default_rng([seed, 1])
        items = []
        for _ in range(self.CYCLES):
            for label, alg in self.algebras(ej):
                for name, params in self.FNS:
                    fn = ej.builtin(name, alg.rank, **params)
                    for sense in self.SENSES:
                        a = ej.random_element(alg, rng)
                        b = ej.random_element(alg, rng)
                        problem = ej.OrbitProblem(alg, fn, a, ej.EigenvalueOrbit(b), sense)
                        items.append(SolveItem(f"{label}/{fn.id}/{sense}", problem, a, b, fn))
                a = self._in_cone(ej, alg, rng)
                b = self._in_cone(ej, alg, rng)
                fn = ej.builtin("cond_vector_norm", alg.rank)
                items.append(SolveItem(f"{label}/condition", None, a, b, fn))
        return items

    @staticmethod
    def _in_cone(ej, alg, rng):
        x = ej.random_element(alg, rng)
        smallest = float(np.exp(rng.standard_normal()))
        return x + (smallest - float(ej.eigenvalues(x)[-1])) * ej.unit(alg)

    def run(self, lib, item):
        ej = lib.ej
        if item.problem is None:
            sol = ej.minimize_condition_norm_orbit(item.b, item.a)
            lam_neg_a = ej.sort_desc(-ej.eigenvalues(item.a))
            ref, _ = ej.permutation_oracle(item.fn, ej.eigenvalues(item.b), lam_neg_a, "min")
        else:
            sol = ej.solve_problem(item.problem)
            ref, _ = ej.permutation_oracle(
                item.fn, ej.eigenvalues(item.b), ej.eigenvalues(item.a), item.problem.sense
            )
        return sol, ref

    def check(self, item, result):
        sol, ref = result
        return _value_outcome(sol, ref, SOLVE_RTOL)

    def describe(self, item):
        return (item.label, item.a.coords, item.b.coords)


# ---------------------------------------------------------------------------
# local_search


@dataclass(frozen=True)
class SearchItem:
    label: str
    problem: object
    x0: object
    ref: float  # closed-form optimum, computed at build time


class LocalSearch(Workload):
    name = "local_search"
    why = (
        "one rotation-curve local search from a random start on SymMatrix(3), SymMatrix(4), SpinFactor(5); "
        "time sits in line search and objective calls, not the Jacobi eigensolver"
    )
    FNS = (("schatten", {"p": 4}), ("squared_norm", {}))
    SENSES = ("min", "max")
    # Run lengths vary with the random start, so the median op depends on
    # the draw: 16 instances per class gave a quartile spread of 0.115 in
    # latency_p50_ms across seeds.  A 30 s run does 500-1000 ops, so a pool
    # of 768 uses each instance about once.
    CYCLES = 64
    cycle = 3 * len(FNS) * len(SENSES)
    warmup_stride = len(FNS) * len(SENSES)  # one run per algebra
    # A 30 s run has 500-1000 ops; p97.5 leaves ten beyond it down to 400.
    tail_percentile = 97.5

    def algebras(self, ej):
        return [("sym3", ej.SymMatrix(3)), ("sym4", ej.SymMatrix(4)), ("spin5", ej.SpinFactor(5))]

    def build(self, lib, seed):
        ej = lib.ej
        rng = np.random.default_rng([seed, 2])
        items = []
        for _ in range(self.CYCLES):
            for label, alg in self.algebras(ej):
                for name, params in self.FNS:
                    fn = ej.builtin(name, alg.rank, **params)
                    for sense in self.SENSES:
                        a = ej.random_element(alg, rng)
                        b = ej.random_element(alg, rng)
                        problem = ej.OrbitProblem(alg, fn, a, ej.EigenvalueOrbit(b), sense)
                        x0 = ej.apply_automorphism(ej.random_automorphism(alg, rng), b)
                        ref = ej.solve_problem(problem).value
                        items.append(SearchItem(f"{label}/{fn.id}/{sense}", problem, x0, ref))
        return items

    def run(self, lib, item):
        return lib.ej.local_search_orbit(item.problem, item.x0)

    def check(self, item, sol):
        extra = {"sweeps": int(sol.iterations), "converged": bool(sol.converged)}
        if not sol.converged:
            return Outcome(False, f"not converged after {sol.iterations} sweeps", **extra)
        return _value_outcome(sol, item.ref, SEARCH_RTOL, **extra)

    def describe(self, item):
        return (item.label, item.problem.a.coords, item.problem.feasible.b.coords, item.x0.coords)


# ---------------------------------------------------------------------------
# verify_sweep


@dataclass(frozen=True)
class VerifyItem:
    label: str
    seed: int
    trials: int
    suite: str
    suite_fn: str  # looked up on the verify module at call time
    kind: str
    algebra: object


class VerifySweep(Workload):
    name = "verify_sweep"
    why = (
        "one 100-trial run_verify (suite, algebra) case + dumps_report per op over DEFAULT_KINDS x SUITES; "
        "many tiny kernel calls; the only workload reaching majorization, condition_report and cli"
    )
    # Trials per case as users run them (100-1000): the per-case cost of
    # run_verify and dumps_report is then about 0.15% of an op, so batching
    # over trials shows as it would for `ejaopt verify`.
    TRIALS = 100
    ROUNDS = 8
    cycle = 100  # len(SUITES) x len(DEFAULT_KINDS)
    warmup_stride = 10  # diag4 in every suite
    # A 30 s run completes two to five rounds; p95 leaves at least ten ops
    # beyond it even at two: the five slowest cases of every round.
    tail_percentile = 95.0

    def cases(self, lib):
        return [
            (suite, fn.__name__, kind, alg)
            for suite, fn in lib.verify.SUITES
            for kind, alg in lib.verify.DEFAULT_KINDS
            if not (suite == "phi_strict_schur" and alg.rank < 2)
        ]

    def build(self, lib, seed):
        cases = self.cases(lib)
        if len(cases) != self.cycle:
            raise RuntimeError(f"verify_sweep expects {self.cycle} cases, found {len(cases)}")
        rng = np.random.default_rng([seed, 3])
        items = []
        for _ in range(self.ROUNDS):
            round_seed = int(rng.integers(2**31))
            items.extend(
                VerifyItem(f"{kind}/{suite}", round_seed, self.TRIALS, suite, fn_name, kind, alg)
                for suite, fn_name, kind, alg in cases
            )
        return items

    def run(self, lib, item):
        suites = [(item.suite, getattr(lib.verify, item.suite_fn))]
        report = lib.verify.run_verify(
            item.seed, item.trials, VERIFY_TOL, kinds=[(item.kind, item.algebra)], suites=suites
        )
        return report, lib.cli.dumps_report(report)

    def check(self, item, result):
        report, text = result
        extra = {"trials": item.trials}
        if len(report["suites"]) != 1 or not report["passed"]:
            return Outcome(False, f"case failed: {report['suites']}", **extra)
        if json.loads(text)["suites"] != report["suites"]:
            return Outcome(False, "dumps_report does not parse back to the same rows", **extra)
        return Outcome(True, **extra)

    def describe(self, item):
        return (item.label, item.seed, item.trials)


WORKLOADS = {w.name: w for w in (CertifiedSolve(), LocalSearch(), VerifySweep())}
