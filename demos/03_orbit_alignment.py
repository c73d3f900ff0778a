#!/usr/bin/env python3
"""Optimizing F(x - a) over the eigenvalue orbit of b: brute-force oracle,
closed-form alignment, and the rotation-curve local search all meet at the
same certified optimum."""

import numpy as np

from ejaopt import (
    EigenvalueOrbit,
    FiniteSpectralSet,
    OrbitProblem,
    SymMatrix,
    apply_automorphism,
    builtin,
    local_search_orbit,
    permutation_oracle,
    random_automorphism,
    solve_orbit_global,
    sym_from_matrix,
    sym_to_matrix,
)

rng = np.random.default_rng(2)
s2 = SymMatrix(2)
fn = builtin("schatten", 2, p=2)
a = sym_from_matrix(s2, np.diag([2.0, 1.0]))
b = sym_from_matrix(s2, np.diag([3.0, 0.0]))

print("=== the two-permutation instance: lambda(b)=(3,0), lambda(a)=(2,1) ===")
print("oracle min:", permutation_oracle(fn, [3, 0], [2, 1], "min"))
print("oracle max:", permutation_oracle(fn, [3, 0], [2, 1], "max"))

problem = OrbitProblem(s2, fn, a, EigenvalueOrbit(b), "min")
sol = solve_orbit_global(problem)
print("\nclosed form min:", sol.value, " = sqrt(2)")
print("optimizer:\n", sym_to_matrix(sol.x_star))
print("certificate:", sol.certificate.kind, "passed:", sol.certificate.passed)
print("residuals:", {k: f"{v:.2e}" for k, v in sol.certificate.residuals.items()})

smax = solve_orbit_global(OrbitProblem(s2, fn, a, EigenvalueOrbit(b), "max"))
print("\nclosed form max:", smax.value, " = 2*sqrt(2), optimizer anti-aligned:")
print(sym_to_matrix(smax.x_star))
print("certificate (against -a):", smax.certificate.kind, smax.certificate.passed)

print("\n=== local search from random starts lands on the same point ===")
for i in range(3):
    x0 = apply_automorphism(random_automorphism(s2, rng), b)
    run = local_search_orbit(problem, x0)
    print(f"start {i}: value={run.value:.12f} sweeps={run.iterations} "
          f"converged={run.converged} certified={run.certificate.passed}")

print("\n=== finite unions of orbits (spectral sets) pick the best member ===")
q = FiniteSpectralSet(((3.0, 0.0), (4.0, 1.0)))
sq = solve_orbit_global(OrbitProblem(s2, fn, a, q, "min"))
print("Q = {(3,0), (4,1)} -> min", sq.value, "taken on the (3,0) orbit")
