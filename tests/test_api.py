"""The public names and settings of ``ejaopt``, pinned.

A public name is a name without a leading underscore that
``ejaopt/__init__.py`` binds, submodules aside.  A setting is a parameter
with a default of an exported function, or a defaulted field of an
exported dataclass other than the result types.  Adding, removing or
changing one means editing ``PUBLIC_NAMES`` or ``SETTINGS``.
"""

import dataclasses
import inspect

import ejaopt

RESULT_TYPES = {
    "Certificate",
    "ConditionReport",
    "CounterexampleReport",
    "MajorizationVerdict",
    "Solution",
    "SpectralDecomposition",
}

PUBLIC_NAMES = [
    "AlgebraError",
    "Automorphism",
    "Certificate",
    "ConditionReport",
    "ConvergenceError",
    "CounterexampleReport",
    "DEFAULT_TOL",
    "DomainError",
    "EigenvalueOrbit",
    "Element",
    "FiniteSpectralSet",
    "InfeasibleError",
    "MajorizationVerdict",
    "OrbitProblem",
    "ProductAlgebra",
    "RealDiagonal",
    "Solution",
    "SolverError",
    "SpectralDecomposition",
    "SpinFactor",
    "SymMatrix",
    "SymmetricFunction",
    "WeakOrbit",
    "affine_compose",
    "algebra_from_dict",
    "algebra_to_dict",
    "apply_automorphism",
    "builtin",
    "certify",
    "check_strict_schur_convex",
    "condition_report",
    "counterexample_no_strong",
    "eigenvalues",
    "element_from_dict",
    "element_to_dict",
    "eval_spectral",
    "inner",
    "is_simple",
    "jordan_product",
    "kyfan_holds",
    "l_operator",
    "lidskii_holds",
    "local_search_orbit",
    "majorizes",
    "minimize_condition_norm_orbit",
    "norm",
    "operator_commute",
    "orbit_components",
    "peirce_project",
    "permutation_oracle",
    "phi",
    "problem_from_dict",
    "product_algebra",
    "random_automorphism",
    "random_element",
    "rotation_curve",
    "rotation_generator",
    "solve_orbit_global",
    "solve_problem",
    "sort_desc",
    "spectral_decompose",
    "strongly_operator_commute",
    "submajorizes",
    "sym_from_matrix",
    "sym_to_matrix",
    "synthesize_from_frame",
    "t_transform_sample",
    "trace",
    "unit",
    "weak_orbit_reps",
    "zero",
]

SETTINGS = {
    ("OrbitProblem", "sense"): "min",
    ("SymmetricFunction", "in_domain"): None,
    ("affine_compose", "scale"): 1.0,
    ("affine_compose", "shift"): 0.0,
    ("certify", "sense"): "min",
    ("certify", "tol"): 1e-9,
    ("check_strict_schur_convex", "trials"): 1000,
    ("condition_report", "tol"): 1e-9,
    ("element_from_dict", "algebra"): None,
    ("kyfan_holds", "tol"): 1e-9,
    ("lidskii_holds", "tol"): 1e-9,
    ("majorizes", "tol"): 1e-9,
    ("minimize_condition_norm_orbit", "tol"): 1e-9,
    ("operator_commute", "tol"): 1e-9,
    ("permutation_oracle", "sense"): "min",
    ("rotation_generator", "toward"): None,
    ("strongly_operator_commute", "tol"): 1e-9,
    ("submajorizes", "tol"): 1e-9,
    ("synthesize_from_frame", "validate"): True,
}


def _public_settings():
    found = {}
    for name in dir(ejaopt):
        obj = getattr(ejaopt, name)
        if name.startswith("_") or name in RESULT_TYPES:
            continue
        if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                if f.default is not dataclasses.MISSING:
                    found[(name, f.name)] = f.default
                elif f.default_factory is not dataclasses.MISSING:
                    found[(name, f.name)] = f.default_factory()
        elif inspect.isfunction(obj):
            for p in inspect.signature(obj).parameters.values():
                if p.default is not inspect.Parameter.empty:
                    found[(name, p.name)] = p.default
    return found


def test_public_settings_are_pinned():
    assert _public_settings() == SETTINGS


def test_public_names_are_pinned():
    found = sorted(
        name
        for name, obj in vars(ejaopt).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    )
    assert found == PUBLIC_NAMES
