"""The public settings of ``ejaopt``, pinned.

A setting is a parameter with a default of an exported function, or a
defaulted field of an exported dataclass other than the result types.
Adding, removing or changing one means editing ``SETTINGS``.
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
