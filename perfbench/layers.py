"""Per-layer metrics of the traced run, and what each should move.

Every entry is ``(name, unit, better, moves)``.  ``moves`` names the
end-to-end metric (and workload) a change to that layer should show up
in; later performance changes cite these names.  How a metric is computed
follows from its name:

``<layer>.self_share``
    self time of all spans of that layer over the traced op wall time.
``<span>.calls_per_op`` / ``<span>.self_us``
    calls of that span, and its self time in microseconds, per op.
``verify.<suite>.trials_per_s``
    verify trials per CPU second of op time in the untraced phase.
The remaining names are outcome statistics or run-level readings.
"""

from __future__ import annotations

import statistics

SUITES = (
    "jordan_identity",
    "spectral_roundtrip",
    "automorphism_invariance",
    "lidskii",
    "kyfan",
    "strong_commutation_equivalence",
    "shared_frame_commutation",
    "peirce",
    "condition_bounds",
    "phi_strict_schur",
)

_CS, _LS, _VS = "certified_solve", "local_search", "verify_sweep"

PER_LAYER = (
    ("algebra.self_share", "share", "lower", f"latency_p50_ms on {_CS} and {_VS}"),
    ("algebra.eigenvalues.calls_per_op", "calls/op", "lower",
     f"ops_per_s, latency_p50_ms on {_CS} and {_VS}; flat on {_LS}"),
    ("algebra.eigenvalues.self_us", "us/op", "lower",
     f"ops_per_s, latency_p50_ms on {_CS} and {_VS}; flat on {_LS}"),
    ("algebra.spectral_decompose.calls_per_op", "calls/op", "lower",
     f"ops_per_s, latency_p50_ms on {_CS} and {_VS}; flat on {_LS}"),
    ("algebra.spectral_decompose.self_us", "us/op", "lower",
     f"ops_per_s, latency_p50_ms on {_CS} and {_VS}; flat on {_LS}"),
    ("algebra.operator_commutation_residual.calls_per_op", "calls/op", "lower",
     f"latency_p99_ms on {_CS} (rank-7 tail); ops_per_s on {_VS}"),
    ("algebra.operator_commutation_residual.self_us", "us/op", "lower",
     f"latency_p99_ms on {_CS} (rank-7 tail); ops_per_s on {_VS}"),
    ("algebra.strong_commutation_gap.self_us", "us/op", "lower", f"ops_per_s on {_VS}"),
    ("algebra.synthesize_from_frame.self_us", "us/op", "lower", f"ops_per_s on {_VS}"),
    ("algebra.jordan_product.self_us", "us/op", "lower", f"ops_per_s on {_VS}"),
    ("algebra.apply_automorphism.self_us", "us/op", "lower", f"ops_per_s on {_VS}"),
    ("algebra.peirce_project.self_us", "us/op", "lower", f"ops_per_s on {_VS}"),
    ("orbit.self_share", "share", "lower", f"ops_per_s on {_CS} and {_LS}"),
    ("orbit.certify.calls_per_op", "calls/op", "lower", f"ops_per_s on {_CS}"),
    ("orbit.certify.self_us", "us/op", "lower", f"ops_per_s on {_CS}"),
    ("orbit.solve_problem.self_us", "us/op", "lower", f"ops_per_s on {_CS}"),
    ("orbit.permutation_oracle.self_us", "us/op", "lower", f"latency_p99_ms on {_CS}"),
    ("orbit.local_search_orbit.self_us", "us/op", "lower", f"ops_per_s on {_LS} (line-search loop)"),
    ("orbit.local_search_orbit.sweeps_per_run", "sweeps/run", "lower", f"ops_per_s on {_LS}"),
    ("orbit.local_search_orbit.converged_share", "share", "higher", f"ops_per_s, ok_share on {_LS}"),
    ("orbit.solve.worst_value_gap", "rel", "lower", "accuracy diagnostic, not a gate"),
    ("orbit.certify.worst_residual", "abs", "lower", "accuracy diagnostic, not a gate"),
    ("schur.self_share", "share", "lower", f"ops_per_s on {_LS}"),
    ("schur.SymmetricFunction.calls_per_op", "calls/op", "lower",
     f"ops_per_s on {_LS} (objective evaluations per run)"),
    ("schur.SymmetricFunction.self_us", "us/op", "lower", f"ops_per_s on {_LS}"),
    ("schur.check_strict_schur_convex.self_us", "us/op", "lower", f"ops_per_s on {_VS}"),
    ("majorization.self_share", "share", "lower", f"ops_per_s on {_LS}"),
    ("majorization.sort_desc.calls_per_op", "calls/op", "lower", f"ops_per_s on {_LS}"),
    ("majorization.sort_desc.self_us", "us/op", "lower", f"ops_per_s on {_LS}"),
    ("majorization.lidskii_holds.self_us", "us/op", "lower", f"ops_per_s on {_VS}"),
    ("majorization.kyfan_holds.self_us", "us/op", "lower", f"ops_per_s on {_VS}"),
    ("condition.self_share", "share", "lower", f"ops_per_s on {_VS}"),
    ("condition.condition_report.self_us", "us/op", "lower", f"ops_per_s on {_VS}"),
    ("condition.minimize_condition_norm_orbit.self_us", "us/op", "lower", f"ops_per_s on {_CS}"),
    ("verify.self_share", "share", "lower", f"ops_per_s on {_VS}"),
    *(
        (f"verify.{suite}.trials_per_s", "trials/s", "higher", f"ops_per_s on {_VS}")
        for suite in SUITES
    ),
    ("cli.self_share", "share", "lower", f"latency_p50_ms on {_VS}"),
    ("cli.dumps_report.self_us", "us/op", "lower", f"latency_p50_ms on {_VS}"),
    ("trace.overhead_share", "share", "lower", "run-level: traced over untraced wall time of the same ops, minus 1"),
    ("host.ref_loop_ms", "ms", "lower", "run-level: median CPU time of the fixed pure-Python loop; a slow host phase shows here"),
)

_SPAN_SUFFIXES = (".calls_per_op", ".self_us")


def required_spans():
    """Span names the per-layer metrics read."""
    return sorted(
        {name.rsplit(".", 1)[0] for name, *_ in PER_LAYER if name.endswith(_SPAN_SUFFIXES)}
    )


def compute(agg: dict, outcomes, suite_rates: dict, overhead: float, ref_ms, missing) -> dict:
    """All per-layer metrics that can be computed; names whose span is in
    ``missing`` are left out (the caller reports them).

    ``agg`` is ``SpanRecorder.aggregate()`` of the traced phase,
    ``outcomes`` every op ``Outcome`` of the run, ``suite_rates`` the
    untraced verify trials per second by suite.
    """
    ops = max(agg["ops"], 1)
    wall = agg["op_wall_s"] or 1.0
    searches = [o for o in outcomes if o.sweeps]
    values = {
        "orbit.local_search_orbit.sweeps_per_run": (
            statistics.fmean(o.sweeps for o in searches) if searches else 0.0
        ),
        "orbit.local_search_orbit.converged_share": (
            sum(o.converged for o in searches) / len(searches) if searches else 0.0
        ),
        "orbit.solve.worst_value_gap": max((o.gap for o in outcomes), default=0.0),
        "orbit.certify.worst_residual": max((o.residual for o in outcomes), default=0.0),
        "trace.overhead_share": overhead,
        "host.ref_loop_ms": statistics.median(ref_ms),
    }
    out = {}
    for name, unit, _better, _moves in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if name.endswith(_SPAN_SUFFIXES):
            if head in missing:
                continue
            if tail == "calls_per_op":
                value = agg["calls"].get(head, 0) / ops
            else:
                value = agg["self_s"].get(head, 0.0) / ops * 1e6
        elif tail == "self_share":
            value = sum(t for n, t in agg["self_s"].items() if n.startswith(head + ".")) / wall
        elif tail == "trials_per_s":
            value = suite_rates.get(head.split(".", 1)[1], 0.0)
        else:
            value = values[name]
        out[name] = {"value": float(value), "unit": unit}
    return out
