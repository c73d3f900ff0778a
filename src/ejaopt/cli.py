"""Command-line front end.

Subcommands::

    ejaopt verify          run the randomized property suites
    ejaopt solve FILE      solve an orbit / spectral-set problem file
    ejaopt condition FILE  condition-vector-norm minimization + audit table
    ejaopt counterexample  the product-algebra weak-orbit instance

Reports are emitted as JSON (floats printed with 17 significant digits,
keys sorted) or CSV.  Identical configuration and seed produce
byte-identical output when ``--no-timestamp`` is set.  The RNG is numpy's
PCG64, seeded from ``--seed`` (default 12345).

Exit codes: 0 success, 1 property/verdict failure, 2 usage or parse
error, 3 infeasible or domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from .algebra import (
    AlgebraError,
    SymMatrix,
    algebra_from_dict,
    algebra_to_dict,
    apply_automorphism,
    element_from_dict,
    element_to_dict,
    join,
    norm,
    product_algebra,
    random_automorphism,
    sym_from_matrix,
    eigenvalues,
)
from .condition import condition_report, minimize_condition_norm_orbit
from .orbit import (
    InfeasibleError,
    SolverError,
    _local_searches,
    _pairings,
    counterexample_no_strong,
    problem_from_dict,
    solve_problem,
)
from .schur import DomainError, builtin, from_config
from .verify import run_verify

DEFAULT_SEED = 12345

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2
_EXIT_INFEASIBLE = 3


# ---------------------------------------------------------------------------
# Deterministic report emission


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"non-finite value in report: {v!r}")
    return format(float(v), ".17g")


def dumps_report(obj) -> str:
    """Canonical JSON: sorted keys, 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = ",".join(
            f"{json.dumps(str(k))}:{dumps_report(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_report(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps_report(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)} in report")


_CSV_COLUMNS = ("case_id", "algebra", "fn", "sense", "value", "cert_kind", "cert_pass", "residual")


def _row(*cells) -> dict:
    """A CSV row: one cell per name of ``_CSV_COLUMNS``, in that order."""
    return dict(zip(_CSV_COLUMNS, cells, strict=True))


def _csv_from_rows(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(row[c]) for c in _CSV_COLUMNS])
    return buf.getvalue()


def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v))
    return v


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _finish(report: dict, rows, args) -> None:
    if not args.no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    if args.format == "json":
        _emit(dumps_report(report), args.out)
    else:
        _emit(_csv_from_rows(rows), args.out)


def _certificate_doc(cert) -> dict:
    return {
        "kind": cert.kind,
        "passed": cert.passed,
        "tol": cert.tol,
        "residuals": dict(cert.residuals),
        "checks": dict(cert.checks),
    }


def _solution_doc(sol) -> dict:
    doc = {
        "value": sol.value,
        "x_star": element_to_dict(sol.x_star),
        "certificate": _certificate_doc(sol.certificate),
        "iterations": sol.iterations,
        "converged": sol.converged,
    }
    if sol.trace is not None:
        doc["trace"] = [[s, v] for s, v in sol.trace]
    return doc


# ---------------------------------------------------------------------------
# Subcommands


def cmd_verify(args) -> int:
    report = run_verify(args.seed, args.trials, args.tol)
    rows = [
        _row(r["suite"], r["algebra"], "", "", float(r["failures"]), "", r["passed"], r["worst_residual"])
        for r in report["suites"]
    ]
    _finish(report, rows, args)
    return _EXIT_OK if report["passed"] else _EXIT_FAIL


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _Usage(f"invalid JSON in {path}: {exc}")


class _Usage(Exception):
    pass


def cmd_solve(args) -> int:
    doc = _load_json(args.input)
    try:
        problem = problem_from_dict(doc)
    except (ValueError, TypeError) as exc:
        raise _Usage(f"bad problem file: {exc}")
    solution = solve_problem(problem)
    alg_id = json.dumps(doc["algebra"], sort_keys=True)
    report = {
        "command": "solve",
        "seed": args.seed,
        "fn": problem.fn.id,
        "sense": problem.sense,
        "solution": _solution_doc(solution),
    }
    cert = solution.certificate
    rows = [
        _row(
            "closed_form", alg_id, problem.fn.id, problem.sense, solution.value, cert.kind, cert.passed,
            cert.residuals["inner_gap_a" if problem.sense == "min" else "inner_gap_neg_a"],
        )
    ]
    if args.local_search:
        rng = np.random.default_rng(args.seed)
        points = problem.feasible._points(problem.algebra)
        autos = [random_automorphism(problem.algebra, rng) for _ in range(args.local_search)]
        starts = [apply_automorphism(auto, points[i % len(points)]) for i, auto in enumerate(autos)]
        runs = []
        for i, sol in enumerate(_local_searches(problem, starts)):
            gap = abs(sol.value - solution.value)
            runs.append(
                {
                    "start": i,
                    "value": sol.value,
                    "iterations": sol.iterations,
                    "converged": sol.converged,
                    "certificate_passed": sol.certificate.passed,
                    "gap_to_closed_form": gap,
                }
            )
            rows.append(
                _row(
                    f"local_search_{i}", alg_id, problem.fn.id, problem.sense, sol.value,
                    sol.certificate.kind, sol.certificate.passed, gap,
                )
            )
        report["local_search"] = {
            "starts": args.local_search,
            "runs": runs,
            "max_gap_to_closed_form": max(r["gap_to_closed_form"] for r in runs),
            "all_certified": all(r["certificate_passed"] for r in runs),
            "all_converged": all(r["converged"] for r in runs),
        }
    _finish(report, rows, args)
    return _EXIT_OK


def cmd_condition(args) -> int:
    doc = _load_json(args.input)
    try:
        alg = algebra_from_dict(doc["algebra"])
        a = element_from_dict(doc["a"], alg)
        b = element_from_dict(doc["feasible"]["orbit_of"], alg)
    except (KeyError, TypeError, ValueError) as exc:
        raise _Usage(f"bad condition problem file: {exc}")
    solution = minimize_condition_norm_orbit(b, a, tol=args.tol)
    opt_report = condition_report(solution.x_star + a, tol=args.tol)
    fn = builtin("cond_vector_norm", alg.rank)
    alg_id = json.dumps(doc["algebra"], sort_keys=True)
    lam_b = eigenvalues(b)
    lam_a = eigenvalues(a)
    pairings = []
    rows = []
    if alg.rank <= 9:
        # f(P lam_b + lam_a) for every pairing, columns in lam_a's order
        perms, vals = _pairings(fn, lam_b, -lam_a)
        for perm, val in zip(perms.tolist(), vals.tolist()):
            pairings.append({"pairing": perm, "value": val})
            case_id = "pairing_" + "".join(str(i) for i in perm)
            rows.append(_row(case_id, alg_id, fn.id, "min", val, "", "", val - solution.value))
    report = {
        "command": "condition",
        "tol": args.tol,
        "solution": _solution_doc(solution),
        "optimum_condition_report": {
            "cond": opt_report.cond,
            "kappa": opt_report.kappa,
            "kappa_norm": opt_report.kappa_norm,
            "bounds_ok": opt_report.bounds_ok,
        },
        "feasibility_check": "exact: lambda_n(b) + lambda_n(a) > tol",
        "pairings": pairings,
    }
    _finish(report, rows, args)
    return _EXIT_OK


def _builtin_counterexample():
    s2 = SymMatrix(2)
    alg = product_algebra(s2, s2)
    a1 = sym_from_matrix(s2, np.diag([4.0, 3.0]))
    a2 = sym_from_matrix(s2, np.diag([2.0, 1.0]))
    b1 = sym_from_matrix(s2, np.diag([4.0, 1.0]))
    b2 = sym_from_matrix(s2, np.diag([3.0, 2.0]))
    return alg, join(alg, [a1, a2]), join(alg, [b1, b2])


def cmd_counterexample(args) -> int:
    if args.input:
        doc = _load_json(args.input)
        try:
            alg = algebra_from_dict(doc["algebra"])
            a = element_from_dict(doc["a"], alg)
            b = element_from_dict(doc["b"], alg)
            fn = from_config(doc.get("fn", {"fn": "schatten", "p": 2}), alg.rank)
        except (KeyError, TypeError, ValueError) as exc:
            raise _Usage(f"bad counterexample file: {exc}")
    else:
        alg, a, b = _builtin_counterexample()
        fn = builtin("schatten", alg.rank, p=2)
    rep = counterexample_no_strong(alg, a, b, fn)
    full = rep.spectral_set_solution
    b_comp = next(c for c in rep.components if c.contains_b)
    # values are compared with the largest component value and distances
    # with the larger operand, so the verdicts do not depend on units; each
    # scale is 0 only when every compared quantity is exactly 0
    v_scale = max(abs(c.value) for c in rep.components)
    x_scale = max(norm(a), norm(b))
    verdicts = {
        "b_component_min_positive": rep.b_component_value > 1e-6 * v_scale,
        "b_component_strong_commutation_fails": not b_comp.any_strong_commute,
        "operator_commutation_holds_at_optimizer": b_comp.certificate.checks["operator_commute"],
        "full_orbit_min_attained_at_shift": full.value <= 1e-9 * v_scale
        and norm(full.x_star - a) <= 1e-6 * x_scale,
        "is_counterexample": rep.is_counterexample,
    }
    if rep.degenerate:
        verdicts = {"is_counterexample": False}
    report = {
        "command": "counterexample",
        "fn": fn.id,
        "degenerate": rep.degenerate,
        "components": [
            {
                "spectra": [list(s) for s in c.spectra],
                "value": c.value,
                "contains_b": c.contains_b,
                "any_strong_commute": c.any_strong_commute,
                "optimizer": element_to_dict(c.optimizer),
                "certificate": _certificate_doc(c.certificate),
            }
            for c in rep.components
        ],
        "b_component_value": rep.b_component_value,
        "spectral_set_minimum": full.value,
        "spectral_set_optimizer": element_to_dict(full.x_star),
        "gap": rep.gap,
        "verdicts": verdicts,
    }
    alg_id = json.dumps(algebra_to_dict(alg), sort_keys=True)
    rows = [
        _row(
            f"component_{i}", alg_id, fn.id, "min", c.value, c.certificate.kind, c.certificate.passed,
            c.certificate.residuals["inner_gap_a"],
        )
        for i, c in enumerate(rep.components)
    ]
    _finish(report, rows, args)
    # a degenerate report's verdicts hold is_counterexample False
    return _EXIT_OK if all(verdicts.values()) else _EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ejaopt",
        description="Spectral-orbit optimization with commutation certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _output(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, metavar="PATH")
        p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=_positive(int), default=1000)
    p.add_argument("--tol", type=_positive(float), default=1e-9)
    _output(p)

    p = sub.add_parser("solve", help="solve a problem file")
    p.add_argument("input", metavar="FILE")
    p.add_argument("--local-search", type=_positive(int), default=0, metavar="N")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _output(p)

    p = sub.add_parser("condition", help="condition-number minimization")
    p.add_argument("input", metavar="FILE")
    p.add_argument("--tol", type=_positive(float), default=1e-9)
    _output(p)

    p = sub.add_parser("counterexample", help="weak-orbit strong-commutation gap")
    p.add_argument("--input", default=None, metavar="FILE")
    _output(p)
    return parser


def _positive(kind):
    """argparse type: a number of ``kind`` greater than zero."""
    def parse(text):
        value = kind(text)
        if value > 0:
            return value
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    parse.__name__ = kind.__name__  # names the kind in argparse's messages
    return parse


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "solve": cmd_solve,
        "condition": cmd_condition,
        "counterexample": cmd_counterexample,
    }
    try:
        return handlers[args.command](args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (InfeasibleError, SolverError, DomainError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
