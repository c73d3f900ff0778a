import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ejaopt
from ejaopt.algebra import algebra_to_dict, element_to_dict
from ejaopt.cli import _builtin_counterexample, dumps_report, main

SQRT2_PROBLEM = {
    "algebra": {"kind": "sym", "n": 2},
    "fn": {"fn": "schatten", "p": 2},
    "a": {"matrix": [[2.0, 0.0], [0.0, 1.0]]},
    "feasible": {"orbit_of": {"matrix": [[3.0, 0.0], [0.0, 0.0]]}},
    "sense": "min",
}

# local-search starts drawn as a product's slot order and as a permutation
WEAK_PRODUCT_PROBLEM = {
    "algebra": {"kind": "product", "factors": [{"kind": "sym", "n": 2}, {"kind": "sym", "n": 2}]},
    "fn": {"fn": "schatten", "p": 2},
    "a": {"coords": [1.0, 2.0, 0.3, 4.0, -1.0, 0.5]},
    "feasible": {"weak_orbit_of": {"coords": [3.0, 0.0, 0.2, 1.0, 2.0, 0.1]}},
}

DIAG_PROBLEM = {
    "algebra": {"kind": "diag", "n": 3},
    "fn": {"fn": "schatten", "p": 2},
    "a": {"coords": [1.0, 3.0, 2.0]},
    "feasible": {"orbit_of": {"coords": [5.0, -1.0, 2.0]}},
}

CONDITION_PROBLEM = {
    "algebra": {"kind": "sym", "n": 2},
    "a": {"matrix": [[3.0, 0.0], [0.0, 1.0]]},
    "feasible": {"orbit_of": {"matrix": [[2.0, 0.0], [0.0, 1.0]]}},
}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# verify


def test_verify_smoke(capsys):
    code, out = run(capsys, ["verify", "--trials", "2", "--no-timestamp"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(row["failures"] == 0 for row in report["suites"])


def test_verify_csv_format(capsys):
    code, out = run(capsys, ["verify", "--trials", "1", "--no-timestamp", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "case_id,algebra,fn,sense,value,cert_kind,cert_pass,residual"
    assert len(lines) > 10


def test_verify_determinism(tmp_path):
    problem = write(tmp_path, "p.json", SQRT2_PROBLEM)
    condition = write(tmp_path, "c.json", CONDITION_PROBLEM)
    weak = write(tmp_path, "w.json", WEAK_PRODUCT_PROBLEM)
    diag = write(tmp_path, "d.json", DIAG_PROBLEM)
    for argv in (
        ["verify", "--trials", "10", "--seed", "777"],
        ["solve", problem, "--local-search", "3"],
        ["solve", weak, "--local-search", "3"],
        ["solve", diag, "--local-search", "3"],
        ["condition", condition],
        ["counterexample"],
    ):
        out1 = tmp_path / f"{argv[0]}_a.json"
        out2 = tmp_path / f"{argv[0]}_b.json"
        assert main(argv + ["--no-timestamp", "--out", str(out1)]) == 0
        assert main(argv + ["--no-timestamp", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), argv[0]


def test_python_m_ejaopt_runs_the_cli(capsys):
    # an uninstalled checkout runs the CLI as `PYTHONPATH=src python -m ejaopt`
    src = str(Path(ejaopt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["verify", "--trials", "3", "--no-timestamp"]
    proc = subprocess.run(
        [sys.executable, "-m", "ejaopt", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, argv)[1]


def test_unwritable_out_path_exit_2(capsys):
    code = main(["verify", "--trials", "1", "--no-timestamp", "--out", "/nonexistent-dir/x.json"])
    assert code == 2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--tol", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    # each subcommand takes only the flags it acts on
    for argv in (
        ["solve", "p.json", "--tol", "1e-6"],
        ["solve", "p.json", "--trials", "5"],
        ["condition", "c.json", "--seed", "1"],
        ["counterexample", "--seed", "1"],
        ["counterexample", "--tol", "1e-6"],
        ["solve", "p.json", "--local-search", "-2"],
        ["solve", "p.json", "--local-search", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


# ---------------------------------------------------------------------------
# solve


def test_solve_sqrt2(tmp_path, capsys):
    path = write(tmp_path, "p.json", SQRT2_PROBLEM)
    code, out = run(capsys, ["solve", path, "--no-timestamp"])
    assert code == 0
    report = json.loads(out)
    assert report["solution"]["value"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert report["solution"]["certificate"]["passed"] is True
    assert report["fn"] == "schatten_2"
    # the certificate carries the tolerance it was computed at
    assert "tol" not in report
    assert report["solution"]["certificate"]["tol"] == 1e-9


def test_solve_max_sense(tmp_path, capsys):
    doc = dict(SQRT2_PROBLEM, sense="max")
    path = write(tmp_path, "p.json", doc)
    code, out = run(capsys, ["solve", path, "--no-timestamp"])
    assert code == 0
    report = json.loads(out)
    assert report["solution"]["value"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_solve_spectral_set_zero(tmp_path, capsys):
    doc = dict(SQRT2_PROBLEM)
    doc["feasible"] = {"spectral_set": [[2.0, 1.0]]}
    path = write(tmp_path, "p.json", doc)
    code, out = run(capsys, ["solve", path, "--no-timestamp"])
    assert code == 0
    assert json.loads(out)["solution"]["value"] == pytest.approx(0.0, abs=1e-12)


def test_solve_with_local_search(tmp_path, capsys):
    path = write(tmp_path, "p.json", SQRT2_PROBLEM)
    code, out = run(capsys, ["solve", path, "--no-timestamp", "--local-search", "3"])
    assert code == 0
    report = json.loads(out)
    ls = report["local_search"]
    assert ls["starts"] == 3
    assert ls["max_gap_to_closed_form"] <= 1e-6
    assert ls["all_certified"] is True and ls["all_converged"] is True


def test_solve_local_search_on_a_spectral_set(tmp_path, capsys):
    # start i lies on the orbit of member i mod 2, and meets the closed form
    # of the set holding that member alone
    from ejaopt.orbit import FiniteSpectralSet, OrbitProblem, problem_from_dict, solve_orbit_global

    members = [[3.0, 1.0, -2.0], [4.0, 0.5, 0.0]]
    doc = {
        "algebra": {"kind": "sym", "n": 3},
        "fn": {"fn": "schatten", "p": 4},
        "a": {"matrix": [[1.0, 0.5, 0.0], [0.5, -1.0, 0.25], [0.0, 0.25, 2.0]]},
        "feasible": {"spectral_set": members},
        "sense": "min",
    }
    code, out = run(capsys, ["solve", write(tmp_path, "p.json", doc), "--no-timestamp", "--local-search", "4"])
    assert code == 0
    runs = json.loads(out)["local_search"]["runs"]
    assert [r["start"] for r in runs] == [0, 1, 2, 3]
    p = problem_from_dict(doc)
    refs = [solve_orbit_global(OrbitProblem(p.algebra, p.fn, p.a, FiniteSpectralSet((tuple(m),)))).value for m in members]
    assert abs(refs[0] - refs[1]) > 0.1
    for r in runs:
        assert r["value"] == pytest.approx(refs[r["start"] % 2], rel=1e-9), r
        assert r["converged"] and r["certificate_passed"], r


def test_solve_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, ["solve", str(bad)])
    assert code == 2
    code, _ = run(capsys, ["solve", str(tmp_path / "missing.json")])
    assert code == 2
    path = write(tmp_path, "incomplete.json", {"algebra": {"kind": "sym", "n": 2}})
    code, _ = run(capsys, ["solve", path])
    assert code == 2


def test_solve_non_finite_spectral_set_exit_2(tmp_path, capsys):
    # Infinity (a JSON extension the loader accepts) fails at parse time,
    # before any member reaches numpy arithmetic
    doc = dict(SQRT2_PROBLEM, feasible={"spectral_set": [[float("inf"), 1.0], [3.0, 0.0]]})
    path = write(tmp_path, "p.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", path, "--local-search", "2"])
    assert code == 2
    assert "bad problem file" in capsys.readouterr().err


def test_solve_infeasible_exit_3(tmp_path, capsys):
    doc = dict(SQRT2_PROBLEM)
    doc["fn"] = {"fn": "cond_vector_norm"}
    path = write(tmp_path, "p.json", doc)
    code, _ = run(capsys, ["solve", path])
    assert code == 3


def test_solve_non_strict_fn_exit_0(tmp_path, capsys):
    # the closed form needs only Schur-convexity: the plain condition number
    # of x - a, minimized over the orbit of b, at the aligned point
    doc = dict(SQRT2_PROBLEM)
    doc["fn"] = {"fn": "cond_number"}
    doc["a"] = {"matrix": [[-2.0, 0.0], [0.0, -1.0]]}
    path = write(tmp_path, "p.json", doc)
    code, out = run(capsys, ["solve", path, "--no-timestamp"])
    assert code == 0
    solution = json.loads(out)["solution"]
    # x - a has eigenvalues (3 + 2, 0 + 1) aligned, (3 + 1, 0 + 2) anti-aligned
    assert solution["value"] == pytest.approx(2.0, rel=1e-14)
    assert solution["certificate"]["passed"] is True
    assert solution["certificate"]["kind"] == "strong_commute_with_a"


def test_solve_weak_orbit_of_a_product_certifies_per_factor(tmp_path, capsys):
    # a weak orbit keeps each factor's spectrum on its factor, so its
    # optimum is aligned with a factor by factor: the certificate checks
    # that, and the CSV residual is the one behind its kind
    path = write(tmp_path, "w.json", WEAK_PRODUCT_PROBLEM)
    code, out = run(capsys, ["solve", path, "--local-search", "3", "--no-timestamp"])
    assert code == 0
    report = json.loads(out)
    cert = report["solution"]["certificate"]
    assert cert["kind"] == "strong_commute_per_factor_with_a" and cert["passed"] is True
    assert set(cert["checks"]) == {
        "operator_commute", "strong_commute_with_a", "strong_commute_with_neg_a",
        "strong_commute_per_factor_with_a", "strong_commute_per_factor_with_neg_a",
    }
    # every run certifies its local optimum; start 0 stays in the other
    # arrangement of the identical factors, above the closed form
    runs = report["local_search"]["runs"]
    assert report["local_search"]["all_certified"] is True
    assert runs[0]["gap_to_closed_form"] > 1.0
    assert all(r["gap_to_closed_form"] <= 1e-9 for r in runs[1:])
    code, out = run(capsys, ["solve", path, "--no-timestamp", "--format", "csv"])
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["cert_kind"] == "strong_commute_per_factor_with_a"
    assert float(row["residual"]) == cert["residuals"]["inner_gap_per_factor_a"]


# ---------------------------------------------------------------------------
# condition


def test_condition_command(tmp_path, capsys):
    path = write(tmp_path, "c.json", CONDITION_PROBLEM)
    code, out = run(capsys, ["condition", path, "--no-timestamp"])
    assert code == 0
    report = json.loads(out)
    assert report["solution"]["value"] == pytest.approx(4.0 / 3.0, abs=1e-12)
    vals = sorted(p["value"] for p in report["pairings"])
    assert vals == pytest.approx([4.0 / 3.0, 2.5], abs=1e-12)
    assert report["optimum_condition_report"]["bounds_ok"] is True
    assert "seed" not in report
    assert report["feasibility_check"].startswith("exact:")

    code, out = run(capsys, ["condition", path, "--no-timestamp", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "case_id,algebra,fn,sense,value,cert_kind,cert_pass,residual"


def test_condition_optimum_is_the_smallest_pairing(tmp_path, capsys):
    # the solver's value is the optimal pairing's, bit for bit, so no
    # pairing's residual reads below 0
    doc = {
        "algebra": {"kind": "sym", "n": 4},
        "a": {"coords": [18.0, 16.0, 13.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
        "feasible": {"orbit_of": {"coords": [19.0, 14.0, 12.0, 10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}},
    }
    path = write(tmp_path, "c.json", doc)
    code, out = run(capsys, ["condition", path, "--no-timestamp", "--format", "csv"])
    assert code == 0
    assert min(float(row["residual"]) for row in csv.DictReader(io.StringIO(out))) == 0.0


def test_condition_tol_reaches_the_optimum_report(tmp_path, capsys):
    # the orbit is feasible at --tol 1e-12 (lambda_n(b) + lambda_n(a) = 5e-10),
    # and the report on the optimum takes the same margin
    doc = {
        "algebra": {"kind": "sym", "n": 2},
        "a": {"matrix": [[5e-10, 0], [0, 5e-10]]},
        "feasible": {"orbit_of": {"matrix": [[1, 0], [0, 0]]}},
    }
    path = write(tmp_path, "c.json", doc)
    code, out = run(capsys, ["condition", path, "--no-timestamp", "--tol", "1e-12"])
    assert code == 0
    assert json.loads(out)["optimum_condition_report"]["bounds_ok"] is True
    code, _ = run(capsys, ["condition", path, "--no-timestamp"])
    assert code == 3


def test_condition_infeasible_exit_3(tmp_path, capsys):
    doc = {
        "algebra": {"kind": "sym", "n": 2},
        "a": {"matrix": [[3.0, 0.0], [0.0, 1.0]]},
        "feasible": {"orbit_of": {"matrix": [[2.0, 0.0], [0.0, -5.0]]}},
    }
    path = write(tmp_path, "c.json", doc)
    code, _ = run(capsys, ["condition", path])
    assert code == 3


def test_condition_refuses_rank_1_exit_2(tmp_path, capsys):
    # the condition vector of a rank-1 element has no entry, so the sandwich
    # bounds of the optimum's report are undefined
    doc = {
        "algebra": {"kind": "diag", "n": 1},
        "a": {"coords": [1.0]},
        "feasible": {"orbit_of": {"coords": [2.0]}},
    }
    path = write(tmp_path, "c.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["condition", path, "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "rank >= 2" in captured.err


def test_condition_refuses_rank_1_before_it_solves(tmp_path, capsys):
    # an infeasible rank-1 orbit: the solver refuses the rank (exit 2) before
    # its feasibility test would refuse the orbit (exit 3)
    doc = {
        "algebra": {"kind": "diag", "n": 1},
        "a": {"coords": [1.0]},
        "feasible": {"orbit_of": {"coords": [-2.0]}},
    }
    path = write(tmp_path, "c.json", doc)
    code = main(["condition", path, "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "rank >= 2" in captured.err


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_builtin(capsys):
    code, out = run(capsys, ["counterexample", "--no-timestamp"])
    assert code == 0
    report = json.loads(out)
    verdicts = report["verdicts"]
    assert all(verdicts.values())
    assert report["b_component_value"] == pytest.approx(math.sqrt(6.0), abs=1e-9)
    assert report["spectral_set_minimum"] == pytest.approx(0.0, abs=1e-12)
    assert len(report["components"]) == 3


def test_counterexample_modified_instance_flagged(tmp_path, capsys):
    # a inside the weak orbit of b: strong commutation appears
    doc = {
        "algebra": {"kind": "product", "factors": [{"kind": "sym", "n": 2}, {"kind": "sym", "n": 2}]},
        "a": {"coords": [4.0, 1.0, 0.0, 3.0, 2.0, 0.0]},
        "b": {"coords": [4.0, 1.0, 0.0, 3.0, 2.0, 0.0]},
        "fn": {"fn": "schatten", "p": 2},
    }
    path = write(tmp_path, "cx.json", doc)
    code, out = run(capsys, ["counterexample", "--input", path, "--no-timestamp"])
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"]["is_counterexample"] is False


def test_counterexample_verdicts_do_not_depend_on_units(tmp_path, capsys):
    # The built-in instance with a and b scaled by t.  With the thresholds
    # 1e-6 (1 + |a|) and 1e-9 (1 + |a|), b_component_min_positive turned
    # False at t = 1e-9 and the command exited 1.
    code, builtin_out = run(capsys, ["counterexample", "--no-timestamp"])
    alg, a, b = _builtin_counterexample()
    for t in (1e-9, 1.0, 1e9):
        doc = {"algebra": algebra_to_dict(alg), "a": element_to_dict(t * a), "b": element_to_dict(t * b)}
        path = write(tmp_path, "cx.json", doc)
        scaled_code, out = run(capsys, ["counterexample", "--input", path, "--no-timestamp"])
        assert scaled_code == code == 0, t
        assert json.loads(out)["verdicts"] == json.loads(builtin_out)["verdicts"], t
        if t == 1.0:
            assert out == builtin_out


def test_counterexample_simple_algebra_warns(tmp_path, capsys):
    # one factor: "degenerate" says so, whether or not the algebra is simple
    for doc in (
        {
            "algebra": {"kind": "sym", "n": 2},
            "a": {"matrix": [[2.0, 0.0], [0.0, 1.0]]},
            "b": {"matrix": [[3.0, 0.0], [0.0, 0.0]]},
        },
        {"algebra": {"kind": "diag", "n": 3}, "a": {"coords": [3.0, 2.0, 1.0]}, "b": {"coords": [1.0, 5.0, 2.0]}},
    ):
        path = write(tmp_path, "cx.json", doc)
        code, out = run(capsys, ["counterexample", "--input", path, "--no-timestamp"])
        assert code == 1
        report = json.loads(out)
        assert report["degenerate"] is True
        assert report["verdicts"] == {"is_counterexample": False}


def test_counterexample_csv_names_the_algebra(tmp_path, capsys):
    # the algebra column holds the algebra document, as in solve and condition
    product = {"kind": "product", "factors": [{"kind": "sym", "n": 2}, {"kind": "sym", "n": 2}]}
    diag = {"kind": "diag", "n": 3}
    doc = {"algebra": diag, "a": {"coords": [3.0, 2.0, 1.0]}, "b": {"coords": [1.0, 5.0, 2.0]}}
    path = write(tmp_path, "cx.json", doc)
    for argv, alg in (([], product), (["--input", path], diag)):
        _code, out = run(capsys, ["counterexample", *argv, "--no-timestamp", "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(json.loads(row["algebra"]) == alg for row in rows), rows


# ---------------------------------------------------------------------------
# report emission


def test_dumps_report_canonical():
    doc = {"b": 1.5, "a": [1, 2.0, True, None, "x"], "c": {"z": math.sqrt(2.0)}}
    s = dumps_report(doc)
    assert s == '{"a":[1,2,true,null,"x"],"b":1.5,"c":{"z":1.4142135623730951}}'
    assert json.loads(s) == {"a": [1, 2.0, True, None, "x"], "b": 1.5, "c": {"z": math.sqrt(2.0)}}
    with pytest.raises(ValueError):
        dumps_report({"bad": float("nan")})
