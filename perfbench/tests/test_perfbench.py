"""Tests of the benchmark itself: input determinism, metric coverage,
failure counting, span accounting and the contract file.

Run with ``python -m pytest -q perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder, Tracer  # noqa: E402
from workloads import WORKLOADS, CertifiedSolve, LocalSearch  # noqa: E402

ROOT = BENCH.parent


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_gives_identical_input_digest(name):
    wl = WORKLOADS[name]
    first = wl.digest(wl.build(run.load_library(), 7))
    again = wl.digest(wl.build(run.load_library(), 7))
    other = wl.digest(wl.build(run.load_library(), 8))
    assert first == again
    assert first != other


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_metric(name, trace, tmp_path):
    out = run.run_workload(name, seed=3, seconds=0.2, trace=trace, setup_reps=1, out_dir=tmp_path)
    result, record = out["result"], out["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = [n for n, *_ in layers.PER_LAYER] if trace else [n for n, _ in run.END_TO_END]
    assert list(result["metrics"]) == expected
    assert record.get("missing", []) == []
    assert result["correct"] and result["failed"] == 0 and record["failed_share"] == 0.0
    assert result["attempted"] >= WORKLOADS[name].cycle
    for m in result["metrics"].values():
        assert np.isfinite(m["value"])
    if not trace:
        assert result["metrics"]["ok_share"]["value"] == 1.0
        assert all(result["metrics"][k]["value"] > 0 for k, _ in run.END_TO_END)
    json.loads((tmp_path / f"{name}-seed3-trace{int(trace)}.json").read_text())


class _CorruptValue(CertifiedSolve):
    def run(self, lib, item):
        sol, ref = super().run(lib, item)
        return dataclasses.replace(sol, value=sol.value + 1e-6 * (1.0 + abs(ref))), ref


class _Raises(LocalSearch):
    def run(self, lib, item):
        raise RuntimeError("injected")


def test_corrupted_results_are_counted_as_failed(tmp_path):
    out = run.run_workload("certified_solve", seed=4, seconds=0.01, trace=False,
                           workload=_CorruptValue(), setup_reps=1, out_dir=tmp_path)
    res, rec = out["result"], out["record"]
    assert not res["correct"]
    assert res["failed"] == res["attempted"] == CertifiedSolve.cycle
    assert res["metrics"]["ok_share"]["value"] == 0.0
    assert rec["failed_share"] == 1.0
    first = rec["failures"][0]
    assert (first["seed"], first["index"]) == (4, 0) and "reference" in first["reason"]

    out = run.run_workload("local_search", seed=4, seconds=0.01, trace=False,
                           workload=_Raises(), setup_reps=1, out_dir=None)
    res = out["result"]
    assert res["failed"] == res["attempted"] and res["attempted"] % LocalSearch.cycle == 0
    assert "RuntimeError: injected" in out["record"]["failures"][0]["reason"]


def test_each_check_rejects_a_corrupted_result(lib):
    ls = WORKLOADS["local_search"]
    item = ls.build(lib, 5)[0]
    sol = ls.run(lib, item)
    assert ls.check(item, sol).ok
    assert not ls.check(item, dataclasses.replace(sol, converged=False)).ok
    assert not ls.check(item, dataclasses.replace(sol, value=sol.value + 1e-3)).ok

    vs = WORKLOADS["verify_sweep"]
    item = vs.build(lib, 5)[0]
    report, text = vs.run(lib, item)
    assert vs.check(item, (report, text)).ok
    bad = text.replace(f'"trials":{item.trials}', f'"trials":{item.trials + 1}')
    assert bad != text and not vs.check(item, (report, bad)).ok
    failed = dict(report, passed=False)
    assert not vs.check(item, (failed, text)).ok


def test_traced_self_times_sum_to_op_wall(lib):
    wl = WORKLOADS["certified_solve"]
    items = wl.build(lib, 6)
    originals = (lib.ej.eigenvalues, lib.ej.algebra.eigenvalues, lib.ej.SymmetricFunction.__call__)
    rec = SpanRecorder()
    with Tracer(rec, required=layers.required_spans()) as tracer:
        assert lib.ej.eigenvalues is not originals[0]
        for i in range(0, wl.cycle, 4):
            assert rec.run_op(i, wl.op, lib, items[i]).ok
    assert tracer.missing == []
    assert (lib.ej.eigenvalues, lib.ej.algebra.eigenvalues, lib.ej.SymmetricFunction.__call__) == originals

    a = rec.arrays()
    self_t = rec.self_times()
    assert np.all(self_t >= 0.0)
    root = np.flatnonzero(a["name"] == 0)
    for r in root:
        in_op = a["op"] == a["op"][r]
        assert np.sum(self_t[in_op]) == pytest.approx(a["end"][r] - a["start"][r], rel=1e-9, abs=1e-12)
    agg = rec.aggregate()
    assert agg["ops"] == len(root)
    assert sum(agg["self_s"].values()) == pytest.approx(agg["op_wall_s"], rel=1e-9)

    # calls between modules open spans too: algebra under orbit
    names = np.array(rec.names)
    parents = a["parent"][a["name"] == rec.name_id("algebra.spectral_decompose")]
    assert "orbit.solve_orbit_global" in set(names[a["name"][parents]])


def test_missing_wrapped_name_is_reported_not_fatal(lib):
    rec = SpanRecorder()
    with Tracer(rec, required=["algebra.eigenvalues", "algebra.renamed_away"]) as tracer:
        lib.ej.eigenvalues(lib.ej.random_element(lib.ej.SymMatrix(2), np.random.default_rng(0)))
    assert tracer.missing == ["algebra.renamed_away"]
    assert rec.aggregate()["calls"]["algebra.eigenvalues"] == 1
    metrics = layers.compute(rec.aggregate(), [], {}, 0.0, [1.0], ["algebra.eigenvalues"])
    assert "algebra.eigenvalues.self_us" not in metrics
    assert "algebra.self_share" in metrics


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, u, b) for n, u, b, _ in layers.PER_LAYER
    ]


def test_each_op_is_scaled_by_the_host_speed_of_its_own_interval():
    ph = run.Phase(latencies=[0.01, 0.01, 0.02], refs=[10.0, 10.0, 20.0, 20.0], ref_index=[0, 1, 2])
    speeds = run.bracket_speeds(ph.refs, ph.ref_index)
    assert speeds.tolist() == [1.0, 1.5, 2.0]
    metrics, rec = run.end_to_end(ph, [0.4, 0.2], [10.0, 20.0, 20.0], 50.0)
    assert metrics["ops_per_s"]["value"] == pytest.approx(3 / (0.01 + 0.01 / 1.5 + 0.01))
    assert metrics["setup_s"]["value"] == pytest.approx((0.4 / 1.5 + 0.2 / 2.0) / 2)
    assert rec["unscaled"]["ops_per_s"] == pytest.approx(3 / 0.04)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certified_solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert res.stdout == ""
