"""Benchmark runner for ejaopt.

    python3 perfbench/run.py --workload certified_solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy.  One
caller runs ops back to back (closed loop).  With ``--trace 0`` the run
measures the end-to-end metrics with tracing off; with ``--trace 1`` it
spends half the time untraced and half traced (spans at every call into an
ejaopt layer) and reports the per-layer metrics of ``layers.PER_LAYER``.
Every op's result is checked; failures are counted, never dropped.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (host, versions, BLAS, seed, commit, failures).  Both
are also written under ``.bench_out/`` with the traced run's spans.
"""

from __future__ import annotations

import os

# Held fixed before numpy loads: the kernels are tiny, one BLAS thread
# keeps runs comparable and never exceeds the core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from spans import SpanRecorder, Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SETUP_REPS = 5
# ref_loop_ms() on the reference host: a 2-vCPU Xeon VM at 2.0 GHz running
# Python 3.11, in its fast phase.  Timings are reported at this host speed.
REF_MS = 10.0
REF_EVERY_S = 0.5  # wall seconds between reference-loop samples in a phase
MAX_FAILURES_LISTED = 20
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
)


# ---------------------------------------------------------------------------
# Library and host


def load_library():
    """Import ejaopt afresh from ``src/``; returns the modules the
    workloads call through."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ejaopt" or m.startswith("ejaopt.")]:
        del sys.modules[name]
    ej = importlib.import_module("ejaopt")
    if Path(ej.__file__).resolve().parent != (SRC / "ejaopt").resolve():
        raise ImportError(f"ejaopt imported from {ej.__file__}, not from {SRC}")
    return SimpleNamespace(
        ej=ej,
        verify=importlib.import_module("ejaopt.verify"),
        cli=importlib.import_module("ejaopt.cli"),
    )


def ref_loop_ms() -> float:
    """CPU milliseconds of a fixed pure-Python loop: the host's current speed.

    Half of it is integer arithmetic, half float rotations over short
    lists, the shape of the library's Jacobi sweeps.  In slow host phases
    an integer loop alone slowed less than the workloads' short ops, and
    a rotation loop alone more than their long Jacobi-bound ops; the mix
    sits between the two.
    """
    c0 = process_time()
    acc = 0
    for i in range(50_000):
        acc = (acc + i * i) % 1_000_003
    x = [0.1 * i for i in range(8)]
    y = [0.2 * i + 1.0 for i in range(8)]
    for _ in range(5_750):
        for i in range(8):
            xi, yi = x[i], y[i]
            x[i] = 0.8 * xi - 0.6 * yi
            y[i] = 0.6 * xi + 0.8 * yi
    return (process_time() - c0) * 1e3


def _openblas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ejaopt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def host_record() -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads(), "threads_env": os.environ["OPENBLAS_NUM_THREADS"]},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# Set-up and measurement


def set_up(workload, seed: int, reps: int = SETUP_REPS):
    """Import, input generation and warm-up, ``reps`` times, with a host
    reference-loop sample before each repetition and after the last; the
    last repetition's library and inputs are kept."""
    times, refs = [], [ref_loop_ms()]
    for _ in range(reps):
        t0 = process_time()
        lib = load_library()
        items = workload.build(lib, seed)
        for i in workload.warmup_indices():
            try:
                workload.op(lib, items[i])
            except Exception:  # counted when the measured phase runs it
                pass
        times.append(process_time() - t0)
        refs.append(ref_loop_ms())
    return lib, items, times, refs


def bracket_speeds(refs, index) -> np.ndarray:
    """Host speed (> 1 on a slower host) of each timed interval: the mean of
    the reference-loop samples ``refs[index]`` and ``refs[index + 1]``
    taken just before and just after it, over ``REF_MS``."""
    r = np.asarray(refs, dtype=float) / REF_MS
    k = np.asarray(index, dtype=int)
    return (r[k] + r[k + 1]) / 2.0


@dataclass
class Phase:
    latencies: list = field(default_factory=list)  # CPU seconds per op
    walls: list = field(default_factory=list)  # wall seconds per op
    outcomes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    refs: list = field(default_factory=list)  # ref_loop_ms() samples
    ref_index: list = field(default_factory=list)  # per op: last sample before it
    cpu: float = 0.0
    wall: float = 0.0


def measure(workload, lib, items, seconds: float, seed: int, recorder=None) -> Phase:
    """Run ops from item 0 until ``seconds`` of wall time have passed,
    stopping on a cycle boundary.  An exception or a failed check is a
    failed op.

    Ops are timed in process CPU time: the library is single-threaded and
    never waits, so on an idle host this equals wall time, and on a shared
    host it leaves out the time other tenants hold the core.  The host
    reference loop is sampled before the first op, between ops once
    ``REF_EVERY_S`` of wall time has passed, and after the last op.
    """
    ph = Phase()
    start, cpu_start = perf_counter(), process_time()
    deadline = start + seconds
    next_ref = start
    i = 0
    while i == 0 or i % workload.cycle or perf_counter() < deadline:
        if perf_counter() >= next_ref:
            ph.refs.append(ref_loop_ms())
            next_ref = perf_counter() + REF_EVERY_S
        ph.ref_index.append(len(ph.refs) - 1)
        item = items[i % len(items)]
        w0, t0 = perf_counter(), process_time()
        try:
            if recorder is None:
                out = workload.op(lib, item)
            else:
                out = recorder.run_op(i, workload.op, lib, item)
        except Exception as exc:
            out = Outcome(False, f"{type(exc).__name__}: {exc}")
        ph.latencies.append(process_time() - t0)
        ph.walls.append(perf_counter() - w0)
        ph.outcomes.append(out)
        if not out.ok:
            ph.failures.append({"seed": seed, "index": i, "label": item.label, "reason": out.reason})
        i += 1
    ph.refs.append(ref_loop_ms())
    ph.cpu = process_time() - cpu_start
    ph.wall = perf_counter() - start
    return ph


def _timings(setup_s, lat_s, q: float) -> dict:
    lat_ms = np.asarray(lat_s) * 1e3
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(lat_ms) / float(np.sum(lat_s)),
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_p99_ms": float(np.percentile(lat_ms, q)),
    }


def end_to_end(ph: Phase, setup_times, setup_refs, q: float) -> tuple:
    """The contract metrics, and the unscaled timings for the record.

    Every op time, and every set-up repetition, is divided by the host
    speed of its own interval (``bracket_speeds``), so a host phase that
    starts or ends inside a run is taken out where it happened.
    """
    n = len(ph.latencies)
    speeds = bracket_speeds(ph.refs, ph.ref_index)
    setup_speeds = bracket_speeds(setup_refs, range(len(setup_times)))
    scaled_lat = np.asarray(ph.latencies) / speeds
    values = _timings(np.asarray(setup_times) / setup_speeds, scaled_lat, q)
    values["ok_share"] = 1.0 - len(ph.failures) / n
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}
    return metrics, {
        "samples": n, "tail_percentile": q,
        "beyond_tail": int(np.count_nonzero(scaled_lat * 1e3 > values["latency_p99_ms"])),
        "wall_s": ph.wall, "cpu_s": ph.cpu,
        "host_speed": {"median": float(np.median(speeds)), "min": float(speeds.min()),
                       "max": float(speeds.max())},
        "setup_host_speed": setup_speeds.tolist(),
        "unscaled": _timings(setup_times, ph.latencies, q),
    }


def suite_rates(ph: Phase, items) -> dict:
    """Verify trials per CPU second of op time, by suite."""
    trials, secs = {}, {}
    for i, (out, t) in enumerate(zip(ph.outcomes, ph.latencies)):
        suite = getattr(items[i % len(items)], "suite", None)
        if suite is not None:
            trials[suite] = trials.get(suite, 0) + out.trials
            secs[suite] = secs.get(suite, 0.0) + t
    return {s: trials[s] / secs[s] for s in trials if secs[s] > 0}


def trace_overhead(plain: Phase, traced: Phase) -> float:
    """Traced over untraced wall time of the same ops (both phases start
    at item 0), minus 1."""
    m = min(len(plain.walls), len(traced.walls))
    return sum(traced.walls[:m]) / sum(plain.walls[:m]) - 1.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workload=None, setup_reps: int = SETUP_REPS, out_dir: Path | None = OUT) -> dict:
    """One benchmark run; returns ``{"result": <last line>, "record": ...}``."""
    workload = workload or WORKLOADS[name]
    lib, items, setup_times, setup_refs = set_up(workload, seed, setup_reps)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": host_record(), "input_sha256": workload.digest(items),
        "setup_s_reps": setup_times,
    }
    if not trace:
        phases = [measure(workload, lib, items, seconds, seed)]
        metrics, tail = end_to_end(phases[0], setup_times, setup_refs, workload.tail_percentile)
        record.update(tail)
    else:
        plain = measure(workload, lib, items, seconds / 2, seed)
        recorder = SpanRecorder()
        with Tracer(recorder, required=layers.required_spans()) as tracer:
            traced = measure(workload, lib, items, seconds / 2, seed, recorder)
        phases = [plain, traced]
    refs = [r for p in phases for r in p.refs]
    record["host_ref_loop_ms"] = {
        "before": refs[0], "after": refs[-1], "median": statistics.median(refs),
        "min": min(refs), "max": max(refs), "samples": len(refs),
    }
    if trace:
        record["missing"] = sorted(
            tracer.missing + [n for n, *_ in layers.PER_LAYER
                              if n.rsplit(".", 1)[0] in tracer.missing]
        )
        metrics = layers.compute(
            recorder.aggregate(), plain.outcomes + traced.outcomes, suite_rates(plain, items),
            trace_overhead(plain, traced), refs, tracer.missing,
        )
        record["spans"] = len(recorder.start)
    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    record["failed_share"] = len(failures) / attempted
    record["failures"] = failures[:MAX_FAILURES_LISTED]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    if out_dir is not None:
        out_dir.mkdir(exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
        if trace:
            recorder.save(out_dir / f"{stem}.spans.npz")
    return {"result": result, "record": record}


# ---------------------------------------------------------------------------
# Command line


def _print_summary(run: dict) -> None:
    rec, res = run["record"], run["result"]
    print(f"perfbench {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"attempted={res['attempted']} failed={res['failed']} "
          f"failed_share={rec['failed_share']:.6g}")
    if "samples" in rec:
        print(f"  latency_p99_ms is p{rec['tail_percentile']:.4g} of {rec['samples']} ops "
              f"({rec['beyond_tail']} beyond); "
              f"times scaled by median host speed {rec['host_speed']['median']:.4g}")
    unscaled = rec.get("unscaled", {})
    for name, m in res["metrics"].items():
        extra = f"  (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name:55s} {m['value']:14.6g} {m['unit']}{extra}")
    for name in rec.get("missing", []):
        print(f"  {name:55s} {'missing':>14s}")
    for f in rec["failures"]:
        print(f"  FAILED seed={f['seed']} index={f['index']} {f['label']}: {f['reason']}")


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            return res.returncode
        one = json.loads(res.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "ejaopt" / "__init__.py").is_file():
        print(f"error: no ejaopt sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_summary(run)
    print("record " + json.dumps(run["record"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
