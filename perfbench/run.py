#!/usr/bin/env python3
"""Benchmark of robustvario's two user paths: a raster estimate and the
Monte-Carlo studies.

Run from the root of a checkout:

    python3 perfbench/run.py --workload estimate_ndvi --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

With ``--trace 0`` the run measures the end-to-end metrics with no tracing.
With ``--trace 1`` it times one operation untraced, the same operation
traced, and then the fast_mcd and Qn size sweeps, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  README.md lists the metrics and
why each workload exists.
"""

import time

_START = time.perf_counter()  # set-up time counts from here, before any heavy import

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from tracer import FAILURE_CLASSES, Tracer, traced_peak_mb  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3  # this process plus two fresh child processes
SWEEP_SIZES = (200, 1000, 3500, 10000)
SWEEP_DIM = 5  # dimension of the fixture's org vectors at the default hmax 4
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "op_s": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "setup_s": "s",
}

LAYER_UNITS = {
    "mcd.fast_mcd_s": "s",
    "mcd.fast_mcd_calls": "count",
    "mcd.fast_mcd_rows_p50": "rows",
    "mcd.fast_mcd_bytes_computed": "bytes",
    "mcd.fast_mcd_peak_mb": "MB",
    "mcd.singular_fits": "count",
    "mcd.reweight_mcd_s": "s",
    "mcd.reweight_kept_share": "ratio",
    "mcd.consistency_factor_calls": "count",
    "numerics.chisq_s": "s",
    "numerics.chisq_calls": "count",
    "scale.qn_s": "s",
    "scale.qn_calls": "count",
    "scale.qn_pairs": "count",
    "scale.qn_peak_mb": "MB",
    "estimators.matheron_s": "s",
    "estimators.genton_self_s": "s",
    "estimators.mcd_org_self_s": "s",
    "estimators.mcd_diff_self_s": "s",
    "estimators.mcd_mod_self_s": "s",
    "estimators.mcd_mod_partitions": "count",
    "grid.extract_s": "s",
    "grid.lag_differences_s": "s",
    "grid.rows_extracted": "count",
    "simfield.field_cholesky_s": "s",
    "simfield.simulate_field_s": "s",
    "contamination.contaminate_s": "s",
    "ascio.load_asc_s": "s",
    "ascio.apply_quality_mask_s": "s",
    "study.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# per-layer self-time metric -> span layer
SELF_TIME_LAYERS = {
    "mcd.fast_mcd_s": "mcd.fast_mcd",
    "mcd.reweight_mcd_s": "mcd.reweight_mcd",
    "numerics.chisq_s": "numerics.chisq",
    "scale.qn_s": "scale.qn",
    "estimators.matheron_s": "estimators.matheron",
    "estimators.genton_self_s": "estimators.genton",
    "estimators.mcd_org_self_s": "estimators.mcd_org",
    "estimators.mcd_diff_self_s": "estimators.mcd_diff",
    "estimators.mcd_mod_self_s": "estimators.mcd_mod",
    "grid.extract_s": "grid.extract",
    "grid.lag_differences_s": "grid.lag_differences",
    "simfield.field_cholesky_s": "simfield.field_cholesky",
    "simfield.simulate_field_s": "simfield.simulate_field",
    "contamination.contaminate_s": "contamination.contaminate",
    "ascio.load_asc_s": "ascio.load_asc",
    "ascio.apply_quality_mask_s": "ascio.apply_quality_mask",
    "study.self_s": "study",
    "cli.self_s": "cli",
}


def layer_units() -> dict:
    units = dict(LAYER_UNITS)
    for name in (*FAILURE_CLASSES, "other"):
        units[f"study.failed.{name}"] = "count"
    for n in SWEEP_SIZES:
        units[f"mcd.fast_mcd_s.n{n}"] = "s"
        units[f"mcd.fast_mcd_peak_mb.n{n}"] = "MB"
        units[f"scale.qn_s.n{n}"] = "s"
        units[f"scale.qn_peak_mb.n{n}"] = "MB"
    return units


def import_package():
    """Import robustvario from this checkout's ``src``, never from elsewhere."""
    package = SRC / "robustvario"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import robustvario
    import robustvario.cli  # noqa: F401  (the estimate workload calls it)

    if Path(robustvario.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported robustvario from {robustvario.__file__}, not from {package}")
    return robustvario


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build-info layout differs between numpy versions
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "robustvario").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _commit():
    """HEAD commit read from .git when the checkout is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def setup_workload(args):
    """Import, load the fixture and warm up; returns (rv, workload)."""
    rv = import_package()
    workload = WORKLOADS[args.workload](rv, ROOT, args.seed, args.tiny)
    workload.setup()
    return rv, workload


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float) -> list:
    """Run operations until the next one would end after ``seconds``."""
    ops, walls = [], []
    start = time.perf_counter()
    while len(ops) < workload.min_ops or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        t0, c0 = time.perf_counter(), time.process_time()
        op = workload.run_op(len(ops))
        op.wall, op.cpu = time.perf_counter() - t0, time.process_time() - c0
        ops.append(op)
        walls.append(op.wall)
    return ops


def end_to_end(args, workload, setup_s: float) -> tuple[dict, list]:
    children = 1 if args.tiny else SETUP_SAMPLES - 1
    setups = [setup_s] + [child_setup_seconds(args) for _ in range(children)]
    ops = measure(workload, args.seconds)
    units = sum(op.units for op in ops)
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    values = {
        "op_s": statistics.median(op.wall / op.units for op in ops),
        "ops_per_s": units / sum(op.wall for op in ops),
        "cpu_s_per_op": statistics.median(op.cpu / op.units for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - failed / attempted,
        "setup_s": statistics.median(setups),
    }
    print(f"{workload.name}: {len(ops)} operations, {units} estimate calls or replications in all")
    print(f"operation seconds {[round(op.wall, 4) for op in ops]}; set-up seconds {[round(s, 4) for s in setups]}")
    return {k: (v, E2E_UNITS[k]) for k, v in values.items()}, ops


def sweeps(rv, seed: int, tiny: bool) -> dict:
    """fast_mcd (p = 5) and Qn at fixed sizes, on Gaussian input drawn from
    the seed: one plain call for the time, one call under tracemalloc for
    the peak."""
    import numpy as np

    gen = np.random.default_rng([seed, 20241202])
    out = {}
    for n in SWEEP_SIZES:
        size = n // 10 if tiny else n
        x = gen.standard_normal((size, SWEEP_DIM))
        y = gen.standard_normal(size)
        calls = (
            ("mcd.fast_mcd", rv.fast_mcd, (x, rv.McdConfig(), rv.RngStream(seed, n))),
            ("scale.qn", rv.qn, (y,)),
        )
        for name, fn, fn_args in calls:
            t0 = time.perf_counter()
            fn(*fn_args)
            out[f"{name}_s.n{n}"] = (time.perf_counter() - t0, "s")
            out[f"{name}_peak_mb.n{n}"] = (traced_peak_mb(fn, *fn_args), "MB")
    return out


def traced(args, rv, workload) -> tuple[dict, list]:
    t0 = time.perf_counter()
    plain = workload.run_op(0)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        op = tracer.call(workload.root_layer, workload.run_op, 0)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    for class_name in op.failure_classes:
        tracer.count_failure(class_name)
    if tracer.missing:
        print(f"not traced (attribute absent): {', '.join(tracer.missing)}")

    self_s, counts = tracer.self_times()
    rows = tracer.fast_mcd_rows
    values = {name: self_s.get(layer, 0.0) for name, layer in SELF_TIME_LAYERS.items()}
    values.update({
        "mcd.fast_mcd_calls": counts["mcd.fast_mcd"],
        "mcd.fast_mcd_rows_p50": statistics.median(rows) if rows else 0,
        "mcd.fast_mcd_bytes_computed": tracer.fast_mcd_bytes,
        "mcd.fast_mcd_peak_mb": tracer.peak_mb("mcd.fast_mcd"),
        "mcd.singular_fits": tracer.singular_fits,
        "mcd.reweight_kept_share": (
            tracer.reweight_kept / tracer.reweight_rows if tracer.reweight_rows else 0.0
        ),
        "mcd.consistency_factor_calls": tracer.calls["mcd.consistency_factor"],
        "numerics.chisq_calls": counts["numerics.chisq"],
        "scale.qn_calls": counts["scale.qn"],
        "scale.qn_pairs": tracer.qn_pairs,
        "scale.qn_peak_mb": tracer.peak_mb("scale.qn"),
        "estimators.mcd_mod_partitions": tracer.mcd_mod_partitions,
        "grid.rows_extracted": tracer.rows_extracted,
        "trace.overhead_s": traced_s - untraced_s,
    })
    units = layer_units()
    for name in units:
        if name.startswith("study.failed."):
            values[name] = tracer.failures[name.rsplit(".", 1)[1]]
    metrics = {name: (value, units[name]) for name, value in values.items()}
    metrics.update(sweeps(rv, args.seed, args.tiny))
    print(f"{workload.name}: traced one operation in {traced_s:.4f} s, untraced {untraced_s:.4f} s, "
          f"{len(tracer.spans)} spans")
    return metrics, [plain, op]


def self_test() -> int:
    """Every workload at tiny sizes, both trace modes: the run must pass its
    checks and emit exactly the metrics BENCHMARK.json names, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for mode, names in ((0, E2E_UNITS), (1, layer_units())):
        if names != expected[mode]:
            problems.append(f"--trace {mode}: metric table differs from BENCHMARK.json")
    for name in WORKLOADS:
        for mode in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", "1",
                   "--seconds", "1", "--trace", str(mode), "--tiny"]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{name} --trace {mode}"
            print(f"{label}: exit {done.returncode} in {time.perf_counter() - t0:.1f} s")
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[mode]:
                problems.append(f"{label}: metrics differ: {sorted(set(got) ^ set(expected[mode]))}")
            for key, metric in result["metrics"].items():
                if not (isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])):
                    problems.append(f"{label}: {key} = {metric['value']!r}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input for a quick plumbing check; the numbers mean nothing")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload with --tiny in both trace modes and check the output")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must lie in [0, 2**40)")

    rv, workload = setup_workload(args)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(repr(setup_s))
        return 0
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    if args.trace:
        metrics, ops = traced(args, rv, workload)
    else:
        metrics, ops = end_to_end(args, workload, setup_s)
    problems = workload.check(ops)
    for op in ops:
        if op.error:
            print(f"failed operation: {op.error}")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": sum(op.attempted for op in ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
