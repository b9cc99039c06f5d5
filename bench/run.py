"""Benchmark of annulus-metrics: end-to-end metrics per workload and per-layer traces.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 bench/run.py [--seed N] [--seconds T]     # every workload, both views

Run it from the repository root.  Each workload runs as a closed loop in a
fresh interpreter (bench/worker.py) with one caller, BLAS pinned to one
thread and glibc's malloc thresholds fixed.  With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics of BENCHMARK.json; with --trace 1 it carries
the per-layer metrics instead.  Without --workload every workload is run
both ways, a table is printed and bench/out/report.json is written.

This file uses only the standard library; the workers import the package
from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("point_eval", "degeneration_sweep", "geodesic_flow")
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
# share of --seconds the untraced passes of a traced run measure; the traced
# passes repeat the same cycles and add the replays, which cost several
# times the operations themselves on degeneration_sweep
TRACE_SHARE = 1.0 / 3.0
RUN_TIMEOUT_S = 170.0
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# glibc raises its mmap threshold the first time it frees a large mmapped
# block, and from then on keeps freed series arrays in the heap.  Whether
# that happens before or after a trace's largest arrays are allocated
# depends on the input, which split one workload's peak RSS into two modes
# 30 MB apart.  Fixed thresholds keep large blocks in the heap from the
# start, as the default does once it has adapted.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
LAYERS = ("bench", "hardy", "elliptic", "jets", "metrics", "variation", "geodesics")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a worker crashed)."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in BLAS_ENV:
        env[name] = "1"
    env.update(MALLOC_ENV)
    return env


def run_child(args: list, env: dict, deadline: float) -> subprocess.CompletedProcess:
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable] + args, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def parse_importtime(stderr: str) -> dict:
    """Self time of every module -X importtime lists, summed as total, numpy and scipy."""
    out = {"total": 0.0, "numpy": 0.0, "scipy": 0.0}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        own = int(m.group(1)) * 1e-6
        name = m.group(3).strip()
        out["total"] += own
        for pkg in ("numpy", "scipy"):
            if name == pkg or name.startswith(pkg + "."):
                out[pkg] += own
    return out


def measure_importtime(env: dict, deadline: float) -> dict:
    cmd = ["-X", "importtime", "-c", "import annulus_metrics.cli"]
    run_child(cmd, env, deadline)
    runs = [parse_importtime(run_child(cmd, env, deadline).stderr) for _ in range(IMPORTTIME_REPEATS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def run_worker(workload: str, seed: int, seconds: float, env: dict, deadline: float,
               trace: bool = False, setup_samples: int = 0) -> dict:
    args = [WORKER, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--setup-samples", str(setup_samples)]
    if trace:
        args.append("--trace")
    proc = run_child(args, env, deadline)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list) -> tuple:
    """Highest percentile with at least 10 values beyond it: (value, percentile)."""
    n = len(values)
    if n <= 10:
        return max(values), 100.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def failures_by_class(res: dict) -> dict:
    return dict(Counter(err for err in res["errors"] if err is not None))


def end_to_end(res: dict) -> tuple:
    """(metrics, details) of one untraced worker result."""
    ok = [lat for lat, err in zip(res["latencies_s"], res["errors"]) if err is None]
    attempted = len(res["errors"])
    tail_s, tail_pct = tail(ok) if ok else (float("nan"), None)
    metrics = {
        "setup_s": (statistics.median(res["setup_s"]), "s"),
        "throughput_ops_s": (len(ok) / res["wall_s"], "ops/s"),
        "latency_p50_ms": (1e3 * statistics.median(ok) if ok else float("nan"), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        # after the first cycle, which holds one of every operation kind:
        # later cycles add only what the allocator keeps, which grows with
        # the number of cycles a run happens to fit
        "peak_rss_mb": (res["cycle_peak_rss_kb"][0] / 1024.0, "MB"),
    }
    details = {
        "error_rate": (attempted - len(ok)) / attempted,
        "failures_by_class": failures_by_class(res),
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(ok),
        "operations": attempted,
        "operation_mix": dict(Counter(res["kinds"])),
        "cycles": res["cycles"],
        "wall_s": res["wall_s"],
        "peak_rss_whole_run_mb": res["peak_rss_kb"] / 1024.0,
        "setup_samples_s": res["setup_s"],
    }
    return metrics, details


def _name(t: dict, name: str, key: str, default=0.0):
    return t["names"].get(name, {}).get(key, default)


def per_layer(traced: dict, imports: dict) -> dict:
    """Per-layer metrics of one traced run."""
    t = traced["trace"]
    fe = t["field_eval"]
    # self time of the library's layers; the rest of the traced wall is the
    # benchmark's own loop, inputs and checks (layer.bench.self_s)
    accounted = sum(v for layer, v in t["layers"].items() if layer != "bench")
    m = {
        "cli.import_total_s": (imports["total"], "s"),
        "cli.import_scipy_s": (imports["scipy"], "s"),
        "cli.import_numpy_s": (imports["numpy"], "s"),
    }
    for fn in ("szego_kernel", "szego_kernel_jet", "moment_sums", "j_functions_on_A_r"):
        m[f"hardy.{fn}.calls"] = (_name(t, f"hardy.{fn}", "calls", 0), "count")
        m[f"hardy.{fn}.busy_s"] = (_name(t, f"hardy.{fn}", "busy_s"), "s")
    m["hardy.moment_sums.n_used_mean"] = (t["n_used_mean"], "count")
    m["hardy.j_functions_on_A_r.failures"] = (t["j_failures"], "count")
    for fn in ("make_elliptic_context", "wp"):
        m[f"elliptic.{fn}.calls"] = (_name(t, f"elliptic.{fn}", "calls", 0), "count")
        m[f"elliptic.{fn}.busy_s"] = (_name(t, f"elliptic.{fn}", "busy_s"), "s")
    m["jets.jet_log.busy_s"] = (_name(t, "jets.jet_log", "busy_s"), "s")
    m["jets.jet_sqrt.busy_s"] = (_name(t, "jets.jet_sqrt", "busy_s"), "s")
    for fn in ("sample", "higher_curvature"):
        m[f"metrics.{fn}.busy_s"] = (_name(t, f"metrics.{fn}", "busy_s"), "s")
        m[f"metrics.{fn}.self_s"] = (_name(t, f"metrics.{fn}", "self_s"), "s")
    m["metrics.szego_metric_wp.busy_s"] = (_name(t, "metrics.szego_metric_wp", "busy_s"), "s")
    m["metrics.dual_route_rel_max"] = (t["dual_route_rel_max"], "ratio")
    m["variation.run_sweep.busy_s"] = (_name(t, "variation.run_sweep", "busy_s"), "s")
    m["variation.run_sweep.self_s"] = (_name(t, "variation.run_sweep", "self_s"), "s")
    m["variation.run_sweep.cells"] = (t["cells"], "count")
    m["variation.run_sweep.threads2_busy_s"] = (t["threads2_busy_s"], "s")
    m["variation.limit_classifier.busy_s"] = (_name(t, "variation.limit_classifier", "busy_s"), "s")
    m["variation.mirror_rel_max"] = (t["mirror_rel_max"], "ratio")
    m["variation.mirror_cells_over_1e-8"] = (t["mirror_cells_over_1e-8"], "count")
    m["geodesics.find_closed_geodesic.busy_s"] = (_name(t, "geodesics.find_closed_geodesic", "busy_s"), "s")
    m["geodesics.integrate.busy_s"] = (_name(t, "geodesics.integrate", "busy_s"), "s")
    m["geodesics.integrate.accepted_steps"] = (t["accepted_steps_mean"], "count")
    m["geodesics.integrate.angular_drift_max"] = (t["angular_drift_max"], "ratio")
    m["geodesics.spiral_trace.busy_s"] = (_name(t, "geodesics.spiral_trace", "busy_s"), "s")
    m["geodesics.spiral_trace.windings"] = (t["windings_min"], "count")
    m["geodesics.field_eval.calls"] = (fe["calls"], "count")
    m["geodesics.field_eval.p50_us"] = (fe["p50_us"] or 0.0, "us")
    m["geodesics.field_eval.tail_us"] = (fe["tail_us"] or 0.0, "us")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (t["layers"].get(layer, 0.0), "s")
    m["trace.untraced_wall_s"] = (t["untraced_wall_s"], "s")
    m["trace.traced_wall_s"] = (t["traced_wall_s"], "s")
    m["trace.overhead_s"] = (t["overhead_s"], "s")
    m["trace.accounted_s"] = (accounted, "s")
    return m


def machine_note(versions: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, **versions}


def check_sources(root: str) -> None:
    pkg = os.path.join(root, "src", "annulus_metrics", "__init__.py")
    if not os.path.isfile(pkg):
        raise BenchError(f"no package sources at {pkg}; run from the repository root")


def run_untraced(workload, seed, seconds, env, deadline) -> tuple:
    res = run_worker(workload, seed, seconds, env, deadline, setup_samples=SETUP_REPEATS)
    metrics, details = end_to_end(res)
    return res, metrics, details


def run_traced(workload, seed, seconds, env, deadline) -> tuple:
    imports = measure_importtime(env, deadline)
    traced = run_worker(workload, seed, max(1.0, seconds * TRACE_SHARE), env, deadline, trace=True)
    return traced, per_layer(traced, imports)


def _fmt_metrics(metrics: dict) -> list:
    return [f"  {name:<44} {value:>16.6g} {unit}" for name, (value, unit) in metrics.items()]


def _json_metrics(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def single(args, root: str) -> int:
    env = child_env(root)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        res, metrics = run_traced(args.workload, args.seed, args.seconds, env, deadline)
    else:
        res, metrics, details = run_untraced(args.workload, args.seed, args.seconds, env, deadline)
        print(f"# details {json.dumps(details)}")
    print(f"# {args.workload} seed={args.seed} reason: {res['reason']}")
    print(f"# machine {json.dumps(machine_note(res['versions']))}")
    for line in _fmt_metrics(metrics):
        print("#" + line)
    attempted = len(res["errors"])
    failed = attempted - res["errors"].count(None)
    for cls, count in failures_by_class(res).items():
        print(f"# failed {count} x {cls}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _json_metrics(metrics),
    }))
    return 0


def report(args, root: str) -> int:
    """Every workload, end-to-end then traced; prints tables, writes bench/out/report.json."""
    env = child_env(root)
    out = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    all_ok = True
    for workload in WORKLOADS:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        res, e2e, details = run_untraced(workload, args.seed, args.seconds, env, deadline)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        traced, layers = run_traced(workload, args.seed, args.seconds, env, deadline)
        out["machine"] = machine_note(res["versions"])
        ok = not any(details["failures_by_class"]) and not failures_by_class(traced)
        all_ok = all_ok and ok
        print(f"== {workload}  seed={args.seed}  {res['reason']}")
        print(f"   operations {details['operations']} in {details['cycles']} cycles,"
              f" mix {details['operation_mix']}")
        print(f"   error_rate {details['error_rate']:.6g} ratio  failures {details['failures_by_class']}"
              f"  tail percentile p{details['latency_tail_percentile']:.2f}"
              f" of {details['latency_samples']}")
        print("\n".join(_fmt_metrics(e2e)))
        print(f"   traced: {len(traced['errors'])} operations, per-layer")
        print("\n".join(_fmt_metrics(layers)))
        out["workloads"][workload] = {
            "reason": res["reason"],
            "end_to_end": _json_metrics(e2e),
            "details": details,
            "per_layer": _json_metrics(layers),
        }
    print(f"machine {json.dumps(out['machine'])}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "report.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"wrote {os.path.relpath(path, root)}")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    try:
        check_sources(root)
        return single(args, root) if args.workload else report(args, root)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
