"""One workload run in a fresh interpreter, as a closed loop with one caller.

    python3 bench/worker.py --workload NAME --seed N --seconds T
                            [--setup-samples M] [--trace]

Each operation starts only after the previous one has returned.  The run
stops at the first cycle end after T seconds of operations, within the
workload's (min, max) cycle count and at a multiple of its cycle step.
With --setup-samples M it also times M fresh interpreters importing
annulus_metrics.cli, spread evenly over the run at cycle ends and left
out of its wall time, so that setup_s samples the same stretch of
machine time as the workload.

With --trace every cycle runs twice, once untraced and once traced, in
alternating order, so that both walls cover the same stretches of machine
time; T then bounds the untraced passes.  The spans are written to
bench/out/spans-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object with the
per-operation latencies and error classes, the import times, the peak RSS
and, with --trace, the span aggregates.  run.py starts this script with
BLAS threads pinned to 1, glibc's malloc thresholds fixed and the
package's src/ directory on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (needs the path entry above)
from run import OUT_DIR, tail  # noqa: E402


def aggregate(tracer: workloads.Tracer) -> dict:
    """Per-span-name calls, busy and self time, plus per-layer self time."""
    selfs = workloads.self_times(tracer.spans)
    names: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    layers: dict = defaultdict(float)
    probes: dict = defaultdict(list)
    for span, own in zip(tracer.spans, selfs):
        dur = span.end - span.start
        if span.kind == "probe":
            probes[span.name].append(dur)
            continue
        entry = names[span.name]
        entry["calls"] += 1
        entry["busy_s"] += dur
        entry["self_s"] += own
        layers[span.name.split(".")[0]] += own
    return {"names": dict(names), "layers": dict(layers), "probes": dict(probes)}


def run_pass(wl: workloads.Workload, ops: list, tracer, clock, first_op: int) -> tuple:
    """One cycle's operations in order: (latencies, errors, results, deferred_s).

    deferred_s is the time the tracer's replays took between operations.
    """
    latencies, errors, results = [], [], []
    deferred_s = 0.0
    for k, op in enumerate(ops):
        tracer.op = first_op + k
        with tracer.span("bench.op"):
            lat, err, res = workloads.run_op(wl, op, tracer, clock)
        tracer.op = None
        if tracer.enabled:
            t0 = clock()
            tracer.run_deferred()
            deferred_s += clock() - t0
        latencies.append(lat)
        errors.append(err)
        results.append(res if err is None else None)
    return latencies, errors, results, deferred_s


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--setup-samples", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    clock = time.perf_counter
    wl = workloads.make(args.workload, args.seed)
    null = workloads.NullTracer()
    tracer = workloads.Tracer(clock) if args.trace else None
    # the cycle bounds keep the untraced tail on one operation kind and the
    # step keeps its mix whole; the traced view reports no tail
    (min_cycles, max_cycles), step = ((1, None), 1) if args.trace else (wl.cycles, wl.cycle_step)

    setup_cmd = [sys.executable, "-c", "import annulus_metrics.cli"]
    setup_times = []
    if args.setup_samples:
        subprocess.run(setup_cmd, check=True)  # writes the .pyc files

    def sample_setup() -> None:
        t0 = clock()
        subprocess.run(setup_cmd, check=True)
        setup_times.append(clock() - t0)

    kinds, latencies, errors, cycle_rss = [], [], [], []
    untraced_s = traced_s = 0.0
    cycles = 0
    while cycles < min_cycles or cycles % step or (
        untraced_s < args.seconds and (max_cycles is None or cycles < max_cycles)
    ):
        ops = wl.cycle(cycles)
        passes = [null] if tracer is None else [null, tracer][:: 1 if cycles % 2 == 0 else -1]
        for t in passes:
            t0 = clock()
            lats, errs, results, deferred_s = run_pass(wl, ops, t, clock, len(kinds))
            spent = clock() - t0 - deferred_s
            if t is tracer:
                traced_s += spent
                if wl.after_cycle is not None:
                    wl.after_cycle(ops, results, tracer)
            else:
                untraced_s += spent
            kinds += [op.kind + ("+hc" if op.hc else "") for op in ops]
            latencies += lats
            errors += errs
        cycle_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        cycles += 1
        while len(setup_times) < args.setup_samples and (
            untraced_s >= len(setup_times) * args.seconds / args.setup_samples
        ):
            sample_setup()
    while len(setup_times) < args.setup_samples:
        sample_setup()

    import numpy
    import scipy

    out = {
        "workload": wl.name,
        "seed": args.seed,
        "reason": wl.reason,
        "cycles": cycles,
        "cycle_peak_rss_kb": cycle_rss,
        "setup_s": setup_times,
        "wall_s": untraced_s,
        "kinds": kinds,
        "latencies_s": latencies,
        "errors": errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        tracer.run_at_end()
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"spans-{wl.name}-{args.seed}.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
        agg = aggregate(tracer)
        notes = tracer.notes
        field = agg["probes"].get("geodesics.field_eval", [])
        field_tail, field_pct = tail(field) if field else (None, None)
        threads2 = agg["probes"].get("variation.run_sweep.threads2", [])
        span_cost = workloads.span_cost_s(clock)
        calls = sum(span.kind == "call" for span in tracer.spans)
        out["trace"] = {
            "names": agg["names"],
            "layers": agg["layers"],
            "spans": len(tracer.spans),
            "untraced_wall_s": untraced_s,
            "traced_wall_s": traced_s,
            "span_cost_s": span_cost,
            "overhead_s": calls * span_cost,
            "threads2_busy_s": sum(threads2),
            "threads2_mismatch": notes.get("threads2_mismatch", 0),
            "field_eval": {
                "calls": len(field),
                "p50_us": 1e6 * statistics.median(field) if field else None,
                "tail_us": 1e6 * field_tail if field else None,
                "tail_pct": field_pct,
            },
            "n_used_mean": (
                sum(notes["n_used"]) / len(notes["n_used"]) if notes.get("n_used") else 0
            ),
            "j_failures": notes.get("j_failures", 0),
            "cells": notes.get("cells", 0),
            "dual_route_rel_max": notes.get("dual_route_rel_max", 0.0),
            "mirror_rel_max": notes.get("mirror_rel_max", 0.0),
            "mirror_cells_over_1e-8": notes.get("mirror_cells_over_1e-8", 0),
            "accepted_steps_mean": (
                sum(notes["accepted_steps"]) / len(notes["accepted_steps"])
                if notes.get("accepted_steps")
                else 0
            ),
            "angular_drift_max": notes.get("angular_drift_max", 0.0),
            "windings_min": min(notes["windings"]) if notes.get("windings") else 0,
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
