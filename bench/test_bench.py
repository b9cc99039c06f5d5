"""Self-tests of the benchmark harness (not of the library).

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

from annulus_metrics.errors import ConvergenceError  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _inputs(name, seed, cycles=3):
    wl = W.make(name, seed)
    return [(op.kind, op.hc, sorted(op.args.items())) for c in range(cycles) for op in wl.cycle(c)]


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(W.WORKLOADS)


def test_point_eval_mix_and_ranges():
    ops = [op for c in range(32) for op in W.make("point_eval", 3).cycle(c)]
    near = [op for op in ops if op.kind == "near"]
    assert len(near) * 16 == len(ops)
    assert sum(op.hc for op in ops) * 4 == len(ops)
    assert not any(op.hc for op in near)
    for op in ops:
        r, z = op.args["r"], op.args["z"]
        d = min(abs(z) - r, 1 - abs(z))
        lo, hi = W.NEAR_REL if op.kind == "near" else W.INTERIOR_REL
        assert W.R_RANGE[0] <= r <= W.R_RANGE[1]
        assert lo * (1 - 1e-9) <= d / (1 - r) <= hi * (1 + 1e-9)


def test_default_mirrors_pair_lambda_with_one_minus_lambda():
    lams = W.DEFAULT_SWEEP_LAMBDAS
    assert len(W.DEFAULT_MIRRORS) == 4
    assert all(abs(lams[i] + lams[j] - 1.0) < 1e-12 for i, j in W.DEFAULT_MIRRORS)


def test_geodesic_cycle_bounds_keep_the_tail_on_a_spiral():
    # sorted by latency a cycle has one U-regime window above its spirals,
    # so the 11th-largest latency of N cycles is a spiral for these N only
    wl = W.make("geodesic_flow", 1)
    lo, hi = wl.cycles
    above = W.GEODESIC_CYCLE.count("window_u")
    spirals = W.GEODESIC_CYCLE.count("spiral")
    for n in range(lo, hi + 1, wl.cycle_step):
        assert above * n <= 10 < (above + spirals) * n
    assert lo % wl.cycle_step == 0 and hi % wl.cycle_step == 0


def test_geodesic_runs_hold_every_u_stratum():
    wl = W.make("geodesic_flow", 5)
    windows = [
        op.args for c in range(wl.cycle_step) for op in wl.cycle(c)
        if op.kind == "window" and not op.args["confined"]
    ]
    mid = math.sqrt(W.U_RANGE[0] * W.U_RANGE[1])
    got = sorted((a["metric"], a["r"] > mid, a["psi"] > 0) for a in windows)
    want = sorted((m, bool(h), s > 0) for m, h, s in W.U_STRATA)
    assert got == want
    assert all(W.U_RANGE[0] <= a["r"] <= W.U_RANGE[1] and abs(a["psi"]) <= W.TILT for a in windows)


def test_spiral_windows_spread_over_their_range():
    wl = W.make("geodesic_flow", 5)
    t_ends = sorted(op.args["t_end"] for c in range(wl.cycle_step) for op in wl.cycle(c) if op.kind == "spiral")
    lo, hi = W.SPIRAL_T_END
    assert len(t_ends) == wl.cycle_step * W.GEODESIC_CYCLE.count("spiral")
    assert lo <= t_ends[0] < lo + (hi - lo) / 4 and hi - (hi - lo) / 4 < t_ends[-1] < hi


def test_sweep_replay_skips_rows_run_sweep_recorded_as_failed():
    rows = W.run_sweep(W.SweepSpec(W.SWEEP_R[:2], (0.3,), W.QUANTITIES))
    # r = 2 is outside every annulus: a replay of this row would raise
    broken = [dataclasses.replace(rows[0], r=2.0, error="InternalConsistencyError: planted")]
    t = W.Tracer(lambda: 0.0)
    W._replay_sweep(broken + rows[1:])(t, None)
    assert t.notes["n_used"] and not t.notes.get("j_failures")


def test_tail_has_ten_beyond():
    values = list(range(100))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 90.0


def _point(**kw):
    base = dict(c=1.5, s=1.6, kappa_c=-4.5, kappa_s=3.0, S=1.5 / W.TWO_PI, s_wp=1.6)
    base.update(kw)
    return W.PointResult(**base)


def test_point_checker_accepts_good_output():
    assert W.point_eval_check(W.Op("interior", {}), _point()) == []


@pytest.mark.parametrize(
    "planted, failure",
    [
        (dict(kappa_s=4.1), "kappa_s<=4"),
        (dict(kappa_c=-3.9), "kappa_c<=-4"),
        (dict(s=1.4, s_wp=1.4), "s>=c"),
        (dict(s_wp=1.6 * (1 + 1e-6)), "dual_route"),
        (dict(S=1.5 * (1 + 3e-12) / W.TWO_PI), "c=2piS"),
    ],
)
def test_point_checker_rejects_planted_output(planted, failure):
    assert failure in W.point_eval_check(W.Op("interior", {}), _point(**planted))


def test_point_checker_rejects_nonfinite_higher_curvature():
    res = _point(hc=(-16.0, math.nan))
    assert W.point_eval_check(W.Op("interior", {}, hc=True), res) == ["higher_curvature_finite"]


def test_raised_error_is_a_failed_operation_by_class():
    def boom(op, tracer):
        raise ConvergenceError("planted")

    wl = W.Workload("planted", "", lambda c: [], boom, lambda op, res: [])
    latency, err, res = W.run_op(wl, W.Op("x", {}), W.NullTracer(), lambda: 0.0)
    assert err == "ConvergenceError" and res is None


def test_failed_check_is_a_failed_operation():
    wl = W.Workload("planted", "", lambda c: [], lambda op, t: _point(kappa_s=4.1), W.point_eval_check)
    _, err, _ = W.run_op(wl, W.Op("interior", {}), W.NullTracer(), lambda: 0.0)
    assert err == "CheckFailed:kappa_s<=4"


def test_sweep_checker_rejects_recorded_error_and_bounds():
    spec = W.SweepSpec(W.SWEEP_R[:4], (0.3,), W.QUANTITIES)
    rows = W.run_sweep(spec)
    op = W.Op("default", {"cells": 4})
    good = W.SliceResult(rows, ())
    assert W.degeneration_check(op, good) == []
    assert W.degeneration_check(W.Op("default", {"cells": 5}), good) == ["row_count"]
    broken = [dataclasses.replace(rows[0], error="RangeError: planted")] + rows[1:]
    bad = W.degeneration_check(op, W.SliceResult(broken, ()))
    assert "error@0.01" in bad
    over = rows[:1] + [dataclasses.replace(rows[1], values=(1.0, 1.0, -4.0, 4.5, 1.0, 1.0, 1.0, 1.0))] + rows[2:]
    assert "kappa_s<=4@0.001" in W.degeneration_check(op, W.SliceResult(over, ()))


def test_sweep_slices_cover_every_depth_and_pairs_share_one():
    wl = W.make("degeneration_sweep", 4)
    cycles = [wl.cycle(c) for c in range(12)]
    depths = {op.args["cells"] for ops in cycles for op in ops}
    assert depths == set(range(W.SWEEP_MIN_CELLS, len(W.SWEEP_R) + 1))
    first = len(W.DEFAULT_SWEEP_LAMBDAS)
    for ops in cycles:
        for a, b in zip(ops[first::2], ops[first + 1 :: 2]):
            assert a.args["cells"] == b.args["cells"]
            assert abs(a.args["lam"] + b.args["lam"] - 1.0) < 1e-12


def test_mirror_gaps_pair_cells_by_radius():
    rows_a = W.run_sweep(W.SweepSpec(W.SWEEP_R[-4:], (0.25,), W.QUANTITIES))
    rows_b = W.run_sweep(W.SweepSpec(W.SWEEP_R[-2:], (0.75,), W.QUANTITIES))
    gaps = W.mirror_gaps(rows_a, rows_b)
    assert len(gaps) == 2 * len(W.MIRROR_QUANTITIES)
    assert gaps == W.mirror_gaps(rows_a[-2:], rows_b)


def test_geodesic_checker_rejects_bad_closure_and_waist():
    class Trace:
        energy_drift = 1e-12
        angular_drift = 1e-12
        escaped = False

    op = W.Op("closed", {"r": 0.1, "metric": "c", "waist": True})
    good = W.GeodesicResult(Trace(), rho_star=math.sqrt(0.1), closure=1e-9)
    assert W.geodesic_check(op, good) == []
    bad = W.GeodesicResult(Trace(), rho_star=math.sqrt(0.1) + 1e-5, closure=1e-3)
    assert W.geodesic_check(op, bad) == ["closure", "rho*=sqrt(r)"]


def test_self_times_subtract_children_and_replays():
    t = W.Tracer(iter([0.0, 2.0, 5.0, 10.0, 20.0, 21.0]).__next__)
    with t.span("metrics.sample") as sid:
        with t.span("hardy.szego_kernel"):
            pass
    with t.replay("hardy.moment_sums", sid):
        pass
    assert W.self_times(t.spans) == [10.0 - 3.0 - 1.0, 3.0, 1.0]


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_unit(trace, key):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "degeneration_sweep",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if trace:
        assert out["metrics"]["trace.overhead_s"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point_eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
