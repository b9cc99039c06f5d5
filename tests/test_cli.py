"""Command line contract: exit codes, deterministic output, examples."""

import json
import math
import subprocess
import sys

import pytest

from annulus_metrics import __version__
from annulus_metrics import cli
from annulus_metrics.cli import main, parse_complex
from annulus_metrics.errors import DomainError

SCHEMA = f"# annulus-metrics v{__version__} schema=1"


def run_cli(capsys, *argv):
    """In-process invocation; returns (exit_code, stdout, stderr)."""
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    """Split CLI CSV into (metadata lines, header tuple, row tuples)."""
    lines = text.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert lines[: len(meta)] == meta, "metadata must precede the header"
    header = tuple(body[0].split(","))
    rows = [tuple(ln.split(",")) for ln in body[1:] if ln]
    return meta, header, rows


# ---------------------------------------------------------------------------
# complex argument parsing


def test_parse_complex_forms():
    assert parse_complex("0.3+0.2i") == complex(0.3, 0.2)
    assert parse_complex("-0.3-0.2i") == complex(-0.3, -0.2)
    assert parse_complex("0.5") == complex(0.5, 0.0)
    assert parse_complex("2i") == complex(0.0, 2.0)
    assert parse_complex("1e-4+1e-5i") == complex(1e-4, 1e-5)


@pytest.mark.parametrize("bad", ["0.3 +0.2i", "(1+2i)", "abc", "inf", "1+i2", ""])
def test_parse_complex_rejects(bad):
    with pytest.raises(DomainError):
        parse_complex(bad)


# ---------------------------------------------------------------------------
# eval


def test_eval_identity_c_equals_two_pi_S(capsys):
    code, out, _ = run_cli(capsys, "eval", "--r", "0.5", "--z", "0.7")
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta[0] == SCHEMA
    row = dict(zip(header, rows[0]))
    # identity is visible: the two columns print identical bytes
    assert row["c"] == row["two_pi_S"]
    assert math.isclose(float(row["c"]), 2 * math.pi * float(row["S"]), rel_tol=1e-15)


def test_eval_disc_limit_example(capsys):
    # small r at a fixed interior point approaches the disc value 4/3
    code, out, _ = run_cli(capsys, "eval", "--r", "0.01", "--z", "0.5")
    assert code == 0
    _, header, rows = parse_csv(out)
    c = float(dict(zip(header, rows[0]))["c"])
    assert abs(c - 4.0 / 3.0) / (4.0 / 3.0) < 0.05


def test_eval_r_out_of_range_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--r", "2", "--z", "0.5")
    assert code == 2
    assert "between 0 and 1" in err


def test_eval_z_outside_annulus_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--r", "0.5", "--z", "0.3+0i")
    assert code == 2
    assert "r < |z| < 1" in err


def test_eval_convergence_failure_exit_3(capsys):
    code, _, err = run_cli(capsys, "eval", "--r", "0.5", "--z", "0.9999999+0i")
    assert code == 3
    assert "convergence error" in err


@pytest.mark.parametrize(
    "r, z", [("0.1", "0.10000000000000002+0i"), ("0.5", "0.9999999999999999+0i")]
)
def test_eval_one_ulp_inside_a_circle_exit_3(capsys, r, z):
    code, _, err = run_cli(capsys, "eval", "--r", r, "--z", z)
    assert code == 3
    assert "convergence error" in err and f"r = {r}" in err


def test_eval_seventeen_digit_round_trip(capsys):
    _, out, _ = run_cli(capsys, "eval", "--r", "0.37", "--z", "0.61+0.11i")
    _, header, rows = parse_csv(out)
    for cell in rows[0]:
        if cell and not cell.replace("_", "").isalpha():
            assert "%.17g" % float(cell) == cell


def test_eval_json_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "--r", "0.5", "--z", "0.7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    row = payload[0]
    assert row["c"] == row["two_pi_S"]
    assert row["kappa_c"] < 0


def test_eval_output_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "out.csv"
    _, stdout_text, _ = run_cli(capsys, "eval", "--r", "0.5", "--z", "0.7")
    code, out, _ = run_cli(
        capsys, "eval", "--r", "0.5", "--z", "0.7", "--output", str(path)
    )
    assert code == 0
    assert out == ""
    assert path.read_text() == stdout_text


def test_eval_tail_tol_flag(capsys):
    _, out, _ = run_cli(
        capsys, "eval", "--r", "0.5", "--z", "0.7", "--tail-tol", "1e-10"
    )
    assert "tail_tol=1e-10 " in out


def test_eval_ignores_the_environment(capsys, monkeypatch):
    monkeypatch.delenv("ANNULUS_METRICS_TAIL_TOL", raising=False)
    unset = run_cli(capsys, "eval", "--r", "0.5", "--z", "0.7")
    monkeypatch.setenv("ANNULUS_METRICS_TAIL_TOL", "bogus")
    assert run_cli(capsys, "eval", "--r", "0.5", "--z", "0.7") == unset
    assert unset[0] == 0


@pytest.mark.parametrize(
    "argv, bound",
    [
        (
            ("eval", "--r", "0.5", "--z", "0.7", "--tail-tol", "0.5"),
            "tail_tol must lie in (0, 1e-2]",
        ),
        (
            ("geodesic", "--r", "0.5", "--metric", "s", "--z0", "0.7", "--t-end", "1",
             "--step-tol", "5e-3"),
            "step_tol must lie in (0, 1e-3]",
        ),
    ],
)
def test_tolerance_past_its_bound_exit_2(capsys, argv, bound):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert bound in err


@pytest.mark.parametrize(
    "command, text",
    [
        ("eval", "--tail-tol TAIL_TOL series tail tolerance in (0, 1e-2]; default 1e-12"),
        ("sweep", "--tail-tol TAIL_TOL series tail tolerance in (0, 1e-2]; default 1e-12"),
        ("geodesic", "--step-tol STEP_TOL step error tolerance in (0, 1e-3]; default 1e-09"),
        ("sweep", "default 0.01,0.001,0.0001,1e-05,1e-06,1e-07,1e-08 "),
    ],
)
def test_help_states_the_library_ranges_and_defaults(capsys, command, text):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert text in " ".join(capsys.readouterr().out.split())


# ---------------------------------------------------------------------------
# sweep


def test_sweep_byte_deterministic(capsys):
    args = ("sweep", "--lambda", "0.5", "--quantities", "s,ratio_s_over_c")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_ratio_grows_at_midpoint(capsys):
    _, out, _ = run_cli(
        capsys, "sweep", "--lambda", "0.5", "--quantities", "ratio_s_over_c"
    )
    meta, header, rows = parse_csv(out)
    idx = header.index("ratio_s_over_c")
    vals = [float(row[idx]) for row in rows]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert any("limit lambda=0.5 ratio_s_over_c: +inf" in m for m in meta)


def test_sweep_classification_lines_match_limit_table(capsys):
    _, out, _ = run_cli(
        capsys, "sweep", "--lambda", "0.25,0.5", "--quantities", "c,s,kappa_c,kappa_s"
    )
    meta = [m for m in parse_csv(out)[0] if m.startswith("# limit")]
    text = "\n".join(meta)
    assert "lambda=0.5 s: +inf" in text
    assert "lambda=0.5 kappa_c: -inf" in text
    assert "lambda=0.25 kappa_s: -inf" in text
    # finite cells carry the settled value, here the limit 2 to rounding
    (c_half,) = [m for m in meta if "lambda=0.5 c: finite value=" in m]
    assert float(c_half.split("value=")[1]) == pytest.approx(2.0, rel=1e-12)


def test_sweep_row_order_lambda_then_descending_r(capsys):
    _, out, _ = run_cli(
        capsys, "sweep", "--lambda", "0.7,0.3", "--r", "1e-2,1e-3,1e-4,1e-5",
        "--quantities", "c",
    )
    _, header, rows = parse_csv(out)
    cells = [(float(row[0]), float(row[1])) for row in rows]
    lams = [lam for lam, _ in cells]
    assert lams == sorted(lams)
    for lam in (0.3, 0.7):
        rs = [r for l, r in cells if l == lam]
        assert rs == sorted(rs, reverse=True)


def test_sweep_all_rows_failed_exit_4(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--r", "0.99999999", "--lambda", "0.5", "--quantities", "s"
    )
    assert code == 4
    assert "every row" in err
    _, header, rows = parse_csv(out)
    assert rows[0][header.index("error")] != ""


def test_sweep_partial_failure_still_exit_0(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--r", "0.99999999,1e-3,1e-4,1e-5",
        "--lambda", "0.5",
        "--quantities", "s",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    errs = [row[header.index("error")] for row in rows]
    assert errs[0] != "" and all(e == "" for e in errs[1:])


def test_sweep_unknown_quantity_exit_2(capsys):
    code, _, err = run_cli(capsys, "sweep", "--quantities", "bogus")
    assert code == 2
    assert "bogus" in err


def test_sweep_json_rows(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--lambda", "0.5", "--quantities", "c", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 7
    assert all(row["error"] is None for row in payload)
    assert all(row["lambda"] == 0.5 for row in payload)


# ---------------------------------------------------------------------------
# geodesic


def test_geodesic_closed_reports_sqrt_r(capsys):
    code, out, _ = run_cli(capsys, "geodesic", "--r", "0.1", "--metric", "s", "--closed")
    assert code == 0
    _, header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert abs(float(row["rho_star"]) - 0.31623) < 1e-4
    assert abs(float(row["rho_star"]) - math.sqrt(0.1)) < 1e-6
    assert float(row["residual"]) < 1e-10


def test_geodesic_trace_columns_and_winding(capsys):
    code, out, _ = run_cli(
        capsys,
        "geodesic", "--r", "0.1", "--metric", "s",
        "--z0", "0.31622776601684+0i", "--t-end", "9.1",
    )
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ("t", "re_z", "im_z", "abs_z", "speed", "winding")
    ts = [float(row[0]) for row in rows]
    assert ts[0] == 0.0 and ts[-1] == 9.1
    assert all(b > a for a, b in zip(ts, ts[1:]))
    for row in rows[:: max(1, len(rows) // 7)]:
        z = complex(float(row[1]), float(row[2]))
        assert math.isclose(abs(z), float(row[3]), rel_tol=1e-15, abs_tol=1e-15)
    # two loops of the waist circle: winding column counts them
    winds = [int(row[5]) for row in rows]
    assert winds[0] == 0 and winds[-1] == 2
    assert any("winding_count=2" in m for m in meta)


def test_geodesic_default_launch_is_unit_speed(capsys):
    _, out, _ = run_cli(
        capsys,
        "geodesic", "--r", "0.2", "--metric", "c",
        "--z0", "0.6+0.1i", "--t-end", "1.0",
    )
    _, header, rows = parse_csv(out)
    speeds = [float(row[header.index("speed")]) for row in rows]
    assert all(abs(s - 1.0) < 1e-6 for s in speeds)


def test_geodesic_closed_and_z0_conflict_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "geodesic", "--r", "0.1", "--metric", "s", "--closed", "--z0", "0.5"
    )
    assert code == 2
    assert "not both" in err


def test_geodesic_trace_needs_t_end_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "geodesic", "--r", "0.1", "--metric", "s", "--z0", "0.5+0i"
    )
    assert code == 2
    assert "t-end" in err


def test_geodesic_launch_outside_annulus_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "geodesic", "--r", "0.5", "--metric", "s",
        "--z0", "0.2+0i", "--t-end", "1",
    )
    assert code == 2
    assert "r < |z0| < 1" in err


def test_geodesic_launch_past_the_horizon_is_an_escaped_trace(capsys):
    code, out, _ = run_cli(
        capsys, "geodesic", "--r", "0.5", "--metric", "c",
        "--z0", "0.99999", "--t-end", "1",
    )
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert len(rows) == 1
    assert any("escaped=true" in m for m in meta)


def test_geodesic_past_the_product_cap_exit_3(capsys):
    code, _, err = run_cli(capsys, "geodesic", "--r", "0.999999", "--metric", "s", "--closed")
    assert code == 3
    assert "convergence error" in err and "r = 0.999999" in err


# ---------------------------------------------------------------------------
# elliptic


def test_elliptic_example_residual(capsys):
    code, out, _ = run_cli(capsys, "elliptic", "--r", "0.4", "--z", "0.3+0.2i")
    assert code == 0
    _, header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["ode_residual"]) <= 1e-9
    e1, e2, e3 = float(row["e1"]), float(row["e2"]), float(row["e3"])
    assert e1 > e2 > e3
    assert abs(e1 + e2 + e3) < 1e-12
    assert float(row["eta1"]) > 0


def test_elliptic_pole_exit_2(capsys):
    code, _, err = run_cli(capsys, "elliptic", "--r", "0.4", "--z", "0+0i")
    assert code == 2
    assert err != ""


# ---------------------------------------------------------------------------
# selftest


def test_selftest_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--quick")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert all(ln.startswith("PASS") for ln in lines)
    assert "9 of 9 criteria passed" in out


def test_selftest_exit_5_on_failure(capsys, monkeypatch):
    from annulus_metrics.selftest import CriterionResult

    def fake_run_all(quick=False, progress=None):
        results = [
            CriterionResult(1, "stub pass", True, "ok", 0.0),
            CriterionResult(2, "stub fail", False, "FAIL broken", 0.0),
        ]
        for res in results:
            if progress is not None:
                progress(res)
        return results

    monkeypatch.setattr(cli, "run_all", fake_run_all)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 5
    assert "FAIL  criterion  2" in out
    assert "1 of 2 criteria passed" in out


def test_selftest_output_rows(tmp_path, capsys, monkeypatch):
    from annulus_metrics.selftest import CriterionResult

    monkeypatch.setattr(
        cli,
        "run_all",
        lambda quick=False, progress=None: [CriterionResult(3, "stub", True, "ok", 0.1)],
    )
    path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "selftest", "--output", str(path), "--format", "json"
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload[0]["cid"] == 3 and payload[0]["passed"] is True


# ---------------------------------------------------------------------------
# entry point


def test_module_entry_point_version():
    proc = subprocess.run(
        [sys.executable, "-m", "annulus_metrics.cli", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout


def test_cli_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, annulus_metrics.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_no_command_exits_nonzero():
    proc = subprocess.run(
        [sys.executable, "-m", "annulus_metrics.cli"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
