"""Command line front end: evaluate, sweep, trace, and self-check.

Subcommands
    eval      kernel and metric quantities at one point
    sweep     a (lambda, r) grid of limit quantities, CSV or JSON
    geodesic  closed-circle search or a trace sampled to rows
    elliptic  Weierstrass data on the rectangular lattice for one r
    selftest  the acceptance suite, one pass/fail line per criterion

Exit codes: 0 success, 2 domain error (the message names the violated
precondition), 3 convergence failure, 4 sweep with every row failed,
5 selftest with a failing criterion.  Arguments go to the library
unchecked: its DomainError, raised by the checks in errors, gives exit
2, and every default (tail tolerance, step tolerance, sweep grid) is the
library's own.

Output is byte-deterministic: floats are printed with 17 significant
digits, row order is fixed by the input, and no timestamps or machine
identifiers appear.  CSV starts with a `# annulus-metrics v... schema=1`
line, further `#` metadata lines (`n_max=` is FIRST_PAIRS, the first
pass of every series), then the header row.  JSON output is
an array of row objects.  Complex arguments use the a+bi form with no
spaces, e.g. 0.3+0.2i.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

from . import __version__
from .elliptic import make_elliptic_context, sigma, wp, wp_prime, zeta
from .errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    RangeError,
    ShapeError,
    check_point,
)
from .geodesics import STEP_TOL, GeodesicState, MetricField, find_closed_geodesic, integrate
from .hardy import FIRST_PAIRS, Truncation
from .metrics import sample
from .selftest import FULL_BUDGET, QUICK_BUDGET, run_all
from .variation import (
    DEFAULT_SWEEP_LAMBDAS,
    DEFAULT_SWEEP_R,
    QUANTITIES,
    SweepSpec,
    limit_classifier,
    run_sweep,
)

TWO_PI = 2.0 * math.pi

SCHEMA_LINE = f"# annulus-metrics v{__version__} schema=1"


def _fmt(x) -> str:
    """One deterministic textual form per cell value."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def parse_complex(text: str) -> complex:
    """Parse the a+bi command line form, no spaces, i as the unit."""
    if text != text.strip() or any(ch.isspace() for ch in text):
        raise DomainError(f"complex value must not contain spaces: {text!r}")
    if "(" in text or ")" in text:
        raise DomainError(f"complex value must use the a+bi form without parentheses: {text!r}")
    try:
        value = complex(text.replace("i", "j"))
    except ValueError:
        raise DomainError(
            f"cannot parse {text!r} as a complex number; expected the a+bi form, e.g. 0.3+0.2i"
        ) from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(f"complex value must be finite, got {text!r}")
    return value


def _float_list(text: str, name: str) -> tuple:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError:
            raise DomainError(f"{name} expects comma separated numbers, got {piece!r}") from None
    if not out:
        raise DomainError(f"{name} must contain at least one value")
    return tuple(out)


def _emit(args, header: tuple, rows: list, meta: list) -> None:
    """Serialize rows and write them to stdout or the requested file."""
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        for obj in payload:
            for key, val in obj.items():
                if isinstance(val, float):
                    obj[key] = float("%.17g" % val)
        text = json.dumps(payload, indent=2, ensure_ascii=True) + "\n"
    else:
        buf = io.StringIO()
        buf.write(SCHEMA_LINE + "\n")
        for line in meta:
            buf.write("# " + line + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def cmd_eval(args) -> int:
    r = args.r
    z = parse_complex(args.z)
    tr = Truncation(args.tail_tol)
    m = sample(r, z, tr)
    header = (
        "r",
        "re_z",
        "im_z",
        "S",
        "two_pi_S",
        "c",
        "s",
        "kappa_c",
        "kappa_s",
    )
    row = (r, z.real, z.imag, m.S, TWO_PI * m.S, m.c, m.s, m.kappa_c, m.kappa_s)
    meta = [
        f"command=eval r={_fmt(r)} z={args.z}",
        f"tail_tol={_fmt(tr.tail_tol)} n_max={FIRST_PAIRS}",
        "identity: c equals two_pi_S",
    ]
    _emit(args, header, [row], meta)
    return 0


def cmd_sweep(args) -> int:
    r_values = _float_list(args.r, "--r") if args.r else DEFAULT_SWEEP_R
    lambdas = _float_list(args.lam, "--lambda") if args.lam else DEFAULT_SWEEP_LAMBDAS
    if args.quantities:
        quantities = tuple(q.strip() for q in args.quantities.split(",") if q.strip())
    else:
        quantities = QUANTITIES
    tr = Truncation(args.tail_tol)
    spec = SweepSpec(r_values=tuple(r_values), lambda_values=tuple(lambdas), quantities=quantities)
    rows = run_sweep(spec, tr)

    meta = [
        f"command=sweep quantities={','.join(quantities)}",
        f"r={','.join(_fmt(v) for v in spec.r_values)}",
        f"lambda={','.join(_fmt(v) for v in sorted(spec.lambda_values))}",
        f"tail_tol={_fmt(tr.tail_tol)} n_max={FIRST_PAIRS}",
    ]
    for lam in sorted(spec.lambda_values):
        lam_rows = [row for row in rows if row.lam == lam]
        for q in quantities:
            try:
                verdict = limit_classifier(lam_rows, q)
            except DomainError:
                continue
            note = f"limit lambda={_fmt(lam)} {q}: {verdict.kind}"
            if verdict.kind == "finite":
                note += f" value={_fmt(verdict.value)}"
            meta.append(note)

    header = ("lambda", "r") + quantities + ("error",)
    out_rows = [(row.lam, row.r) + row.values + (row.error,) for row in rows]
    _emit(args, header, out_rows, meta)
    if all(row.error is not None for row in rows):
        print("sweep failed: every row recorded an error", file=sys.stderr)
        return 4
    return 0


def _winding_column(thetas) -> list:
    return [math.floor((th + math.pi) / TWO_PI) for th in thetas]


def cmd_geodesic(args) -> int:
    r = args.r
    if args.closed and args.z0 is not None:
        raise DomainError("choose either --closed or a trace launch with --z0, not both")
    if args.closed:
        found = find_closed_geodesic(r, args.metric)
        header = ("r", "metric", "rho_star", "length", "residual")
        row = (r, args.metric, found.rho_star, found.length, found.residual)
        meta = [f"command=geodesic closed r={_fmt(r)} metric={args.metric}"]
        _emit(args, header, [row], meta)
        return 0
    if args.z0 is None:
        raise DomainError("geodesic needs either --closed or --z0 to launch a trace")
    z0 = parse_complex(args.z0)
    if args.t_end is None:
        raise DomainError("a trace needs --t-end, the parameter length to integrate")
    if args.v0 is not None:
        v0 = parse_complex(args.v0)
    else:
        # counterclockwise tangent at unit speed in the field the trace runs on
        field = MetricField(r, args.metric)
        check_point(field.r, z0, "z0")
        v0 = 1j * (z0 / abs(z0)) / field.density(z0)
    trace = integrate(
        r,
        args.metric,
        GeodesicState(z0, v0),
        args.t_end,
        step_tol=args.step_tol,
    )
    header = ("t", "re_z", "im_z", "abs_z", "speed", "winding")
    winding = _winding_column(trace.thetas)
    out_rows = [
        (trace.ts[i], trace.positions[i].real, trace.positions[i].imag,
         abs(trace.positions[i]), trace.speeds[i], winding[i])
        for i in range(len(trace))
    ]
    meta = [
        f"command=geodesic trace r={_fmt(r)} metric={args.metric} z0={args.z0}"
        f" v0={args.v0 if args.v0 is not None else 'auto'}",
        f"t_end={_fmt(args.t_end)} step_tol={_fmt(args.step_tol)}",
        f"samples={len(trace)} winding_count={trace.winding_count}"
        f" length={_fmt(trace.length)} escaped={_fmt(trace.escaped)}",
        f"energy_drift={_fmt(trace.energy_drift)} angular_drift={_fmt(trace.angular_drift)}",
    ]
    _emit(args, header, out_rows, meta)
    return 0


def cmd_elliptic(args) -> int:
    r = args.r
    z = parse_complex(args.z)
    ctx = make_elliptic_context(r)
    P = wp(ctx, z)
    Pp = wp_prime(ctx, z)
    Z = zeta(ctx, z)
    S = sigma(ctx, z)
    residual = abs(Pp * Pp - (4.0 * P**3 - ctx.g2 * P - ctx.g3)) / (1.0 + abs(P)) ** 3
    header = (
        "re_wp",
        "im_wp",
        "re_wp_prime",
        "im_wp_prime",
        "re_zeta",
        "im_zeta",
        "re_sigma",
        "im_sigma",
        "e1",
        "e2",
        "e3",
        "eta1",
        "eta3_im",
        "g2",
        "g3",
        "ode_residual",
    )
    row = (
        P.real,
        P.imag,
        Pp.real,
        Pp.imag,
        Z.real,
        Z.imag,
        S.real,
        S.imag,
        ctx.e1,
        ctx.e2,
        ctx.e3,
        ctx.eta1,
        ctx.eta3_im,
        ctx.g2,
        ctx.g3,
        residual,
    )
    meta = [
        f"command=elliptic r={_fmt(r)} z={args.z}",
        f"omega1={_fmt(ctx.omega1)} omega3=i*{_fmt(ctx.omega3_im)}",
        "ode_residual = |wp'^2 - (4 wp^3 - g2 wp - g3)| / (1 + |wp|)^3",
    ]
    _emit(args, header, [row], meta)
    return 0


def cmd_selftest(args) -> int:
    t0 = time.perf_counter()

    def progress(res):
        mark = "PASS" if res.passed else "FAIL"
        print(f"{mark}  criterion {res.cid:>2}  {res.description}  [{res.elapsed:.2f}s]")
        if res.details:
            print(f"      {res.details}")

    results = run_all(quick=args.quick, progress=progress)
    elapsed = time.perf_counter() - t0
    budget = QUICK_BUDGET if args.quick else FULL_BUDGET
    n_pass = sum(1 for res in results if res.passed)
    print(
        f"{n_pass} of {len(results)} criteria passed in {elapsed:.1f}s"
        f" (budget {budget:.0f}s)"
    )
    if args.output is not None:
        header = ("cid", "passed", "elapsed", "description", "details")
        rows = [
            (res.cid, res.passed, res.elapsed, res.description, res.details)
            for res in results
        ]
        meta = [f"command=selftest quick={_fmt(bool(args.quick))}"]
        _emit(args, header, rows, meta)
    return 0 if n_pass == len(results) else 5


def _add_output_flags(sub) -> None:
    sub.add_argument("--output", default=None, help="write results to this file instead of stdout")
    sub.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="csv (default) with a schema header, or a json array of row objects",
    )


def _add_tail_tol_flag(sub) -> None:
    sub.add_argument(
        "--tail-tol",
        type=float,
        default=Truncation.tail_tol,
        help=f"series tail tolerance in (0, 1e-2]; default {Truncation.tail_tol:g}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annulus-metrics",
        description="Szego kernel, Caratheodory and Szego metrics, curvatures,"
        " and geodesics on the annulus r < |z| < 1.",
    )
    parser.add_argument("--version", action="version", version=f"annulus-metrics {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p_eval = commands.add_parser("eval", help="kernel and metric quantities at one point")
    p_eval.add_argument("--r", type=float, required=True, help="inner radius, 0 < r < 1")
    p_eval.add_argument("--z", required=True, help="evaluation point a+bi with r < |z| < 1")
    _add_tail_tol_flag(p_eval)
    _add_output_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = commands.add_parser("sweep", help="limit quantities on a (lambda, r) grid")
    p_sweep.add_argument(
        "--r",
        default=None,
        help="comma separated decreasing inner radii; default"
        f" {','.join('%g' % r for r in DEFAULT_SWEEP_R)}",
    )
    p_sweep.add_argument(
        "--lambda",
        dest="lam",
        default=None,
        help="comma separated exponents in (0,1) placing z = r^lambda; default the curvature table",
    )
    p_sweep.add_argument(
        "--quantities",
        default=None,
        help=f"comma separated subset of {','.join(QUANTITIES)}; default all",
    )
    _add_tail_tol_flag(p_sweep)
    _add_output_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_geo = commands.add_parser("geodesic", help="closed circles and traced geodesics")
    p_geo.add_argument("--r", type=float, required=True, help="inner radius, 0 < r < 1")
    p_geo.add_argument("--metric", choices=("c", "s"), required=True, help="which metric to use")
    p_geo.add_argument(
        "--closed",
        action="store_true",
        help="report the length-minimizing closed geodesic circle",
    )
    p_geo.add_argument("--z0", default=None, help="trace launch point a+bi inside the annulus")
    p_geo.add_argument(
        "--v0",
        default=None,
        help="launch velocity a+bi; default is the counterclockwise tangent at unit speed",
    )
    p_geo.add_argument("--t-end", type=float, default=None, help="parameter length to integrate")
    p_geo.add_argument(
        "--step-tol",
        type=float,
        default=STEP_TOL,
        help=f"step error tolerance in (0, 1e-3]; default {STEP_TOL:g}",
    )
    _add_output_flags(p_geo)
    p_geo.set_defaults(func=cmd_geodesic)

    p_ell = commands.add_parser("elliptic", help="Weierstrass data on the lattice for one r")
    p_ell.add_argument("--r", type=float, required=True, help="inner radius, 0 < r < 1")
    p_ell.add_argument("--z", required=True, help="lattice plane argument a+bi")
    _add_output_flags(p_ell)
    p_ell.set_defaults(func=cmd_elliptic)

    p_self = commands.add_parser("selftest", help="run the acceptance criteria")
    p_self.add_argument(
        "--quick",
        action="store_true",
        help="only the fast criteria, bounded by the quick budget",
    )
    _add_output_flags(p_self)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, PoleError, ShapeError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, RangeError) as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
