"""Golden CLI output: the stdout of fixed invocations, pinned byte for byte.

Each file in tests/golden/ holds one header line, naming the argv and
the numpy version of the capture, and then the stdout of cli.main on
that argv.  Under the same numpy version the comparison is exact.
Under another one the last bits of numpy's exp and lstsq may differ,
so the comparison parses every token that reads as a float and allows
GOLDEN_REL between them; every other token must match exactly.

Regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and list each value that moves in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import math
import pathlib
import re

import numpy as np
import pytest

from annulus_metrics import cli

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: relative tolerance between floats where the numpy version differs
GOLDEN_REL = 1e-13

CASES = {
    "eval_r0.5_z0.7": ["eval", "--r", "0.5", "--z", "0.7"],
    "eval_r0.3_z0.55+0.2i": ["eval", "--r", "0.3", "--z", "0.55+0.2i"],
    "eval_r0.9_z0.95": ["eval", "--r", "0.9", "--z", "0.95"],
    "eval_r1e-6_z0.01-0.002i": ["eval", "--r", "1e-6", "--z", "0.01-0.002i"],
    "sweep_default": ["sweep"],
    "geodesic_closed_r0.1_s": ["geodesic", "--r", "0.1", "--metric", "s", "--closed"],
    "geodesic_closed_r0.02_s": ["geodesic", "--r", "0.02", "--metric", "s", "--closed"],
    "geodesic_trace_r0.1_s_z0.5": [
        "geodesic", "--r", "0.1", "--metric", "s", "--z0", "0.5", "--t-end", "120",
    ],
    "geodesic_trace_r0.3_c_z0.6+0.1i": [
        "geodesic", "--r", "0.3", "--metric", "c", "--z0", "0.6+0.1i", "--t-end", "20",
    ],
    "geodesic_trace_r0.02_s_z0.16": [
        "geodesic", "--r", "0.02", "--metric", "s", "--z0", "0.16", "--t-end", "40",
    ],
    "elliptic_r0.5_z0.3+0.2i": ["elliptic", "--r", "0.5", "--z", "0.3+0.2i"],
}


def _header(argv) -> str:
    return f"# golden argv={' '.join(argv)} numpy={np.__version__}\n"


def capture(argv) -> str:
    """stdout of an in-process cli.main(argv), which must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0, f"{argv} exited {code}"
    return buf.getvalue()


def _tokens(text: str) -> list:
    return [t for t in re.split(r"([,\s=])", text) if t]


def _as_float(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _close(expected: str, actual: str) -> bool:
    """Token by token, floats to GOLDEN_REL and everything else exactly."""
    want, got = _tokens(expected), _tokens(actual)
    if len(want) != len(got):
        return False
    for a, b in zip(want, got):
        x, y = _as_float(a), _as_float(b)
        if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
            if a != b:
                return False
        elif abs(x - y) > GOLDEN_REL * max(abs(x), abs(y)):
            return False
    return True


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    argv = CASES[name]
    header, expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="ascii").split("\n", 1)
    assert header.startswith(f"# golden argv={' '.join(argv)} numpy="), header
    actual = capture(argv)
    if header + "\n" == _header(argv):
        assert actual == expected
    else:
        assert _close(expected, actual), f"{name} moved past {GOLDEN_REL} relative"


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        text = _header(argv) + capture(argv)
        (GOLDEN_DIR / f"{name}.txt").write_text(text, encoding="ascii", newline="")
        print(f"wrote {name}.txt")


if __name__ == "__main__":
    regenerate()
