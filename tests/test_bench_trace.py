"""The traced benchmark runs end cleanly on the library as it stands.

A traced worker replays library calls directly, outside each operation's
error handling, so a changed signature or a new exception in one of them
ends the whole run with exit 2 instead of counting a failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["point_eval", "degeneration_sweep", "geodesic_flow"])
def test_traced_benchmark_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], result
