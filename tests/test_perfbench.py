"""The benchmark harness's own self-check, run as part of the suite.

perfbench's tracer looks up the public names it wraps (solver.max_rainbow,
solver.neighbourhood_along, proofkit.initial_state, ...) in the package's
module namespaces, so a change that drops or renames one of them fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
