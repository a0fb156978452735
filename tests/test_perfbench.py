"""The benchmark harness runs against the current sources.

``perfbench/`` resolves spfem functions, methods and keyword arguments
by name, so a rename in spfem can break it without failing any other
test.  Its self-test solves one m = 4 problem, traced and untraced.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
