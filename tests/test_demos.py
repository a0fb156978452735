import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# 05 (a convergence study) and 06 (m = 32) take seconds each; they are
# left to be run by hand
QUICK_DEMOS = ["01_mesh_and_quadrature.py", "02_laplacian_spectrum.py",
               "03_occupation_and_density.py", "04_self_consistent_solve.py"]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(tmp_path, demo):
    # each demo writes its demo_*.txt files into the working directory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
