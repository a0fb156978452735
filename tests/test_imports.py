"""Import-time cost of the package."""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_special_or_optimize():
    # importing scipy.optimize after spfem takes about 0.26 s on a 2-vCPU
    # VM, half of a cold set-up (import plus problem build); scipy.fft
    # adds about 70 ms, and the sine transforms are matrix products
    code = ("import sys, spfem; print(sorted(m for m in sys.modules if "
            "m.split('.')[:2] in (['scipy', 'special'], "
            "['scipy', 'optimize'], ['scipy', 'fft'])))")
    done = subprocess.run([sys.executable, "-c", code], cwd=SRC,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
