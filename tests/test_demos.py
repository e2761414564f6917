"""Byte-for-byte pins of the demo scripts' stdout.

``tests/data/demos/<name>.txt`` holds what ``demos/<name>.py`` prints.  Each
demo runs in a fresh interpreter with BLAS pinned to one thread, as the
golden CLI files do: demo 03 reads an eigenvalue and its weight off a
LAPACK eigensolver and a disk zero off a companion matrix.  Regenerate a
file only together with a CHANGES.md entry that declares the output change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import szegojost

DEMOS = Path(__file__).resolve().parent.parent / "demos"
PINNED = Path(__file__).parent / "data" / "demos"


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("0*.py")))
def test_demo_stdout_matches_pinned(name):
    src = str(Path(szegojost.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], env=env,
                          capture_output=True, check=False, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (PINNED / f"{name}.txt").read_bytes()
