"""Byte-for-byte pins of CLI stdout against checked-in golden files.

The files under ``tests/data/golden/`` were written by the CLI before the
row-wise ``jost_b_combination`` and the O(N) Szego recursion, which must not
change a single output byte.  Regenerate a file only together with a
CHANGES.md entry that declares the output change.

Each command runs in a fresh interpreter with BLAS pinned to one thread:
the paraorthogonal zeros come from a LAPACK eigensolver whose last bits
depend on the thread count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import szegojost

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "verify_all_order64": ["verify", "all", "--alpha", "geometric:C=0.5,R=2", "--order", "64"],
    "verify_all_order1024": ["verify", "all", "--alpha", "geometric:C=0.5,R=2", "--order", "1024"],
    "szego_dinv_order1024": ["szego", "--series", "dinv", "--alpha", "geometric:C=0.5,R=3",
                             "--order", "1024"],
    "popuc_n256": ["popuc", "--alpha", "geometric:C=0.5,R=3", "--n", "256", "--omega=1,0"],
}


def run_cli(argv):
    src = str(Path(szegojost.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "szegojost", *argv], env=env,
                          capture_output=True, check=False, timeout=300)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name):
    proc = run_cli(CASES[name])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.csv").read_bytes()
