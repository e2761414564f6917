"""Byte-for-byte pins of CLI stdout against checked-in golden files.

The files under ``tests/data/golden/`` were written by the CLI before
changes that must not move a single output byte: the first four before the
row-wise ``jost_b_combination`` and the O(N) Szego recursion, the next
three (the costliest ``verify all`` of the benchmark panel, ``s_series``
and ``geronimus_deltas`` through ``coeffs --map``) before the series
derived from one coefficient set were cached on it and shared by the
``verify`` suites.  The two measure-side files (``coeffs --from-measure``
on a Bernstein-Szego document with an atom, ``szego --from-measure`` on a
cosine-polynomial document, both under ``tests/data/measures/``) were
written after circle ingestion moved to moments and ``taylor_exp`` to one
dot per coefficient.  ``popuc_n256`` was rewritten when the Christoffel
weights moved to the Szego recursion on the zeros, and again when the
zeros moved from the companion matrix to the cut-off CMV matrix: each zero
moved by at most 1.5e-14 and each weight by at most 3.6e-12 relative, the
weights now sum to 1 within 2.6e-15 (was 1.2e-12), and the two rows of a
conjugate pair, whose real parts agree to rounding, may sort the other way
round.  The two ``szego --series r`` files (an eight-entry list at order
1024, a geometric tail at order 64) were written when the grid path of
``r_series`` moved to one inverse FFT.  The three ``verify_all`` files were rewritten when the
canonical-weights suite moved from a 500-row eigen-oracle to the exact
bound-state weight; only its ``residue_0``, ``weight_0`` and
``worst_relative_deviation`` rows changed.  The last ten files were
written before the CSV writer moved from one ``_fmt`` call per cell to
one printf row template per table, to pin every table that had no file
yet: the
``jacobi`` table of ``coeffs --from-measure`` on a line document with an
atom (``szego_mapped_line_atom.json``), the ``alpha`` table of ``coeffs
--alpha`` (a geometric tail, and a complex list with -0, 1e-300 and a
subnormal), ``jost --what series`` from alpha and ``jost --what zeros``
from finite-range ``--a``/``--b``, ``carmona``, ``gset`` and ``probe``,
and one ``popuc -o`` run whose CSV and ``.meta.json`` sidecar are both
compared.  Regenerate a file only together with a CHANGES.md entry that
declares the output change.

Each command runs in a fresh interpreter with BLAS pinned to one thread:
the paraorthogonal zeros come from a LAPACK inverse and Hermitian
eigensolver whose last bits depend on the thread count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import szegojost

GOLDEN = Path(__file__).parent / "data" / "golden"
MEASURES = Path(__file__).parent / "data" / "measures"

CASES = {
    "verify_all_order64": ["verify", "all", "--alpha", "geometric:C=0.5,R=2", "--order", "64"],
    "verify_all_order1024": ["verify", "all", "--alpha", "geometric:C=0.5,R=2", "--order", "1024"],
    "szego_dinv_order1024": ["szego", "--series", "dinv", "--alpha", "geometric:C=0.5,R=3",
                             "--order", "1024"],
    "popuc_n256": ["popuc", "--alpha", "geometric:C=0.5,R=3", "--n", "256", "--omega=1,0"],
    "verify_all_c-0.3_r1.2_order1024": ["verify", "all", "--alpha", "geometric:C=-0.3,R=1.2",
                                        "--order", "1024"],
    "szego_s_order1024": ["szego", "--series", "s", "--alpha", "geometric:C=0.5,R=3",
                          "--order", "1024"],
    "szego_r_list_order1024": ["szego", "--series", "r",
                               "--alpha=0.1,-0.2,0.25,0.05,-0.1,0.2,0.15,-0.05",
                               "--order", "1024"],
    "szego_r_order64": ["szego", "--series", "r", "--alpha", "geometric:C=0.5,R=3",
                        "--order", "64"],
    "coeffs_map_order64": ["coeffs", "--alpha", "geometric:C=0.5,R=3", "--order", "64", "--map"],
    "coeffs_from_measure_bs_atom_n256": ["coeffs", "--from-measure",
                                         str(MEASURES / "bernstein_szego_atom.json"),
                                         "--n", "256"],
    "szego_from_measure_cosine_order1024": ["szego", "--from-measure",
                                            str(MEASURES / "cosine_polynomial.json"),
                                            "--order", "1024"],
    "coeffs_from_measure_line_atom_n128": ["coeffs", "--from-measure",
                                           str(MEASURES / "szego_mapped_line_atom.json"),
                                           "--n", "128"],
    "coeffs_alpha_order64": ["coeffs", "--alpha", "geometric:C=0.5,R=3", "--order", "64"],
    "coeffs_alpha_complex_list": ["coeffs",
                                  "--alpha=0.3+0.4j,-0.2-0.1j,-0,0.05j,1e-300,-2.5e-320"],
    "jost_series_order64": ["jost", "--what", "series", "--alpha", "geometric:C=0.5,R=3",
                            "--order", "64"],
    "jost_zeros_finite_range": ["jost", "--what", "zeros", "--a=0.8,0.9,1", "--b=2.6,-0.1,-2.4"],
    "carmona_n3": ["carmona", "--a=0.8,1", "--b=0.15,-0.1", "--n", "3", "--grid=-4:4:33"],
    "gset_two_generators": ["gset", "--generators=2+0.5j,-1.5+1j", "--cutoff", "30"],
    "probe_dinv_order64": ["probe", "--alpha", "geometric:C=0.5,R=2", "--series", "dinv",
                           "--degree", "6,3", "--order", "64"],
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


def test_output_file_and_sidecar_match_golden(tmp_path):
    out = tmp_path / "popuc_n16_output.csv"
    proc = run_cli(["popuc", "--alpha", "geometric:C=0.5,R=3", "--n", "16", "--omega=0.6,0.8",
                    "-o", str(out)])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b""
    for name in (out.name, out.name + ".meta.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
