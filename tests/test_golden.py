"""Byte-for-byte pins of CLI stdout against checked-in golden files.

Each file under ``tests/data/golden/`` is the stdout of one command in
``CASES`` or ``FAILING_CASES``, named after it:

- ``verify_*``: every suite of ``verify all`` on C = 0.5, R = 2 at orders
  64 and 1024 and on the order-1024 panel of ``bench/workloads.py``
  (C = 0.1, R = 3.4 exits 1 on an inconclusive r - S report), and ``verify r-minus-s`` / ``verify
  nevai-totik`` on a finitely supported complex list, which runs the
  complex path of the Szego step;
- ``szego_*``: the 1/D, S and r series from alpha (r on an eight-entry
  list at order 1024 and a geometric tail at order 64) and D from a
  cosine-polynomial measure document;
- ``coeffs_*``: the alpha table of ``--alpha`` (a geometric tail, and a
  complex list with -0, 1e-300 and a subnormal), the mapped Jacobi
  parameters of ``--map``, and ingestion of a Bernstein-Szego circle
  document and a szego-mapped line document, both with an atom (under
  ``tests/data/measures/``);
- ``jost_*``, ``carmona_n3``, ``gset_two_generators`` and
  ``probe_dinv_order64``: one table of each remaining subcommand;
- ``popuc_n256``, and ``popuc_n16_output.csv`` with its ``.meta.json``
  sidecar, written by ``-o``.

``CORPUS_DIGEST`` pins, in one hash, the exit codes and stdout of ``verify
all`` over a grid of geometric inputs (C, R and order) and a few finite
lists, run in one process, so that the default canonical-weights report,
built once per process, is reused across the commands.
``FINITE_RANGE_DIGEST`` pins, in the same way, ``verify canonical-weights``
and ``jost --what zeros`` over 300 seeded finite ranges and four ``--b1``
rows.  ``FIT_BRANCH_DIGEST`` pins ``verify all`` on the inputs whose
radius fits take the branches ``CORPUS`` never reaches: short orders,
zero and constant alpha, underflowing windows and R near 1.  The reports
of all three corpora, run in-process, mark *inconclusive* in the verdict
and the notes alike.

Regenerate a file or the digest only together with a CHANGES.md entry that
declares the output change; CHANGES.md keeps the history of every
regeneration.

Each command runs in a fresh interpreter with BLAS pinned to one thread:
several files hold values that pass through LAPACK (``polyroots``,
``lstsq``, a linear solve), whose last bits may depend on the thread
count.  The ``popuc`` zeros come from an FFT and Horner sweeps and reach
LAPACK only on inputs whose Phi_n has a zero near the circle, so
``popuc_n256`` is also pinned at two threads.
"""

import cmath
import collections
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import szegojost
from szegojost import cli
from szegojost.errors import SzegojostError
from szegojost.measures import ExperimentConfig, parse_alpha_spec

GOLDEN = Path(__file__).parent / "data" / "golden"
MEASURES = Path(__file__).parent / "data" / "measures"
# alpha_n = 0.5 e^{0.7in} 2^-n for n = 0..39, each as repr(real) then imag to 17 digits
COMPLEX_LIST = ",".join(
    f"{z.real!r}{z.imag:+.17g}j" for z in (0.5 * cmath.exp(0.7j * n) * 2.0**-n for n in range(40))
)

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
    "verify_all_c-0.6_r2.5_order1024": ["verify", "all", "--alpha", "geometric:C=-0.6,R=2.5",
                                        "--order", "1024"],
    "verify_all_c0.2_r3.0_order1024": ["verify", "all", "--alpha", "geometric:C=0.2,R=3.0",
                                       "--order", "1024"],
    "verify_all_c-0.15_r3.2_order1024": ["verify", "all", "--alpha", "geometric:C=-0.15,R=3.2",
                                         "--order", "1024"],
    "verify_r_minus_s_complex_list": ["verify", "r-minus-s", "--alpha=" + COMPLEX_LIST],
    "verify_nevai_totik_complex_list_order256": ["verify", "nevai-totik",
                                                 "--alpha=" + COMPLEX_LIST, "--order", "256"],
}

# pinned runs that exit 1 on a failed report, with that exit code
FAILING_CASES = {
    "verify_all_c0.1_r3.4_order1024": ["verify", "all", "--alpha", "geometric:C=0.1,R=3.4",
                                       "--order", "1024"],
    "verify_r_minus_s_complex_list_order256": ["verify", "r-minus-s", "--alpha=" + COMPLEX_LIST,
                                               "--order", "256"],
}


# ``verify all`` over C in {+-0.1, +-0.5, +-0.9}, R in {1.05, 1.2, 1.5, 2, 3, 5} and
# orders 64, 256 and 1024, then finite lists (one with interior zeros)
CORPUS = [
    ["verify", "all", f"--alpha=geometric:C={c},R={r}", "--order", str(order)]
    for c in (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9)
    for r in (1.05, 1.2, 1.5, 2, 3, 5)
    for order in (64, 256, 1024)
] + [
    ["verify", "all", f"--alpha={alpha}", "--order", str(order)]
    for alpha in ("0.5", "0.1,-0.2,0.25,0.05,-0.1,0.2,0.15,-0.05", "0.6,0,0,-0.3,0,0,0,0.1",
                  COMPLEX_LIST)
    for order in (64, 256)
]
# sha256 of each command's exit code (a line) and stdout, in turn
CORPUS_DIGEST = "793a00abbd35aa9fdfae57508d923c272a4d626e970de4e07c26a533eda7b3fd"


def _finite_ranges(count=300, seed=34):
    """``count`` seeded ranges of 1-8 rows, a_n in [0.6, 1.3] and b_n in [-2.5, 2.5]."""
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randint(1, 8)
        a = ",".join(repr(rng.uniform(0.6, 1.3)) for _ in range(rows))
        b = ",".join(repr(rng.uniform(-2.5, 2.5)) for _ in range(rows))
        yield [f"--a={a}", f"--b={b}"]
    for b1 in (1.5, -2.2, 1.05, 0.5):
        yield [f"--b1={b1!r}"]


FINITE_RANGE_CORPUS = [
    command + flags
    for flags in _finite_ranges()
    for command in (["verify", "canonical-weights"], ["jost", "--what", "zeros"])
]
FINITE_RANGE_DIGEST = "f5432bb98123d16946984d2ea5a3213f2abe7bc251fa1d7bb55d1a65623718d0"

# ``verify all`` on the fit branches CORPUS misses: orders around the
# 8-index window, the 16 mapped coefficients and the 10-index signal
# prefix; zero and constant alpha; the underflow sentinel at order 4096;
# two ``known-defects`` verdict inputs; and R near 1
FIT_BRANCH_CORPUS = [
    ["verify", "all", f"--alpha={alpha}", "--order", str(order)]
    for alpha in ("geometric:C=0.5,R=2", "0.5,-0.2")
    for order in (1, 2, 8, 9, 15, 16, 17, 33)
] + [
    ["verify", "all", f"--alpha={alpha}", "--order", str(order)]
    for alpha, order in (("0", 64), ("constant:c=0.3", 64), ("geometric:C=0.5,R=2", 4096),
                         ("geometric:C=0.5,R=5", 1024), ("geometric:C=0.2256,R=4.715", 64),
                         ("geometric:C=0.1,R=1.01", 1024), ("geometric:C=0.1,R=1.01", 8192))
]
FIT_BRANCH_DIGEST = "71c29f1d68a3fa6a3989ca8a2dea93cb0f1ef7aa47a6c7a4c8240e7e64e94944"

# runs a corpus (read as JSON on stdin) through one interpreter and prints the digest
_CORPUS_RUNNER = """
import contextlib, hashlib, io, json, sys
from szegojost.cli import main
digest = hashlib.sha256()
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    digest.update(f"{code}\\n{out.getvalue()}".encode())
print(digest.hexdigest())
"""


def _cli_env(threads):
    src = str(Path(szegojost.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli(argv, threads=1):
    return subprocess.run([sys.executable, "-m", "szegojost", *argv], env=_cli_env(threads),
                          capture_output=True, check=False, timeout=300)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name):
    proc = run_cli(CASES[name])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(FAILING_CASES))
def test_cli_stdout_and_exit_one_match_golden(name):
    proc = run_cli(FAILING_CASES[name])
    assert proc.returncode == 1, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"{name}.csv").read_bytes()


def test_output_file_and_sidecar_match_golden(tmp_path):
    out = tmp_path / "popuc_n16_output.csv"
    proc = run_cli(["popuc", "--alpha", "geometric:C=0.5,R=3", "--n", "16", "--omega=0.6,0.8",
                    "-o", str(out)])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b""
    for name in (out.name, out.name + ".meta.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_popuc_golden_bytes_do_not_depend_on_the_blas_thread_count():
    """The benchmark-domain ``popuc`` zeros never reach LAPACK, so two BLAS
    threads write the same bytes as one."""
    proc = run_cli(CASES["popuc_n256"], threads=2)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / "popuc_n256.csv").read_bytes()


def _corpus_digest(corpus):
    proc = subprocess.run([sys.executable, "-c", _CORPUS_RUNNER], env=_cli_env(1),
                          input=json.dumps(corpus).encode(), capture_output=True, check=False,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode().strip()


def test_verify_all_corpus_matches_its_digest():
    """Exit codes and stdout of ``verify all`` over CORPUS, in one process
    with BLAS on one thread, hash to CORPUS_DIGEST."""
    assert _corpus_digest(CORPUS) == CORPUS_DIGEST


def test_finite_range_corpus_matches_its_digest():
    """Exit codes and stdout of the canonical-weights report and the Jost
    zero table over FINITE_RANGE_CORPUS hash to FINITE_RANGE_DIGEST."""
    assert _corpus_digest(FINITE_RANGE_CORPUS) == FINITE_RANGE_DIGEST


def test_fit_branch_corpus_matches_its_digest():
    """Exit codes and stdout of ``verify all`` over FIT_BRANCH_CORPUS hash
    to FIT_BRANCH_DIGEST."""
    assert _corpus_digest(FIT_BRANCH_CORPUS) == FIT_BRANCH_DIGEST


def _corpus_reports():
    """Every suite report of the corpora's ``verify`` commands, run in-process
    through the CLI's suite table; a suite that refuses its input (exit 2)
    gives none."""
    parser, config = cli._build_parser(), ExperimentConfig()
    for argv in CORPUS + FIT_BRANCH_CORPUS + FINITE_RANGE_CORPUS:
        args = parser.parse_args(argv)
        if args.command != "verify":
            continue
        coeffs = args.alpha and parse_alpha_spec(args.alpha, args.order)
        for name in list(cli._SUITES) if args.suite == "all" else [args.suite]:
            try:
                yield cli._SUITES[name](args, config, coeffs)
            except SzegojostError:
                pass


@pytest.mark.filterwarnings("ignore::szegojost.errors.ConvergenceWarning")
def test_corpus_reports_mark_inconclusive_in_verdict_and_notes_alike():
    """A report's notes start with "inconclusive" exactly when its verdict
    is, and it passes exactly when its verdict is "pass"; the corpora reach
    all three verdicts."""
    tally = collections.Counter()
    for report in _corpus_reports():
        assert report.notes.startswith("inconclusive") == (report.verdict == "inconclusive")
        assert report.passed == (report.verdict == "pass")
        tally[report.verdict] += 1
    assert set(tally) == {"pass", "fail", "inconclusive"}, tally
