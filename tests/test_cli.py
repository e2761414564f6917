"""End-to-end command-line checks: tables, exit codes, determinism."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import szegojost
from conftest import NEAR_EDGE
from szegojost.cli import _PAIR_ROW, _build_parser, _fmt, main
from szegojost.errors import ConvergenceWarning
from szegojost.measures import (
    ExperimentConfig,
    MeasureSpec,
    ingest_circle,
    parse_alpha_spec,
    realize_circle,
)
from szegojost.szego import dinv_from_alphas


def test_package_exports_are_pinned():
    assert len(szegojost.__all__) == 80
    assert set(szegojost.__all__) == {
        "analysis", "errors", "jost", "measures", "oprl", "opuc", "series", "szego",
        "PadePole", "ProductSet", "RadiusEstimate", "VerificationReport",
        "canonical_weight_check", "decay_rate", "gset", "jost_b_combination",
        "pade_pole_probe", "verify_damanik_simon",
        "verify_jost_b_combination", "verify_nevai_totik", "verify_r_minus_s",
        "AliasingError", "ConvergenceWarning", "DegenerateMeasureError", "DomainError",
        "IllConditionedError", "InvalidParameterError", "NumericalDegeneracyError",
        "OutOfRangeError", "PoleError", "PreconditionError", "SzegoConditionError",
        "SzegojostError", "SzegojostWarning",
        "JostData", "e_from_z", "finite_range_jost_data", "geronimus_deltas",
        "geronimus_map", "jost_g_ell", "m_finite_range", "u_from_dinv",
        "ExperimentConfig", "MeasureSpec", "ingest_circle", "ingest_line", "load_config",
        "parse_alpha_spec", "realize_circle", "realize_line",
        "JacobiParams", "PointMeasure", "PolyEval", "carmona_density", "carmona_moment",
        "eval_polys", "orthonormal_poly_coeffs",
        "spectral_measure_oracle", "truncated_matrix",
        "CircleMeasure", "CirclePolyPair", "ParaOrthogonalPoly", "PopucMeasure",
        "VerblunskyCoeffs", "bernstein_szego", "popuc",
        "popuc_average_check", "popuc_point_measure", "roots_of_unity",
        "szego_recursion",
        "TaylorSeries", "taylor_exp", "taylor_mul", "taylor_reciprocal",
        "d_from_weight", "dinv_from_alphas", "r_series", "recover_alpha_geronimus_freud",
        "recover_alpha_simon", "s_series",
    }
    assert all(hasattr(szegojost, name) for name in szegojost.__all__)


def _option_names(parser):
    """Dest of every argument, prefixed with its subcommand, help excluded."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from (f"{name} {dest}" for dest in _option_names(sub))
        elif not isinstance(action, argparse._HelpAction):
            yield action.dest


def test_settable_values_are_pinned():
    """46 CLI options and 4 config fields: a new knob is a deliberate change."""
    options = list(_option_names(_build_parser()))
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert len(options) + len(fields) == 50
    assert fields == ["series_order", "grid_size", "radius_rel", "one_sided_slack"]
    assert len(options) == len(set(options)) == 46
    assert set(options) == {
        "config",
        *(f"coeffs {d}" for d in ("alpha", "order", "output", "from_measure", "n", "map")),
        *(f"szego {d}" for d in ("alpha", "order", "output", "series", "from_measure")),
        *(f"jost {d}" for d in ("alpha", "order", "output", "a", "b", "b1", "what")),
        *(f"carmona {d}" for d in ("output", "free", "a", "b", "b1", "n", "grid")),
        *(f"popuc {d}" for d in ("alpha", "output", "n", "omega")),
        *(f"verify {d}" for d in ("suite", "alpha", "order", "output", "a", "b", "b1")),
        *(f"gset {d}" for d in ("output", "generators", "cutoff", "n_max")),
        *(f"probe {d}" for d in ("alpha", "order", "output", "degree", "series")),
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def parse_table(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# schema=szegojost.csv.v1 table=")
    table = lines[0].rsplit("table=", 1)[1]
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return table, rows


def test_coeffs_inline_list(capsys):
    code, out = run(capsys, ["coeffs", "--alpha", "0.5,0.25"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "alpha"
    assert [r["n"] for r in rows] == ["0", "1"]
    assert float(rows[0]["re"]) == 0.5
    assert float(rows[1]["re"]) == 0.25
    assert float(rows[1]["im"]) == 0.0


def test_coeffs_map_constant(capsys):
    code, out = run(capsys, ["coeffs", "--alpha", "constant:c=0.5", "--map", "--order", "16"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "jacobi"
    assert rows[0]["n"] == "1"
    for r in rows:
        assert abs(float(r["a"]) - 0.75) < 1e-15
        assert abs(float(r["b"]) + 0.5) < 1e-15


def test_coeffs_ingest_circle(capsys, tmp_path):
    doc = tmp_path / "uniform.json"
    doc.write_text(json.dumps({"kind": "circle", "acWeight": "uniform"}))
    code, out = run(capsys, ["coeffs", "--from-measure", str(doc), "--n", "4"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "alpha"
    assert len(rows) == 4
    for r in rows:
        assert abs(float(r["re"])) < 1e-12
        assert abs(float(r["im"])) < 1e-12


def test_coeffs_ingest_circle_uses_config_grid_size(capsys, tmp_path):
    doc = tmp_path / "bs.json"
    doc.write_text(json.dumps({"kind": "circle", "acWeight": "bernstein-szego:0.6,-0.5",
                               "pointMasses": [["1j", 0.1]]}))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"gridSize": 512}))
    code, out = run(capsys, ["--config", str(cfg), "coeffs", "--from-measure", str(doc),
                             "--n", "64"])
    assert code == 0
    _, rows = parse_table(out)
    got = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
    spec = MeasureSpec.from_file(str(doc))
    want = ingest_circle(realize_circle(spec, 512), 64).alpha
    assert np.array_equal(got, want)
    assert not np.array_equal(got, ingest_circle(realize_circle(spec, 4096), 64).alpha)


def test_coeffs_ingest_line(capsys, tmp_path):
    doc = tmp_path / "semi.json"
    doc.write_text(json.dumps({"kind": "line", "acWeight": "semicircle-free"}))
    code, out = run(capsys, ["coeffs", "--from-measure", str(doc), "--n", "3"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "jacobi"
    assert len(rows) == 3
    for r in rows:
        assert abs(float(r["a"]) - 1.0) < 1e-9
        assert abs(float(r["b"])) < 1e-9


def test_coeffs_ingest_line_samples(capsys, tmp_path):
    """Inline samples of the semicircle on 65 points interpolate to a weight
    close to the free one."""
    xs = np.linspace(-2.0, 2.0, 65)
    doc = tmp_path / "semi-samples.json"
    doc.write_text(json.dumps({"kind": "line", "acWeight": {
        "samples": (np.sqrt(np.maximum(4.0 - xs**2, 0.0)) / (2.0 * np.pi)).tolist()}}))
    code, out = run(capsys, ["coeffs", "--from-measure", str(doc)])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "jacobi"
    assert len(rows) == 8
    for r in rows:
        assert abs(float(r["a"]) - 1.0) <= 1e-2
        assert abs(float(r["b"])) <= 1e-15


def _readme_measure_document():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Measure documents", 1)[1]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


def test_readme_measure_document_ingests(capsys, tmp_path):
    doc = tmp_path / "measure.json"
    doc.write_text(_readme_measure_document())
    code, out = run(capsys, ["coeffs", "--from-measure", str(doc), "--n", "8"])
    assert code == 0
    assert len(parse_table(out)[1]) == 8


@pytest.mark.parametrize("doc, field", [
    ({"kind": "circle", "acWeight": "uniform", "pointMasses": [[1]]}, "pointMasses"),
    ({"kind": "circle", "acWeight": "uniform", "pointMasses": [1]}, "pointMasses"),
    ({"kind": "circle", "acWeight": "uniform", "pointMasses": [[1, None]]}, "pointMasses"),
    ({"kind": "circle", "acWeight": {"samples": 5}}, "samples"),
    ({"kind": "circle", "acWeight": {"samples": [None] + [1.0] * 7}}, "samples"),
], ids=["mass-without-weight", "mass-not-a-pair", "mass-null", "samples-not-a-list",
        "samples-null"])
def test_malformed_measure_document_exits_two_naming_the_field(tmp_path, doc, field):
    """A point mass that is not a [location, mass] pair with a numeric mass,
    and samples that are not a list of numbers, are malformed input: exit 2
    with one error line, not exit 1 with a traceback."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    proc = _in_fresh_interpreter("coeffs", "--from-measure", str(path), "--n", "2")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and field in proc.stderr


def test_szego_dinv_single_alpha(capsys):
    code, out = run(capsys, ["szego", "--alpha", "0.5", "--order", "8"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "dinv"
    assert abs(float(rows[0]["re"]) - 2.0 / math.sqrt(3.0)) < 1e-15
    assert abs(float(rows[1]["re"]) + 1.0 / math.sqrt(3.0)) < 1e-15
    assert all(float(r["re"]) == 0.0 for r in rows[2:])


def test_szego_s_series(capsys):
    code, out = run(capsys, ["szego", "--series", "s", "--alpha",
                             "geometric:C=0.5,R=2", "--order", "8"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "s"
    assert float(rows[0]["re"]) == 1.0
    assert float(rows[1]["re"]) == -0.5
    assert float(rows[2]["re"]) == -0.25


def test_szego_r_series(capsys):
    code, out = run(capsys, ["szego", "--series", "r", "--alpha",
                             "geometric:C=0.5,R=2", "--order", "8"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "r"
    assert [r["k"] for r in rows] == [str(k) for k in range(-8, 9)]


def test_szego_r_series_is_exact_where_a_grid_aliases(capsys):
    """r at order 64 for geometric C = 0.6267.., R = 1.232.., where 1/D has
    a zero at |z| = 1.0012, lies on a 2^16-point FFT of P / conj(P), P = 1/D,
    whose aliases weigh about 1.0012^-65536.  A grid of 1024 points, as r
    was once read off, misses by 1.05e-3."""
    spec = "geometric:C=0.6267430976375139,R=1.232033233988311"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        code, out = run(capsys, ["szego", "--series", "r", "--alpha", spec, "--order", "64"])
        p = dinv_from_alphas(parse_alpha_spec(spec, 64), 64).coeffs
    assert code == 0
    got = np.array([complex(float(r["re"]), float(r["im"])) for r in parse_table(out)[1]])
    size = 1 << 16
    vals = size * np.fft.ifft(p, size)
    want = (np.fft.fft(vals / np.conj(vals)) / size)[np.arange(-64, 65) % size]
    assert np.max(np.abs(got - want)) < 1e-13


def test_szego_r_series_refuses_a_formal_product(capsys):
    """A truncated tail near R = 1 at order 8 gives a 1/D with a zero in
    the unit disk, so r = P / conj(P) has no expansion in powers of z and
    1/z there, and the sums are a formal product: max |r_k| is 3.41 and
    sum |r_k|^2 is 28.26, where a unimodular r has sum 1 (Parseval)."""
    spec = "geometric:C=-0.6522833501420462,R=1.05286064842791"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        code = main(["szego", "--series", "r", "--alpha", spec, "--order", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: sum of |r_k|^2 over k = -8 .. 8 is 28.26")
    assert "1/D has a zero in the closed unit disk" in captured.err


@pytest.mark.parametrize("spec, order", [
    ("geometric:C=-0.9282152787314307,R=1.0827779849655137", "64"),
    ("geometric:C=0.9,R=1.05", "1024"),
], ids=["order64", "order1024"])
def test_szego_r_series_refuses_a_zero_that_parseval_misses(capsys, spec, order):
    """1/D has a zero inside the disk (at |z| = 0.99858 for the first input)
    while sum |r_k|^2 stays below 1 (0.974 there), so the Parseval check
    passes the formal product and the Schur-Cohn test refuses it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        code = main(["szego", "--series", "r", "--alpha", spec, "--order", order])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(
        "error: 1/D has a zero in the closed unit disk: the Schur-Cohn test gives |beta_")


def test_szego_d_from_measure(capsys, tmp_path):
    doc = tmp_path / "uniform.json"
    doc.write_text(json.dumps({"kind": "circle", "acWeight": "uniform"}))
    code, out = run(capsys, ["szego", "--from-measure", str(doc), "--order", "8"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "d"
    assert abs(float(rows[0]["re"]) - 1.0) < 1e-15
    assert all(abs(float(r["re"])) < 1e-15 for r in rows[1:])


def test_jost_single_b(capsys):
    code, out = run(capsys, ["jost", "--b1", "1.5"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "jost"
    assert [float(r["re"]) for r in rows] == [1.0, -1.5, 0.0]


def test_jost_zeros_empty_for_decaying_alpha(capsys):
    code, out = run(capsys, ["jost", "--alpha", "0.9,-0.9", "--what", "zeros",
                             "--order", "16"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "zeros"
    assert rows == []


def test_jost_zeros_single_b(capsys):
    code, out = run(capsys, ["jost", "--b1", "1.5", "--what", "zeros"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "zeros"
    assert len(rows) == 1
    assert abs(float(rows[0]["re"]) - 2.0 / 3.0) < 1e-12
    assert abs(float(rows[0]["eig_re"]) - 13.0 / 6.0) < 1e-12


@pytest.mark.parametrize("command", [["jost", "--what", "zeros"], ["verify", "canonical-weights"]],
                         ids=["jost-zeros", "canonical-weights"])
def test_complex_disk_root_is_no_bound_state(command):
    """With a_1 = 1e-8 and b_1 = 1, u has a complex pair of zeros of modulus
    sqrt(1e8 / (1e8 - 1)), just outside the disk, which rounding moves in.
    Bound states are real, so the pair is dropped: no bound state, exit 0
    and nothing on stderr."""
    proc = _in_fresh_interpreter(*command, "--a", "1e-8", "--b", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    if command[0] == "jost":
        assert proc.stdout.splitlines()[2:] == []
    else:
        assert "canonical-weights,n_zeros,0" in proc.stdout.splitlines()


def test_carmona_free_density(capsys):
    code, out = run(capsys, ["carmona", "--free", "--n", "1", "--grid=-2:2:9"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "carmona"
    assert len(rows) == 9
    for r in rows:
        x = float(r["x"])
        assert abs(float(r["density"]) - 1.0 / (np.pi * (x * x + 1.0))) < 1e-12
        assert abs(float(r["moment0_carmona"]) - 1.0) < 1e-9
        assert abs(float(r["moment0_oracle"]) - 1.0) < 1e-9


def test_carmona_moment_columns(capsys):
    code, out = run(capsys, ["carmona", "--b1", "1.5", "--n", "2", "--grid", "0:1:5"])
    assert code == 0
    _, rows = parse_table(out)
    assert set(rows[0]) == {"x", "density",
                            "moment0_carmona", "moment0_oracle",
                            "moment1_carmona", "moment1_oracle",
                            "moment2_carmona", "moment2_oracle"}


def test_carmona_oracle_columns_are_exact_moments(capsys):
    """(J_n^l)_00 is the moment of J for l <= 2n - 1: b_1 = 1.5 gives
    1, 3/2, 13/4, 51/8, 221/16 with no rounding."""
    code, out = run(capsys, ["carmona", "--b1", "1.5", "--n", "3", "--grid=-1:1:2"])
    assert code == 0
    _, rows = parse_table(out)
    for row in rows:
        got = [float(row[f"moment{ell}_oracle"]) for ell in range(5)]
        assert got == [1.0, 1.5, 3.25, 6.375, 13.8125]


def test_popuc_weights(capsys):
    code, out = run(capsys, ["popuc", "--alpha", "0.5,0.25", "--n", "2", "--omega", "1"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "popuc"
    assert len(rows) == 3
    total = sum(float(r["weight"]) for r in rows)
    assert abs(total - 1.0) < 1e-12
    for r in rows:
        assert abs(abs(complex(float(r["re"]), float(r["im"]))) - 1.0) < 1e-9


@pytest.mark.parametrize(("c", "n", "total"), [
    ("0.5", 128, "0.3333333333333"),
    # the weights overflow to a nan row here, as they do for c = 0.5 at n = 2048
    ("0.9", 512, "nan"),
])
def test_popuc_weights_that_lost_a_point_mass_exit_two(capsys, c, n, total):
    """A constant positive alpha puts a point mass at z = 1, where the forward
    Christoffel recursion picks up the growing solution and loses mass."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["popuc", f"--alpha=constant:c={c}", "--omega=1", "--n", str(n)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: paraorthogonal weights sum to {total}")
    assert "not 1 within 1e-10" in captured.err


def test_gset_table(capsys):
    code, out = run(capsys, ["gset", "--generators", "2", "--cutoff", "40"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "gset"
    assert [float(r["magnitude"]) for r in rows] == [2.0, 8.0, 32.0]


@pytest.mark.parametrize("cutoff", ["inf", "-inf", "nan"])
def test_gset_non_finite_cutoff_exits_two_naming_it(capsys, cutoff):
    code = main(["gset", "--generators", "2", f"--cutoff={cutoff}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cutoff must be finite, got {float(cutoff)!r}\n"


def _in_fresh_interpreter(*argv):
    """Run the CLI in a new interpreter, where numpy's RuntimeWarnings reach
    stderr as a user sees them, with a timeout."""
    env = dict(os.environ, PYTHONPATH=str(Path(szegojost.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-m", "szegojost", *argv], env=env,
                          capture_output=True, text=True, check=False, timeout=60)


def _gset_in_fresh_interpreter(*argv):
    """Run gset with a timeout, so that an unbounded enumeration fails the
    test instead of hanging the suite."""
    return _in_fresh_interpreter("gset", *argv)


def test_overflowing_recursion_writes_one_line_to_stderr():
    """The monic recursion of constant c = 0.99 overflows before order 1100.
    Its kernels run under np.errstate, so the refusal is the only line on
    stderr, not the last of six numpy RuntimeWarnings."""
    proc = _in_fresh_interpreter("szego", "--series", "dinv", "--alpha", "constant:c=0.99",
                                 "--order", "1100")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: coefficients must be finite\n"


def test_popuc_whose_recursion_overflows_writes_only_the_mass_error():
    """Phi_1100 of constant c = 0.99 overflows, so the phase route refuses it
    in silence and the CMV eigensolver gives the zeros; the weights then lose
    the point mass at z = 1, which is the one line on stderr."""
    proc = _in_fresh_interpreter("popuc", "--alpha=constant:c=0.99", "--n", "1100")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: paraorthogonal weights sum to nan, not 1 within 1e-10")


@pytest.mark.parametrize("generators", ["2,3j", "1.0000001"])
def test_gset_over_its_candidate_budget_exits_two(generators):
    """Two generators up to 1e308 give 45 million candidate products, and one
    generator near the unit circle billions of orders: both are refused
    before any product is built."""
    proc = _gset_in_fresh_interpreter("--generators", generators, "--cutoff", "1e308")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cutoff 1e+308 needs more than 100000 candidate ")
    assert proc.stderr.endswith("; lower the cutoff or cap the order with --n-max\n")


def test_gset_counts_only_the_products_it_tries(capsys, monkeypatch):
    """The conjugate parts of a plain product above the cutoff are never
    tried, so they take no share of the budget: with one small and two
    large generators the set is the one the unbudgeted enumeration builds."""
    from szegojost import analysis

    argv = ["--generators=-1.214,4.543j,3.782", "--cutoff", "964.63"]
    proc = _gset_in_fresh_interpreter(*argv)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setattr(analysis, "_GSET_MAX_CANDIDATES", math.inf)
    code, out = run(capsys, ["gset", *argv])
    assert code == 0
    assert proc.stdout == out
    assert len(parse_table(out)[1]) == 191


def test_gset_n_max_keeps_a_large_cutoff_in_budget():
    proc = _gset_in_fresh_interpreter("--generators", "2,3j", "--cutoff", "1e308", "--n-max", "2")
    assert proc.returncode == 0
    want = szegojost.gset([2, 3j], 1e308, n_max=2).elements
    assert len(parse_table(proc.stdout)[1]) == len(want) == 18


def test_probe_stable_pole(capsys):
    code, out = run(capsys, ["probe", "--alpha", "geometric:C=0.5,R=2",
                             "--degree", "8,1", "--series", "s", "--order", "24"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "pade"
    assert len(rows) == 1
    assert rows[0]["stable"] == "1"
    assert abs(float(rows[0]["re"]) - 2.0) < 1e-6


def test_verify_all_passes(capsys):
    code, out = run(capsys, ["verify", "all", "--alpha", "geometric:C=0.5,R=2"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "reports"
    passes = {r["suite"]: r["value"] for r in rows if r["field"] == "pass"}
    assert set(passes) == {"canonical-weights", "damanik-simon", "jost-combination",
                           "nevai-totik", "r-minus-s"}
    assert all(v == "true" for v in passes.values())


def test_verify_failing_suite_exits_one(capsys):
    """Decay so fast the remainder drowns in rounding: inconclusive, exit 1."""
    code, out = run(capsys, ["verify", "r-minus-s", "--alpha", "geometric:C=0.5,R=16"])
    assert code == 1
    _, rows = parse_table(out)
    passes = [r for r in rows if r["field"] == "pass"]
    assert passes[0]["value"] == "false"


def test_verify_low_order_is_inconclusive(capsys):
    """Too few stored alphas for the mapped-decay fit: inconclusive, exit 1."""
    code, out = run(capsys, ["verify", "all", "--alpha", "geometric:C=0.5,R=2",
                             "--order", "16"])
    assert code == 1
    _, rows = parse_table(out)
    notes = {r["suite"]: r["value"] for r in rows if r["field"] == "notes"}
    assert notes["damanik-simon"].startswith("inconclusive")
    assert notes["jost-combination"].startswith("inconclusive")


def test_verify_underflowed_r_minus_s_is_inconclusive(capsys):
    """r - S of C = 1e-200 is at its floor from index 2 while alpha runs on
    past the order: exit 1 with the radii it read and an inconclusive note,
    not a pass on an infinite radius from no usable point."""
    code, out = run(capsys, ["verify", "r-minus-s", "--alpha", "geometric:C=1e-200,R=2",
                             "--order", "256"])
    assert code == 1
    _, rows = parse_table(out)
    fields = {r["field"]: r["value"] for r in rows}
    assert fields["pass"] == "false"
    assert fields["usable_points"] == "0"
    assert {"alpha_decay_radius", "r_radius", "s_radius", "threshold"} < set(fields)
    assert "difference_radius" not in fields
    assert fields["notes"].startswith("inconclusive")


@pytest.mark.parametrize(("argv", "inconclusive"), [
    (["jost-combination", "--alpha=0.3,-0.2", "--order", "64"], set()),
    (["all", "--alpha", "geometric:C=0.5,R=1.6e8", "--order", "64"],
     {"damanik-simon", "jost-combination", "nevai-totik", "r-minus-s"}),
    (["all", "--alpha", "geometric:C=0.5,R=1e100", "--order", "64"], {"jost-combination"}),
], ids=["tail-degrees", "fit-window", "combination-indices"])
def test_verify_cells_hold_no_comma(capsys, argv, inconclusive):
    """Notes that name a window (lo, hi), tail indices or degrees keep their
    row at three fields: the writer turns each comma into a semicolon, and an
    inconclusive note still starts with "inconclusive"."""
    main(["verify", *argv])
    lines = capsys.readouterr().out.splitlines()
    assert all(line.count(",") == 2 for line in lines[1:])
    notes = {r["suite"]: r["value"] for r in parse_table("\n".join(lines))[1]
             if r["field"] == "notes"}
    assert {k for k, v in notes.items() if v.startswith("inconclusive")} == inconclusive
    assert any(";" in v for v in notes.values())


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("suite", ["jost-combination", "all"])
def test_combination_at_tiny_orders_is_inconclusive(capsys, suite, order):
    """One to three stored alphas give no mapped coefficients, which is no
    evidence of free parameters: inconclusive and exit 1, not a pass."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        code, out = run(capsys, ["verify", suite, "--alpha", "geometric:C=0.5,R=2",
                                 "--order", str(order)])
    assert code == 1
    _, rows = parse_table(out)
    fields = {r["field"]: r["value"] for r in rows if r["suite"] == "jost-combination"}
    assert fields["pass"] == "false"
    assert fields["notes"] == (f"inconclusive: {order + 1} stored alphas give 0 mapped "
                               "coefficients; the decay fit needs 16")


@pytest.mark.parametrize("order", range(2, 9))
def test_finite_combination_below_order_nine_names_the_order(capsys, order):
    """A finitely supported alpha reads its tail degrees from order 9 on."""
    code, out = run(capsys, ["verify", "jost-combination", "--alpha", "0.3,-0.2",
                             "--order", str(order)])
    assert code == 1
    _, rows = parse_table(out)
    notes = [r["value"] for r in rows if r["field"] == "notes"]
    assert notes == [f"inconclusive: series order {order} is too short to read the tails; need >= 9"]


@pytest.mark.parametrize(("spec", "order"), [("geometric:C=0.5,R=2", -1),
                                             ("constant:c=0.3", -2)])
@pytest.mark.parametrize("command", [["coeffs"], ["verify", "all"], ["szego"]])
def test_negative_order_of_a_generated_spec_exits_two(capsys, command, spec, order):
    code = main([*command, "--alpha", spec, "--order", str(order)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: a {spec.partition(':')[0]}: spec needs order >= 0, got {order}\n"


def test_verify_all_runs_one_szego_recursion(capsys, monkeypatch):
    """The suites share the 1/D cached on one parsed coefficient set."""
    from szegojost import opuc, szego

    starts = []
    original = opuc._monic_pair

    def counting(coeffs, n):
        starts.append(n)
        return original(coeffs, n)

    monkeypatch.setattr(opuc, "_monic_pair", counting)
    monkeypatch.setattr(szego, "_monic_pair", counting)
    code, _ = run(capsys, ["verify", "all", "--alpha", "geometric:C=0.5,R=2",
                           "--order", "64"])
    assert code == 0
    assert len(starts) == 1


def test_verify_all_stops_at_the_last_nonzero_alpha(capsys, monkeypatch):
    """alpha_n = 0.1 * 3.4^-n underflows to 0 from n = 608 at order 1024, so
    the recursion takes 608 steps, not 1025.  1/D is then the whole
    polynomial kappa_608 Phi_608*, and the r - S suite builds D through
    index 63 only, past which no term of D moves an r_k."""
    from szegojost import opuc, szego

    steps, reciprocal_orders = [], []
    step, reciprocal = opuc._szego_step, szego.taylor_reciprocal

    def counting_step(*args):
        steps.append(1)
        return step(*args)

    def counting_reciprocal(series, order=None):
        reciprocal_orders.append(order)
        return reciprocal(series, order)

    monkeypatch.setattr(opuc, "_szego_step", counting_step)
    monkeypatch.setattr(szego, "taylor_reciprocal", counting_reciprocal)
    run(capsys, ["verify", "all", "--alpha", "geometric:C=0.1,R=3.4", "--order", "1024"])
    assert len(steps) == 608
    assert reciprocal_orders == [63]


def test_jost_combination_maps_the_alphas_once(capsys, monkeypatch):
    """B and the mapped decay radius of every suite read one computed set of
    Geronimus deltas: a call after the first returns the pair cached on the
    coefficients, so the computations are the distinct arrays returned."""
    from szegojost import analysis

    results = []
    original = analysis.geronimus_deltas

    def recording(coeffs, count=None):
        out = original(coeffs, count)
        results.append((count, out))
        return out

    monkeypatch.setattr(analysis, "geronimus_deltas", recording)
    for suite in ("jost-combination", "all"):
        results.clear()
        code, _ = run(capsys, ["verify", suite, "--alpha", "geometric:C=0.5,R=2",
                               "--order", "1024"])
        assert code == 0
        computed = {id(out[0]): count for count, out in results}
        assert sorted(computed.values()) == [511], suite


@pytest.mark.parametrize("spec", ["geometric:C=-0.3,R=1.2", "0.9,-0.9", "constant:c=0.25"])
def test_jost_zeros_from_alpha_runs_no_szego_recursion(capsys, monkeypatch, spec):
    """u = c/D has no disk zeros, so the zero table is built without 1/D;
    the series table still runs the one recursion."""
    from szegojost import opuc, szego

    starts = []
    original = opuc._monic_pair

    def counting(coeffs, n):
        starts.append(n)
        return original(coeffs, n)

    monkeypatch.setattr(opuc, "_monic_pair", counting)
    monkeypatch.setattr(szego, "_monic_pair", counting)
    code, out = run(capsys, ["jost", "--what", "zeros", "--alpha", spec, "--order", "256"])
    assert code == 0
    assert parse_table(out) == ("zeros", [])
    assert starts == []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        code, _ = run(capsys, ["jost", "--what", "series", "--alpha", spec, "--order", "256"])
    assert code == 0
    assert len(starts) == 1


@pytest.mark.parametrize("what", ["zeros", "series"])
@pytest.mark.parametrize(
    ("spec", "order", "message"),
    [
        ("0.5j,0.1", "64", "the Jost correspondence needs real alpha"),
        ("0.5j,0.1", "0", "the Jost correspondence needs real alpha"),
        ("0.5,0.2", "0", "series order must be >= 1"),
        ("0.5,0.2", "-3", "series order must be >= 1"),
        ("geometric:C=0.5,R=2", "0", "alpha at index 1 is past the stored range"),
        ("geometric:C=0.5,R=2", "-1", "a geometric: spec needs order >= 0, got -1"),
    ],
)
def test_jost_from_alpha_rejects_what_u_rejects(capsys, what, spec, order, message):
    """The zero table checks its input as u_from_dinv does, in the same order."""
    code = main(["jost", "--what", what, "--alpha", spec, "--order", order])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_canonical_weights_ignores_alpha(capsys):
    """Only the suites that read alpha parse it."""
    code, out = run(capsys, ["verify", "canonical-weights", "--b1", "1.5",
                             "--alpha", "not-a-spec"])
    assert code == 0
    assert parse_table(out)[0] == "reports"


@pytest.mark.parametrize("suite", ["canonical-weights", "all"])
@pytest.mark.parametrize("flags", [["--b=2.5,0.3"], ["--a=1,0.9"]], ids=["b-only", "a-only"])
def test_verify_canonical_weights_refuses_half_a_row(capsys, flags, suite):
    """The default row a = [1], b = [1.5] is taken only when none of --a,
    --b and --b1 is given; half a row is refused, not replaced by it."""
    code = main(["verify", suite, "--alpha", "geometric:C=0.5,R=2", "--order", "64", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: give either --b1 or both --a and --b\n"


@pytest.mark.parametrize("name", sorted(NEAR_EDGE))
def test_verify_canonical_weights_near_the_band_edge(capsys, name):
    """Bound states at |z0| = 0.9914 and 0.9982 pass with exact weights.

    A 500-row eigen-oracle cannot hold eigenvectors that decay this slowly:
    it put the first weight 0.26 % off and found no node near the second.
    """
    a, b = (",".join(repr(v) for v in values) for values in NEAR_EDGE[name])
    code, out = run(capsys, ["verify", "canonical-weights", f"--a={a}", f"--b={b}"])
    assert code == 0
    _, rows = parse_table(out)
    measured = {row["field"]: row["value"] for row in rows}
    assert measured["n_zeros"] == "2"
    assert float(measured["worst_relative_deviation"]) < 1e-12


def test_verify_canonical_weights_at_range_sixteen(capsys):
    """16 rows of a = 1 and b_k = 3 4^-k: the identity holds, so the suite
    passes (it failed with deviation 0.158 when u(1/z0) came from the
    rounded coefficients of u)."""
    a = ",".join(["1"] * 16)
    b = ",".join(repr(3.0 * 4.0**-k) for k in range(16))
    code, out = run(capsys, ["verify", "canonical-weights", f"--a={a}", f"--b={b}"])
    assert code == 0
    _, rows = parse_table(out)
    measured = {row["field"]: row["value"] for row in rows}
    assert float(measured["worst_relative_deviation"]) < 1e-9


# a = 1 and b_k = 3 2^-k over 64 rows: u(1/z0) at the deep bound state
# z0 = 0.304207 is lost to the growing solution of the forward p_k(E)
_RANGE_64 = [f"--a={','.join(['1'] * 64)}",
             f"--b={','.join(repr(3.0 * 2.0**-k) for k in range(64))}"]


@pytest.mark.parametrize(("flags", "z0"), [
    (["--b1", "1e152"], "1e-152+0j"),
    (["--b1", "1e160"], "1e-160+0j"),
    (_RANGE_64, "0.304207+0j"),
], ids=["b1-1e152", "b1-1e160", "range-64"])
def test_verify_canonical_weights_inconclusive_where_double_precision_fails(flags, z0):
    """A Jost residue that underflows to 0 (b_1 = 1e152), residues that are
    nan (b_1 = 1e160) and a vanishing u(1/z0) are inconclusive, with the
    zero named and no RuntimeWarning.  They printed a plain fail with
    deviation inf, a pass on nan, and exit 2 with a false collision."""
    proc = _in_fresh_interpreter("verify", "canonical-weights", *flags)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    _, rows = parse_table(proc.stdout)
    measured = {row["field"]: row["value"] for row in rows}
    assert measured["pass"] == "false"
    assert measured["notes"] == f"inconclusive: double precision loses the identity at z0 = {z0}"
    if flags[0] == "--b1":
        assert measured["worst_relative_deviation"] in ("inf", "nan")


@pytest.mark.parametrize("b1, n", [("1e80", "3"), ("1e308", "2")])
def test_carmona_refuses_moments_that_are_not_finite(b1, n):
    """Moments lost to overflow are refused with one error line; b_1 = 1e80
    printed nan moment columns with exit 0, and b_1 = 1e308 RuntimeWarnings
    and then LAPACK's complaint about infs."""
    proc = _in_fresh_interpreter("carmona", "--b1", b1, "--n", n, "--grid=-3:3:3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: moment 0 of the order-{n} averaged density is not finite\n"


def test_config_overrides_default_order(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seriesOrder": 16, "gridSize": 128}))
    code, out = run(capsys, ["--config", str(cfg), "szego", "--alpha", "0.5"])
    assert code == 0
    _, rows = parse_table(out)
    assert len(rows) == 17


@pytest.mark.parametrize("doc, field", [
    ({"tolerances": [1, 2]}, "'tolerances'"),
    ({"seriesOrder": None}, "'seriesOrder'"),
    ({"gridSize": [4096]}, "'gridSize'"),
    ({"tolerances": {"bogus": 1}}, "'bogus'"),
    ({"window": [20, 40]}, "'window'"),
], ids=["tolerances-list", "order-null", "grid-list", "tolerance-unknown", "window"])
def test_malformed_config_exits_two_naming_the_field(capsys, tmp_path, doc, field):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["--config", str(cfg), "verify", "canonical-weights"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and field in captured.err


@pytest.mark.parametrize("doc, message", [
    ('{"tolerances": {"radius_rel": NaN, "one_sided_slack": 0.1}}',
     "tolerance 'radius_rel' must be finite and >= 0, got nan"),
    ('{"tolerances": {"one_sided_slack": -1}}',
     "tolerance 'one_sided_slack' must be finite and >= 0, got -1"),
    ('{"tolerances": {"radius_rel": Infinity}}',
     "tolerance 'radius_rel' must be finite and >= 0, got inf"),
    ('{"tolerances": {"one_sided_slack": 1}}',
     "tolerance 'one_sided_slack' must be below 1, got 1"),
    ('{"seriesOrder": 64.9}', "config field 'seriesOrder' must be an integer, got 64.9"),
    ('{"seriesOrder": true}', "config field 'seriesOrder' must be an integer, got True"),
    ('{"gridSize": 4096.5}', "config field 'gridSize' must be an integer, got 4096.5"),
    ('{"seriesOrder": 7}', "config field 'seriesOrder' must be >= 8, got 7"),
], ids=["radius-rel-nan", "slack-negative", "radius-rel-infinite", "slack-one",
        "order-fractional", "order-bool", "grid-fractional", "order-too-small"])
def test_out_of_range_config_value_exits_two_naming_it(capsys, tmp_path, doc, message):
    """A nan or negative tolerance would fail every radius suite, an infinite
    one or a slack of 1 would pass any radius, and a fractional order would
    be cut to an integer; each is refused before anything runs."""
    cfg = tmp_path / "config.json"
    cfg.write_text(doc)
    code = main(["--config", str(cfg), "verify", "all", "--alpha", "geometric:C=0.5,R=2",
                 "--order", "64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_integral_float_series_order_is_an_integer(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"seriesOrder": 16.0, "gridSize": 128.0}')
    code, out = run(capsys, ["--config", str(cfg), "szego", "--alpha", "0.5"])
    assert code == 0
    assert len(parse_table(out)[1]) == 17


def test_partial_tolerances_config_runs_every_suite(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"tolerances": {"radius_rel": 0.02}}))
    code, out = run(capsys, ["--config", str(cfg), "verify", "all",
                             "--alpha", "geometric:C=0.5,R=2", "--order", "64"])
    assert code == 0
    _, rows = parse_table(out)
    tolerance = {r["suite"]: float(r["value"]) for r in rows if r["field"] == "tolerance"}
    assert tolerance == {"canonical-weights": 1e-4, "damanik-simon": 0.02,
                         "jost-combination": 0.1, "nevai-totik": 0.02, "r-minus-s": 0.1}


def test_malformed_input_exits_two(capsys, tmp_path):
    assert main(["bogus"]) == 2
    assert main([]) == 2
    assert main(["coeffs", "--from-measure", str(tmp_path / "missing.json"), "--n", "2"]) == 2
    assert main(["carmona", "--free", "--n", "1", "--grid", "bad"]) == 2
    assert main(["szego", "--alpha", "geometric:C=0.5"]) == 2
    assert main(["probe", "--alpha", "0.5", "--degree", "4"]) == 2
    assert main(["verify", "nevai-totik"]) == 2
    capsys.readouterr()


def test_output_files_are_byte_stable(capsys, tmp_path):
    out_path = tmp_path / "alpha.csv"
    argv = ["coeffs", "--alpha", "geometric:C=0.5,R=2", "--order", "8",
            "-o", str(out_path)]
    assert main(argv) == 0
    first = out_path.read_bytes()
    meta_first = (tmp_path / "alpha.csv.meta.json").read_bytes()
    assert main(argv) == 0
    assert out_path.read_bytes() == first
    assert (tmp_path / "alpha.csv.meta.json").read_bytes() == meta_first
    meta = json.loads(meta_first)
    assert set(meta) == {"schema", "table", "tool", "toolVersion", "config", "inputSha256"}
    assert meta["schema"] == "szegojost.meta.v2"
    assert meta["table"] == "alpha"
    assert meta["tool"] == "szegojost"
    assert meta["config"] == {"seriesOrder": 64, "gridSize": 4096,
                              "tolerances": {"one_sided_slack": 0.1, "radius_rel": 0.05}}
    capsys.readouterr()


def _run_with_scipy_blocked(body, timeout=120):
    """Run `body` in a fresh interpreter where `import scipy` raises, so any
    path that needs scipy fails; `body` prints ok when it gets to its end."""
    src = str(Path(szegojost.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys\nsys.modules['scipy'] = None\n" + body + "print('ok')\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=False, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_cli_import_leaves_scipy_unloaded():
    """The package needs numpy alone: the CLI imports with scipy unimportable."""
    _run_with_scipy_blocked("import szegojost.cli\n")


def test_verify_all_leaves_scipy_unloaded():
    """No verification suite needs scipy."""
    argv = ["verify", "all", "--alpha", "geometric:C=0.5,R=2", "--order", "64"]
    _run_with_scipy_blocked("import io, contextlib\n"
                            "from szegojost.cli import main\n"
                            "with contextlib.redirect_stdout(io.StringIO()):\n"
                            f"    assert main({argv!r}) in (0, 1)\n")


def test_cli_import_leaves_late_modules_unloaded():
    """Start-up loads neither hashlib, json nor decimal, which only ``-o``,
    config and measure documents and the finite-range Jost zeros use, nor
    numpy.polynomial, which numpy loads on first use."""
    _run_with_scipy_blocked("import szegojost.cli\n"
                            "late = {'hashlib', 'json', 'decimal', 'numpy.polynomial'}\n"
                            "assert not late & set(sys.modules), late & set(sys.modules)\n")


def test_no_subcommand_loads_scipy():
    """Every other subcommand, demo 03 and the 2000-row eigen-oracle run with
    scipy unimportable."""
    docs = Path(__file__).parent / "data" / "measures"
    atom, cosine = str(docs / "bernstein_szego_atom.json"), str(docs / "cosine_polynomial.json")
    demo = str(Path(__file__).resolve().parent.parent / "demos" / "03_jost_and_bound_states.py")
    argvs = [
        ["coeffs", "--alpha", "geometric:C=0.5,R=2", "--order", "16", "--map"],
        ["coeffs", "--from-measure", atom, "--n", "8"],
        ["szego", "--series", "r", "--alpha", "geometric:C=0.5,R=2", "--order", "16"],
        ["szego", "--from-measure", cosine, "--order", "16"],
        ["jost", "--what", "zeros", "--alpha", "geometric:C=0.5,R=2", "--order", "64"],
        ["jost", "--what", "zeros", "--b1", "1.5"],
        ["carmona", "--b1", "1.5", "--n", "3", "--grid=-1:1:3"],
        ["popuc", "--alpha", "0.5,0.25", "--n", "2"],
        ["gset", "--generators", "2,3j", "--cutoff", "40"],
        ["probe", "--alpha", "geometric:C=0.5,R=2", "--order", "32"],
    ]
    _run_with_scipy_blocked(
        "import io, runpy, contextlib\n"
        "from szegojost.cli import main\n"
        "from szegojost.oprl import JacobiParams, spectral_measure_oracle\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) in (0, 1), argv\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    runpy.run_path({demo!r}, run_name='__main__')\n"
        "spectral_measure_oracle(JacobiParams(a=[1.0], b=[1.5], free_after=1), 2000)\n",
        timeout=300)


@pytest.mark.parametrize("omega", ["--omega=", "--omega=1,0,5", "--omega=,"])
def test_popuc_omega_needs_one_or_two_values(capsys, omega):
    code = main(["popuc", "--alpha", "0.5,0.25", "--n", "2", omega])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    text = omega.partition("=")[2]
    assert captured.err == f"error: bad omega {text!r}; expected re or re,im\n"


@pytest.mark.parametrize("doc", [{"kind": "circle", "acWeight": "uniform"},
                                 {"kind": "line", "acWeight": "semicircle-free"}])
def test_negative_ingestion_count_names_the_flag(capsys, tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(["coeffs", "--from-measure", str(path), "--n", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --n must be >= 0, got -1\n"


_NUMBERS = st.one_of(
    st.integers(-(10**30), 10**30), st.booleans(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.floats(), st.floats().map(np.float64),
)


@given(_NUMBERS)
@example(float("nan"))
@example(float("inf"))
@example(float("-inf"))
@example(-0.0)
@example(5e-324)
@example(-2.5e-320)
@example(1e300)
@example(-1e-300)
@example(np.float64(-0.0))
@example(np.float64("nan"))
def test_row_template_cells_match_fmt(value):
    """Each cell of a row template is _fmt's text: %d for integers, %.17g for floats."""
    integral = isinstance(value, (bool, int, np.bool_, np.integer))
    assert ("%d" if integral else "%.17g") % value == _fmt(value)


@given(st.integers(-(2**31), 2**31), st.floats(), st.floats())
def test_pair_row_matches_fmt_per_cell(k, re, im):
    for row in ((k, re, im), (np.int64(k), np.float64(re), np.float64(im))):
        assert _PAIR_ROW % row == ",".join(_fmt(cell) for cell in row)
