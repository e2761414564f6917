"""End-to-end command-line checks: tables, exit codes, determinism."""

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
from szegojost.cli import _PAIR_ROW, _fmt, main
from szegojost.errors import ConvergenceWarning
from szegojost.measures import MeasureSpec, ingest_circle, realize_circle


def test_package_exports_are_pinned():
    assert len(szegojost.__all__) == 89
    assert set(szegojost.__all__) == {
        "analysis", "errors", "jost", "measures", "oprl", "opuc", "series", "szego",
        "PadePole", "ProductSet", "RadiusEstimate", "VerificationReport",
        "canonical_weight_check", "decay_rate", "gset", "jost_b_combination",
        "pade_pole_probe", "radius_estimate", "verify_damanik_simon",
        "verify_jost_b_combination", "verify_nevai_totik", "verify_r_minus_s",
        "AliasingError", "ConvergenceWarning", "DegenerateMeasureError", "DomainError",
        "IllConditionedError", "InvalidParameterError", "NumericalDegeneracyError",
        "OutOfRangeError", "PoleError", "PreconditionError", "SzegoConditionError",
        "SzegojostError", "SzegojostWarning",
        "JostData", "blaschke", "e_from_z", "finite_range_jost_data", "geronimus_deltas",
        "geronimus_map", "jost_g_ell", "m_finite_range", "m_function", "u_from_dinv",
        "z_from_e",
        "ExperimentConfig", "MeasureSpec", "ingest_circle", "ingest_line", "load_config",
        "parse_alpha_spec", "realize_circle", "realize_line",
        "JacobiParams", "PointMeasure", "PolyEval", "carmona_density", "carmona_moment",
        "dombrowski_nevai_s", "eval_polys", "m_n_b", "orthonormal_poly_coeffs",
        "spectral_measure_oracle", "truncated_matrix",
        "CircleMeasure", "CirclePolyPair", "ParaOrthogonalPoly", "PopucMeasure",
        "VerblunskyCoeffs", "bernstein_szego", "caratheodory", "popuc",
        "popuc_average_check", "popuc_point_measure", "roots_of_unity", "second_kind",
        "szego_recursion",
        "LaurentSeries", "TaylorSeries", "taylor_exp", "taylor_mul", "taylor_reciprocal",
        "d_from_weight", "dinv_from_alphas", "r_series", "recover_alpha_geronimus_freud",
        "recover_alpha_simon", "s_series",
    }
    assert all(hasattr(szegojost, name) for name in szegojost.__all__)


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


def test_gset_table(capsys):
    code, out = run(capsys, ["gset", "--generators", "2", "--cutoff", "40"])
    assert code == 0
    table, rows = parse_table(out)
    assert table == "gset"
    assert [float(r["magnitude"]) for r in rows] == [2.0, 8.0, 32.0]


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
    the recursion takes 608 steps, not 1025, and D is built through the last
    nonzero coefficient of 1/D, index 608."""
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
    assert reciprocal_orders == [608]


def test_jost_combination_maps_the_alphas_once(capsys, monkeypatch):
    """B and the mapped decay radius read one set of Geronimus deltas."""
    from szegojost import analysis

    counts = []
    original = analysis.geronimus_deltas

    def counting(coeffs, count=None):
        counts.append(count)
        return original(coeffs, count)

    monkeypatch.setattr(analysis, "geronimus_deltas", counting)
    code, _ = run(capsys, ["verify", "jost-combination", "--alpha", "geometric:C=0.5,R=2",
                           "--order", "1024"])
    assert code == 0
    assert counts == [511]


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


def test_verify_all_leaves_scipy_unloaded():
    """No verification suite needs a dense eigensolver from scipy."""
    src = str(Path(szegojost.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import io, sys, contextlib\n"
            "from szegojost.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['verify', 'all', '--alpha', 'geometric:C=0.5,R=2', '--order', '64'])\n"
            "print('scipy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "False"


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
], ids=["radius-rel-nan", "slack-negative", "radius-rel-infinite", "slack-one",
        "order-fractional", "order-bool", "grid-fractional"])
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


def test_cli_import_leaves_scipy_unloaded():
    """scipy.linalg is imported by the eigen-oracle on first use only."""
    src = str(Path(szegojost.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, szegojost.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert proc.stdout.strip() == "False"


def test_no_subcommand_loads_scipy():
    """No other CLI path needs a dense eigensolver; scipy is left for the tests."""
    src = str(Path(szegojost.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    docs = Path(__file__).parent / "data" / "measures"
    atom, cosine = str(docs / "bernstein_szego_atom.json"), str(docs / "cosine_polynomial.json")
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
    code = ("import io, json, sys, contextlib\n"
            "from szegojost.cli import main\n"
            "loaded = []\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) in (0, 1), argv\n"
            "    if 'scipy' in sys.modules and not loaded:\n"
            "        loaded.append(argv[0])\n"
            "print(json.dumps(loaded))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert json.loads(proc.stdout) == []


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
