"""End-to-end command-line checks: tables, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from szegojost.cli import main


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


def test_config_overrides_default_order(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seriesOrder": 16, "gridSize": 128}))
    code, out = run(capsys, ["--config", str(cfg), "szego", "--alpha", "0.5"])
    assert code == 0
    _, rows = parse_table(out)
    assert len(rows) == 17


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
    assert meta["schema"] == "szegojost.meta.v1"
    assert meta["table"] == "alpha"
    assert meta["tool"] == "szegojost"
    capsys.readouterr()
