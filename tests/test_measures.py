"""Measure documents, discretization, ingestion, config, coefficient specs."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from szegojost.errors import (
    AliasingError,
    DegenerateMeasureError,
    InvalidParameterError,
    PreconditionError,
)
from szegojost.jost import geronimus_map
from szegojost.measures import (
    CONFIG_ENV_VAR,
    ExperimentConfig,
    MeasureSpec,
    check_line_integrability,
    ingest_circle,
    ingest_line,
    load_config,
    parse_alpha_spec,
    realize_circle,
    realize_line,
)
from szegojost.oprl import PointMeasure
from szegojost.opuc import CircleMeasure, VerblunskyCoeffs, bernstein_szego, szego_recursion


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        MeasureSpec(kind="sphere", family="uniform")
    with pytest.raises(InvalidParameterError):
        MeasureSpec(kind="circle")
    with pytest.raises(InvalidParameterError):
        MeasureSpec(kind="circle", family="uniform", samples=tuple(np.ones(8)))
    with pytest.raises(InvalidParameterError):
        MeasureSpec(kind="circle", family="gaussian")
    with pytest.raises(InvalidParameterError):
        MeasureSpec(kind="line", family="bernstein-szego")
    with pytest.raises(InvalidParameterError):
        MeasureSpec(kind="circle", samples=(1.0,) * 7)
    with pytest.raises(InvalidParameterError):
        MeasureSpec(kind="circle", samples=(1.0,) * 7 + (-0.5,))


def test_spec_point_mass_validation():
    with pytest.raises(InvalidParameterError):
        MeasureSpec(kind="circle", family="uniform", point_masses=((1.0, 0.0),))
    with pytest.raises(InvalidParameterError):
        MeasureSpec(kind="circle", family="uniform",
                    point_masses=((1.0, 0.6), (-1.0, 0.5)))
    with pytest.raises(InvalidParameterError):
        MeasureSpec(kind="circle", family="uniform", point_masses=((0.5, 0.1),))
    with pytest.raises(InvalidParameterError):
        MeasureSpec(kind="line", family="uniform", point_masses=((1.0 + 0.5j, 0.1),))


def test_spec_from_dict_family_and_samples():
    spec = MeasureSpec.from_dict({"kind": "circle", "acWeight": "bernstein-szego:0.5,-0.25"})
    assert spec.family == "bernstein-szego"
    assert spec.family_params == (0.5, -0.25)
    spec = MeasureSpec.from_dict(
        {"kind": "circle", "acWeight": {"samples": list(np.ones(16))},
         "pointMasses": [["1", 0.25]]}
    )
    assert spec.samples == tuple(np.ones(16))
    assert spec.point_masses == ((1.0 + 0.0j, 0.25),)


def test_spec_from_dict_rejects_malformed_documents():
    with pytest.raises(InvalidParameterError):
        MeasureSpec.from_dict({"kind": "circle", "acWeight": "uniform", "extra": 1})
    with pytest.raises(InvalidParameterError):
        MeasureSpec.from_dict({"acWeight": "uniform"})
    with pytest.raises(InvalidParameterError):
        MeasureSpec.from_dict({"kind": "circle"})
    with pytest.raises(InvalidParameterError):
        MeasureSpec.from_dict({"kind": "circle", "acWeight": "uniform:a,b"})
    with pytest.raises(InvalidParameterError):
        MeasureSpec.from_dict({"kind": "circle", "acWeight": 17})
    # a probability measure fixes its own scale
    with pytest.raises(InvalidParameterError,
                       match=r"^unknown field\(s\) in measure document: \['normalization'\]$"):
        MeasureSpec.from_dict({"kind": "circle", "acWeight": "uniform", "normalization": 1.0})


def test_spec_from_file(tmp_path):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps({"kind": "line", "acWeight": "semicircle-free"}))
    spec = MeasureSpec.from_file(str(path))
    assert spec.kind == "line"
    assert spec.family == "semicircle-free"


def test_realize_circle_uniform_and_atom_scaling():
    m = realize_circle(MeasureSpec(kind="circle", family="uniform"), grid_size=256)
    assert np.allclose(m.weight, 1.0)
    spec = MeasureSpec(kind="circle", family="uniform", point_masses=((1.0, 0.2),))
    m = realize_circle(spec, grid_size=256)
    assert np.allclose(m.weight, 0.8)
    assert m.point_masses == ((1.0 + 0.0j, 0.2),)
    assert abs(m.moment(0) - 1.0) < 1e-12


def test_realize_circle_bernstein_szego_family():
    spec = MeasureSpec(kind="circle", family="bernstein-szego", family_params=(0.5, -0.25))
    got = realize_circle(spec, grid_size=512)
    want = bernstein_szego(VerblunskyCoeffs.finitely_supported([0.5, -0.25]), 2, 512)
    assert np.allclose(got.weight, want.weight, rtol=1e-12)


def test_realize_circle_cosine_polynomial():
    spec = MeasureSpec(kind="circle", family="cosine-polynomial", family_params=(0.8,))
    m = realize_circle(spec, grid_size=512)
    thetas = 2.0 * np.pi * np.arange(512) / 512
    assert np.allclose(m.weight, 1.0 + 0.8 * np.cos(thetas))
    bad = MeasureSpec(kind="circle", family="cosine-polynomial", family_params=(2.0,))
    with pytest.raises(InvalidParameterError):
        realize_circle(bad)


def test_realize_circle_samples_fix_the_grid():
    w = 1.0 + 0.25 * np.cos(2.0 * np.pi * np.arange(16) / 16)
    spec = MeasureSpec(kind="circle", samples=tuple(w))
    m = realize_circle(spec, grid_size=4096)
    assert len(m.weight) == 16
    assert abs(np.mean(m.weight) - 1.0) < 1e-14


def test_realize_line_semicircle_moments():
    m = realize_line(MeasureSpec(kind="line", family="semicircle-free"))
    # Catalan pattern: 1, 0, 1, 0, 2
    for k, want in enumerate([1.0, 0.0, 1.0, 0.0, 2.0]):
        assert abs(m.moment(k) - want) < 1e-12


def test_realize_line_merges_atoms():
    spec = MeasureSpec(kind="line", family="semicircle-free", point_masses=((0.5, 0.1),))
    m = realize_line(spec)
    assert abs(m.moment(0) - 1.0) < 1e-12
    j = int(np.argmin(np.abs(m.nodes - 0.5)))
    assert abs(m.nodes[j] - 0.5) < 1e-12
    assert m.weights[j] >= 0.1
    assert np.all(np.diff(m.nodes) > 0)


@pytest.mark.parametrize("offset", [0.0, -5e-13, 5e-13])
def test_realize_line_merges_an_atom_onto_a_gauss_node(offset):
    """An atom within 1e-12 of a Gauss node (on it, or just left or right of
    it) adds its mass to that node's weight instead of adding a node."""
    plain = realize_line(MeasureSpec(kind="line", family="semicircle-free"))
    j = 700
    spec = MeasureSpec(kind="line", family="semicircle-free",
                       point_masses=((plain.nodes[j] + offset, 0.1),))
    m = realize_line(spec)
    assert m.nodes.size == plain.nodes.size == 2000
    assert m.nodes.tobytes() == plain.nodes.tobytes()
    assert abs(m.weights[j] - (0.9 * plain.weights[j] + 0.1)) <= 1e-15
    others = np.delete(np.arange(2000), j)
    assert np.allclose(m.weights[others], 0.9 * plain.weights[others], rtol=1e-14, atol=0.0)


def test_ingest_circle_uniform_gives_zero_alpha():
    got = ingest_circle(CircleMeasure(np.ones(512)), 6)
    assert np.max(np.abs(got.alpha)) < 1e-12


def test_ingest_circle_round_trip():
    alphas = np.array([0.4, -0.25, 0.1])
    measure = bernstein_szego(VerblunskyCoeffs.finitely_supported(alphas), 3, 4096)
    got = ingest_circle(measure, 3)
    assert np.allclose(got.alpha, alphas, atol=1e-10)


def test_ingest_circle_accepts_spec_input():
    spec = MeasureSpec(kind="circle", family="bernstein-szego", family_params=(0.3,))
    got = ingest_circle(spec, 2)
    assert abs(got.entry(0) - 0.3) < 1e-10
    assert abs(got.entry(1)) < 1e-10


def test_ingest_circle_needs_positive_weight():
    w = np.ones(16) * 16.0 / 15.0
    w[3] = 0.0
    with pytest.raises(PreconditionError):
        ingest_circle(CircleMeasure(weight=w), 2)


def test_ingest_circle_spike_degenerates():
    """A near-atomic sampled weight pushes alpha_0 onto the unit circle."""
    w = np.full(32, 1e-15)
    w[0] = 1.0
    spec = MeasureSpec(kind="circle", samples=tuple(w))
    with pytest.raises(DegenerateMeasureError):
        ingest_circle(spec, 20)


def test_ingest_line_semicircle_is_free():
    params = ingest_line(MeasureSpec(kind="line", family="semicircle-free"), 6)
    assert np.allclose(params.a, 1.0, atol=1e-10)
    assert np.allclose(params.b, 0.0, atol=1e-10)


def test_ingest_line_szego_mapped_matches_coefficient_map():
    alphas = [0.3, -0.2]
    spec = MeasureSpec(kind="line", family="szego-mapped", family_params=tuple(alphas))
    got = ingest_line(spec, 3)
    want = geronimus_map(VerblunskyCoeffs.finitely_supported(alphas))
    assert np.allclose(got.a[:3], [want.a_entry(n) for n in (1, 2, 3)], atol=1e-6)
    assert np.allclose(got.b[:3], [want.b_entry(n) for n in (1, 2, 3)], atol=1e-6)


def test_ingest_line_guards():
    three = PointMeasure(nodes=np.array([-1.0, 0.0, 1.0]),
                         weights=np.array([0.3, 0.4, 0.3]))
    with pytest.raises(InvalidParameterError):
        ingest_line(three, 6)
    with pytest.raises(DegenerateMeasureError):
        ingest_line(three, 3)


def test_line_integrability_precheck():
    check_line_integrability(MeasureSpec(kind="line", family="semicircle-free"))
    check_line_integrability(
        MeasureSpec(kind="line", family="szego-mapped", family_params=(0.3,))
    )
    with pytest.raises(PreconditionError, match=r"-2 and \+2"):
        check_line_integrability(MeasureSpec(kind="line", family="uniform"))
    with pytest.raises(PreconditionError):
        ingest_line(MeasureSpec(kind="line", family="uniform"), 3)
    # zero on a stretch at each end is integrable
    samples = np.zeros(101)
    samples[10:-10] = 1.0
    check_line_integrability(MeasureSpec(kind="line", samples=tuple(samples)))
    samples[0] = 0.5
    with pytest.raises(PreconditionError, match=r"endpoint -2; "):
        check_line_integrability(MeasureSpec(kind="line", samples=tuple(samples)))


# 13 real alphas whose szego-mapped weight a fitted endpoint exponent refused
_PRECHECK_LINE = (
    0.16815744103397023, 0.3847149824854088, 0.4998030282851982, -0.35636305365231447,
    0.03729772442731616, 0.3812005287254918, -0.4469703251415782, 0.0882931558557919,
    -0.32608865061170633, 0.2678302621654288, 0.4376310347269122, 0.03828819266067918,
    -0.49103352674956424)


def test_szego_mapped_weight_passes_the_precheck():
    """The weight vanishes like sqrt(4 - x^2) at both ends, so it ingests,
    and its 92 rows match the coefficient map of the same alphas."""
    spec = MeasureSpec(kind="line", family="szego-mapped", family_params=_PRECHECK_LINE)
    got = ingest_line(spec, 92)
    want = geronimus_map(VerblunskyCoeffs.finitely_supported(_PRECHECK_LINE), 92)
    assert np.max(np.abs(got.a - want.a_slice(92))) <= 1e-10
    assert np.max(np.abs(got.b - want.b_slice(92))) <= 1e-10


def test_config_defaults_and_validation():
    cfg = ExperimentConfig()
    assert cfg.series_order == 64
    assert cfg.grid_size == 4096
    assert cfg.radius_rel == 0.05
    assert cfg.one_sided_slack == 0.1
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(series_order=7)
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(grid_size=1000)
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(series_order=64, grid_size=128)


def test_config_dict_round_trip():
    cfg = ExperimentConfig(series_order=32, grid_size=256, radius_rel=0.02, one_sided_slack=0)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.to_dict()["tolerances"] == {"one_sided_slack": 0, "radius_rel": 0.02}
    with pytest.raises(InvalidParameterError):
        ExperimentConfig.from_dict({"seriesorder": 32})
    with pytest.raises(InvalidParameterError, match="outputFormat"):
        ExperimentConfig.from_dict({"outputFormat": "csv"})


def test_partial_tolerances_merge_over_the_defaults():
    cfg = ExperimentConfig.from_dict({"tolerances": {"radius_rel": 0.02}})
    assert cfg == ExperimentConfig(radius_rel=0.02)
    assert cfg.one_sided_slack == 0.1
    assert ExperimentConfig.from_dict({"tolerances": {}}) == ExperimentConfig()


def test_readme_config_block_is_the_default():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert ExperimentConfig.from_dict(json.loads(block)) == ExperimentConfig()


def test_load_config_sources(tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    assert load_config() == ExperimentConfig()
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seriesOrder": 16, "gridSize": 128}))
    assert load_config(str(path)).series_order == 16
    monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
    assert load_config().grid_size == 128
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(InvalidParameterError):
        load_config(str(bad))


def test_parse_alpha_spec_generators():
    got = parse_alpha_spec("geometric:C=0.5,R=2", order=16)
    assert not got.is_finitely_supported
    assert np.allclose(got.alpha, 0.5 * 2.0 ** -np.arange(17.0))
    got = parse_alpha_spec("constant:c=0.25", order=8)
    assert np.allclose(got.alpha, 0.25)
    assert len(got.alpha) == 9
    assert np.allclose(parse_alpha_spec("constant:0.25", order=8).alpha, 0.25)


def test_parse_alpha_spec_inline_and_file(tmp_path):
    got = parse_alpha_spec("0.5,0.25,0.125")
    assert got.is_finitely_supported
    assert np.allclose(got.alpha, [0.5, 0.25, 0.125])
    path = tmp_path / "coeffs.txt"
    path.write_text("0.5, 0.25\n0.125\n")
    got = parse_alpha_spec(f"file:{path}")
    assert got.is_finitely_supported
    assert np.allclose(got.alpha, [0.5, 0.25, 0.125])


def test_parse_alpha_spec_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        parse_alpha_spec("geometric:C=0.5,R=1.0")
    with pytest.raises(InvalidParameterError):
        parse_alpha_spec("geometric:C=0.5")
    with pytest.raises(InvalidParameterError):
        parse_alpha_spec("geometric:C=0.5,Q=2")
    with pytest.raises(InvalidParameterError):
        parse_alpha_spec("")
    with pytest.raises(InvalidParameterError):
        parse_alpha_spec("0.5,zebra")


@pytest.mark.parametrize("spec", ["geometric:C=0.5,R=2", "constant:c=0.3", "constant:0.3"])
def test_parse_alpha_spec_generated_order(spec):
    """Order 0 keeps alpha_0 alone; a negative order is named, not passed on."""
    assert len(parse_alpha_spec(spec, order=0).alpha) == 1
    for order in (-1, -3):
        with pytest.raises(InvalidParameterError, match=f"needs order >= 0, got {order}$"):
            parse_alpha_spec(spec, order=order)


def _expectation_by_horner(measure, poly, extra_power=0):
    """Verbatim copy of the grid expectation the moment route replaced."""
    z = measure.points()
    vals = np.polynomial.polynomial.polyval(z, poly) * z**extra_power
    total = np.mean(measure.weight * vals)
    for loc, mass in measure.point_masses:
        total += mass * np.polynomial.polynomial.polyval(loc, poly) * loc**extra_power
    return complex(total)


def _ingest_circle_by_horner(measure, n):
    """Verbatim copy of the O(n^2 G) ingestion loop the moment route replaced."""
    if float(np.min(measure.weight)) <= 0.0:
        raise PreconditionError("ingestion needs a strictly positive a.c. weight")
    alphas = np.zeros(n, dtype=complex)
    phi = np.array([1.0 + 0.0j])
    for m in range(n):
        phi_star = np.conj(phi[::-1])
        num = _expectation_by_horner(measure, phi, extra_power=1)
        den = _expectation_by_horner(measure, phi_star)
        if abs(den) < 1e-13:
            raise DegenerateMeasureError(m, "monic norm collapsed; measure is numerically trivial")
        alpha = np.conj(num / den)
        if abs(alpha) >= 1.0 - 1e-13:
            raise DegenerateMeasureError(
                m, f"|alpha_{m}| = {abs(alpha):.6f} reached the unit circle"
            )
        alphas[m] = alpha
        phi = np.concatenate(([0.0], phi)) - np.conj(alpha) * np.concatenate(
            (phi_star, [0.0])
        )
    return VerblunskyCoeffs(alpha=alphas)


def _outcome(fn, *args):
    try:
        return fn(*args).alpha, None
    except DegenerateMeasureError as exc:
        return None, exc.order


@given(st.integers(0, 2**31 - 1), st.integers(3, 9), st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_ingest_circle_matches_horner_loop(seed, log_grid, with_atom, data):
    """Moments from one inverse FFT give the grid loop's alphas and its errors.

    A measure on S points has |alpha_{S-1}| = 1 exactly, so both routes agree
    on every step below S - 1.  From there on the grid loop's computed
    modulus sits within rounding of the 1 - 1e-13 guard, and whether it
    stops at step S - 1, at S (norm collapse) or not at all is decided by
    rounding; ``ingest_circle`` counts the support and stops at S - 1.
    """
    rng = np.random.default_rng(seed)
    grid = 2**log_grid
    n = data.draw(st.integers(1, grid + 3), label="n")
    w = rng.uniform(0.05, 2.0, grid)
    atoms = ()
    if with_atom:
        atoms = ((complex(np.exp(2j * np.pi * rng.uniform())), float(rng.uniform(0.01, 0.3))),)
    w *= (1.0 - sum(m for _, m in atoms)) / np.mean(w)
    measure = CircleMeasure(weight=w, point_masses=atoms)
    support = grid + len(atoms)
    sure = min(n, support - 1)
    got, got_error = _outcome(ingest_circle, measure, sure)
    want, want_error = _outcome(_ingest_circle_by_horner, measure, sure)
    assert got_error is None and want_error is None
    assert np.max(np.abs(got - want)) <= 1e-12
    alphas, step = _outcome(ingest_circle, measure, n)
    if n >= support:
        assert alphas is None and step == support - 1
    else:
        assert step is None and np.array_equal(alphas, got)
    alphas, step = _outcome(_ingest_circle_by_horner, measure, n)
    assert step is None or step >= support - 1
    if alphas is not None:
        assert np.array_equal(alphas[:sure], want)


@pytest.mark.parametrize("seed", [0, 1, 53, 77, 144])
def test_ingest_circle_stops_at_the_support_size(seed):
    """G = 8 grid points and one atom off the grid: alpha_8 is unimodular.

    n = 9 raises at step 8 whatever rounding does to |alpha_8|; n = 8
    returns eight alphas strictly inside the disk.  On seeds 53, 77 and 144
    the computed |alpha_8| lands below the 1 - 1e-13 guard, so a loop that
    relies on the guard returns nine alphas.  An atom on a grid node adds no
    support point, and n = 8 then raises at step 7.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 2.0, 8)
    loc = complex(np.exp(2j * np.pi * rng.uniform()))
    mass = float(rng.uniform(0.01, 0.3))
    w *= (1.0 - mass) / np.mean(w)
    measure = CircleMeasure(weight=w, point_masses=((loc, mass),))
    with pytest.raises(DegenerateMeasureError) as info:
        ingest_circle(measure, 9)
    assert info.value.order == 8
    alphas = ingest_circle(measure, 8).alpha
    assert alphas.shape == (8,) and np.max(np.abs(alphas)) < 1.0
    on_node = CircleMeasure(weight=measure.weight,
                            point_masses=((complex(np.exp(2j * np.pi * 3 / 8)), mass),))
    with pytest.raises(DegenerateMeasureError) as info:
        ingest_circle(on_node, 8)
    assert info.value.order == 7


def _monic_star(alphas):
    """Coefficients of Phi_k^* for Verblunsky coefficients alpha_0..alpha_{k-1}."""
    phi = np.array([1.0 + 0.0j])
    for a in alphas:
        star = np.conj(phi[::-1])
        phi = np.concatenate(([0.0], phi)) - np.conj(a) * np.concatenate((star, [0.0]))
    return np.conj(phi[::-1])


def _exact_bs_moments(alphas, count, atoms):
    """mu_j = integral of z^j d mu, j < count, for the Bernstein-Szego measure plus atoms.

    On the circle the weight is proportional to |f|^2 with f = 1/Phi_k^* =
    sum_j a_j z^j analytic past the closed disk, so mu_m is proportional to
    sum_j a_j conj(a_{j+m}).
    """
    star = _monic_star(alphas)
    length = count + 4000
    a = np.zeros(length, dtype=complex)
    a[0] = 1.0
    for j in range(1, length):
        i = min(j, len(star) - 1)
        a[j] = -np.dot(star[1 : i + 1], a[j - 1 :: -1][:i])
    assert np.max(np.abs(a[-50:])) < 1e-30 * np.max(np.abs(a))
    mu = np.array([np.dot(a[: length - m], np.conj(a[m:])) for m in range(count)])
    mu *= (1.0 - sum(mass for _, mass in atoms)) / mu[0].real
    for loc, mass in atoms:
        mu += mass * loc ** np.arange(count)
    return mu


def _levinson(mu, n):
    """alpha_0..alpha_{n-1} from exact moments, with the norm carried by the recursion."""
    alphas = np.zeros(n, dtype=complex)
    phi = np.array([1.0 + 0.0j])
    norm = mu[0].real
    for m in range(n):
        alpha = np.conj(np.dot(phi, mu[1 : m + 2])) / norm
        alphas[m] = alpha
        phi = np.concatenate(([0.0], phi)) - np.conj(alpha) * np.concatenate(
            (np.conj(phi[::-1]), [0.0])
        )
        norm *= 1.0 - abs(alpha) ** 2
    return alphas


@pytest.mark.parametrize("seed", range(6))
def test_ingest_circle_matches_exact_moment_levinson(seed):
    """A Bernstein-Szego document with an atom, against its exact moments."""
    rng = np.random.default_rng(seed)
    alphas = tuple(rng.uniform(-0.3, 0.3, int(rng.integers(1, 9))))
    atoms = ((complex(np.exp(2j * np.pi * rng.uniform())), float(rng.uniform(0.01, 0.2))),)
    spec = MeasureSpec(kind="circle", family="bernstein-szego", family_params=alphas,
                       point_masses=atoms)
    got = ingest_circle(spec, 256).alpha
    want = _levinson(_exact_bs_moments(alphas, 257, spec.point_masses), 256)
    assert np.max(np.abs(got - want)) < 1e-13


@given(st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 1.0)), min_size=1, max_size=8),
       st.integers(0, 256))
@example(polar=[(0.5, 0.0)] * 5, extra=0)
@example(polar=[(0.0, 0.0)] * 2 + [(0.5, 0.0)] * 4, extra=0)
@example(polar=[(0.0, 0.0), (2.225073858507e-311, 0.0)], extra=0)
@settings(max_examples=40, deadline=None)
def test_ingest_circle_recovers_bernstein_szego_alphas(polar, extra):
    """The measure with density 1/|phi_k|^2 has alpha_0..alpha_{k-1} and then zeros.

    The G-point grid folds the weight's Fourier coefficients, which decay
    like |z0|^-|j| for the nearest zero z0 of phi_k*, back onto the moments,
    so the recovery is only as good as the alias level L = max |z0|^-G.
    Where L <= 1e-14 the 1e-13 bound holds; above that the sampling either
    raises :class:`AliasingError` or recovers the alphas within 10 L.
    """
    grid = 4096
    alphas = np.array([r * np.exp(2j * np.pi * t) for r, t in polar])
    k = len(alphas)
    n = k + extra
    coeffs = VerblunskyCoeffs.finitely_supported(alphas)
    star = szego_recursion(coeffs, k).phi_star
    # coefficients below rounding (subnormal alphas) only add zeros near infinity
    star = np.polynomial.polynomial.polytrim(star, 1e-16 * np.max(np.abs(star)))
    level = float(np.max(np.abs(np.polynomial.polynomial.polyroots(star)) ** -grid, initial=0.0))
    bound = 1e-13 if level <= 1e-14 else 10 * level
    try:
        measure = bernstein_szego(coeffs, k, grid)
    except AliasingError:
        assert level > 1e-14
        return
    got = ingest_circle(measure, n).alpha
    assert np.max(np.abs(got[:k] - alphas)) < bound
    assert np.max(np.abs(got[k:]), initial=0.0) < bound


def _moment_recursion_loop(mu, n):
    """ingest_circle's moment recursion before it shared opuc._szego_step, verbatim."""
    alphas = np.zeros(n, dtype=complex)
    phi = np.array([1.0 + 0.0j])
    for m in range(n):
        phi_star = np.conj(phi[::-1])
        num = np.dot(phi, mu[1 : m + 2])
        den = np.dot(phi_star, mu[: m + 1])
        if abs(den) < 1e-13:
            raise DegenerateMeasureError(m, "monic norm collapsed; measure is numerically trivial")
        alpha = np.conj(num / den)
        if abs(alpha) >= 1.0 - 1e-13:
            raise DegenerateMeasureError(
                m, f"|alpha_{m}| = {abs(alpha):.6f} reached the unit circle"
            )
        alphas[m] = alpha
        phi = np.concatenate(([0.0], phi)) - np.conj(alpha) * np.concatenate(
            (phi_star, [0.0])
        )
    return alphas


@given(st.integers(0, 2**31 - 1), st.sampled_from([8, 16, 64, 256]), st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_ingest_circle_matches_the_moment_loop_bitwise(seed, grid, atoms):
    """Rough random weights with up to two atoms, up to the last order the
    support allows; where the loop raises, ingestion raises the same error."""
    rng = np.random.default_rng(seed)
    # a high power leaves few samples of weight, so some alpha reaches the circle
    w = rng.uniform(0.05, 2.0, grid) ** rng.uniform(1.0, 40.0)
    masses = [(complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))), float(rng.uniform(0.01, 0.2)))
              for _ in range(atoms)]
    w *= (1.0 - sum(m for _, m in masses)) / np.mean(w)
    measure = CircleMeasure(weight=w, point_masses=tuple(masses))
    n = int(rng.integers(0, grid))
    powers = np.arange(n + 1)
    mu = np.fft.ifft(measure.weight)[powers % measure.grid_size]
    for loc, mass in measure.point_masses:
        mu = mu + mass * loc**powers
    try:
        want = _moment_recursion_loop(mu, n)
    except DegenerateMeasureError as exc:
        with pytest.raises(DegenerateMeasureError) as got:
            ingest_circle(measure, n)
        assert str(got.value) == str(exc)
        return
    assert ingest_circle(measure, n).alpha.tobytes() == want.tobytes()


def _moment_recursion_two_buffers(mu, n):
    """ingest_circle's moment recursion before Phi_m stayed in place, with the
    shared step inlined, verbatim."""
    alphas = np.zeros(n, dtype=complex)
    dot = np.dot
    phi = np.zeros(n + 1, dtype=complex)
    phi[0] = 1.0
    nxt, star = np.zeros(n + 1, dtype=complex), np.empty(n + 1, dtype=complex)
    for m in range(n):
        phi_star = star[: m + 1]
        np.conjugate(phi[m::-1], out=phi_star)
        num = dot(phi[: m + 1], mu[1 : m + 2])
        den = dot(phi_star, mu[: m + 1])
        if abs(den) < 1e-13:
            raise DegenerateMeasureError(m, "monic norm collapsed; measure is numerically trivial")
        alpha = np.conj(num / den)
        if abs(alpha) >= 1.0 - 1e-13:
            raise DegenerateMeasureError(
                m, f"|alpha_{m}| = {abs(alpha):.6f} reached the unit circle"
            )
        alphas[m] = alpha
        np.multiply(np.conj(alpha), phi_star, out=phi_star)
        nxt[0] = 0.0
        nxt[1 : m + 2] = phi[: m + 1]
        nxt[: m + 1] -= phi_star
        phi, nxt = nxt, phi
    return alphas


@given(st.integers(0, 2**31 - 1), st.sampled_from([16, 64, 256, 1024]), st.integers(1, 24),
       st.sampled_from(["real", "complex", "rotated"]), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_ingest_circle_matches_the_two_buffer_loop_bitwise(seed, grid, k, kind, share):
    """Bernstein-Szego measures of real, complex and rotated alpha, ingested
    past their support (where the computed alphas are rounding noise), up to
    the last order the grid allows."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-0.8, 0.8, k) * 10.0 ** rng.uniform(-6.0, 0.0, k)
    if kind != "real":
        alpha = alpha + 1j * rng.uniform(-0.5, 0.5, k) * 10.0 ** rng.uniform(-6.0, 0.0, k)
        alpha *= 0.9 / max(1.0, float(np.max(np.abs(alpha))))
    if kind == "rotated":
        alpha = alpha * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) ** np.arange(1, k + 1)
    try:
        measure = bernstein_szego(VerblunskyCoeffs.finitely_supported(alpha), k, grid)
    except AliasingError:
        return
    n = int(share * (grid - 1))
    mu = np.fft.ifft(measure.weight)[np.arange(n + 1) % grid]
    try:
        want = _moment_recursion_two_buffers(mu, n)
    except DegenerateMeasureError as exc:
        with pytest.raises(DegenerateMeasureError) as got:
            ingest_circle(measure, n)
        assert str(got.value) == str(exc)
        return
    assert ingest_circle(measure, n).alpha.tobytes() == want.tobytes()


def _line_recursion_loop(x, w, n):
    """ingest_line's loop before it hoisted w * x and reused its buffers, verbatim."""
    a = np.zeros(n)
    b = np.zeros(n)
    p_prev = np.zeros_like(x)
    p = np.ones_like(x) / math.sqrt(float(np.sum(w)))
    a_prev = 0.0
    for m in range(n):
        b[m] = float(np.sum(w * x * p * p))
        r = (x - b[m]) * p - a_prev * p_prev
        norm_sq = float(np.sum(w * r * r))
        if norm_sq <= 1e-26:
            raise DegenerateMeasureError(m + 1, "residual norm collapsed; too few support points")
        a[m] = math.sqrt(norm_sq)
        p_prev, p = p, r / a[m]
        a_prev = a[m]
    return a, b


@given(st.integers(0, 2**31 - 1), st.integers(1, 400), st.booleans())
@settings(max_examples=100, deadline=None)
def test_ingest_line_matches_the_loop_bitwise(seed, size, full):
    """Random nodes and weights, up to every support point; where the loop's
    residual collapses (as it does at full order on a dozen nodes or fewer),
    ingestion raises the same error."""
    rng = np.random.default_rng(seed)
    x = np.unique(rng.uniform(-2.5, 2.5, size if not full else size % 12 + 1))
    w = rng.uniform(0.0, 1.0, len(x)) ** rng.uniform(1.0, 8.0) + 1e-300
    measure = PointMeasure(nodes=x, weights=w / np.sum(w))
    n = len(x) if full else int(rng.integers(0, len(x) + 1))
    try:
        want = _line_recursion_loop(measure.nodes, measure.weights, n)
    except DegenerateMeasureError as exc:
        with pytest.raises(DegenerateMeasureError) as got:
            ingest_line(measure, n)
        assert str(got.value) == str(exc)
        return
    got = ingest_line(measure, n)
    assert got.a.tobytes() == want[0].tobytes()
    assert got.b.tobytes() == want[1].tobytes()
