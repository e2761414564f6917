"""Jost layer: finite-range polynomials, the coefficient map, u, M, Blaschke."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NEAR_EDGE, mild_jacobi, real_alphas
from szegojost.cli import main
from szegojost.errors import (
    ConvergenceWarning,
    DomainError,
    InvalidParameterError,
    OutOfRangeError,
    PoleError,
)
from szegojost.jost import (
    JostData,
    _disk_roots,
    b_series_from_deltas,
    blaschke,
    e_from_z,
    finite_range_jost_data,
    geronimus_deltas,
    geronimus_map,
    jost_g_ell,
    m_finite_range,
    m_function,
    u_from_dinv,
    z_from_e,
)
from szegojost.oprl import (
    JacobiParams,
    PointMeasure,
    eval_polys,
    spectral_measure_oracle,
)
from szegojost.measures import parse_alpha_spec
from szegojost.opuc import VerblunskyCoeffs
from szegojost.series import TaylorSeries


def test_joukowski_maps_invert(rng):
    es = rng.uniform(-5.0, 5.0, 10) + 1j * rng.uniform(-2.0, 2.0, 10)
    for e in es:
        z = z_from_e(e)
        assert abs(z) <= 1.0 + 1e-12
        assert np.isclose(e_from_z(z), e)
    # the band maps to the circle
    assert np.isclose(abs(z_from_e(1.3)), 1.0)
    with pytest.raises(DomainError):
        e_from_z(0.0)


def test_jost_polynomial_free_case():
    g = jost_g_ell(JacobiParams.free())
    z = np.array([0.3, -0.8j, 1.7])
    assert np.allclose(g(z), 1.0)


def test_jost_polynomial_single_b():
    """One diagonal perturbation b_1 gives g = 1 - b_1 z."""
    params = JacobiParams(a=[1.0], b=[1.5], free_after=1)
    g = jost_g_ell(params)
    assert np.allclose(g.coeffs, [1.0, -1.5, 0.0])


def test_jost_polynomial_matches_defining_combination(rng):
    """g_l(z) = z^l (p_l(z + 1/z) - z p_{l-1}(z + 1/z)) with the poles cancelled."""
    params = mild_jacobi(rng, 3)
    ell = 4
    g = jost_g_ell(params, ell)
    assert g.order <= 2 * ell
    zs = rng.uniform(0.3, 1.4, 12) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 12))
    ev = eval_polys(params, ell, zs + 1.0 / zs)
    direct = zs**ell * (ev.p[ell] - zs * ev.p[ell - 1])
    assert np.allclose(g(zs), direct, atol=1e-11)


def test_jost_polynomial_range_choice_is_immaterial(rng):
    params = mild_jacobi(rng, 3)
    low = jost_g_ell(params)
    high = jost_g_ell(params, params.free_range_order() + 3)
    zs = rng.uniform(0.2, 1.5, 10) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 10))
    assert np.allclose(low(zs), high(zs), atol=1e-12)
    with pytest.raises(InvalidParameterError):
        jost_g_ell(params, params.free_range_order() - 1)


def test_jost_polynomial_needs_free_tail(rng):
    truncated = JacobiParams(a=[1.1], b=[0.2])
    with pytest.raises(InvalidParameterError):
        jost_g_ell(truncated)


def test_coefficient_map_constant_half():
    """alpha = 1/2 maps to b = -1/2 and a = 3/4, exactly in floats."""
    c = VerblunskyCoeffs(alpha=np.full(40, 0.5))
    params = geronimus_map(c)
    assert np.all(params.b == -0.5)
    assert np.all(params.a == 0.75)
    assert not params.is_free_tailed


def test_coefficient_map_matches_deltas(rng):
    c = real_alphas(rng, 9)
    b, asq1 = geronimus_deltas(c, count=8)
    params = geronimus_map(c, count=8)
    assert np.allclose(params.b, b)
    assert np.allclose(params.a, np.sqrt(1.0 + asq1))
    assert params.is_free_tailed


def test_coefficient_map_needs_real_alpha():
    with pytest.raises(InvalidParameterError):
        geronimus_map(VerblunskyCoeffs.finitely_supported([0.1j]))


def test_deltas_truncated_count_cap():
    c = VerblunskyCoeffs(alpha=np.full(10, 0.1))
    b, asq1 = geronimus_deltas(c)
    assert len(b) == 4  # entries through alpha_9 support four mapped rows
    with pytest.raises(OutOfRangeError):
        geronimus_deltas(c, count=5)


def _deltas_by_loop(coeffs, count):
    """geronimus_deltas' former scalar loop, verbatim."""
    al = np.array([coeffs.entry(j).real for j in range(2 * count + 2)])
    b = np.empty(count)
    asq1 = np.empty(count)
    for n in range(count):
        a0, a1, a2 = al[2 * n], al[2 * n + 1], al[2 * n + 2]
        a3 = al[2 * n + 3] if 2 * n + 3 < len(al) else coeffs.entry(2 * n + 3).real
        b[n] = a0 - a2 - a1 * (a0 + a2)
        asq1[n] = a1 - a3 - a2**2 * (1.0 - a3) * (1.0 + a1) - a3 * a1
    return b, asq1


@given(st.integers(0, 2**31 - 1), st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_deltas_match_the_scalar_loop_bitwise(seed, finite, even_only, past_end):
    """Alpha over twelve decades, or of order 1 with the odd entries 0, where
    a_n^2 - 1 = -alpha_2n^2 shows every bit of the square.  A count past the
    stored range raises the same error as the loop."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 2000))
    alpha = rng.uniform(-0.95, 0.95, n)
    if even_only:
        alpha[1::2] = 0.0
    else:
        alpha *= 10.0 ** rng.uniform(-12.0, 0.0, n)
    coeffs = VerblunskyCoeffs.finitely_supported(alpha) if finite else VerblunskyCoeffs(alpha)
    stored = max(0, (n - 2) // 2)
    count = stored + 1 + int(rng.integers(0, 3)) if past_end else int(rng.integers(0, stored + 1))
    try:
        want = _deltas_by_loop(coeffs, count)
    except OutOfRangeError as exc:
        with pytest.raises(OutOfRangeError) as got:
            geronimus_deltas(coeffs, count)
        assert str(got.value) == str(exc)
        return
    got = geronimus_deltas(coeffs, count)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_u_cache_hit_warns_again_when_unconverged():
    """The second call hits the 1/D cache, which repeats the warning."""
    c = VerblunskyCoeffs(alpha=0.5 * 0.5 ** np.arange(8))
    with pytest.warns(ConvergenceWarning):
        first = u_from_dinv(c, order=16)
    with pytest.warns(ConvergenceWarning, match="unconverged"):
        assert u_from_dinv(c, order=16).u == first.u


def test_u_single_coefficient_closed_form():
    """alpha_0 = 1/2 gives u = 1 - z/2 after the boundary rescaling."""
    c = VerblunskyCoeffs.finitely_supported([0.5])
    data = u_from_dinv(c, order=8)
    expected = np.zeros(9)
    expected[0] = 1.0
    expected[1] = -0.5
    assert np.allclose(data.u.coeffs, expected)
    assert data.zeros_in_disk.size == 0


def test_u_prefactor_value(rng):
    al = rng.uniform(-0.5, 0.5, 4)
    c = VerblunskyCoeffs.finitely_supported(al)
    data = u_from_dinv(c, order=16)
    scale = np.sqrt((1.0 - al[0] ** 2) * (1.0 - al[1]))
    assert np.isclose(data.u.coeffs[0].real, scale * c.kappa_inf())


def test_u_matches_finite_range_polynomial(rng):
    """The rescaled reciprocal outer function equals the exact polynomial."""
    for _ in range(6):
        n = int(rng.integers(2, 7))
        al = rng.uniform(-0.55, 0.55, n)
        c = VerblunskyCoeffs.finitely_supported(al)
        params = geronimus_map(c)
        g = jost_g_ell(params, len(params.a) + 2)
        data = u_from_dinv(c)
        zs = 0.85 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 20))
        assert np.max(np.abs(data.u(zs) - g(zs))) < 1e-9


def test_u_has_no_disk_zeros_for_decaying_alpha():
    """Finitely supported alpha gives a purely a.c. measure, so u is
    zero-free in the disk and the mapped matrix has no eigenvalues
    outside [-2, 2]."""
    c = VerblunskyCoeffs.finitely_supported([0.9, -0.9])
    data = u_from_dinv(c, order=32)
    assert data.zeros_in_disk.size == 0
    assert data.eigenvalues.size == 0
    params = geronimus_map(c)
    oracle = spectral_measure_oracle(params, 600)
    assert np.max(np.abs(oracle.nodes)) <= 2.0 + 1e-8


@pytest.mark.filterwarnings("ignore::szegojost.errors.ConvergenceWarning")
@pytest.mark.parametrize("c", [0.3, -0.5, 0.6])
def test_u_refinement_discards_truncation_zeros(c):
    """Constant alpha does not decay, so the order-64 series has dozens of
    disk roots that pass the residual test; u = c/D is zero-free in the
    disk, so none is reported and the measure has no bound states."""
    data = u_from_dinv(parse_alpha_spec(f"constant:c={c}", 64))
    assert _disk_roots(data.u).size > 0
    assert data.zeros_in_disk.size == 0
    assert data.eigenvalues.size == 0


@pytest.mark.filterwarnings("ignore::szegojost.errors.ConvergenceWarning")
@pytest.mark.parametrize("spec, order", [
    ("constant:c=-0.9", 64),
    ("constant:c=0.9", 64),
    ("geometric:C=0.5,R=1.01", 256),
])
def test_u_reports_no_truncation_zeros(spec, order):
    """Slowly decaying alpha leaves dozens of disk roots in the truncated
    series that pass the residual test, but u = c/D is zero-free in the
    disk, so the measure has no bound states to report."""
    data = u_from_dinv(parse_alpha_spec(spec, order), order=order)
    assert _disk_roots(data.u).size > 0
    assert data.zeros_in_disk.size == 0
    assert data.eigenvalues.size == 0


@given(st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_mapped_finite_range_has_no_bound_states(alphas):
    """D is outer, so the Szego-mapped matrix of real finitely supported
    alpha has no eigenvalue outside [-2, 2]; the exact Jost polynomial,
    searched by the companion solve, has no disk zero."""
    params = geronimus_map(VerblunskyCoeffs.finitely_supported(alphas))
    assert finite_range_jost_data(params).zeros_in_disk.size == 0


# (R, C) of the alpha_n = C R^-n panel timed at order 1024
_PANEL = ((1.2, -0.3), (2.5, -0.6), (3.0, 0.2), (3.2, -0.15), (3.4, 0.1))


def _polyroots_degrees(monkeypatch):
    """Record the degree of every ``polyroots`` call from now on."""
    degrees = []
    solve = np.polynomial.polynomial.polyroots

    def counted(c):
        degrees.append(len(c) - 1)
        return solve(c)

    monkeypatch.setattr(np.polynomial.polynomial, "polyroots", counted)
    return degrees


@pytest.mark.parametrize("r, c", _PANEL)
def test_panel_runs_no_companion_solve(r, c, monkeypatch, capsys):
    """u = c/D is zero-free, so no Jost series from alpha is searched.

    ``jost --what zeros`` solves nothing.  ``verify all`` solves only the
    Jost polynomial 1 - 1.5 z of its canonical-weights suite, which has a
    genuine zero and which numpy solves in closed form at degree 1.
    """
    degrees = _polyroots_degrees(monkeypatch)
    spec = f"geometric:C={c},R={r}"
    assert main(["jost", "--what", "zeros", "--alpha", spec, "--order", "1024"]) == 0
    assert degrees == []
    main(["verify", "all", "--alpha", spec, "--order", "1024"])
    assert degrees == [1]
    capsys.readouterr()


def test_bound_state_falls_back_to_the_companion_solve(monkeypatch):
    """The finite-range Jost polynomial goes through the companion solve."""
    a, b = NEAR_EDGE["threshold"]
    params = JacobiParams(a=np.array(a), b=np.array(b), free_after=len(a))
    degrees = _polyroots_degrees(monkeypatch)
    data = finite_range_jost_data(params)
    assert degrees == [7]
    assert data.zeros_in_disk.size == 2
    single = finite_range_jost_data(JacobiParams(a=[1.0], b=[1.5], free_after=1))
    assert degrees == [7, 1]
    assert abs(single.zeros_in_disk[0] - 2.0 / 3.0) < 1e-15


def test_jost_data_accepts_a_genuine_bound_state():
    """The single-b_1 polynomial 1 - 1.5 z pairs the zero 2/3 with E = 13/6."""
    data = JostData(
        u=TaylorSeries([1.0, -1.5, 0.0]),
        zeros_in_disk=np.array([2.0 / 3.0]),
        eigenvalues=np.array([13.0 / 6.0]),
    )
    assert data.eigenvalues[0] == 13.0 / 6.0


def test_finite_range_jost_data_finds_the_bound_state():
    data = finite_range_jost_data(JacobiParams(a=[1.0], b=[1.5], free_after=1))
    assert data.zeros_in_disk.size == 1
    assert np.isclose(data.zeros_in_disk[0], 2.0 / 3.0)
    assert np.isclose(data.eigenvalues[0], 13.0 / 6.0)
    free = finite_range_jost_data(JacobiParams.free())
    assert free.zeros_in_disk.size == 0
    assert free.u.coeffs[0] == 1.0


def test_finite_range_jost_data_two_sided():
    # b_1 = +/-1.5 are mirror images: zeros at +/-2/3, energies +/-13/6
    minus = finite_range_jost_data(JacobiParams(a=[1.0], b=[-1.5], free_after=1))
    assert np.isclose(minus.zeros_in_disk[0], -2.0 / 3.0)
    assert np.isclose(minus.eigenvalues[0], -13.0 / 6.0)


def test_u_needs_real_alpha():
    with pytest.raises(InvalidParameterError):
        u_from_dinv(VerblunskyCoeffs.finitely_supported([0.5j]))


def test_jost_data_validation():
    u = TaylorSeries([1.0, -0.5])
    with pytest.raises(InvalidParameterError):
        JostData(u=u, zeros_in_disk=np.array([0.3]), eigenvalues=np.empty(0))
    with pytest.raises(InvalidParameterError):
        # 0.3 is not a zero of 1 - z/2
        JostData(u=u, zeros_in_disk=np.array([0.3]), eigenvalues=np.array([0.3 + 1 / 0.3]))


def test_b_series_coefficient_placement():
    """Odd slots take -b_n, even slots take -(a_n^2 - 1), indexed from 1."""
    params = JacobiParams(a=[1.1, 1.0], b=[0.2, -0.3], free_after=2)
    b = b_series_from_deltas(params.b, params.a**2 - 1.0, order=6)
    expected = [1.0, -0.2, -(1.1**2 - 1.0), 0.3, 0.0, 0.0, 0.0]
    assert np.allclose(b.coeffs, expected)
    with pytest.raises(InvalidParameterError):
        b_series_from_deltas(params.b, params.a**2 - 1.0, order=1)


def _b_series_loop(b, asq1, order):
    """Verbatim copy of the while loop the strided slices replaced."""
    b = np.asarray(b, dtype=float)
    asq1 = np.asarray(asq1, dtype=float)
    c = np.zeros(order + 1, dtype=float)
    c[0] = 1.0
    n = 0
    while 2 * n + 1 <= order:
        c[2 * n + 1] = -(b[n] if n < len(b) else 0.0)
        if 2 * n + 2 <= order:
            c[2 * n + 2] = -(asq1[n] if n < len(asq1) else 0.0)
        n += 1
    return c


@given(st.integers(0, 2**31 - 1), st.integers(0, 80), st.integers(0, 80), st.integers(2, 120),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_b_series_matches_the_loop_bitwise(seed, nb, nasq, order, zeros):
    """Arrays shorter or longer than the series, and signed zeros: slots past
    the arrays hold -0.0 as the loop wrote them, and -(-0.0) is +0.0."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, nb) * 10.0 ** rng.uniform(-300.0, 0.0, nb)
    asq1 = rng.uniform(-1.0, 1.0, nasq) * 10.0 ** rng.uniform(-300.0, 0.0, nasq)
    if zeros:
        b[rng.random(nb) < 0.4] = -0.0
        asq1[rng.random(nasq) < 0.4] = 0.0
        asq1[rng.random(nasq) < 0.4] = -0.0
    got = b_series_from_deltas(b, asq1, order).coeffs
    want = _b_series_loop(b, asq1, order).astype(complex)
    assert got.tobytes() == want.tobytes()


def test_m_free_is_identity():
    free = JacobiParams.free()
    zs = np.array([0.5, 0.3 - 0.2j, 1.7 + 0.4j])
    assert np.allclose(m_finite_range(free, zs), zs)
    assert m_function(free, 0.5) == 0.5


def test_m_single_b_closed_form():
    """b_1 only: M(z) = z/(1 - b_1 z), poles included."""
    params = JacobiParams(a=[1.0], b=[1.5], free_after=1)
    zs = np.array([0.2, 0.5 + 0.3j, 2.0])
    assert np.allclose(m_finite_range(params, zs), zs / (1.0 - 1.5 * zs))
    with pytest.raises(PoleError):
        m_finite_range(params, 2.0 / 3.0)


def test_boundary_density_identity():
    """|u|^2 Im M = sin(theta) on the upper unit circle."""
    params = JacobiParams(a=[1.0], b=[1.5], free_after=1)
    g = jost_g_ell(params)
    theta = np.linspace(0.15, np.pi - 0.15, 50)
    z = np.exp(1j * theta)
    lhs = np.abs(g(z)) ** 2 * m_finite_range(params, z).imag
    assert np.max(np.abs(lhs - np.sin(theta))) < 1e-12


def test_m_reflection_identity(rng):
    """u(z) u(1/z) (M(z) - M(1/z)) = z - 1/z off the circle."""
    al = rng.uniform(-0.5, 0.5, 4)
    c = VerblunskyCoeffs.finitely_supported(al)
    params = geronimus_map(c)
    data = u_from_dinv(c)
    zs = rng.uniform(0.5, 0.9, 15) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 15))
    lhs = data.u(zs) * data.u(1.0 / zs) * (
        m_finite_range(params, zs) - m_finite_range(params, 1.0 / zs)
    )
    assert np.max(np.abs(lhs - (zs - 1.0 / zs))) < 1e-9


def test_m_function_dispatch():
    pm = PointMeasure(nodes=[-1.0, 1.0], weights=[0.5, 0.5])
    z = 0.4 + 0.1j
    assert np.isclose(m_function(pm, z), pm.stieltjes(z + 1.0 / z))
    with pytest.raises(DomainError):
        m_function(pm, 1.2)
    with pytest.raises(InvalidParameterError):
        m_function(object(), 0.5)


def test_blaschke_unimodular_and_zeros(rng):
    zeros = [0.4 + 0.2j, -0.3]
    z = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 24))
    assert np.max(np.abs(np.abs(blaschke(zeros, z)) - 1.0)) < 1e-12
    assert np.isclose(blaschke(zeros, 0.4 + 0.2j), 0.0, atol=1e-15)
    with pytest.raises(InvalidParameterError):
        blaschke([1.2], 0.5)
