"""Outer-function layer: 1/D, D from the weight, S, r, coefficient recovery."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SIGNED_ZEROS,
    geometric_alphas,
    monic_pair_two_buffers,
    real_alphas,
    zero_tail_coeffs,
)
from szegojost.errors import (
    ConvergenceWarning,
    InvalidParameterError,
    PreconditionError,
    SzegoConditionError,
    SzegojostError,
)
from szegojost.measures import parse_alpha_spec
from szegojost.opuc import CircleMeasure, VerblunskyCoeffs, bernstein_szego
from szegojost.series import TaylorSeries, taylor_mul, taylor_reciprocal
from szegojost.szego import (
    _r_by_product,
    _star_coeffs,
    d_from_weight,
    dinv_from_alphas,
    r_series,
    recover_alpha_geronimus_freud,
    recover_alpha_simon,
    s_series,
)

SQ3 = np.sqrt(3.0)


def test_dinv_single_coefficient_closed_form():
    """alpha_0 = 1/2: 1/D = (2/sqrt(3))(1 - z/2), a degree-one polynomial."""
    c = VerblunskyCoeffs.finitely_supported([0.5])
    dinv = dinv_from_alphas(c, order=6)
    expected = np.zeros(7)
    expected[0] = 2.0 / SQ3
    expected[1] = -1.0 / SQ3
    assert np.allclose(dinv.coeffs, expected)
    assert dinv.note is None


def test_dinv_constant_term_is_kappa_inf(rng):
    c = real_alphas(rng, 5)
    dinv = dinv_from_alphas(c, order=16)
    assert np.isclose(dinv.coeffs[0].real, c.kappa_inf())


def test_dinv_finitely_supported_is_exact_polynomial(rng):
    """Past the support the starred iterates stop changing."""
    c = real_alphas(rng, 3)
    low = dinv_from_alphas(c, order=8)
    high = dinv_from_alphas(c, order=20)
    assert np.allclose(high.coeffs[:9], low.coeffs)
    assert np.max(np.abs(high.coeffs[9:])) == 0.0


def test_dinv_truncated_warns_when_unconverged():
    c = VerblunskyCoeffs(alpha=0.5 * 0.5 ** np.arange(8))
    with pytest.warns(ConvergenceWarning):
        dinv = dinv_from_alphas(c, order=16)
    assert dinv.note is not None and "unconverged" in dinv.note


def test_dinv_truncated_quiet_when_tail_is_negligible():
    import warnings

    c = geometric_alphas(0.5, 2.0, order=96)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dinv = dinv_from_alphas(c, order=64)
    assert dinv.note is None


def test_dinv_recursion_keeps_only_the_last_iterates():
    """Holding all N + 1 monic polynomials would peak near 8.6 MB here."""
    coeffs = parse_alpha_spec("geometric:C=0.5,R=2", 1024)
    tracemalloc.start()
    try:
        dinv_from_alphas(coeffs, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_dinv_is_cached_per_instance_and_order():
    c = geometric_alphas(0.5, 2.0, order=96)
    dinv = dinv_from_alphas(c, order=64)
    assert dinv_from_alphas(c, order=64) is dinv
    assert dinv_from_alphas(c, order=32) is not dinv
    assert dinv_from_alphas(geometric_alphas(0.5, 2.0, order=96), order=64) is not dinv
    with pytest.raises(ValueError):
        dinv.coeffs[0] = 0.0


def test_dinv_cache_hit_warns_again_when_unconverged():
    c = VerblunskyCoeffs(alpha=0.5 * 0.5 ** np.arange(8))
    with pytest.warns(ConvergenceWarning):
        first = dinv_from_alphas(c, order=16)
    with pytest.warns(ConvergenceWarning, match="unconverged"):
        assert dinv_from_alphas(c, order=16) is first


def test_d_from_weight_uniform_is_one():
    d = d_from_weight(CircleMeasure.lebesgue(512), order=12)
    assert np.allclose(d.coeffs, np.eye(13)[0], atol=1e-13)


def test_d_from_weight_inverts_dinv(rng):
    c = real_alphas(rng, 4, scale=0.4)
    measure = bernstein_szego(c, 4)
    d = d_from_weight(measure, order=32)
    dinv = dinv_from_alphas(c, order=32)
    ident = taylor_mul(d, dinv, order=32)
    assert np.max(np.abs(ident.coeffs - np.eye(33)[0])) < 1e-10


def test_d_boundary_modulus_recovers_weight():
    """|D|^2 on the circle equals the weight density."""
    c = VerblunskyCoeffs.finitely_supported([0.3, -0.2])
    measure = bernstein_szego(c, 2, grid_size=512)
    d = d_from_weight(measure, order=64)
    vals = d(measure.points())
    assert np.max(np.abs(np.abs(vals) ** 2 - measure.weight)) < 1e-8


def test_d_from_weight_guards():
    with_atom = CircleMeasure(weight=0.5 * np.ones(64), point_masses=((1.0, 0.5),))
    with pytest.raises(PreconditionError):
        d_from_weight(with_atom, order=8)
    dead = CircleMeasure(weight=np.concatenate([np.zeros(1), np.full(63, 64.0 / 63.0)]))
    with pytest.raises(SzegoConditionError):
        d_from_weight(dead, order=8)
    with pytest.raises(InvalidParameterError):
        d_from_weight(CircleMeasure.lebesgue(64), order=40)


def test_recovery_round_trip(rng):
    """Both boundary integrals reproduce the coefficients they came from."""
    al = rng.uniform(-0.4, 0.4, 5)
    c = VerblunskyCoeffs.finitely_supported(al)
    measure = bernstein_szego(c, 5, 4096)
    dinv = dinv_from_alphas(c, order=7)
    for m in range(5):
        g = recover_alpha_geronimus_freud(c, measure, dinv, m)
        s = recover_alpha_simon(c, measure, dinv, m)
        assert abs(g - al[m]) < 1e-10
        assert abs(s - al[m]) < 1e-10
        assert abs(g - s) < 1e-10


def test_recovery_needs_mass_free_measure():
    c = VerblunskyCoeffs.finitely_supported([0.2])
    dinv = dinv_from_alphas(c, order=4)
    measure = CircleMeasure(weight=0.9 * np.ones(64), point_masses=((1.0, 0.1),))
    with pytest.raises(PreconditionError):
        recover_alpha_geronimus_freud(c, measure, dinv, 0)
    with pytest.raises(PreconditionError):
        recover_alpha_simon(c, measure, dinv, 0)


def test_s_series_layout():
    """c_0 = 1 and c_j = -alpha_{j-1}."""
    c = geometric_alphas(0.5, 2.0)
    s = s_series(c, order=10)
    assert s.coeffs[0] == 1.0
    assert np.allclose(s.coeffs[1:], -0.5 * 0.5 ** np.arange(10))
    with pytest.raises(InvalidParameterError):
        s_series(c, order=0)


def test_r_series_methods_agree():
    c = geometric_alphas(0.5, 2.0)
    dinv = dinv_from_alphas(c, order=64)
    grid = r_series(dinv, order=24, method="grid")
    product = r_series(dinv, order=24, method="product")
    assert np.max(np.abs(grid.coeffs - product.coeffs)) < 1e-12


def _r_series_grid_by_polyval(dinv, order, size):
    """The grid path as it evaluated 1/D by Horner before the inverse FFT."""
    theta = 2.0 * np.pi * np.arange(size) / size
    zeta = np.exp(1j * theta)
    vals = dinv(zeta)
    ratio = vals / np.conj(vals)
    hat = np.fft.fft(ratio) / size
    c = np.zeros(2 * order + 1, dtype=complex)
    for k in range(-order, order + 1):
        c[k + order] = hat[k % size]
    return c


@pytest.mark.parametrize(
    ("spec", "dinv_order", "order", "grid_size"),
    [
        ("geometric:C=0.5,R=3", 64, 64, None),
        ("geometric:C=-0.7,R=1.5", 256, 200, None),
        ("0.1,-0.2,0.25,0.05,-0.1,0.2,0.15,-0.05", 1024, 1024, None),
        ("0.3,-0.45,0.2", 32, 7, 16),
        ("geometric:C=0.6,R=1.2", 96, 8, 32),
        ("geometric:C=-0.4,R=2", 200, 5, 32),
    ],
)
def test_r_series_grid_matches_polyval_path(spec, dinv_order, order, grid_size):
    """One inverse FFT of the folded series gives the Horner boundary values.

    The last three cases have a series longer than the grid, so the fold
    modulo the grid size carries terms."""
    dinv = dinv_from_alphas(parse_alpha_spec(spec, dinv_order), dinv_order)
    size = grid_size or max(512, 1 << (8 * (order + 1) - 1).bit_length())
    want = _r_series_grid_by_polyval(dinv, order, size)
    got = r_series(dinv, order, grid_size=grid_size).coeffs
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_r_series_unimodular_on_circle():
    # single alpha: dinv = (2 - z)/sqrt(3) has its only zero at 2, so the
    # truncated tails decay at rate 2 and the circle values are clean
    c = VerblunskyCoeffs.finitely_supported([0.5])
    dinv = dinv_from_alphas(c, order=48)
    r = r_series(dinv, order=40)
    z = np.exp(1j * np.linspace(0.1, 2.0 * np.pi, 40))
    assert np.max(np.abs(np.abs(r(z)) - 1.0)) < 1e-10
    # the geometric family carries a dinv zero near |z| = 1.16, so the
    # negative tail decays slowly and truncation noise is much larger
    cg = geometric_alphas(0.5, 2.0)
    rg = r_series(dinv_from_alphas(cg, order=64), order=48)
    assert np.max(np.abs(np.abs(rg(z)) - 1.0)) < 5e-3


def test_r_series_real_coefficients_for_real_alpha(rng):
    c = real_alphas(rng, 4)
    dinv = dinv_from_alphas(c, order=32)
    r = r_series(dinv, order=16, method="product")
    assert np.max(np.abs(r.coeffs.imag)) < 1e-13


def _r_product_loop(dinv, order):
    """Verbatim copy of the product loop of r_series before it took a lowest index."""
    length = dinv.order
    c_dinv = dinv.coeffs
    d_conj = np.conj(taylor_reciprocal(dinv, length).coeffs)
    c = np.zeros(2 * order + 1, dtype=complex)
    for k in range(-order, order + 1):
        m_lo = max(0, -k)
        m_hi = length - max(0, k)
        c[k + order] = np.dot(d_conj[m_lo : m_hi + 1], c_dinv[m_lo + k : m_hi + k + 1])
    return c


@given(st.integers(0, 2**31 - 1), st.booleans(), st.booleans(), st.integers(8, 256),
       st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_r_taylor_half_is_bitwise_the_product_series(seed, finite, cplx, order, extra):
    """r_0..r_N alone are the Taylor half of the -N..N product series, bit for bit,
    and that series is the old loop's."""
    rng = np.random.default_rng(seed)
    dinv_order = order + extra
    if finite:
        n = int(rng.integers(1, 24))
        alpha = rng.uniform(-0.6, 0.6, n) + (1j * rng.uniform(-0.5, 0.5, n) if cplx else 0.0)
        coeffs = VerblunskyCoeffs.finitely_supported(alpha)
    else:
        c = rng.uniform(-0.7, 0.7) + (1j * rng.uniform(-0.5, 0.5) if cplx else 0.0)
        coeffs = VerblunskyCoeffs(c * rng.uniform(1.1, 4.0) ** -np.arange(dinv_order + 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        dinv = dinv_from_alphas(coeffs, dinv_order)
    full = r_series(dinv, order, method="product")
    assert full.coeffs.tobytes() == _r_product_loop(dinv, order).tobytes()
    want = np.concatenate(([full.coeff(0)], full.positive_tail()))
    assert _r_by_product(dinv, 0, order).tobytes() == want.tobytes()


def _dinv_two_buffers(coeffs, order):
    """dinv_from_alphas before the recursion stopped at the last nonzero alpha,
    without its cache, verbatim."""
    steps = len(coeffs.alpha) + (1 if coeffs.is_finitely_supported else 0)
    prev, last = monic_pair_two_buffers(coeffs, steps)
    c = _star_coeffs(coeffs, last, steps, order)
    note = None
    if not coeffs.is_finitely_supported:
        prev_c = _star_coeffs(coeffs, prev, steps - 1, order)
        drift = float(np.max(np.abs(c - prev_c)))
        if drift > 1e-12 * max(1.0, float(np.max(np.abs(c)))):
            note = (
                f"series unconverged: last step moved coefficients by {drift:.3e}; "
                "supply more coefficients"
            )
    return c, note


def _r_by_full_product(dinv, lowest, order):
    """_r_by_product before it stopped at the last nonzero coefficient of 1/D, verbatim."""
    length = dinv.order
    c_dinv = dinv.coeffs
    d_conj = np.conj(taylor_reciprocal(dinv, length).coeffs)
    dot = np.dot
    c = np.zeros(order - lowest + 1, dtype=complex)
    # m runs over max(0, -k) .. length - max(0, k)
    for k in range(lowest, min(0, order + 1)):
        c[k - lowest] = dot(d_conj[-k : length + 1], c_dinv[: length + k + 1])
    for k in range(max(0, lowest), order + 1):
        c[k - lowest] = dot(d_conj[: length - k + 1], c_dinv[k : length + 1])
    return c


def _zero_tail_dinv(seed, order):
    """The 1/D series of a zero-tail draw, or None where it cannot be built."""
    coeffs = zero_tail_coeffs(seed)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", ConvergenceWarning)
        try:
            return coeffs, dinv_from_alphas(coeffs, order)
        except InvalidParameterError:  # no stored alpha, or a nonfinite series
            return coeffs, None


def _zero_tail_series(seed, order):
    """A polynomial of degree <= order padded with zeros of all four signs; its
    constant term, of any phase, outweighs the rest, so 1/it is bounded."""
    rng = np.random.default_rng(seed)
    top = int(rng.integers(0, order + 1))
    c = rng.uniform(-1.0, 1.0, top + 1) + 1j * rng.uniform(-1.0, 1.0, top + 1)
    c *= rng.uniform(1.0, 2.0) ** -np.arange(top + 1)
    c[0] = (1.0 + np.sum(np.abs(c[1:]))) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return TaylorSeries(np.concatenate([c, SIGNED_ZEROS[rng.integers(0, 4, order - top)]]))


@given(st.integers(0, 2**31 - 1), st.integers(1, 4200))
@settings(max_examples=100, deadline=None)
def test_dinv_matches_the_two_buffer_recursion_bitwise(seed, order):
    coeffs, dinv = _zero_tail_dinv(seed, order)
    if dinv is None:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        want, note = _dinv_two_buffers(coeffs, order)
    assert dinv.coeffs.tobytes() == want.tobytes()
    assert dinv.note == note


@given(st.integers(0, 2**31 - 1), st.integers(1, 4200), st.floats(0.0, 1.0),
       st.sampled_from(["full", "taylor", "above-zero", "below-zero"]), st.booleans())
@settings(max_examples=100, deadline=None)
def test_r_by_product_matches_the_full_product_bitwise(seed, dinv_order, share, window, alpha):
    """1/D of zero-tail alpha draws, or polynomials whose constant term has
    any phase; ranges that start below 0 (which build all of D) and at or
    above 0 (which build D through the last nonzero coefficient of 1/D),
    with the top order N and its one-term dot in about half of the draws."""
    dinv = _zero_tail_dinv(seed, dinv_order)[1] if alpha else _zero_tail_series(seed, dinv_order)
    if dinv is None:
        return
    order = dinv_order if share > 0.5 else int(share * 2 * dinv_order)
    lowest = {"full": -order, "taylor": 0, "above-zero": order // 3,
              "below-zero": -(order // 3) - 1}[window]
    try:
        want = _r_by_full_product(dinv, lowest, order)
    except InvalidParameterError:  # D overflows
        with pytest.raises(InvalidParameterError):
            _r_by_product(dinv, lowest, order)
        return
    assert _r_by_product(dinv, lowest, order).tobytes() == want.tobytes()


def test_r_taylor_half_guards_match_r_series():
    """The helper raises what r_series(method="product") raises."""
    short = dinv_from_alphas(geometric_alphas(0.5, 2.0), order=16)
    no_constant = TaylorSeries([1e-300, 1.0, 0.5])
    for dinv, order in ((short, 32), (no_constant, 2)):
        with pytest.raises(SzegojostError) as want:
            r_series(dinv, order, method="product")
        with pytest.raises(type(want.value)) as got:
            _r_by_product(dinv, 0, order)
        assert str(got.value) == str(want.value)


def test_r_series_guards():
    c = geometric_alphas(0.5, 2.0)
    dinv = dinv_from_alphas(c, order=16)
    with pytest.raises(InvalidParameterError):
        r_series(dinv, order=32, method="product")
    with pytest.raises(InvalidParameterError):
        r_series(dinv, order=8, method="newton")
