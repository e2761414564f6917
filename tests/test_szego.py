"""Outer-function layer: 1/D, D from the weight, S, r, coefficient recovery."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    PoleError,
    PreconditionError,
    SzegoConditionError,
    SzegojostError,
)
from szegojost.measures import parse_alpha_spec
from szegojost.opuc import CircleMeasure, VerblunskyCoeffs, bernstein_szego
from szegojost.series import TaylorSeries, taylor_mul, taylor_reciprocal
from szegojost.szego import (
    _r_dots,
    _reflected_d,
    _require_zero_free,
    _star_coeffs,
    _taylor_r,
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
    assert np.isclose(dinv.coeffs[0].real, c.kappa(len(c.alpha)))


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
    d = d_from_weight(CircleMeasure(np.ones(512)), order=12)
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
        d_from_weight(CircleMeasure(np.ones(64)), order=40)


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


def _laurent_eval(c, z):
    """sum_k c_k z^k for the array c_{-N} .. c_N."""
    n = (len(c) - 1) // 2
    return sum(c[k + n] * z**k for k in range(-n, n + 1))


def test_r_series_unimodular_on_circle():
    # single alpha: dinv = (2 - z)/sqrt(3) has its only zero at 2, so the
    # truncated tails decay at rate 2 and the circle values are clean
    c = VerblunskyCoeffs.finitely_supported([0.5])
    dinv = dinv_from_alphas(c, order=48)
    r = r_series(dinv, order=40)
    z = np.exp(1j * np.linspace(0.1, 2.0 * np.pi, 40))
    assert np.max(np.abs(np.abs(_laurent_eval(r, z)) - 1.0)) < 1e-10
    # the geometric family carries a dinv zero near |z| = 1.16, so the
    # negative tail decays slowly and truncation noise is much larger
    cg = geometric_alphas(0.5, 2.0)
    rg = r_series(dinv_from_alphas(cg, order=64), order=48)
    assert np.max(np.abs(np.abs(_laurent_eval(rg, z)) - 1.0)) < 5e-3


def test_r_series_real_coefficients_for_real_alpha(rng):
    c = real_alphas(rng, 4)
    dinv = dinv_from_alphas(c, order=32)
    r = r_series(dinv, order=16)
    assert np.max(np.abs(r.imag)) < 1e-13


def _r_range(dinv, lowest, order):
    """r_lowest .. r_order as r_series forms them, for any starting index."""
    return _r_dots(dinv, _reflected_d(dinv, lowest, order), lowest, order)


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
    """r_0..r_N alone are the Taylor half of r_series, bit for bit, and that
    half is the old product loop's (the k < 0 half is checked against a fine
    grid by test_r_negative_half_matches_a_fine_grid).  A list longer than
    the order cuts 1/D, which may then have a zero in the disk; r_series
    refuses that, and its sums before the refusal are compared."""
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
    try:
        full = r_series(dinv, order)
    except PreconditionError:
        assert np.min(np.abs(np.polynomial.polynomial.polyroots(dinv.coeffs))) <= 1.0
        full = _r_range(dinv, -order, order)
    assert full[order:].tobytes() == _r_product_loop(dinv, order)[order:].tobytes()
    assert _r_range(dinv, 0, order).tobytes() == full[order:].tobytes()


def _cut_family_coeffs(rng, family, order):
    """Alphas of one family of test_r_minus_s_cut_d_is_bitwise_the_full_build."""
    if family == "geometric":
        c = rng.uniform(0.05, 0.95) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        return VerblunskyCoeffs(c * rng.uniform(1.01, 8.0) ** -np.arange(order + 1.0))
    if family == "list":
        # a geometric list with interior zeros: r - S is of order R^-3k, so
        # at a zero alpha_{k-1} the sum r_k cancels far below its m = 0 term
        c = rng.uniform(-0.99, 0.99)
        if rng.random() < 0.5:
            c *= np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        alpha = c * rng.uniform(1.05, 8.0) ** -np.arange(int(rng.integers(2, order + 2)) + 0.0)
        alpha[:-1][rng.random(len(alpha) - 1) < 0.2] = 0.0
        return VerblunskyCoeffs.finitely_supported(alpha)
    c = rng.uniform(-0.95, 0.95)
    return VerblunskyCoeffs(c * rng.uniform(1.001, 1.05) ** -np.arange(order + 1.0))


@given(st.integers(0, 2**31 - 1), st.sampled_from(["geometric", "list", "near-one"]),
       st.integers(8, 4096))
@example(82, "list", 256)
@example(232, "list", 256)
@settings(max_examples=150, deadline=None)
def test_r_minus_s_cut_d_is_bitwise_the_full_build(seed, family, order):
    """The r - S suite builds D only as far as r_0 .. r_order can feel it
    when 1/D is the whole polynomial kappa_s Phi_s*, and every r_k it forms,
    in the ranges it forms them, is the full build's, bit for bit.  A
    geometric tail with R from 1.01 to 8 is whole once its alphas underflow
    within the order, a list once it fits in it; a tail with R near 1 is
    cut at the order, and its D is built in full.  The two examples are
    lists where D built through the M of the m = 0 terms alone moves an
    r_k that cancels, so the check of the r_k themselves must extend it."""
    rng = np.random.default_rng(seed)
    coeffs = _cut_family_coeffs(rng, family, order)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        dinv = dinv_from_alphas(coeffs, order)
    support = np.flatnonzero(coeffs.alpha)
    whole = (int(support[-1]) + 1 if support.size else 0) <= order
    assert whole == (family != "near-one" and not np.any(coeffs.alpha[order:]))
    if not whole:
        return
    assert int(np.flatnonzero(dinv.coeffs)[-1]) <= order
    full = _r_dots(dinv, _reflected_d(dinv, 0, order), 0, order)
    r_range = _taylor_r(coeffs, dinv, order)
    tail = (order + 1) // 2
    got = np.zeros(order + 1, dtype=complex)
    got[tail:] = r_range(tail, order)
    done = 0
    while done < tail:
        grown = min(max(2 * done, 16), tail)
        got[done:grown] = r_range(done, grown - 1)
        done = grown
    assert got.tobytes() == full.tobytes()


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
    any phase; ranges that start below 0 (which build D through top - lowest)
    and at or above 0 (which build D through top, the last nonzero
    coefficient of 1/D), with the top order N and its one-term dot in about
    half of the draws.  Each r_k with k >= 0 has the bits of the full
    product, which builds D through N; the k < 0 half is checked against a
    fine grid by test_r_negative_half_matches_a_fine_grid."""
    dinv = _zero_tail_dinv(seed, dinv_order)[1] if alpha else _zero_tail_series(seed, dinv_order)
    if dinv is None:
        return
    order = dinv_order if share > 0.5 else int(share * 2 * dinv_order)
    lowest = {"full": -order, "taylor": 0, "above-zero": order // 3,
              "below-zero": -(order // 3) - 1}[window]
    start = max(0, lowest)
    try:
        want = _r_by_full_product(dinv, start, order)
    except InvalidParameterError:  # D overflows
        with pytest.raises(InvalidParameterError):
            _r_range(dinv, start, order)
        return
    assert _r_range(dinv, lowest, order)[start - lowest :].tobytes() == want.tobytes()


def _fine_grid_r(p, order):
    """r_{-order} .. r_order of P / conj(P) by FFT on a grid of at least 2^16
    points, grown until it resolves the zero of P nearest the circle (an
    alias of r_k weighs about rho^-size); None when 2^20 points do not."""
    rho = np.min(np.abs(np.polynomial.polynomial.polyroots(p))) if len(p) > 1 else np.inf
    size = 1 << 16
    while size < 1 << 20 and size * np.log(rho) < 45.0:
        size <<= 1
    if size * np.log(rho) < 45.0:
        return None
    vals = size * np.fft.ifft(p, size)
    return (np.fft.fft(vals / np.conj(vals)) / size)[np.arange(-order, order + 1) % size]


@given(st.integers(0, 2**31 - 1), st.booleans(), st.booleans(), st.integers(8, 256),
       st.integers(0, 40))
@settings(max_examples=30, deadline=None)
def test_r_negative_half_matches_a_fine_grid(seed, finite, cplx, order, extra):
    """r_{-N} .. r_{-1} of finite lists (1/D exact, of degree up to 24) and of
    geometric tails are the Fourier coefficients of P / conj(P), P = 1/D.

    The bound is 1e-14 max|r| times the size of the terms of the dots,
    sum |P_j| * max |D_m| (1 when P is a constant): with a zero of P near the
    circle D decays slowly, and its recursion and the dots round in
    proportion (on 1440 draws the worst error was 3.2e-16 of that scale)."""
    rng = np.random.default_rng(seed)
    if finite:
        n = int(rng.integers(1, 25))
        alpha = rng.uniform(-0.6, 0.6, n) + (1j * rng.uniform(-0.5, 0.5, n) if cplx else 0.0)
        coeffs = VerblunskyCoeffs.finitely_supported(alpha)
        dinv_order = max(order, n) + extra
    else:
        dinv_order = order + extra
        c = rng.uniform(-0.7, 0.7) + (1j * rng.uniform(-0.5, 0.5) if cplx else 0.0)
        coeffs = VerblunskyCoeffs(c * rng.uniform(1.2, 4.0) ** -np.arange(dinv_order + 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        dinv = dinv_from_alphas(coeffs, dinv_order)
    p = np.trim_zeros(dinv.coeffs, "b")
    want = _fine_grid_r(p, order)
    assume(want is not None)
    r = r_series(dinv, order)
    scale = np.sum(np.abs(p)) * np.max(np.abs(taylor_reciprocal(dinv, len(p) - 1 + order).coeffs))
    assert np.max(np.abs(r[:order] - want[:order])) <= 1e-14 * np.max(np.abs(r)) * scale


def test_r_taylor_half_guards_match_r_series():
    """The Taylor half raises what r_series raises."""
    short = dinv_from_alphas(geometric_alphas(0.5, 2.0), order=16)
    no_constant = TaylorSeries([1e-300, 1.0, 0.5])
    for dinv, order in ((short, 32), (no_constant, 2)):
        with pytest.raises(SzegojostError) as want:
            r_series(dinv, order)
        with pytest.raises(type(want.value)) as got:
            _r_range(dinv, 0, order)
        assert str(got.value) == str(want.value)


def test_r_series_guards():
    c = geometric_alphas(0.5, 2.0)
    dinv = dinv_from_alphas(c, order=16)
    with pytest.raises(InvalidParameterError):
        r_series(dinv, order=32)
    with pytest.raises(PoleError):
        r_series(TaylorSeries([0.0, 1.0]), order=1)


def test_r_series_refuses_non_finite_coefficients():
    """A constant term just above the pole cut-off overflows D: r_0 is -inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidParameterError, match="coefficients must be finite"):
            r_series(TaylorSeries([1e-200, 1.0]), 1)


@given(st.floats(0.05, 0.95), st.sampled_from([-1.0, 1.0]), st.floats(1.02, 6.0),
       st.integers(8, 256))
@example(0.6267430976375139, 1.0, 1.232033233988311, 64)
@example(0.9282152787314307, -1.0, 1.0827779849655137, 64)
@settings(max_examples=100, deadline=None)
def test_schur_cohn_test_matches_the_roots_of_p(size, sign, radius, order):
    """The Schur-Cohn test refuses 1/D exactly when ``polyroots`` puts a zero
    of its polynomial P in the closed unit disk, on truncated geometric
    tails whose nearest zero lies at least 1e-6 from the circle.  The first
    example is the ``known-defects`` input with its zero at |z| = 1.0012,
    the second has a zero at 0.99858 and passes the Parseval check."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        dinv = dinv_from_alphas(parse_alpha_spec(f"geometric:C={sign * size!r},R={radius!r}",
                                                 order), order)
    p = dinv.coeffs[: int(np.flatnonzero(dinv.coeffs)[-1]) + 1]
    moduli = np.abs(np.polynomial.polynomial.polyroots(p))
    assume(np.min(np.abs(moduli - 1.0)) >= 1e-6)
    if np.any(moduli <= 1.0):
        with pytest.raises(PreconditionError, match="Schur-Cohn test gives"):
            _require_zero_free(dinv)
    else:
        _require_zero_free(dinv)
