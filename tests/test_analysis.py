"""Decay-rate fitting, verification suites, product sets, pole probes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NEAR_EDGE, geometric_alphas, real_alphas
from szegojost import analysis
from szegojost.analysis import (
    UNDERFLOW_FLOOR,
    PadePole,
    ProductSet,
    RadiusEstimate,
    VerificationReport,
    canonical_weight_check,
    decay_rate,
    gset,
    jost_b_combination,
    pade_pole_probe,
    radius_estimate,
    verify_damanik_simon,
    verify_jost_b_combination,
    verify_nevai_totik,
    verify_r_minus_s,
)
from szegojost.errors import (
    IllConditionedError,
    InvalidParameterError,
    NumericalDegeneracyError,
)
from szegojost.jost import (
    b_series_from_deltas,
    finite_range_jost_data,
    geronimus_deltas,
    jost_g_ell,
)
from szegojost.oprl import JacobiParams, spectral_measure_oracle
from szegojost.opuc import VerblunskyCoeffs
from szegojost.series import LaurentSeries, TaylorSeries
from szegojost.szego import dinv_from_alphas, s_series


def test_decay_rate_pure_geometric():
    seq = 3.0 ** -np.arange(64.0)
    est = decay_rate(seq)
    assert abs(est.radius - 3.0) < 1e-10
    assert est.n_points == 32


def test_decay_rate_with_polynomial_prefactor():
    """A slowly varying prefactor moves the fit only a little."""
    n = np.arange(80.0)
    est = decay_rate((n + 1.0) * 2.0**-n)
    assert abs(est.radius - 2.0) / 2.0 < 0.05


def test_decay_rate_infinite_sentinel():
    seq = np.concatenate([[1.0, 0.5, 0.25], np.zeros(61)])
    est = decay_rate(seq)
    assert est.is_infinite
    assert est.n_points == 0


def test_decay_rate_degeneracy_and_window_guards():
    seq = np.zeros(64)
    seq[40] = 1.0
    seq[44] = 0.5
    with pytest.raises(NumericalDegeneracyError):
        decay_rate(seq)
    with pytest.raises(InvalidParameterError):
        decay_rate(np.ones(64), window=(10, 14))
    with pytest.raises(InvalidParameterError):
        decay_rate(np.ones(64), window=(50, 80))


def test_decay_rate_floor_array_masks_noise():
    """Entries at or below their floor stay out of the regression."""
    n = np.arange(64.0)
    seq = 2.0**-n
    seq[40:] = 1e-14  # simulated rounding plateau
    floor = np.full(64, 1e-13)
    est = decay_rate(seq, window=(2, 63), floor=floor)
    assert abs(est.radius - 2.0) < 1e-8
    assert est.n_points == 38


def test_radius_estimate_dispatch():
    ts = TaylorSeries(2.0 ** -np.arange(65.0))
    est = radius_estimate(ts)
    assert abs(est.radius - 2.0) < 1e-10
    ls = LaurentSeries.from_tails(1.0, 2.0 ** -np.arange(1.0, 49.0), 4.0 ** -np.arange(1.0, 49.0))
    inner, outer = radius_estimate(ls)
    assert abs(outer.radius - 2.0) < 1e-9
    assert abs(inner.radius - 0.25) < 1e-9
    with pytest.raises(InvalidParameterError):
        radius_estimate([1.0, 0.5])


def test_radius_estimate_no_negative_tail_sentinel():
    ls = LaurentSeries.from_tails(1.0, 2.0 ** -np.arange(1.0, 49.0), np.zeros(48))
    inner, outer = radius_estimate(ls)
    assert inner.radius == 0.0


def test_radius_estimate_record_validation():
    with pytest.raises(InvalidParameterError):
        RadiusEstimate(1.0, (0, 5), 0.0, 4)
    with pytest.raises(InvalidParameterError):
        RadiusEstimate(-2.0, (0, 20), 0.0, 4)


def test_verification_report_is_deterministic():
    a = VerificationReport("demo", {"zeta": 1.0, "alpha": 2.0}, 0.1, True)
    b = VerificationReport("demo", (("alpha", 2.0), ("zeta", 1.0)), 0.1, True)
    assert a == b
    assert a.measured[0][0] == "alpha"
    assert a.value("zeta") == 1.0
    with pytest.raises(KeyError):
        a.value("missing")
    rows = a.rows()
    assert rows[0] == ("check", "demo")
    assert ("pass", "true") in rows


def _signal_prefix_loop(values, floor, lo):
    """The scalar loop that _signal_prefix must match, verbatim."""
    hi = lo - 1
    for k in range(lo, len(values)):
        if abs(values[k]) > 64.0 * floor[k]:
            hi = k
        else:
            break
    return hi


def _prefix_values(rng, n, fail_rate, is_complex):
    """Entries at, just above, just below and well off 64 * floor."""
    floor = 10.0 ** rng.uniform(-300, 3, n)
    edge = 64.0 * floor
    fails = rng.random(n) < fail_rate
    kind = rng.integers(0, 2, n)
    mag = np.where(kind == 0, np.nextafter(edge, np.inf), edge * 10.0 ** rng.uniform(0, 2, n))
    low = np.where(kind == 0, edge, np.nextafter(edge, 0.0))
    mag[fails] = np.where(rng.random(n) < 0.5, low, edge * 10.0 ** -rng.uniform(0, 2, n))[fails]
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if not is_complex:
        return sign * mag, floor
    # on the real axis, on the imaginary axis, or at a random phase
    phase = np.where(kind == 0, 0.0, rng.uniform(0.0, 2.0 * np.pi, n))
    phase[rng.random(n) < 0.3] = 0.5 * np.pi
    return sign * mag * np.exp(1j * phase), floor


@given(st.integers(0, 2**31 - 1), st.integers(1, 40), st.integers(0, 40),
       st.sampled_from([0.0, 0.02, 0.2, 0.6]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_signal_prefix_matches_scalar_loop(seed, n, lo, fail_rate, is_complex):
    rng = np.random.default_rng(seed)
    values, floor = _prefix_values(rng, n, fail_rate, is_complex)
    lo = min(lo, n)
    assert analysis._signal_prefix(values, floor, lo) == _signal_prefix_loop(values, floor, lo)


@pytest.mark.parametrize("is_complex", [False, True])
def test_signal_prefix_run_ends(is_complex):
    floor = np.full(20, 1e-20)
    values = np.full(20, 1e-10, dtype=complex if is_complex else float)
    assert analysis._signal_prefix(values, floor, 2) == 19
    values[2] = 64.0 * 1e-20
    assert analysis._signal_prefix(values, floor, 2) == 1
    values[2] = np.nextafter(64.0 * 1e-20, 1.0)
    values[7] = 0.0
    assert analysis._signal_prefix(values, floor, 2) == 6


def test_nevai_totik_geometric_family():
    report = verify_nevai_totik(geometric_alphas(0.5, 2.0), order=64)
    assert report.passed
    assert abs(report.value("alpha_decay_radius") - 2.0) < 0.1
    assert abs(report.value("dinv_radius") - 2.0) < 0.1


def test_nevai_totik_finite_support_sentinels(rng):
    report = verify_nevai_totik(real_alphas(rng, 4), order=64)
    assert report.passed
    assert math.isinf(report.value("alpha_decay_radius"))
    assert math.isinf(report.value("dinv_radius"))
    assert "sentinel" in report.notes


def test_damanik_simon_geometric_family():
    report = verify_damanik_simon(geometric_alphas(0.5, 2.0), order=64)
    assert report.passed
    assert abs(report.value("jacobi_decay_radius") - 2.0) < 0.1
    assert abs(report.value("jost_radius") - 2.0) < 0.1


def test_damanik_simon_finite_support_sentinels(rng):
    report = verify_damanik_simon(real_alphas(rng, 4), order=48)
    assert report.passed
    assert math.isinf(report.value("jacobi_decay_radius"))
    assert math.isinf(report.value("jost_radius"))


def test_damanik_simon_needs_real_alpha():
    with pytest.raises(InvalidParameterError):
        verify_damanik_simon(VerblunskyCoeffs.finitely_supported([0.1j]))


def test_canonical_weights_free_is_trivial():
    report = canonical_weight_check(JacobiParams.free())
    assert report.passed
    assert report.value("n_zeros") == 0.0
    assert "no disk zeros" in report.notes


def test_canonical_weights_single_b_closed_form():
    """b_1 = 3/2 puts one mass at 13/6 with weight 5/9 and residue -4/9."""
    params = JacobiParams(a=[1.0], b=[1.5], free_after=1)
    report = canonical_weight_check(params)
    assert report.passed
    assert report.value("n_zeros") == 1.0
    assert abs(report.value("weight_0") - 5.0 / 9.0) <= np.spacing(5.0 / 9.0)
    assert abs(report.value("jost_residue_0") - (-4.0 / 9.0)) < 1e-10
    assert report.value("worst_relative_deviation") < 1e-6


def _near_edge_params(name):
    a, b = NEAR_EDGE[name]
    return JacobiParams(a=np.array(a), b=np.array(b), free_after=len(a))


def _mp_weight(params, z_start):
    """50-digit bound-state weight from the same closed form.

    The zero of z^-l g_l(z) = p_l(E) - z p_{l-1}(E), E = z + 1/z, is refined
    from ``z_start``; then 1/w = sum_{k<l-1} p_k(E)^2 + p_{l-1}(E)^2 / (1 - z^2).
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 50
    ell = max(params.free_range_order(), 1)

    def polys(e):
        p = [mp.mpf(1)]
        prev, a_prev = mp.mpf(0), mp.mpf(1)
        for k in range(ell):
            a_next = mp.mpf(params.a_entry(k + 1))
            new = ((e - mp.mpf(params.b_entry(k + 1))) * p[k] - a_prev * prev) / a_next
            prev, a_prev = p[k], a_next
            p.append(new)
        return p

    def jost(z):
        p = polys(z + 1 / z)
        return p[ell] - z * p[ell - 1]

    z0 = mp.findroot(jost, mp.mpf(float(np.real(z_start))))
    p = polys(z0 + 1 / z0)
    inv = sum(pk**2 for pk in p[: ell - 1]) + p[ell - 1] ** 2 / (1 - z0**2)
    return float(1 / inv)


@pytest.mark.parametrize("name", sorted(NEAR_EDGE))
def test_canonical_weights_near_edge_match_high_precision(name):
    """Both states of each input match a 50-digit evaluation to 1e-13."""
    params = _near_edge_params(name)
    report = canonical_weight_check(params)
    assert report.passed
    roots = finite_range_jost_data(params).zeros_in_disk
    assert report.value("n_zeros") == roots.size == 2
    for i, z in enumerate(roots):
        want = _mp_weight(params, z)
        assert abs(report.value(f"weight_{i}") - want) <= 1e-13 * want


def test_canonical_weights_near_edge_match_the_eigen_oracle():
    """The |z0| = 0.9914 state fits in 2000 rows (its eigenvector decays by
    0.9914^2000 ~ 3e-8), and the eigen-oracle's weight agrees."""
    params = _near_edge_params("verdict")
    roots = finite_range_jost_data(params).zeros_in_disk
    i = int(np.argmax(np.abs(roots)))
    assert abs(abs(roots[i]) - 0.9914) < 1e-4
    e0 = (roots[i] + 1.0 / roots[i]).real
    oracle = spectral_measure_oracle(params, 2000)
    j = int(np.argmin(np.abs(oracle.nodes - e0)))
    weight = canonical_weight_check(params).value(f"weight_{i}")
    assert abs(oracle.weights[j] - weight) <= 1e-10 * weight


def test_r_minus_s_geometric_family():
    report = verify_r_minus_s(geometric_alphas(0.5, 2.0, order=96), order=96)
    assert report.passed
    assert abs(report.value("s_radius") - 2.0) / 2.0 < 0.05
    assert report.value("difference_radius") >= report.value("threshold")


def test_r_minus_s_zero_alpha_trivial():
    report = verify_r_minus_s(VerblunskyCoeffs.zero(), order=64)
    assert report.passed
    assert "vanishes identically" in report.notes


def test_r_minus_s_fast_decay_is_inconclusive():
    """When the remainder dives under rounding immediately, say so and fail."""
    report = verify_r_minus_s(geometric_alphas(0.5, 16.0), order=64)
    assert not report.passed
    assert report.notes.startswith("inconclusive")


def _finite(*alphas):
    return VerblunskyCoeffs.finitely_supported(list(alphas))


# rows of one report per branch of the four radius suites; the values are
# bitwise pins, so any rewrite of the report path must reproduce them exactly
PINNED_ROWS = [
    ("nevai-totik-pass", lambda: verify_nevai_totik(geometric_alphas(0.5, 2.0), 64),
     [('check', 'nevai-totik'), ('pass', 'true'), ('tolerance', 0.05), ('alpha_decay_radius', 2.000000000000001), ('dinv_radius', 1.9988982566788696), ('relative_gap', 0.0005508716605656658)]),
    ("nevai-totik-both-infinite", lambda: verify_nevai_totik(_finite(0.3, -0.2), 64),
     [('check', 'nevai-totik'), ('pass', 'true'), ('tolerance', 0.05), ('alpha_decay_radius', math.inf), ('dinv_radius', math.inf), ('relative_gap', 0.0), ('notes', 'both sides report the infinite-radius sentinel')]),
    ("nevai-totik-short-window", lambda: verify_nevai_totik(geometric_alphas(0.5, 2.0, 4), 4),
     [('check', 'nevai-totik'), ('pass', 'false'), ('tolerance', 0.05), ('notes', 'inconclusive: estimation window must span >= 8 indices')]),
    ("damanik-simon-pass", lambda: verify_damanik_simon(geometric_alphas(0.5, 2.0), 64),
     [('check', 'damanik-simon'), ('pass', 'true'), ('tolerance', 0.05), ('jacobi_decay_radius', 1.9999999999912763), ('jost_radius', 1.9988982566788698), ('relative_gap', 0.0005508716562056695)]),
    ("damanik-simon-both-infinite", lambda: verify_damanik_simon(_finite(0.3, -0.2), 48),
     [('check', 'damanik-simon'), ('pass', 'true'), ('tolerance', 0.05), ('jacobi_decay_radius', math.inf), ('jost_radius', math.inf), ('relative_gap', 0.0), ('notes', 'both sides report the infinite-radius sentinel')]),
    ("r-minus-s-pass", lambda: verify_r_minus_s(geometric_alphas(0.5, 2.0, 96), 96),
     [('check', 'r-minus-s'), ('pass', 'true'), ('tolerance', 0.1), ('alpha_decay_radius', 2.0), ('difference_radius', 7.999186356872385), ('r_radius', 2.0015028947785796), ('s_radius', 2.0000000000000004), ('threshold', 7.2), ('usable_points', 18.0)]),
    ("r-minus-s-claim-fails", lambda: verify_r_minus_s(geometric_alphas(0.5, 1.5), 64),
     [('check', 'r-minus-s'), ('pass', 'false'), ('tolerance', 0.1), ('alpha_decay_radius', 1.5000000000000002), ('difference_radius', 1.3871039924178303), ('r_radius', 1.503109763007649), ('s_radius', 1.5000000000000002), ('threshold', 3.0375000000000014), ('usable_points', 63.0)]),
    ("r-minus-s-alpha-zero", lambda: verify_r_minus_s(VerblunskyCoeffs.zero(), 64),
     [('check', 'r-minus-s'), ('pass', 'true'), ('tolerance', 0.1), ('difference_radius', math.inf), ('threshold', math.inf), ('notes', 'alpha is zero; r - S vanishes identically')]),
    ("r-minus-s-sanity-fails", lambda: verify_r_minus_s(geometric_alphas(0.99, 1.01, 96), 96),
     [('check', 'r-minus-s'), ('pass', 'false'), ('tolerance', 0.1), ('alpha_decay_radius', 1.01), ('difference_radius', 2.1880900976612367), ('r_radius', 2.1950312673916303), ('s_radius', 1.01), ('threshold', 0.9272709000000001), ('usable_points', 95.0), ('notes', 'sanity leg failed: r or S radius is off the alpha decay')]),
    ("r-minus-s-empty-prefix", lambda: verify_r_minus_s(_finite(0.5), 64),
     [('check', 'r-minus-s'), ('pass', 'true'), ('tolerance', 0.1), ('alpha_decay_radius', math.inf), ('difference_radius', math.inf), ('r_radius', math.inf), ('s_radius', math.inf), ('threshold', math.inf), ('usable_points', 0.0)]),
    ("r-minus-s-short-prefix", lambda: verify_r_minus_s(geometric_alphas(0.5, 16.0), 64),
     [('check', 'r-minus-s'), ('pass', 'false'), ('tolerance', 0.1), ('notes', 'inconclusive: difference signal survives rounding only through index 4')]),
    ("jost-combination-pass", lambda: verify_jost_b_combination(geometric_alphas(0.5, 2.0), 64),
     [('check', 'jost-combination'), ('pass', 'true'), ('tolerance', 0.1), ('inner_radius', 0.5002767718260743), ('inner_target', 0.550000000002399), ('mapped_decay_radius', 1.9999999999912763), ('outer_radius', 3.961813939229973), ('outer_target', 3.599999999968595)]),
    ("jost-combination-claim-fails", lambda: verify_jost_b_combination(geometric_alphas(0.5, 16.0), 64),
     [('check', 'jost-combination'), ('pass', 'false'), ('tolerance', 0.1), ('inner_radius', 0.06250307172339793), ('inner_target', 0.06874999999999992), ('mapped_decay_radius', 16.000000000000018), ('outer_radius', 228.65931153888917), ('outer_target', 230.40000000000052)]),
    ("jost-combination-free", lambda: verify_jost_b_combination(VerblunskyCoeffs.zero(), 64),
     [('check', 'jost-combination'), ('pass', 'true'), ('tolerance', 0.1), ('inner_radius', 0.0), ('outer_radius', math.inf), ('notes', 'free parameters; the combination is entire')]),
    ("jost-combination-finite-degrees", lambda: verify_jost_b_combination(_finite(0.3, -0.2), 64),
     [('check', 'jost-combination'), ('pass', 'true'), ('tolerance', 0.1), ('inner_radius', 0.0), ('inner_target', 0.0), ('mapped_decay_radius', math.inf), ('outer_radius', math.inf), ('outer_target', math.inf), ('notes', 'finitely supported parameters; Laurent polynomial tails end at degrees (+3, -0)')]),
    ("jost-combination-finite-short-order", lambda: verify_jost_b_combination(_finite(0.3, -0.2), 8),
     [('check', 'jost-combination'), ('pass', 'false'), ('tolerance', 0.1), ('notes', 'inconclusive: estimation window must span >= 8 indices')]),
    ("jost-combination-tails-drown", lambda: verify_jost_b_combination(geometric_alphas(0.5, 30.0, 128), 128),
     [('check', 'jost-combination'), ('pass', 'false'), ('tolerance', 0.1), ('notes', 'inconclusive: combination tails survive rounding only through indices (9, 126)')]),
    ("jost-combination-too-few-mapped", lambda: verify_jost_b_combination(geometric_alphas(0.5, 2.0, 16), 16),
     [('check', 'jost-combination'), ('pass', 'false'), ('tolerance', 0.1), ('notes', 'inconclusive: 17 stored alphas give 7 mapped coefficients; the decay fit needs 16')]),
]


@pytest.mark.filterwarnings("ignore::szegojost.errors.ConvergenceWarning")
@pytest.mark.parametrize("make, rows", [case[1:] for case in PINNED_ROWS],
                         ids=[case[0] for case in PINNED_ROWS])
def test_suite_report_rows_are_pinned(make, rows):
    assert make().rows() == rows


# the mapped radius as it was fitted before finite support short-cut it to
# inf, kept verbatim as the reference
def _mapped_decay_radius_with_window(coeffs: VerblunskyCoeffs, window) -> float:
    """Radius R with limsup (|b_n| + |a_n^2 - 1|)^(1/2n) = 1/R."""
    if coeffs.is_finitely_supported:
        count = len(coeffs.alpha) // 2 + 16
        if window is None:
            window = (count - 9, count - 1)
    else:
        count = (len(coeffs.alpha) - 2) // 2
        if count < 16:
            raise InvalidParameterError(
                f"{len(coeffs.alpha)} stored alphas give {max(count, 0)} mapped "
                "coefficients; the decay fit needs 16"
            )
    b, asq1 = geronimus_deltas(coeffs, count)
    delta = np.abs(b) + np.abs(asq1)
    if not np.any(delta > UNDERFLOW_FLOOR):
        return math.inf
    return math.sqrt(decay_rate(delta, window=window).radius)


# a real alpha of modulus below 1 spread over 300 decades, or exactly zero
_finite_entry = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, mant, exp: sign * mant * 10.0 ** -exp,
              st.sampled_from([-1.0, 1.0]), st.floats(0.1, 0.999), st.integers(0, 300)),
)


@given(st.lists(_finite_entry, min_size=1, max_size=200))
@settings(max_examples=300, deadline=None)
def test_finite_mapped_radius_is_infinite_without_deltas(alphas):
    coeffs = VerblunskyCoeffs.finitely_supported(alphas)
    want = _mapped_decay_radius_with_window(coeffs, None)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "geronimus_deltas", lambda *args: calls.append(args))
        got = analysis._mapped_decay_radius(coeffs)
    assert got == want == math.inf
    assert calls == []


def test_combination_single_b_is_perfect_square():
    """(1 - z^2) u + z^2 u(1/z) B collapses to (1 - b_1 z)^2 for one b_1."""
    params = JacobiParams(a=[1.0], b=[0.7], free_after=1)
    u = jost_g_ell(params)
    b = b_series_from_deltas(params.b, params.a**2 - 1.0, order=8)
    series, pos_scale, neg_scale = jost_b_combination(u, b, order=8)
    assert np.isclose(series.coeff(0), 1.0)
    assert np.isclose(series.coeff(1), -1.4)
    assert np.isclose(series.coeff(2), 0.49)
    for k in range(3, 9):
        assert abs(series.coeff(k)) < 1e-15
    for k in range(1, 9):
        assert abs(series.coeff(-k)) < 1e-15


def test_combination_free_is_constant():
    u = TaylorSeries(np.eye(9)[0])
    b = TaylorSeries(np.eye(9)[0])
    series, _, _ = jost_b_combination(u, b, order=8)
    assert np.isclose(series.coeff(0), 1.0)
    assert np.max(np.abs(np.delete(series.coeffs, series.order))) < 1e-15


def _reference_combination(u, b, order):
    """The scalar double loop that jost_b_combination must match bit for bit."""
    uc = u.coeffs
    bc = b.coeffs
    pos = np.zeros(order + 1, dtype=complex)
    neg = np.zeros(order + 1, dtype=complex)
    pos_scale = np.zeros(order + 1)
    neg_scale = np.zeros(order + 1)
    for m in range(min(order, len(uc) + 1) + 1):
        direct = uc[m] if m < len(uc) else 0.0
        shifted = uc[m - 2] if m >= 2 else 0.0
        pos[m] += direct - shifted
        pos_scale[m] += abs(direct) + abs(shifted)
    for k in range(len(uc)):
        for j in range(len(bc)):
            e = 2 - k + j
            term = uc[k] * bc[j]
            if 0 <= e <= order:
                pos[e] += term
                pos_scale[e] += abs(term)
            elif -order <= e < 0:
                neg[-e] += term
                neg_scale[-e] += abs(term)
    series = LaurentSeries.from_tails(pos[0], pos[1:], neg[1:])
    return series, pos_scale, neg_scale


def _draw_coeffs(rng, n):
    """Real coefficients over 16 decades, with some exact and signed zeros."""
    c = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n)
    zeros = rng.random(n) < 0.1
    c[zeros] = np.copysign(0.0, rng.normal(size=int(np.count_nonzero(zeros))))
    return TaylorSeries(c)


@given(st.integers(0, 2**31 - 1), st.integers(1, 24), st.integers(1, 52),
       st.integers(1, 52))
@settings(max_examples=60, deadline=None)
def test_combination_matches_scalar_loop_bitwise(seed, order, nu, nb):
    """Lengths of u and B range below and above order + 1."""
    rng = np.random.default_rng(seed)
    u = _draw_coeffs(rng, nu)
    b = _draw_coeffs(rng, nb)
    got = jost_b_combination(u, b, order)
    want = _reference_combination(u, b, order)
    assert got[0].coeffs.tobytes() == want[0].coeffs.tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2].tobytes() == want[2].tobytes()


def _envelope_coeffs(rng, n, r, cut):
    """Real normal draws under the envelope r^-k, exactly 0 from index cut on."""
    c = rng.normal(size=n) * r ** -np.arange(n, dtype=float)
    c[cut:] = 0.0
    return TaylorSeries(c)


@given(st.integers(0, 2**31 - 1), st.integers(1, 60), st.integers(1, 100),
       st.integers(1, 100), st.floats(1.05, 6.0), st.booleans())
@settings(max_examples=60, deadline=None)
def test_combination_stop_rule_keeps_every_readable_bit(seed, order, nu, nb, r, cut_tails):
    """The rows the early stop drops move no scale entry, no real or
    imaginary part at or above 2^-52 of its scale, and no other part by more
    than 2^-100 of its scale."""
    rng = np.random.default_rng(seed)
    u = _envelope_coeffs(rng, nu, r, rng.integers(1, nu + 1) if cut_tails else nu)
    b = _envelope_coeffs(rng, nb, r, rng.integers(1, nb + 1) if cut_tails else nb)
    got_series, got_pos_scale, got_neg_scale = jost_b_combination(u, b, order)
    want_series, want_pos_scale, want_neg_scale = _reference_combination(u, b, order)
    assert got_pos_scale.tobytes() == want_pos_scale.tobytes()
    assert got_neg_scale.tobytes() == want_neg_scale.tobytes()
    got_pos = np.concatenate(([got_series.coeff(0)], got_series.positive_tail()))
    want_pos = np.concatenate(([want_series.coeff(0)], want_series.positive_tail()))
    for got, want, scale in ((got_pos, want_pos, got_pos_scale),
                             (got_series.negative_tail(), want_series.negative_tail(),
                              got_neg_scale[1:])):
        for got_part, want_part in ((got.real, want.real), (got.imag, want.imag)):
            kept = np.abs(got_part) >= 2.0 ** -52 * scale
            assert got_part[kept].tobytes() == want_part[kept].tobytes()
            assert np.all(np.abs(got_part - want_part)[~kept] <= 2.0 ** -100 * scale[~kept])


def test_combination_needs_real_series():
    real = TaylorSeries([1.0, 0.5, 0.25])
    cplx = TaylorSeries([1.0, 0.5j, 0.25])
    for u, b in ((cplx, real), (real, cplx), (cplx, cplx)):
        with pytest.raises(InvalidParameterError):
            jost_b_combination(u, b, order=8)


@pytest.mark.parametrize("order", [0, -1, -5])
def test_combination_needs_positive_order(order):
    u = TaylorSeries([1.0, 0.5, 0.25])
    with pytest.raises(InvalidParameterError, match="order must be >= 1"):
        jost_b_combination(u, u, order=order)


def _row_kernel_combination(u, b, order):
    """jost_b_combination as it was before the early stop, verbatim."""
    uc = u.coeffs
    bc = b.coeffs
    nb = len(bc)
    pos = np.zeros(order + 1, dtype=complex)
    neg = np.zeros(order + 1, dtype=complex)
    pos_scale = np.zeros(order + 1)
    neg_scale = np.zeros(order + 1)
    for m in range(min(order, len(uc) + 1) + 1):
        direct = uc[m] if m < len(uc) else 0.0
        shifted = uc[m - 2] if m >= 2 else 0.0
        pos[m] += direct - shifted
        pos_scale[m] += abs(direct) + abs(shifted)
    br, bi = bc.real, bc.imag

    def add_row(out, scale, at, ur, ui, lo, hi):
        re = ur * br[lo:hi] - ui * bi[lo:hi]
        im = ur * bi[lo:hi] + ui * br[lo:hi]
        out.real[at] += re
        out.imag[at] += im
        scale[at] += np.hypot(re, im)

    for k in range(len(uc)):
        ur, ui = uc[k].real, uc[k].imag
        # u_k b_j lands at e = 2 - k + j: e >= 0 in pos[e], e < 0 in neg[-e].
        lo, hi = max(0, k - 2), min(nb, order + k - 1)
        if lo < hi:
            add_row(pos, pos_scale, slice(2 - k + lo, 2 - k + hi), ur, ui, lo, hi)
        lo, hi = max(0, k - 2 - order), min(nb, k - 2)
        if lo < hi:
            add_row(neg, neg_scale, slice(k - 2 - lo, k - 2 - hi, -1), ur, ui, lo, hi)
    series = LaurentSeries.from_tails(pos[0], pos[1:], neg[1:])
    return series, pos_scale, neg_scale


# the benchmark's verify panel, (C, R), at its order 1024, and R = 2 at 4096
@pytest.mark.parametrize("c, r, order", [
    (-0.3, 1.2, 1024), (-0.6, 2.5, 1024), (0.2, 3.0, 1024), (-0.15, 3.2, 1024),
    (0.1, 3.4, 1024), (0.5, 2.0, 4096),
])
def test_combination_suite_rows_match_the_row_kernel(monkeypatch, c, r, order):
    new = verify_jost_b_combination(geometric_alphas(c, r, order), order=order)
    monkeypatch.setattr(analysis, "jost_b_combination", _row_kernel_combination)
    old = verify_jost_b_combination(geometric_alphas(c, r, order), order=order)
    assert repr(new.rows()) == repr(old.rows())


def test_combination_suite_geometric_family():
    report = verify_jost_b_combination(geometric_alphas(0.5, 2.0), order=64)
    assert report.passed
    assert report.value("outer_radius") >= 3.6
    assert report.value("inner_radius") <= 0.55


def test_combination_suite_finite_support(rng):
    report = verify_jost_b_combination(real_alphas(rng, 4), order=48)
    assert report.passed
    assert math.isinf(report.value("outer_radius"))
    assert report.value("inner_radius") == 0.0
    assert "Laurent polynomial" in report.notes


def test_combination_suite_free_tail():
    report = verify_jost_b_combination(VerblunskyCoeffs.zero(), order=32)
    assert report.passed
    assert "entire" in report.notes


def test_combination_suite_needs_real_alpha():
    with pytest.raises(InvalidParameterError):
        verify_jost_b_combination(VerblunskyCoeffs.finitely_supported([0.1j]))


def test_gset_single_generator():
    gs = gset([2.0], 40.0)
    assert np.allclose(sorted(e.real for e in gs.elements), [2.0, 8.0, 32.0])
    assert np.max(np.abs(np.imag(gs.elements))) == 0.0


def test_gset_matches_brute_force_enumeration():
    """Cross-check against direct enumeration of alternating products."""
    from itertools import product

    gens = [2.0 + 0.0j, 3.0j]
    cutoff = 40.0
    want = set()
    for n in range(3):
        for plain in product(gens, repeat=n + 1):
            for conj_part in product(gens, repeat=n):
                v = np.prod(plain) * np.prod([np.conj(g) for g in conj_part])
                if abs(v) <= cutoff:
                    want.add(complex(np.round(v, 9)))
    got = {complex(np.round(e, 9)) for e in gset(gens, cutoff).elements}
    assert got == want


def test_gset_nearest_distance():
    gs = gset([2.0], 40.0)
    assert np.isclose(gs.nearest(8.1), 0.1)
    assert np.isclose(gs.nearest(2.0), 0.0)


def test_gset_guards():
    with pytest.raises(InvalidParameterError):
        gset([0.5], 10.0)
    with pytest.raises(InvalidParameterError):
        gset([3.0], 2.0)
    empty = gset([], 10.0)
    assert empty.elements == ()
    assert math.isinf(empty.nearest(1.0))


def test_gset_n_max_cap():
    gs = gset([2.0], 40.0, n_max=0)
    assert np.allclose([e.real for e in gs.elements], [2.0])


def test_product_set_generator_membership():
    with pytest.raises(InvalidParameterError):
        ProductSet(generators=(2.0,), elements=(3.0,), n_max=0, cutoff=10.0)


def test_pade_probe_single_pole():
    """The stable denominator root of a geometric series sits at its pole."""
    s = s_series(geometric_alphas(0.5, 2.0), order=64)
    poles = pade_pole_probe(s, (8, 1))
    assert len(poles) == 1
    assert poles[0].stable
    assert abs(poles[0].z - 2.0) < 1e-8


def test_pade_probe_two_poles():
    dinv = dinv_from_alphas(geometric_alphas(0.5, 2.0), order=64)
    poles = pade_pole_probe(dinv, (12, 2))
    stable = [p for p in poles if p.stable]
    assert len(stable) == 2
    assert abs(stable[0].z - 2.0) < 1e-3
    assert abs(stable[1].z - 8.0) < 1e-2


def test_pade_probe_ill_conditioned():
    dinv = dinv_from_alphas(geometric_alphas(0.5, 2.0), order=64)
    with pytest.raises(IllConditionedError):
        pade_pole_probe(dinv, (16, 3))


def test_pade_probe_guards():
    s = s_series(geometric_alphas(0.5, 2.0), order=8)
    with pytest.raises(InvalidParameterError):
        pade_pole_probe(s, (8, 2))
    with pytest.raises(InvalidParameterError):
        pade_pole_probe(TaylorSeries([1.0, 1.0j] + [0.0] * 10), (4, 1))
    with pytest.raises(InvalidParameterError):
        pade_pole_probe(s, (4, 0))


def test_pade_probe_without_refinement_room():
    """No refinement slots means every candidate is flagged unstable."""
    s = s_series(geometric_alphas(0.5, 2.0), order=6)
    poles = pade_pole_probe(s, (4, 1))
    assert len(poles) == 1
    assert not poles[0].stable
    assert math.isinf(poles[0].movement)
    assert isinstance(poles[0], PadePole)
