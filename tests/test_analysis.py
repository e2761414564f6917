"""Decay-rate fitting, verification suites, product sets, pole probes."""

import math

import numpy as np
import pytest

from conftest import geometric_alphas, real_alphas
from szegojost.analysis import (
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
from szegojost.jost import b_series_from_deltas, jost_g_ell
from szegojost.oprl import JacobiParams
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


def test_decay_rate_ratio_method():
    est = decay_rate(2.0 ** -np.arange(64.0), method="ratio")
    assert abs(est.radius - 2.0) < 1e-12
    assert est.method == "ratio"


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
        RadiusEstimate(1.0, (0, 5), 0.0, "cauchy-hadamard-regression", 4)
    with pytest.raises(InvalidParameterError):
        RadiusEstimate(1.0, (0, 20), 0.0, "eyeball", 4)
    with pytest.raises(InvalidParameterError):
        RadiusEstimate(-2.0, (0, 20), 0.0, "ratio", 4)


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
    assert abs(report.value("weight_0") - 5.0 / 9.0) < 1e-10
    assert abs(report.value("jost_residue_0") - (-4.0 / 9.0)) < 1e-10
    assert report.value("worst_relative_deviation") < 1e-6


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
