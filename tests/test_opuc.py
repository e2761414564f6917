"""Circle recursion: orthonormal pairs, paraorthogonal zeros, approximants."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complex_alphas, real_alphas
from szegojost.measures import parse_alpha_spec
from szegojost.errors import (
    AliasingError,
    DomainError,
    InvalidParameterError,
    OutOfRangeError,
)
from szegojost import opuc
from szegojost.opuc import (
    CircleMeasure,
    VerblunskyCoeffs,
    bernstein_szego,
    caratheodory,
    popuc,
    popuc_average_check,
    popuc_point_measure,
    roots_of_unity,
    second_kind,
    szego_recursion,
)

SQ3 = np.sqrt(3.0)


def test_coefficient_tail_policies():
    truncated = VerblunskyCoeffs(alpha=[0.5, 0.25])
    assert truncated.entry(1) == 0.25
    with pytest.raises(OutOfRangeError):
        truncated.entry(2)
    finite = VerblunskyCoeffs.finitely_supported([0.5, 0.25])
    assert finite.entry(7) == 0.0
    assert VerblunskyCoeffs.zero().entry(3) == 0.0


def test_slice_zero_pads_finite_support():
    finite = VerblunskyCoeffs.finitely_supported([0.5, -0.25j])
    got = finite.slice(5)
    assert got.dtype == complex
    assert got.tolist() == [finite.entry(m) for m in range(5)]
    assert got.tolist() == [0.5, -0.25j, 0.0, 0.0, 0.0]
    assert finite.slice(0).size == 0


def test_slice_past_truncation_raises_like_entry():
    truncated = VerblunskyCoeffs(alpha=[0.5, 0.25, 0.125])
    assert truncated.slice(3).tolist() == [0.5, 0.25, 0.125]
    with pytest.raises(OutOfRangeError) as from_entry:
        truncated.entry(3)
    with pytest.raises(OutOfRangeError) as from_slice:
        truncated.slice(7)
    assert str(from_slice.value) == str(from_entry.value)


def test_alpha_is_a_read_only_copy():
    """The series cached on an instance must not go stale under its caller."""
    source = np.array([0.5, 0.25, 0.125], dtype=complex)
    coeffs = VerblunskyCoeffs(alpha=source)
    source[0] = 0.0
    assert coeffs.entry(0) == 0.5
    with pytest.raises(ValueError):
        coeffs.alpha[0] = 0.0


def test_coefficient_validation():
    with pytest.raises(InvalidParameterError):
        VerblunskyCoeffs(alpha=[1.0])
    with pytest.raises(InvalidParameterError):
        VerblunskyCoeffs(alpha=[0.5, np.nan])
    with pytest.raises(InvalidParameterError):
        VerblunskyCoeffs(alpha=[[0.1]])


def test_rho_kappa_relations():
    c = VerblunskyCoeffs.finitely_supported([0.5, -0.3, 0.1j])
    for n in range(3):
        assert np.isclose(c.rho(n) ** 2 + abs(c.entry(n)) ** 2, 1.0)
    # kappa_n is a nondecreasing product of 1/rho_j
    kappas = [c.kappa(n) for n in range(5)]
    assert np.all(np.diff(kappas) >= -1e-15)
    assert np.isclose(c.kappa(1), 2.0 / SQ3)
    assert np.isclose(c.kappa_inf(), c.kappa(3))
    with pytest.raises(InvalidParameterError):
        VerblunskyCoeffs(alpha=[0.5]).kappa_inf()


def test_one_step_recursion_closed_form():
    """alpha_0 = 1/2 gives phi_1 = (2/sqrt(3))(z - 1/2)."""
    c = VerblunskyCoeffs.finitely_supported([0.5])
    pair = szego_recursion(c, 1)
    assert np.allclose(pair.phi, [-1.0 / SQ3, 2.0 / SQ3])
    assert np.allclose(pair.phi_star, [2.0 / SQ3, -1.0 / SQ3])
    assert np.isclose(pair.kappa, 2.0 / SQ3)


def test_recursion_step_identity(rng):
    """phi_{n+1} = (z phi_n - conj(alpha_n) phi_n*) / rho_n on the circle."""
    c = complex_alphas(rng, 6)
    z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 16))
    for n in range(5):
        cur = szego_recursion(c, n)
        nxt = szego_recursion(c, n + 1)
        rhs = (z * cur(z) - np.conj(c.entry(n)) * cur.star(z)) / c.rho(n)
        assert np.allclose(nxt(z), rhs, atol=1e-12)


def test_star_has_equal_modulus_on_circle(rng):
    c = complex_alphas(rng, 5)
    pair = szego_recursion(c, 5)
    z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 32))
    assert np.allclose(np.abs(pair(z)), np.abs(pair.star(z)), atol=1e-12)


def test_monic_leading_coefficient_and_bound(rng):
    """Monic iterates stay bounded by prod (1 + |alpha_j|) on the circle."""
    c = complex_alphas(rng, 7)
    pair = szego_recursion(c, 7)
    monic = pair.monic
    assert np.isclose(monic[-1], 1.0)
    z = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False))
    bound = np.prod([1.0 + abs(c.entry(j)) for j in range(7)])
    vals = np.polynomial.polynomial.polyval(z, monic)
    assert np.max(np.abs(vals)) <= bound * (1.0 + 1e-12)


def test_second_kind_negates_coefficients(rng):
    c = complex_alphas(rng, 4)
    psi = second_kind(c, 4)
    ref = szego_recursion(c.negated(), 4)
    assert np.allclose(psi.phi, ref.phi)
    assert np.isclose(psi.kappa, ref.kappa)


def test_popuc_zeros_unimodular_and_simple(rng):
    for _ in range(25):
        n = int(rng.integers(1, 8))
        c = complex_alphas(rng, n)
        omega = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        para = popuc(c, n, omega)
        assert para.degree == n + 1
        assert np.max(np.abs(np.abs(para.zeros) - 1.0)) < 1e-10
        if len(para.zeros) > 1:
            gaps = np.abs(para.zeros[:, None] - para.zeros[None, :])
            gaps += np.eye(len(para.zeros))
            assert np.min(gaps) > 1e-6


def test_popuc_rejects_interior_omega():
    c = VerblunskyCoeffs.finitely_supported([0.3])
    with pytest.raises(InvalidParameterError):
        popuc(c, 1, 0.5)


def test_popuc_point_measure_is_probability(rng):
    c = complex_alphas(rng, 4)
    measure = popuc_point_measure(c, 4, 1.0)
    assert np.all(measure.weights > 0.0)
    assert np.isclose(np.sum(measure.weights), 1.0, atol=1e-10)
    assert np.isclose(measure.moment(0), 1.0, atol=1e-10)


def _christoffel_sum_mp(alpha, zeros, dps=50):
    """sum_{k<=n} kappa_k^2 |Phi_k(z)|^2 at each point, in dps-digit arithmetic.

    Phi_k and Phi_k* are stepped in monic form (Simon, OPUC 1.5.1-2),
    Phi_{k+1} = z Phi_k - conj(alpha_k) Phi_k*, Phi_{k+1}* = Phi_k* - alpha_k z Phi_k,
    and kappa_k^2 = prod_{j<k} 1/(1 - |alpha_j|^2).
    """
    with mpmath.workdps(dps):
        al = [mpmath.mpc(complex(a)) for a in alpha]
        steps, kappa_sq = [], mpmath.mpf(1)
        for a in al:
            kappa_sq /= 1 - (a.real**2 + a.imag**2)
            steps.append((a, mpmath.conj(a), kappa_sq))
        out = []
        for z0 in zeros:
            z = mpmath.mpc(complex(z0))
            phi, star, total = mpmath.mpc(1), mpmath.mpc(1), mpmath.mpf(1)
            for a, a_bar, k_sq in steps:
                zphi = z * phi
                phi, star = zphi - a_bar * star, star - a * zphi
                total += k_sq * (phi.real**2 + phi.imag**2)
            out.append(total)
        return out


def _spiral_alphas(n):
    """Complex alpha_k = 0.6 e^{0.7ik} 1.15^-k, so alpha and conj(alpha) differ."""
    k = np.arange(n)
    return VerblunskyCoeffs(alpha=0.6 * np.exp(0.7j * k) * 1.15 ** -k)


@pytest.mark.parametrize(
    ("coeffs", "n", "omega"),
    [
        (parse_alpha_spec("geometric:C=-0.7,R=1.1", 300), 300, 1j),
        (parse_alpha_spec("geometric:C=0.5,R=3", 128), 128, 1.0),
        (_spiral_alphas(120), 120, np.exp(0.4j)),
        (VerblunskyCoeffs.finitely_supported([0.3 + 0.4j, -0.5j, 0.2, 0.6 - 0.1j]), 40, -1.0),
    ],
)
def test_popuc_weights_match_high_precision_christoffel_sum(coeffs, n, omega):
    """Weights are 1/sum |phi_k(z_j)|^2 at the returned zeros to 1e-13 relative."""
    measure = popuc_point_measure(coeffs, n, omega)
    sums = _christoffel_sum_mp(coeffs.slice(n), measure.zeros)
    want = np.array([float(1 / s) for s in sums])
    assert np.max(np.abs(measure.weights - want) / want) < 1e-13


@pytest.mark.parametrize("n", [1, 3, 12, 40])
def test_popuc_average_reuses_one_recursion_bitwise(rng, n):
    """The average check sees the zeros and weights of per-omega calls exactly."""
    c = VerblunskyCoeffs.finitely_supported(
        0.5 * 1.25 ** -np.arange(n) * np.exp(2j * np.pi * rng.uniform(size=n)))
    omegas = roots_of_unity(2 * n + 2)
    for k in (0, 1, -n):
        avg, _ = popuc_average_check(c, n, omegas, k)
        per_omega = [popuc_point_measure(c, n, w) for w in omegas]
        assert avg == complex(np.mean([m.moment(k) for m in per_omega]))
    phi = opuc._monic(c, n)
    for w, m in zip(omegas, per_omega):
        zeros = opuc._paraorthogonal(phi, complex(w)).zeros
        assert zeros.tobytes() == m.zeros.tobytes()
        weights = opuc._christoffel_weights(c.slice(n), zeros)
        assert weights.tobytes() == m.weights.tobytes()


def test_bernstein_szego_order_zero_is_lebesgue():
    c = VerblunskyCoeffs.finitely_supported([0.5])
    measure = bernstein_szego(c, 0, grid_size=256)
    assert np.allclose(measure.weight, 1.0)


def test_bernstein_szego_closed_form_weight():
    """alpha_0 = 1/2: weight (1 - 1/4)/|z - 1/2|^2 on the circle."""
    c = VerblunskyCoeffs.finitely_supported([0.5])
    measure = bernstein_szego(c, 1, grid_size=512)
    z = measure.points()
    assert np.allclose(measure.weight, 0.75 / np.abs(z - 0.5) ** 2)
    assert np.isclose(np.mean(measure.weight), 1.0, atol=1e-12)


def test_bernstein_szego_names_a_resolving_grid():
    """Five alphas of 1/2 put a zero of phi_5* at radius 1.0055: 4096 points alias."""
    c = VerblunskyCoeffs.finitely_supported([0.5] * 5)
    with pytest.raises(AliasingError, match="use grid_size >= 8192"):
        bernstein_szego(c, 5, 4096)
    measure = bernstein_szego(c, 5, 8192)
    assert abs(np.mean(measure.weight) - 1.0) < 1e-13
    # a subnormal last alpha leaves phi_2* of numerical degree 1
    c = VerblunskyCoeffs.finitely_supported([0.99999, 1e-320])
    with pytest.raises(AliasingError, match="radius 1.00001"):
        bernstein_szego(c, 2, 4096)


def test_bernstein_szego_matches_low_moments(rng):
    """The degree-n approximant reproduces moments up to order n."""
    c = complex_alphas(rng, 3)
    full = bernstein_szego(c, 5)
    cut = bernstein_szego(c, 3)
    for k in range(-3, 4):
        assert np.isclose(cut.moment(k), full.moment(k), atol=1e-12)


def test_popuc_average_matches_cut_measure(rng):
    c = complex_alphas(rng, 3)
    omegas = roots_of_unity(10)
    for k in range(-3, 4):
        avg, ref = popuc_average_check(c, 3, omegas, k)
        assert abs(avg - ref) < 1e-12


def test_popuc_average_guards():
    c = VerblunskyCoeffs.finitely_supported([0.4, -0.2])
    with pytest.raises(AliasingError):
        popuc_average_check(c, 2, roots_of_unity(4), 1)
    with pytest.raises(InvalidParameterError):
        popuc_average_check(c, 2, roots_of_unity(8), 3)
    with pytest.raises(InvalidParameterError):
        popuc_average_check(c, 2, 0.5 * roots_of_unity(8), 1)


@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_popuc_average_property(seed, n):
    """Averaging is exact for every draw once the omega grid is dense enough."""
    gen = np.random.default_rng(seed)
    c = real_alphas(gen, n, scale=0.6)
    avg, ref = popuc_average_check(c, n, roots_of_unity(2 * n + 2), n)
    assert abs(avg - ref) < 1e-10


def test_circle_measure_validation():
    with pytest.raises(InvalidParameterError):
        CircleMeasure(weight=np.ones(100))  # not a power of two
    with pytest.raises(InvalidParameterError):
        CircleMeasure(weight=2.0 * np.ones(64))  # mass 2
    with pytest.raises(InvalidParameterError):
        CircleMeasure(weight=np.ones(64), point_masses=((1.0 + 0.0j, 0.5),))
    with pytest.raises(InvalidParameterError):
        CircleMeasure(weight=0.5 * np.ones(64), point_masses=((2.0 + 0.0j, 0.5),))


def test_circle_measure_moments_with_atom():
    measure = CircleMeasure(weight=0.6 * np.ones(128), point_masses=((1.0j, 0.4),))
    assert np.isclose(measure.moment(0), 1.0)
    assert np.isclose(measure.moment(2), 0.4 * (1.0j) ** (-2))


def test_caratheodory_lebesgue_and_atom():
    lebesgue = CircleMeasure.lebesgue(256)
    for z in (0.0, 0.3 - 0.4j):
        assert np.isclose(caratheodory(lebesgue, z), 1.0, atol=1e-12)
    mixed = CircleMeasure(weight=0.8 * np.ones(256), point_masses=((1.0, 0.2),))
    z = 0.37 + 0.11j
    expected = 0.8 + 0.2 * (1.0 + z) / (1.0 - z)
    assert np.isclose(caratheodory(mixed, z), expected, atol=1e-12)


def test_caratheodory_positive_real_part(rng):
    c = complex_alphas(rng, 4)
    measure = bernstein_szego(c, 4, grid_size=1024)
    zs = 0.95 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 20))
    for z in zs:
        val = caratheodory(measure, complex(z))
        assert val.real > 0.0
    assert np.isclose(caratheodory(measure, 0.0), 1.0, atol=1e-12)
    with pytest.raises(DomainError):
        caratheodory(measure, 1.0)


def test_roots_of_unity():
    w = roots_of_unity(8)
    assert np.allclose(np.abs(w), 1.0)
    assert np.isclose(np.sum(w), 0.0, atol=1e-14)
    assert np.allclose(w**8, 1.0)
