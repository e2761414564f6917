"""Circle recursion: orthonormal pairs, paraorthogonal zeros, approximants."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complex_alphas, monic_pair_two_buffers, real_alphas, zero_tail_coeffs
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
_polyval = np.polynomial.polynomial.polyval


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


def _monic_sequence(coeffs, n):
    """The Szego recursion as a generator of Phi_0 .. Phi_n, verbatim from
    before it became :func:`opuc._monic_pair`."""
    if n < 0:
        raise InvalidParameterError("order must be nonnegative")
    phi = np.ones(1, dtype=complex)
    yield phi
    for m in range(n):
        star = np.conj(phi[::-1])
        nxt = np.zeros(m + 2, dtype=complex)
        nxt[1:] = phi
        nxt[: m + 1] -= np.conj(coeffs.entry(m)) * star
        phi = nxt
        yield phi


@given(st.integers(0, 2**31 - 1), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_monic_pair_matches_the_generator_bitwise(seed, finite, past_end):
    """Complex alphas over twelve decades, some exactly 0; reading past a
    truncated sequence raises the generator's error."""
    gen = np.random.default_rng(seed)
    size = int(gen.integers(0, 300))
    alpha = gen.uniform(-0.7, 0.7, size) + 1j * gen.uniform(-0.7, 0.7, size)
    alpha *= 10.0 ** gen.uniform(-12.0, 0.0, size)
    alpha[gen.uniform(size=size) < 0.1] = 0.0
    coeffs = VerblunskyCoeffs.finitely_supported(alpha) if finite else VerblunskyCoeffs(alpha)
    n = size + int(gen.integers(1, 4)) if past_end else int(gen.integers(0, size + 1))
    try:
        want = list(_monic_sequence(coeffs, n))[-2:]
    except OutOfRangeError as exc:
        with pytest.raises(OutOfRangeError) as got:
            opuc._monic_pair(coeffs, n)
        assert str(got.value) == str(exc)
        return
    prev, last = opuc._monic_pair(coeffs, n)
    assert last.tobytes() == want[-1].tobytes()
    assert (prev is None) if n == 0 else prev.tobytes() == want[0].tobytes()


def _has_negative_zero(a):
    return any(np.any((part == 0.0) & np.signbit(part)) for part in (a.real, a.imag))


@given(st.integers(0, 2**31 - 1), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_monic_pair_matches_the_two_buffer_loop_bitwise(seed, past):
    """Alpha ending in exact zeros of every sign: the steps skipped past the
    last nonzero alpha change no bit, also where Phi_m overflows.  No part of
    either polynomial is -0, which is what makes the skip exact."""
    coeffs = zero_tail_coeffs(seed)
    size = len(coeffs.alpha)
    n = size + past if coeffs.is_finitely_supported else max(size - past, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        prev, last = opuc._monic_pair(coeffs, n)
        want_prev, want_last = monic_pair_two_buffers(coeffs, n)
    assert last.tobytes() == want_last.tobytes()
    assert (prev is None) if n == 0 else prev.tobytes() == want_prev.tobytes()
    assert not _has_negative_zero(last)
    assert n == 0 or not _has_negative_zero(prev)


def _companion_zeros(coeffs, n, omega):
    """Paraorthogonal zeros from the companion matrix, verbatim from before
    they came from the cut-off CMV matrix."""
    phi = opuc._monic(coeffs, n)
    poly = np.zeros(n + 2, dtype=complex)
    poly[1:] = phi
    poly[: n + 1] -= np.conj(omega) * np.conj(phi[::-1])
    return np.polynomial.polynomial.polyroots(poly)


def _polished_zeros(alpha, omega, zeros, dps=50):
    """Each zero Newton-polished on z Phi_n - conj(omega) Phi_n*, built from
    the float alphas in dps-digit arithmetic, as doubles."""
    with mpmath.workdps(dps):
        phi = [mpmath.mpc(1)]
        for a in alpha:
            a_bar = mpmath.conj(mpmath.mpc(complex(a)))
            star = [mpmath.conj(c) for c in reversed(phi)]
            phi = [mpmath.mpc(0)] + phi
            for i, s in enumerate(star):
                phi[i] -= a_bar * s
        w_bar = mpmath.conj(mpmath.mpc(complex(omega)))
        poly = [mpmath.mpc(0)] + phi
        for i, c in enumerate(reversed(phi)):
            poly[i] -= w_bar * mpmath.conj(c)
        descending = poly[::-1]
        tiny = mpmath.mpf(10) ** (25 - dps)
        out = []
        for z0 in zeros:
            z = mpmath.mpc(complex(z0))
            for _ in range(20):
                val, slope = mpmath.polyval(descending, z, derivative=True)
                z -= val / slope
                if abs(val / slope) < tiny:  # quadratic: the next step is below 10^-dps
                    break
            else:
                raise AssertionError(f"Newton did not settle from {z0!r}")
            out.append(complex(z))
    out = np.array(out)
    gaps = np.abs(out[:, None] - out[None, :]) + np.eye(len(out))
    assert np.min(gaps) > 1e-10, "two zeros polished onto one"
    return out


def _zero_error(coeffs, n, omega, zeros):
    """Distance from each computed zero to the exact zero it polishes onto."""
    return float(np.max(np.abs(zeros - _polished_zeros(coeffs.slice(n), omega, zeros))))


def _nearest_error(zeros, exact):
    return float(np.max(np.min(np.abs(zeros[:, None] - exact[None, :]), axis=1)))


def test_popuc_zeros_match_50_digits_on_the_golden_input():
    """The ``popuc_n256`` input: 257 zeros within 1e-12 of their exact
    values, and no further off than the companion matrix put them."""
    coeffs = parse_alpha_spec("geometric:C=0.5,R=3", 256)
    zeros = popuc(coeffs, 256, 1.0).zeros
    exact = _polished_zeros(coeffs.slice(256), 1.0, zeros)
    err = float(np.max(np.abs(zeros - exact)))
    assert err < 1e-12
    assert err <= _nearest_error(_companion_zeros(coeffs, 256, 1.0), exact)


def test_popuc_zeros_match_50_digits_where_phi_star_nears_the_circle(rng):
    """phi_40* of this draw has a zero 3e-6 from the circle.  The companion
    matrix put the paraorthogonal zeros up to 1.2e-13 off; the weight sums
    of all 82 omegas now meet 1 to 1e-12 (the companion zeros: 9.6e-11)."""
    n = 40
    coeffs = complex_alphas(rng, n)
    omegas = roots_of_unity(2 * n + 2)
    worst = worst_companion = 0.0
    for w in omegas[::9]:
        zeros = popuc(coeffs, n, w).zeros
        exact = _polished_zeros(coeffs.slice(n), w, zeros)
        worst = max(worst, float(np.max(np.abs(zeros - exact))))
        worst_companion = max(worst_companion,
                              _nearest_error(_companion_zeros(coeffs, n, w), exact))
    assert worst < 1e-12
    assert worst <= worst_companion
    sums = [np.sum(popuc_point_measure(coeffs, n, w).weights) for w in omegas]
    assert np.max(np.abs(np.array(sums) - 1.0)) < 1e-12


@given(st.integers(0, 2**31 - 1), st.integers(0, 64))
@settings(max_examples=25, deadline=None)
def test_popuc_zeros_match_50_digits(seed, n):
    """|alpha_k| up to 0.999, where the companion matrix lost up to 8 digits."""
    gen = np.random.default_rng(seed)
    alpha = 0.999 * gen.uniform(size=n) ** gen.uniform(0.05, 1.0)
    coeffs = VerblunskyCoeffs(alpha * np.exp(2j * np.pi * gen.uniform(size=n)))
    omega = np.exp(2j * np.pi * gen.uniform())
    zeros = popuc(coeffs, n, omega).zeros
    assert _zero_error(coeffs, n, omega, zeros) < 1e-12


def _zero_at_first_pole(alpha):
    """omega for which e^{i phi} with the first pole phi of
    :func:`opuc._paraorthogonal_zeros` is itself a zero.

    On the circle Phi_n* = z^n conj(Phi_n), so z Phi_n / Phi_n* equals
    -z^(n + 1) exactly where Re(z^-n Phi_n) = 0; a root theta of that in
    (0, 2 pi / (n + 1)] is the first pole (arg conj(omega) + pi) / (n + 1)
    of the omega that makes e^{i theta} a zero.
    """
    n = len(alpha)
    phi = opuc._monic(VerblunskyCoeffs(alpha), n)
    re_phi = lambda t: (_polyval(np.exp(1j * t), phi) * np.exp(-1j * n * t)).real
    lo, hi = 1e-9, 2.0 * np.pi / (n + 1)
    assert re_phi(lo) * re_phi(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if re_phi(lo) * re_phi(mid) > 0.0 else (lo, mid)
    z = np.exp(1j * lo)
    b = z * _polyval(z, phi) / _polyval(z, np.conj(phi[::-1]))
    return complex(np.conj(b) / abs(b)), z


def test_popuc_moves_a_pole_that_lands_on_a_zero(monkeypatch):
    """A first pole on a zero gives a huge Cayley eigenvalue (or a singular
    solve); the second pole, mid widest gap, keeps every zero exact."""
    alpha = np.array([0.8j, 0.8, -0.8j])
    coeffs = VerblunskyCoeffs.finitely_supported(alpha)
    omega, on_pole = _zero_at_first_pole(alpha)
    pole = (np.angle(np.conj(omega)) + np.pi) / 4
    _, t_max = opuc._cayley_angles(alpha, omega, pole)
    assert t_max > 1e3
    zeros = popuc(coeffs, 3, omega).zeros
    assert np.min(np.abs(zeros - on_pole)) < 1e-14
    assert _zero_error(coeffs, 3, omega, zeros) < 1e-14

    real_inv, calls = np.linalg.inv, []

    def singular_once(a):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", singular_once)
    again = popuc(coeffs, 3, omega).zeros
    assert len(calls) == 2
    assert _zero_error(coeffs, 3, omega, again) < 1e-14


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
    for w, m in zip(omegas, per_omega):
        zeros = opuc._paraorthogonal_zeros(c.slice(n), complex(w))
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


@pytest.mark.parametrize("n", [12, 40])
def test_popuc_average_reference_is_exact_where_a_grid_aliases(rng, n):
    """phi_n* of these draws has a zero within 0.3 % of the circle, so a
    4096-point grid aliases; the Caratheodory reference does not.

    At n = 40 the zero is 3e-6 from the circle.  The weights are exact at the
    zeros they are given, so the average is as good as the paraorthogonal
    zeros: with zeros from the companion matrix it missed by 1.6e-12.
    """
    c = complex_alphas(rng, n)
    with pytest.raises(AliasingError):
        bernstein_szego(c, n)
    omegas = roots_of_unity(2 * n + 2)
    grid = bernstein_szego(c, n, 16384) if n == 12 else None
    for k in range(-n, n + 1):
        avg, ref = popuc_average_check(c, n, omegas, k)
        assert abs(avg - ref) < 1e-12
        if grid is not None:
            assert abs(grid.moment(k) - ref) < 1e-13


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


def _christoffel_weights_loop(alpha, z):
    """Verbatim copy of the loop before it updated its arrays in place."""
    rho = np.sqrt(1.0 - np.abs(alpha) ** 2)
    phi = np.ones(len(z), dtype=complex)
    star = np.ones(len(z), dtype=complex)
    acc = np.ones(len(z))
    for a, r in zip(alpha.tolist(), rho.tolist()):
        zphi = z * phi
        phi, star = (zphi - a.conjugate() * star) / r, (star - a * zphi) / r
        acc += phi.real**2 + phi.imag**2
    return 1.0 / acc


@given(st.integers(0, 2**31 - 1), st.integers(0, 300), st.integers(1, 300), st.booleans())
@settings(max_examples=100, deadline=None)
def test_christoffel_weights_match_the_loop_bitwise(seed, n, points, on_circle):
    """Complex alphas over twelve decades (some exactly 0), at points on the
    circle or anywhere in the plane."""
    gen = np.random.default_rng(seed)
    alpha = gen.uniform(-0.7, 0.7, n) + 1j * gen.uniform(-0.7, 0.7, n)
    alpha *= 10.0 ** gen.uniform(-12.0, 0.0, n)
    alpha[gen.uniform(size=n) < 0.1] = 0.0
    z = np.exp(1j * gen.uniform(0.0, 2.0 * np.pi, points))
    if not on_circle:
        z *= gen.uniform(0.0, 1.5, points)
    got = opuc._christoffel_weights(alpha, z)
    assert got.tobytes() == _christoffel_weights_loop(alpha, z).tobytes()
