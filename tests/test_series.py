"""Truncated Taylor/Laurent series containers and their arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegojost.errors import DomainError, InvalidParameterError
from szegojost.series import (
    LaurentSeries,
    TaylorSeries,
    taylor_exp,
    taylor_mul,
    taylor_reciprocal,
)


def test_taylor_evaluation_and_order():
    ts = TaylorSeries([1.0, -0.5, 0.25])
    assert ts.order == 2
    z = np.array([0.0, 0.3, -1.0 + 0.2j])
    expected = 1.0 - 0.5 * z + 0.25 * z**2
    assert np.allclose(ts(z), expected)


def test_taylor_truncation_pads_and_cuts():
    ts = TaylorSeries(np.arange(5.0))
    cut = ts.truncated(2)
    assert cut.order == 2
    assert np.all(cut.coeffs == [0.0, 1.0, 2.0])
    padded = ts.truncated(7)
    assert padded.order == 7
    assert np.all(padded.coeffs[5:] == 0.0)
    with pytest.raises(InvalidParameterError):
        ts.truncated(-1)


def test_taylor_is_real():
    assert TaylorSeries([1.0, -2.0]).is_real()
    assert not TaylorSeries([1.0, 1e-8j]).is_real()
    assert TaylorSeries([1.0, 1e-8j]).is_real(tol=1e-6)


def test_taylor_note_does_not_affect_equality():
    a = TaylorSeries([1.0, 2.0], note="unconverged")
    b = TaylorSeries([1.0, 2.0])
    assert a == b


def test_taylor_validation():
    with pytest.raises(InvalidParameterError):
        TaylorSeries(np.ones((2, 2)))
    with pytest.raises(InvalidParameterError):
        TaylorSeries([1.0, np.inf])
    with pytest.raises(InvalidParameterError):
        TaylorSeries([])


def test_taylor_mul_matches_convolution():
    a = TaylorSeries([1.0, 1.0])
    b = TaylorSeries([1.0, -1.0])
    prod = taylor_mul(a, b, order=2)
    assert np.allclose(prod.coeffs, [1.0, 0.0, -1.0])
    # default order is the min of the inputs
    assert taylor_mul(a, b).order == 1


def test_taylor_reciprocal_geometric():
    """1/(1 - z/2) has coefficients 2^-k."""
    a = TaylorSeries([1.0, -0.5])
    rec = taylor_reciprocal(a, order=10)
    assert np.allclose(rec.coeffs, 0.5 ** np.arange(11))
    ident = taylor_mul(a, rec, order=10)
    assert np.allclose(ident.coeffs, np.eye(11)[0])


def test_taylor_reciprocal_needs_constant_term():
    with pytest.raises(DomainError):
        taylor_reciprocal(TaylorSeries([0.0, 1.0]))


def _taylor_reciprocal_loop(c, order):
    """Verbatim copy of the loop before c[0], len(c) - 1 and np.dot were hoisted."""
    d = np.zeros(order + 1, dtype=complex)
    d[0] = 1.0 / c[0]
    for k in range(1, order + 1):
        jmax = min(k, len(c) - 1)
        acc = np.dot(c[1 : jmax + 1], d[k - 1 :: -1][:jmax])
        d[k] = -acc / c[0]
    return d


@given(st.integers(0, 2**31 - 1), st.integers(1, 300), st.integers(0, 400), st.booleans())
@settings(max_examples=100, deadline=None)
def test_taylor_reciprocal_matches_the_loop_bitwise(seed, length, order, zeros):
    """Same dot on the same slices: the series is the loop's, bit for bit,
    also past the end of ``c`` and with signed zeros among its entries."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, length) + 1j * rng.uniform(-1.0, 1.0, length)
    c[1:] *= rng.uniform(0.5, 1.0) ** np.arange(1, length)
    # |c_0| above the sum of the other moduli keeps every d_k finite
    c[0] *= (1.0 + np.sum(np.abs(c[1:]))) / abs(c[0])
    if zeros:
        for i in rng.integers(1, length, size=length // 3):
            c[i] = complex(*rng.choice([0.0, -0.0], size=2))
        c[0] = complex(-abs(c[0]), -0.0)
    got = taylor_reciprocal(TaylorSeries(c), order).coeffs
    assert got.tobytes() == _taylor_reciprocal_loop(c, order).tobytes()


def test_taylor_exp_coefficients():
    """exp(z) truncates to 1/k!."""
    e = taylor_exp(TaylorSeries([0.0, 1.0]), order=8)
    from math import factorial

    expected = [1.0 / factorial(k) for k in range(9)]
    assert np.allclose(e.coeffs, expected)


def test_taylor_exp_inverts_log_of_polynomial(rng):
    """exp(series) of log-samples reproduces reciprocal-of-series products."""
    g = TaylorSeries(rng.uniform(-0.3, 0.3, 6))
    e = taylor_exp(g, order=12)
    eminus = taylor_exp(TaylorSeries(-g.coeffs), order=12)
    ident = taylor_mul(e, eminus, order=12)
    assert np.allclose(ident.coeffs, np.eye(13)[0], atol=1e-13)


def _taylor_exp_scalar_loop(g, order):
    """Verbatim copy of the scalar double loop the dot-per-row form replaced."""
    e = np.zeros(order + 1, dtype=complex)
    e[0] = np.exp(g[0])
    for n in range(order):
        acc = 0.0 + 0.0j
        kmax = min(n, len(g) - 2)
        for k in range(kmax + 1):
            acc += (k + 1) * g[k + 1] * e[n - k]
        e[n + 1] = acc / (n + 1)
    return e


@pytest.mark.parametrize("length,order", [(1, 6), (2, 40), (9, 64), (65, 64), (300, 256),
                                          (513, 1024)])
def test_taylor_exp_matches_scalar_loop(rng, length, order):
    """One dot per coefficient keeps the old recursion's values to rounding."""
    g = rng.uniform(-0.5, 0.5, length) + 1j * rng.uniform(-0.5, 0.5, length)
    g[1:] *= 0.9 ** np.arange(1, length)
    got = taylor_exp(TaylorSeries(g), order).coeffs
    want = _taylor_exp_scalar_loop(g, order)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def _taylor_exp_dot_loop(g, order):
    """Verbatim copy of the dot-per-row loop before its output was kept reversed."""
    e = np.zeros(order + 1, dtype=complex)
    e[0] = np.exp(g[0])
    dg = np.arange(1, len(g)) * g[1:]
    for n in range(order):
        kmax = min(n, len(g) - 2)
        e[n + 1] = np.dot(dg[: kmax + 1], e[n - kmax : n + 1][::-1]) / (n + 1)
    return e


@given(st.integers(0, 2**31 - 1), st.integers(1, 300), st.integers(0, 400), st.booleans())
@settings(max_examples=100, deadline=None)
def test_taylor_exp_matches_the_dot_loop_bitwise(seed, length, order, zeros):
    """The reversed copy feeds each dot the same vector the reversed view did,
    also past the end of ``g`` and with signed zeros among its entries."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(-0.5, 0.5, length) + 1j * rng.uniform(-0.5, 0.5, length)
    g[1:] *= rng.uniform(0.5, 1.0) ** np.arange(1, length)
    if zeros:
        for i in rng.integers(0, length, size=length // 3 + 1):
            g[i] = complex(*rng.choice([0.0, -0.0], size=2))
    got = taylor_exp(TaylorSeries(g), order).coeffs
    assert got.tobytes() == _taylor_exp_dot_loop(g, order).tobytes()


def test_laurent_indexing_and_tails():
    ls = LaurentSeries([5.0, 3.0, 1.0, 2.0, 4.0])  # c_{-2}..c_2
    assert ls.order == 2
    assert ls.coeff(0) == 1.0
    assert ls.coeff(2) == 4.0
    assert ls.coeff(-2) == 5.0
    assert ls.coeff(7) == 0.0
    assert np.all(ls.positive_tail() == [2.0, 4.0])
    assert np.all(ls.negative_tail() == [3.0, 5.0])


def test_laurent_evaluation():
    ls = LaurentSeries([5.0, 3.0, 1.0, 2.0, 4.0])
    z = 0.7 - 0.2j
    direct = sum(ls.coeff(k) * z**k for k in range(-2, 3))
    assert np.isclose(ls(z), direct)
    with pytest.raises(DomainError):
        ls(0.0)


def test_laurent_from_tails_round_trip():
    ls = LaurentSeries.from_tails(1.5, [2.0, 4.0], [3.0, 5.0, 7.0])
    assert ls.coeff(0) == 1.5
    assert ls.coeff(2) == 4.0
    assert ls.coeff(-3) == 7.0
    assert ls.coeff(3) == 0.0


def test_laurent_needs_odd_length():
    with pytest.raises(InvalidParameterError):
        LaurentSeries([1.0, 2.0])
