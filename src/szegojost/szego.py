"""Szego-function layer: D(z) and its reciprocal, the coefficient series S(z),
the reflected ratio r(z), and the two integral formulas recovering alpha_n.

The reciprocal Szego function is built from polynomial limits of the starred
orthonormal polynomials (exact for finitely supported coefficients); the
weight-side construction of D itself lives in :func:`d_from_weight`.
"""

import warnings

import numpy as np

from .errors import (
    ConvergenceWarning,
    InvalidParameterError,
    PoleError,
    PreconditionError,
    SzegoConditionError,
)
from .opuc import CircleMeasure, VerblunskyCoeffs, _monic_sequence
from .series import LaurentSeries, TaylorSeries, taylor_exp, taylor_reciprocal

__all__ = [
    "dinv_from_alphas",
    "d_from_weight",
    "recover_alpha_geronimus_freud",
    "recover_alpha_simon",
    "s_series",
    "r_series",
]

_polyval = np.polynomial.polynomial.polyval


def dinv_from_alphas(coeffs: VerblunskyCoeffs, order: int = 64) -> TaylorSeries:
    """Taylor coefficients of 1/D = lim phi_n*.

    For finitely supported coefficients the limit is reached exactly after
    the support ends and the result is a polynomial; for truncated input the
    last two iterates are compared and an unconverged result carries a note
    (and emits :class:`ConvergenceWarning`).  The constant term is kappa_inf.
    """
    if order < 1:
        raise InvalidParameterError("series order must be >= 1")
    steps = len(coeffs.alpha) + (1 if coeffs.is_finitely_supported else 0)
    if steps < 1:
        raise InvalidParameterError("truncated coefficients are empty")
    monic = _monic_sequence(coeffs, steps)
    c = _star_coeffs(coeffs, monic, steps, order)
    if coeffs.is_finitely_supported:
        return TaylorSeries(c)
    prev_c = _star_coeffs(coeffs, monic, steps - 1, order)
    drift = float(np.max(np.abs(c - prev_c)))
    note = None
    if drift > 1e-12 * max(1.0, float(np.max(np.abs(c)))):
        note = (
            f"series unconverged: last step moved coefficients by {drift:.3e}; "
            "supply more coefficients"
        )
        warnings.warn(note, ConvergenceWarning, stacklevel=2)
    return TaylorSeries(c, note=note)


def _star_coeffs(coeffs: VerblunskyCoeffs, monic: list, n: int, order: int) -> np.ndarray:
    """kappa_n * Phi_n* from a monic sequence, cut or zero-padded to order + 1."""
    star = coeffs.kappa(n) * np.conj(monic[n][::-1])
    c = np.zeros(order + 1, dtype=complex)
    upto = min(order + 1, len(star))
    c[:upto] = star[:upto]
    return c


def d_from_weight(measure: CircleMeasure, order: int = 64) -> TaylorSeries:
    """Outer function D(z) = exp((1/2) * analytic completion of log w).

    The Fourier coefficients of log w on the grid give the Herglotz series
    g_0 + 2 sum_{k>=1} g_k z^k, and D is the series exponential of half of
    it.  |D(re^{i theta})|^2 approaches w as r -> 1.
    """
    if order < 1:
        raise InvalidParameterError("series order must be >= 1")
    if measure.point_masses:
        raise PreconditionError("the outer-function route needs a mass-free measure")
    grid = measure.grid_size
    if order >= grid // 2:
        raise InvalidParameterError(
            f"order {order} needs a weight grid larger than {2 * order}"
        )
    w = measure.weight
    if np.any(w <= 0.0):
        j = int(np.argmin(w))
        raise SzegoConditionError(
            f"weight sample {j} is {w[j]:.3e}; log-integrability fails"
        )
    hat = np.fft.fft(np.log(w)) / grid
    herglotz = np.zeros(order + 1, dtype=complex)
    herglotz[0] = hat[0].real
    herglotz[1:] = 2.0 * hat[1 : order + 1]
    return taylor_exp(TaylorSeries(0.5 * herglotz), order)


def _boundary_integral(measure: CircleMeasure, values: np.ndarray) -> complex:
    """Grid integral of sampled boundary values against the measure."""
    return complex(np.mean(measure.weight * values))


def recover_alpha_geronimus_freud(
    coeffs: VerblunskyCoeffs,
    measure: CircleMeasure,
    dinv: TaylorSeries,
    n: int,
) -> complex:
    """alpha_n = -kappa_inf * integral of conj(Phi_{n+1}) / D against d mu.

    ``coeffs`` supplies the monic polynomial of the measure; kappa_inf is
    read off the constant term of the reciprocal Szego series.  Requires a
    purely absolutely continuous measure.
    """
    if measure.point_masses:
        raise PreconditionError("the recovery integral needs a mass-free measure")
    kappa_inf = dinv.coeffs[0]
    zeta = measure.points()
    phi_next = _monic_sequence(coeffs, n + 1)[n + 1]
    vals = np.conj(_polyval(zeta, phi_next)) * dinv(zeta)
    return complex(-kappa_inf * _boundary_integral(measure, vals))


def recover_alpha_simon(
    coeffs: VerblunskyCoeffs,
    measure: CircleMeasure,
    dinv: TaylorSeries,
    n: int,
) -> complex:
    """alpha_n from the iterated-recursion formula.

    alpha_n = -kappa_inf^{-1} kappa_n^2 * integral of
    conj(Phi_n) [1/D - 1/D(0)] e^{-i theta} d mu.  The integrand's size is
    controlled by the Taylor tail of 1/D past index n, which is the decay
    mechanism the radius checks rely on.
    """
    if measure.point_masses:
        raise PreconditionError("the recovery integral needs a mass-free measure")
    kappa_inf = dinv.coeffs[0]
    zeta = measure.points()
    phi_n = _monic_sequence(coeffs, n)[n]
    centered = dinv(zeta) - dinv.coeffs[0]
    vals = np.conj(_polyval(zeta, phi_n)) * centered * np.conj(zeta)
    kappa_n_sq = coeffs.kappa(n) ** 2
    return complex(-(kappa_n_sq / kappa_inf) * _boundary_integral(measure, vals))


def s_series(coeffs: VerblunskyCoeffs, order: int = 64) -> TaylorSeries:
    """S(z) = -sum_{j>=0} alpha_{j-1} z^j with alpha_{-1} = -1.

    So c_0 = 1 and c_j = -alpha_{j-1}; the radius of convergence matches the
    reciprocal Szego function's.
    """
    if order < 1:
        raise InvalidParameterError("series order must be >= 1")
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    for j in range(1, order + 1):
        c[j] = -coeffs.entry(j - 1)
    return TaylorSeries(c)


def r_series(
    dinv: TaylorSeries,
    order: int = 64,
    method: str = "grid",
    grid_size: int | None = None,
) -> LaurentSeries:
    """Laurent coefficients of r(z) = conj(D(1/conj(z))) / D(z).

    On the unit circle r has modulus one.  ``method="grid"`` reads the
    coefficients off boundary values by FFT (grid of at least 8 * order
    points); ``method="product"`` convolves the reflected-D series with the
    1/D series, which keeps relative accuracy deep into the tails and is what
    the wide-annulus checks use.
    """
    if abs(dinv.coeffs[0]) < 1e-280:
        raise PoleError(0.0, context="reciprocal Szego series has no constant term")
    if method == "grid":
        size = grid_size or max(512, _next_pow2(8 * (order + 1)))
        theta = 2.0 * np.pi * np.arange(size) / size
        zeta = np.exp(1j * theta)
        vals = dinv(zeta)
        ratio = vals / np.conj(vals)
        hat = np.fft.fft(ratio) / size
        c = np.zeros(2 * order + 1, dtype=complex)
        for k in range(-order, order + 1):
            c[k + order] = hat[k % size]
        return LaurentSeries(c)
    if method == "product":
        length = dinv.order
        if order > length:
            raise InvalidParameterError(
                "product method needs dinv order >= requested Laurent order"
            )
        c_dinv = dinv.coeffs
        d = taylor_reciprocal(dinv, length).coeffs
        c = np.zeros(2 * order + 1, dtype=complex)
        for k in range(-order, order + 1):
            m_lo = max(0, -k)
            m_hi = length - max(0, k)
            if m_hi < m_lo:
                continue
            ms = np.arange(m_lo, m_hi + 1)
            c[k + order] = np.dot(np.conj(d[ms]), c_dinv[ms + k])
        return LaurentSeries(c)
    raise InvalidParameterError(f"unknown method {method!r}")


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p
