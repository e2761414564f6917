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
from .opuc import CircleMeasure, VerblunskyCoeffs, _monic, _monic_pair
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

    Once alpha_m is exactly 0 the recursion is a pure shift, Phi_{m+1} =
    z Phi_m, so Phi_n* stops changing: :func:`~szegojost.opuc._monic_pair`
    runs no step past the last nonzero alpha, with the same bits as running
    them (a truncated spec whose alphas underflow to 0 is the finitely
    supported case from there on).  The series then ends in exact zeros,
    which :func:`_r_by_product` skips.

    The series is cached on ``coeffs`` under ``("dinv", order)`` for the
    lifetime of that instance, and its coefficient array is read-only.  A
    repeated call returns the same object and, when the series carries a
    note, emits the :class:`ConvergenceWarning` again at the caller's line.
    """
    if order < 1:
        raise InvalidParameterError("series order must be >= 1")
    key = ("dinv", order)
    cached = coeffs._cache.get(key)
    if cached is not None:
        if cached.note:
            warnings.warn(cached.note, ConvergenceWarning, stacklevel=2)
        return cached
    steps = len(coeffs.alpha) + (1 if coeffs.is_finitely_supported else 0)
    if steps < 1:
        raise InvalidParameterError("truncated coefficients are empty")
    prev, last = _monic_pair(coeffs, steps)
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
            warnings.warn(note, ConvergenceWarning, stacklevel=2)
    series = TaylorSeries(c, note=note)
    series.coeffs.setflags(write=False)
    coeffs._cache[key] = series
    return series


def _star_coeffs(coeffs: VerblunskyCoeffs, monic: np.ndarray, n: int, order: int) -> np.ndarray:
    """kappa_n * Phi_n* from the monic Phi_n, cut or zero-padded to order + 1."""
    star = coeffs.kappa(n) * np.conj(monic[::-1])
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
    phi_next = _monic(coeffs, n + 1)
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
    phi_n = _monic(coeffs, n)
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
    c[1:] = -coeffs.slice(order)
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
    points): the values of 1/D at the ``size`` roots of unity come from one
    inverse FFT of its coefficients folded modulo ``size`` (exact also when
    the series is longer than the grid), and the coefficients of r from one
    forward FFT of (1/D) / conj(1/D) there.  ``method="product"`` convolves
    the reflected-D series with the 1/D series, which keeps relative
    accuracy deep into the tails and is what the wide-annulus checks use;
    it calls :func:`_r_by_product` for -order..order, which also makes its
    checks (a nonzero constant term, ``order <= dinv.order``).
    """
    if method == "product":
        return LaurentSeries(_r_by_product(dinv, -order, order))
    _require_constant_term(dinv)
    if method == "grid":
        size = grid_size or max(512, _next_pow2(8 * (order + 1)))
        rows = -(-len(dinv.coeffs) // size)
        folded = np.zeros(rows * size, dtype=complex)
        folded[: len(dinv.coeffs)] = dinv.coeffs
        vals = size * np.fft.ifft(folded.reshape(rows, size).sum(axis=0))
        ratio = vals / np.conj(vals)
        hat = np.fft.fft(ratio) / size
        return LaurentSeries(hat[np.arange(-order, order + 1) % size])
    raise InvalidParameterError(f"unknown method {method!r}")


def _r_by_product(dinv: TaylorSeries, lowest: int, order: int) -> np.ndarray:
    """Coefficients r_lowest .. r_order of r by the product method.

    r_k = sum_m conj(D_m) (1/D)_{m+k}, one ``np.dot`` per k, so each
    coefficient is the same whatever range is asked for.  ``r_series``
    takes -order..order; the r - S suite reads only the Taylor half
    0..order and builds nothing else.

    Past ``top``, the last nonzero index of 1/D, the work is cut without
    changing a bit:

    - For k > top, r_k is a dot of D with zeros only.  A dot of two or more
      terms sums from +0, so it is +0+0j, which ``c`` already holds.  The
      dot at k = N (the order of 1/D) has one term, a plain product that
      keeps the signs of its zeros, so it is computed as before.
    - For 0 <= k <= top, each D_m with m > top meets a zero of 1/D.  So the
      Taylor half builds D only through ``top`` (the same dots) and leaves
      +0 past it; every dot keeps its length and so its summation order.

    Both need finite D_m, as inf * 0 is nan.  When 1/D is kappa Phi_n*, as
    :func:`dinv_from_alphas` gives it once its order reaches the degree,
    Phi_n* has no zeros in the closed unit disk and D is the Szego function
    of a probability measure, so sum |D_m|^2 <= 1.  Negative k read D up to
    index N, so a range that starts below 0 builds all of it.
    """
    _require_constant_term(dinv)
    length = dinv.order
    if order > length:
        raise InvalidParameterError(
            "product method needs dinv order >= requested Laurent order"
        )
    c_dinv = dinv.coeffs
    top = int(np.flatnonzero(c_dinv)[-1])
    built = length if lowest < 0 else top
    d_conj = np.zeros(length + 1, dtype=complex)
    d_conj[: built + 1] = np.conj(taylor_reciprocal(dinv, built).coeffs)
    dot = np.dot
    c = np.zeros(order - lowest + 1, dtype=complex)
    # m runs over max(0, -k) .. length - max(0, k)
    for k in range(lowest, min(0, order + 1)):
        c[k - lowest] = dot(d_conj[-k : length + 1], c_dinv[: length + k + 1])
    taylor = range(max(0, lowest), min(top, order) + 1)
    if top < length == order and lowest <= length:
        taylor = [*taylor, length]
    for k in taylor:
        c[k - lowest] = dot(d_conj[: length - k + 1], c_dinv[k : length + 1])
    return c


def _require_constant_term(dinv: TaylorSeries) -> None:
    if abs(dinv.coeffs[0]) < 1e-280:
        raise PoleError(0.0, context="reciprocal Szego series has no constant term")


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p
