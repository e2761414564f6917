"""Szego-function layer: D(z) and its reciprocal, the coefficient series S(z),
the reflected ratio r(z), and the two integral formulas recovering alpha_n.

The reciprocal Szego function is built from polynomial limits of the starred
orthonormal polynomials (exact for finitely supported coefficients); the
weight-side construction of D itself lives in :func:`d_from_weight`.
"""

import math
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
from .series import TaylorSeries, _ascoeffs, taylor_exp, taylor_reciprocal

__all__ = [
    "dinv_from_alphas",
    "d_from_weight",
    "recover_alpha_geronimus_freud",
    "recover_alpha_simon",
    "s_series",
    "r_series",
]

# how far sum |r_k|^2 may exceed 1 before r_series refuses
_PARSEVAL_SLACK = 1e-9
# log (2^-110 / 2)^2: the terms of D left out may move r_k by 2^-110 of its size,
# halved for rounding
_FELT_LOG_BOUND = -222.0 * math.log(2.0)


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
    which :func:`_reflected_d` and :func:`_r_dots` skip.

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
    note = None
    # an overflow leaves non-finite coefficients, which TaylorSeries refuses
    with np.errstate(over="ignore", invalid="ignore"):
        c = _star_coeffs(coeffs, last, steps, order)
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
    vals = np.conj(np.polynomial.polynomial.polyval(zeta, phi_next)) * dinv(zeta)
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
    vals = np.conj(np.polynomial.polynomial.polyval(zeta, phi_n)) * centered * np.conj(zeta)
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


def r_series(dinv: TaylorSeries, order: int = 64) -> np.ndarray:
    """Laurent coefficients r_{-order} .. r_order of r(z) = conj(D(1/conj(z))) / D(z).

    The array has length 2 * order + 1, with r_0 at index ``order``.  On the
    unit circle r has modulus one and equals P / conj(P) for the polynomial
    P = 1/D of ``dinv``, so each coefficient is the finite sum
    r_k = sum_j P_j conj(D_{j-k}) over the nonzero P_j: no grid and no
    truncation of D.  :func:`_reflected_d` builds conj(D) as far as the
    range needs and makes the checks (a nonzero constant term, then
    ``order <= dinv.order``); :func:`_r_dots` takes one ``np.dot`` per k,
    the same loop the r - S suite runs on its own range.  A coefficient
    that is not finite raises :class:`InvalidParameterError`.

    A unimodular r has sum_k |r_k|^2 = 1 (Parseval), so the sum over
    -order .. order is at most 1.  When the computed sum exceeds 1 by more
    than ``_PARSEVAL_SLACK`` (1e-9, far above the rounding of the sums on a
    zero-free P), :class:`PreconditionError` names it: either P has a zero
    in the closed unit disk, as a truncated tail near R = 1 can give it,
    and the sums are a formal product, or rounding has swamped them.  Such
    a zero may leave the sum below 1, so :func:`_require_zero_free` then
    runs the Schur-Cohn test on P.
    """
    r = _ascoeffs(_r_dots(dinv, _reflected_d(dinv, -order, order), -order, order))
    energy = float(np.sum(r.real**2 + r.imag**2))
    if energy > 1.0 + _PARSEVAL_SLACK:
        raise PreconditionError(
            f"sum of |r_k|^2 over k = -{order} .. {order} is {energy!r}, above 1: 1/D has a "
            "zero in the closed unit disk or rounding swamped r"
        )
    _require_zero_free(dinv)
    return r


def _require_zero_free(dinv: TaylorSeries) -> None:
    """Raise :class:`PreconditionError` unless P = 1/D has no zero in the closed unit disk.

    The Schur-Cohn test: Phi = (P / P_0)* is monic, and the inverse Szego
    recursion beta_n = -conj(Phi_{n+1}(0)),
    Phi_n = (Phi_{n+1} + conj(beta_n) Phi*_{n+1}) / (z (1 - |beta_n|^2)), takes
    it down to degree 0.  Every zero of Phi lies in the open disk, so every
    zero of P outside the closed one, exactly when every |beta_n| < 1.
    """
    c = dinv.coeffs
    top = int(np.flatnonzero(c)[-1])
    phi = np.conj(c[top::-1] / c[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(top - 1, -1, -1):
            # Phi_{n+1}(0) = -conj(beta_n), and z divides Phi_{n+1} + conj(beta_n) Phi*_{n+1}
            lead = complex(phi[0])
            if not abs(lead) < 1.0:
                raise PreconditionError(
                    f"1/D has a zero in the closed unit disk: the Schur-Cohn test gives "
                    f"|beta_{n}| = {abs(lead)!r}, not below 1"
                )
            phi = (phi[1:] - lead * np.conj(phi[-2::-1])) / (1.0 - abs(lead) ** 2)


def _r_dots(dinv: TaylorSeries, d_conj: np.ndarray, lowest: int, highest: int) -> np.ndarray:
    """r_lowest .. r_highest from ``d_conj`` of :func:`_reflected_d`, one ``np.dot`` per k.

    r_k = sum_j (1/D)_j conj(D_{j-k}), j running over 0 .. ``top``, the last
    nonzero index of 1/D.  For k < 0 that is a dot of conj(D_{-k}) ..
    conj(D_{top-k}) with the nonzero head of 1/D.  For k >= 0 the dot runs
    over m = j - k = 0 .. N - k, N the order of 1/D, and has the same length
    and operands whatever range is asked for, so each r_k has the same bits
    in every range.  Past ``top`` its work is cut without changing a bit:

    - For top < k < N, r_k is a dot of D with zeros only.  A dot of two or
      more terms sums from +0, so it is +0+0j, which the output already
      holds.  The dot at k = N has one term, a plain product that keeps the
      signs of its zeros, so it is computed.
    - For 0 <= k <= top, each D_m with m > top meets a zero of 1/D, so
      ``d_conj`` may hold +0 past ``top``.  That needs finite D_m, as
      inf * 0 is nan.  When 1/D is kappa Phi_n*, as :func:`dinv_from_alphas`
      gives it once its order reaches the degree, Phi_n* has no zeros in
      the closed unit disk and D is the Szego function of a probability
      measure: sum |D_m|^2 <= 1.  :func:`_taylor_r` then has ``d_conj``
      hold +0 past an index M where the terms it drops move no r_k.

    The r - S suite calls it, through :func:`_taylor_r`, on one ``d_conj``
    for the trailing half of r and for the chunks of its signal prefix.
    """
    c_dinv = dinv.coeffs
    length = dinv.order
    top = int(np.flatnonzero(c_dinv)[-1])
    head = c_dinv[: top + 1]
    dot = np.dot
    c = np.zeros(highest - lowest + 1, dtype=complex)
    for k in range(lowest, min(0, highest + 1)):
        c[k - lowest] = dot(d_conj[-k : top - k + 1], head)
    taylor = range(max(0, lowest), min(top, highest) + 1)
    if top < length == highest and lowest <= length:
        taylor = [*taylor, length]
    for k in taylor:
        c[k - lowest] = dot(d_conj[: length - k + 1], c_dinv[k : length + 1])
    return c


def _reflected_d(dinv: TaylorSeries, lowest: int, order: int,
                 through: int | None = None) -> np.ndarray:
    """conj(D_m) from m = 0 for r_lowest .. r_order, at least N + 1 of them, N the order of 1/D.

    Raises :class:`PoleError` when 1/D has no constant term, then
    :class:`InvalidParameterError` when ``order > dinv.order``.  D is built
    through top - min(lowest, 0), ``top`` the last nonzero index of 1/D,
    which is as far as :func:`_r_dots` reads it, and left at +0 from there
    to index N.  ``through`` builds it no further than that index, the M
    that :func:`_taylor_r` picks when 1/D is all of kappa_s Phi_s*: with
    sum |D_m|^2 = 1, the terms m > M of
    r_k = sum_m conj(D_m) (1/D)_{m+k} sum to at most ||(1/D)_{>M+k}||_2
    (Cauchy-Schwarz), and M is the smallest index with

        2 ||(1/D)_{>M+k}||_2 <= 2^-110 |D_0| |(1/D)_k|  for k = 0 .. min(top, order),

    the factor 2 covering rounding.
    """
    _require_constant_term(dinv)
    length = dinv.order
    if order > length:
        raise InvalidParameterError("r needs dinv order >= requested Laurent order")
    top = int(np.flatnonzero(dinv.coeffs)[-1])
    built = top - min(lowest, 0)
    if through is not None:
        built = min(built, through)
    d_conj = np.zeros(max(length, built) + 1, dtype=complex)
    d_conj[: built + 1] = np.conj(taylor_reciprocal(dinv, built).coeffs)
    return d_conj


def _taylor_r(coeffs: VerblunskyCoeffs, dinv: TaylorSeries, order: int):
    """The function (lowest, highest) -> r_lowest .. r_highest, 0 <= lowest <= highest <= order.

    ``dinv`` is ``dinv_from_alphas(coeffs, order)``, and the calls run
    :func:`_r_dots` on one conj(D) of :func:`_reflected_d`.  When the alphas
    vanish from an index s <= ``order`` (read off their support, not off
    the last nonzero entry of 1/D, as a polynomial cut at the order may end
    in zeros too), 1/D is all of kappa_s Phi_s* and D is first built only
    through the M of the bound that :func:`_reflected_d` states, so each
    dropped part of r_k lies far below the last bit of its m = 0 term.
    Otherwise D is built through ``top``, the last nonzero index of 1/D,
    and every range returns as formed.  The sum r_k may be smaller than its
    m = 0 term, far smaller where it cancels (an alpha_{k-1} of 0 inside a
    decaying tail does it), and a dropped part would then show.  So the r_k
    of each range are checked against the same bound with |r_k| in place of
    |D_0| |(1/D)_k|, and where one fails it, D is built through the M that
    they all meet and the range is formed again.  A zero (1/D)_k or r_k
    asks for every term through ``top``.

    The norms are taken as logs of sums of squares, since a square below
    1e-308 would underflow: one cumulative log-sum from the top down gives
    every tail, and one ``searchsorted`` the smallest M + k for each k.
    """
    _require_constant_term(dinv)
    top = int(np.flatnonzero(dinv.coeffs)[-1])
    with np.errstate(divide="ignore"):
        log_sq = 2.0 * np.log(np.abs(dinv.coeffs[: top + 1]))
    # tails[t] = log sum_{i >= top - t} |(1/D)_i|^2, nondecreasing in t
    tails = np.logaddexp.accumulate(log_sq[::-1])

    def reach(ks: np.ndarray, log_sq_size: np.ndarray) -> int:
        """The smallest M with 2 ||(1/D)_{>M+k}||_2 <= 2^-110 size_k for each k."""
        # the smallest such M + k is top less the count of tails within the
        # bound, and a bound of -inf leaves only the empty tail, M + k = top
        count = np.searchsorted(tails, log_sq_size + _FELT_LOG_BOUND, side="right")
        return max(0, int(np.max(top - count - ks)))

    built = top
    if _support_end(coeffs) <= order:
        ks = np.arange(min(top, order) + 1)
        # |D_0| = 1 / |(1/D)_0|
        built = reach(ks, log_sq[ks] - log_sq[0])
    d_conj = _reflected_d(dinv, 0, order, through=built)

    def r_range(lowest: int, highest: int) -> np.ndarray:
        nonlocal built
        while True:
            r = _r_dots(dinv, d_conj, lowest, highest)
            ks = np.arange(lowest, min(top, highest) + 1)
            if built >= top or not ks.size:
                return r
            with np.errstate(divide="ignore"):
                need = reach(ks, 2.0 * np.log(np.abs(r[: ks.size])))
            if need <= built:
                return r
            built = need
            d_conj[: built + 1] = np.conj(taylor_reciprocal(dinv, built).coeffs)

    return r_range


def _support_end(coeffs: VerblunskyCoeffs) -> int:
    """One past the last nonzero stored alpha, or 0 when none is."""
    support = np.flatnonzero(coeffs.alpha)
    return int(support[-1]) + 1 if support.size else 0


def _require_constant_term(dinv: TaylorSeries) -> None:
    if abs(dinv.coeffs[0]) < 1e-280:
        raise PoleError(0.0, context="reciprocal Szego series has no constant term")

