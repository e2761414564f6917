"""Jost-function layer on the real-line side.

Finite-range Jost polynomials, the real coefficient map between Verblunsky
and Jacobi parameters, the scaled reciprocal-Szego route to u(z), the
Jacobi-side coefficient series B(z), M-functions in the Joukowski variable,
and Blaschke products.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (
    DomainError,
    InvalidParameterError,
    NumericalDegeneracyError,
    PoleError,
)
from .oprl import JacobiParams, PointMeasure, orthonormal_poly_coeffs
from .opuc import VerblunskyCoeffs
from .series import TaylorSeries
from .szego import dinv_from_alphas

__all__ = [
    "JostData",
    "jost_g_ell",
    "finite_range_jost_data",
    "geronimus_deltas",
    "geronimus_map",
    "u_from_dinv",
    "m_function",
    "m_finite_range",
    "blaschke",
    "z_from_e",
    "e_from_z",
]

_EPS = np.finfo(float).eps


def e_from_z(z):
    """Joukowski map E = z + 1/z."""
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise DomainError("the Joukowski map needs z != 0")
    return z + 1.0 / z

def z_from_e(e: complex) -> complex:
    """The Joukowski preimage inside the closed unit disk.

    Root of z^2 - E z + 1 = 0 with |z| <= 1 (the two roots multiply to 1);
    |z| = 1 exactly when E lies on [-2, 2].
    """
    e = complex(e)
    s = np.sqrt(e * e - 4.0 + 0.0j)
    r1, r2 = (e + s) / 2.0, (e - s) / 2.0
    return r1 if abs(r1) <= abs(r2) else r2


def jost_g_ell(params: JacobiParams, ell: int | None = None) -> TaylorSeries:
    """Exact Jost polynomial g_l(z) = z^l (p_l(z + 1/z) - z p_{l-1}(z + 1/z)).

    Needs a free tail: a_n = 1 for n >= l and b_n = 0 for n > l.  The
    apparent poles at z = 0 cancel, leaving a polynomial of degree <= 2l,
    assembled here exactly through binomial expansion of z^l (z + 1/z)^j.
    ``ell`` defaults to the smallest valid range and may be any value >= it
    (the function does not depend on the choice).
    """
    min_ell = params.free_range_order()
    if ell is None:
        ell = min_ell
    elif ell < min_ell:
        raise InvalidParameterError(
            f"range {ell} is too small; parameters are only free past {min_ell}"
        )
    if ell == 0:
        return TaylorSeries(np.array([1.0, 0.0]))
    p = orthonormal_poly_coeffs(params, ell)
    acc = np.zeros(2 * ell + 1, dtype=float)
    # z^l * x^j -> sum_i C(j,i) z^{l+j-2i}
    for j, cj in enumerate(p[ell]):
        for i in range(j + 1):
            acc[ell + j - 2 * i] += cj * comb(j, i)
    # z^{l+1} * x^j -> sum_i C(j,i) z^{l+1+j-2i}
    for j, cj in enumerate(p[ell - 1]):
        for i in range(j + 1):
            acc[ell + 1 + j - 2 * i] -= cj * comb(j, i)
    return TaylorSeries(acc)


def geronimus_deltas(coeffs: VerblunskyCoeffs, count: int | None = None):
    """Exact (b_n, a_n^2 - 1) arrays of the mapped Jacobi parameters.

    b_{n+1}    = a2n - a2n+2 - a2n+1 (a2n + a2n+2)
    a_{n+1}^2 - 1 = a2n+1 - a2n+3 - a2n+2^2 (1 - a2n+3)(1 + a2n+1)
                    - a2n+3 a2n+1
    Returned without the square root so callers needing a_n - 1 to full
    relative precision can avoid the cancellation in sqrt(1 + delta) - 1.
    """
    if not coeffs.is_real():
        raise InvalidParameterError("the coefficient map needs real alpha")
    if count is None:
        if coeffs.is_finitely_supported:
            count = len(coeffs.alpha) // 2 + 3
        else:
            count = max(0, (len(coeffs.alpha) - 2) // 2)
    al = coeffs.slice(2 * count + 2).real
    a0, a1, a2, a3 = (al[i : 2 * count + i : 2] for i in range(4))
    b = a0 - a2 - a1 * (a0 + a2)
    # float_power calls libm pow, as a scalar ** does; an array ** 2
    # multiplies instead, which rounds differently about once in 1200
    asq1 = a1 - a3 - np.float_power(a2, 2) * (1.0 - a3) * (1.0 + a1) - a3 * a1
    return b, asq1


def geronimus_map(coeffs: VerblunskyCoeffs, count: int | None = None) -> JacobiParams:
    """Jacobi parameters of the real-line measure matching real alpha.

    For finitely supported alpha the result is free past the support and the
    tail policy says so; truncated alpha yields truncated parameters.
    """
    b, asq1 = geronimus_deltas(coeffs, count)
    if np.any(1.0 + asq1 <= 0.0):
        n = int(np.argmax(1.0 + asq1 <= 0.0))
        raise NumericalDegeneracyError(
            f"mapped a_{n + 1}^2 = {1 + asq1[n]:.3e} is not positive"
        )
    a = np.sqrt(1.0 + asq1)
    free_after = len(a) if coeffs.is_finitely_supported else None
    return JacobiParams(a=a, b=b, free_after=free_after)


@dataclass(frozen=True)
class JostData:
    """Jost series with its disk zeros and the eigenvalues they encode."""

    u: TaylorSeries
    zeros_in_disk: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        zeros = np.asarray(self.zeros_in_disk, dtype=complex)
        eigs = np.asarray(self.eigenvalues, dtype=complex)
        if zeros.shape != eigs.shape:
            raise InvalidParameterError("zeros and eigenvalues must pair up")
        if zeros.size:
            if np.max(np.abs(zeros)) >= 1.0:
                raise InvalidParameterError("recorded zeros must lie inside the disk")
            scale = float(np.max(np.abs(self.u.coeffs)))
            resid = np.max(np.abs(self.u(zeros)))
            if resid > 1e-6 * scale:
                raise InvalidParameterError(
                    f"alleged zero has residual {resid:.3e} relative to {scale:.3e}"
                )
            if np.max(np.abs(e_from_z(zeros) - eigs)) > 1e-9 * max(
                1.0, float(np.max(np.abs(eigs)))
            ):
                raise InvalidParameterError("eigenvalues must be Joukowski images")
        object.__setattr__(self, "zeros_in_disk", zeros)
        object.__setattr__(self, "eigenvalues", eigs)


def u_from_dinv(coeffs: VerblunskyCoeffs, order: int = 64) -> JostData:
    """Jost series u = sqrt((1 - alpha_0^2)(1 - alpha_1)) / D for real alpha.

    1/D is the reciprocal Szego series of ``coeffs`` through ``order``,
    cached on ``coeffs`` (an unconverged series warns on every call).  D is
    outer, so u has no zeros in the open disk: the Szego-mapped Jacobi
    matrix has its spectrum in [-2, 2] and no bound states (Damanik-Simon,
    Jost functions and Jost solutions for Jacobi matrices I; Simon, OPUC
    vol. 1).  The zero and eigenvalue arrays are therefore empty; disk
    roots of the truncated series are truncation artefacts.  The input
    checks are those of :func:`_jost_prefactor`, which the zero table of
    ``jost --what zeros --alpha`` runs without building 1/D.
    """
    scale = _jost_prefactor(coeffs, order)
    dinv = dinv_from_alphas(coeffs, order)
    u = TaylorSeries(scale * dinv.coeffs, note=dinv.note)
    none = np.empty(0, dtype=complex)
    return JostData(u=u, zeros_in_disk=none, eigenvalues=none)


def _jost_prefactor(coeffs: VerblunskyCoeffs, order: int) -> float:
    """sqrt((1 - alpha_0^2)(1 - alpha_1)), once alpha is real, reaches
    alpha_1 and the series order is at least 1.

    These are all the checks u = c/D makes of its input before 1/D is
    built, in the order it makes them, so every Jost route from alpha
    rejects the same input with the same error.
    """
    if not coeffs.is_real():
        raise InvalidParameterError("the Jost correspondence needs real alpha")
    a0 = coeffs.entry(0).real
    a1 = coeffs.entry(1).real
    if order < 1:
        raise InvalidParameterError("series order must be >= 1")
    return float(np.sqrt((1.0 - a0 * a0) * (1.0 - a1)))


def finite_range_jost_data(params: JacobiParams, ell: int | None = None) -> JostData:
    """Jost polynomial of a finite-range perturbation with its disk zeros.

    The polynomial is exact, so every root inside the open disk is a
    genuine bound state; the eigenvalues are the Joukowski images z + 1/z.
    """
    u = jost_g_ell(params, ell)
    zeros = _disk_roots(u)
    return JostData(u=u, zeros_in_disk=zeros, eigenvalues=e_from_z(zeros))


def _disk_roots(series: TaylorSeries) -> np.ndarray:
    """Zeros of a Taylor series inside the open unit disk, sorted by (real, imag).

    The companion matrix is built at the numerical degree K, the smallest
    degree whose dropped tail sum_{k>K} |c_k| is at most eps * max|c|.  On
    the closed disk the dropped tail moves the series by no more than that,
    which is the size of the backward error of ``polyroots`` itself, so the
    trimmed solve resolves every disk zero the full-degree solve can.  A
    root is kept when |z| < 1 and |series(z)| < 1e-8 * max|c|.
    """
    c = series.coeffs
    mag = np.abs(c)
    scale = float(np.max(mag))
    tail = np.cumsum(mag[::-1])[::-1]
    degree = int(np.count_nonzero(tail[1:] > _EPS * scale))
    if degree == 0:
        return np.empty(0, dtype=complex)
    roots = np.polynomial.polynomial.polyroots(c[: degree + 1])
    roots = roots[np.abs(roots) < 1.0]
    roots = roots[np.abs(series(roots)) < 1e-8 * scale]
    return np.array(sorted(roots, key=lambda w: (w.real, w.imag)), dtype=complex)


def b_series_from_deltas(b, asq1, order: int = 64) -> TaylorSeries:
    """B(z) = 1 - sum_n [b_{n+1} z^{2n+1} + (a_{n+1}^2 - 1) z^{2n+2}].

    First-order kernel of the Jost function: stripping one row off the
    matrix multiplies u by ((z^2+1-b_1 z)/a_1) and subtracts
    (a_1/a_2) z^2 times the twice-stripped u, so to first order in the
    coefficient deltas u picks up -b_{n+1}(z + ... + z^{2n+1}) and
    -(a_{n+1}-1)(1 + 2z^2 + ... + 2z^{2n+2}).  B keeps exactly the top
    power of each kernel; that is the part the reflected combination
    (1-z^2)u(z) + z^2 u(1/z)B(z) needs in order to cancel the slow tail.
    Built from exact (b_n, a_n^2 - 1) arrays: placing a_n^2 - 1 directly
    (rather than reconstituting a_n and subtracting 1) keeps full relative
    precision when a_n is within rounding distance of 1.
    """
    if order < 2:
        raise InvalidParameterError("series order must be >= 2")
    b = np.asarray(b, dtype=float)
    asq1 = np.asarray(asq1, dtype=float)
    # slots past the arrays hold -0.0, the negated zero of an absent delta
    c = np.full(order + 1, -0.0)
    c[0] = 1.0
    odd, even = c[1::2], c[2::2]
    odd[: len(b)] = -b[: len(odd)]
    even[: len(asq1)] = -asq1[: len(even)]
    return TaylorSeries(c)


def m_finite_range(params: JacobiParams, z) -> complex | np.ndarray:
    """M(z) for free-tailed parameters by coefficient stripping, exactly.

    Peeling rows off the matrix turns M into a finite continued fraction
    seeded by the free value M(z) = z, so the result is a rational function
    of z valid on all of C except its poles; in particular it evaluates the
    analytic continuation across the unit circle that the reflection
    identity needs.
    """
    ell = params.free_range_order()
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise DomainError("M needs z != 0")
    e = z + 1.0 / z
    m = z.astype(complex).copy() if z.shape else complex(z)
    for j in range(ell, 0, -1):
        den = e - params.b_entry(j) - params.a_entry(j) ** 2 * m
        if np.min(np.abs(den)) < 1e-13 * max(1.0, float(np.max(np.abs(e)))):
            raise PoleError(z, context=f"continued fraction at depth {j}")
        m = 1.0 / den
    return m


def m_function(measure, z) -> complex:
    """Borel transform in the Joukowski variable: M(z) = integral d rho/(z + 1/z - x).

    Accepts a :class:`PointMeasure` (exact sum) or free-tailed
    :class:`JacobiParams` (exact continued fraction, also valid outside the
    disk as the analytic continuation).  Measure-side inputs are restricted
    to 0 < |z| < 1 where the integral representation converges.
    """
    if isinstance(measure, JacobiParams):
        return m_finite_range(measure, z)
    z = complex(z)
    if not 0.0 < abs(z) < 1.0:
        raise DomainError("the integral form of M needs 0 < |z| < 1")
    if isinstance(measure, PointMeasure):
        return measure.stieltjes(z + 1.0 / z)
    raise InvalidParameterError(f"cannot evaluate M for {type(measure).__name__}")


def blaschke(zeros, z):
    """Product of (z - z_j)/(1 - conj(z_j) z) over the listed disk zeros."""
    z = np.asarray(z, dtype=complex)
    result = np.ones_like(z)
    for zj in np.asarray(zeros, dtype=complex):
        if abs(zj) >= 1.0:
            raise InvalidParameterError("Blaschke zeros must lie inside the disk")
        result = result * (z - zj) / (1.0 - np.conj(zj) * z)
    return result
