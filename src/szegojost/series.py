"""Finite Taylor series with the small arithmetic kit used here.

Coefficients are stored densely in ascending order.  All operations are
truncated-degree exact: the first ``order + 1`` output coefficients are the
mathematically correct ones for the (formal) power-series operation, with no
discretization step involved.  Radius-of-convergence questions are handled
separately in :mod:`szegojost.analysis` by looking at coefficient decay.
The two-sided r of :func:`szegojost.szego.r_series` is a plain array whose
entries are finite sums of Taylor coefficients, with no grid either.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidParameterError

__all__ = [
    "TaylorSeries",
    "taylor_mul",
    "taylor_reciprocal",
    "taylor_exp",
]


def _ascoeffs(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size < 1:
        raise InvalidParameterError("coefficients must form a 1-d nonempty array")
    if not np.all(np.isfinite(c)):
        raise InvalidParameterError("coefficients must be finite")
    return c


@dataclass(frozen=True)
class TaylorSeries:
    """Truncated power series sum_{k<=N} c_k z^k around z = 0.

    ``note`` carries a human-readable caveat (for example an unconverged
    truncated input); it does not affect arithmetic or comparisons.
    """

    coeffs: np.ndarray
    note: str | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _ascoeffs(self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, TaylorSeries):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return np.polynomial.polynomial.polyval(z, self.coeffs)

    def truncated(self, order: int) -> "TaylorSeries":
        """First ``order + 1`` coefficients, zero-padded if needed."""
        if order < 0:
            raise InvalidParameterError("order must be nonnegative")
        c = np.zeros(order + 1, dtype=complex)
        m = min(order, self.order)
        c[: m + 1] = self.coeffs[: m + 1]
        return TaylorSeries(c, note=self.note)

    def is_real(self) -> bool:
        return bool(np.all(self.coeffs.imag == 0.0))


def taylor_mul(a: TaylorSeries, b: TaylorSeries, order: int) -> TaylorSeries:
    """Cauchy product truncated at ``order``."""
    full = np.convolve(a.coeffs, b.coeffs)
    return TaylorSeries(full).truncated(order)


def taylor_reciprocal(a: TaylorSeries, order: int) -> TaylorSeries:
    """Series of 1/a through ``order``; requires a(0) != 0."""
    c = a.coeffs
    c0 = c[0]
    if c0 == 0:
        raise DomainError("reciprocal needs a nonzero constant term")
    top = len(c) - 1
    dot = np.dot
    # rev[order - k] holds d_k, so d_{k-1} .. d_{k-jmax} is a forward slice
    rev = np.zeros(order + 1, dtype=complex)
    rev[order] = 1.0 / c0
    # d_k = -(sum_{j=1..min(k, top)} c_j d_{k-j}) / c_0, absent c_j being 0
    tail = c[1:]
    # an overflow leaves non-finite coefficients, which TaylorSeries refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, min(top, order) + 1):
            rev[order - k] = -dot(tail[:k], rev[order - k + 1 :]) / c0
        for k in range(top + 1, order + 1):
            rev[order - k] = -dot(tail, rev[order - k + 1 : order - k + 1 + top]) / c0
    return TaylorSeries(rev[::-1].copy())


def taylor_exp(a: TaylorSeries, order: int) -> TaylorSeries:
    """Series of exp(a) through ``order`` via the derivative recursion e' = a' e."""
    g = a.coeffs
    dot = np.dot
    # rev[order - n] holds e_n, so e_n .. e_{n-kmax} is a forward slice
    rev = np.zeros(order + 1, dtype=complex)
    rev[order] = np.exp(g[0])
    # (n+1) e_{n+1} = sum_{k=0..n} (k+1) g_{k+1} e_{n-k}, with absent g_k treated as 0
    dg = np.arange(1, len(g)) * g[1:]
    top = len(g) - 2
    for n in range(order):
        kmax = min(n, top)
        rev[order - n - 1] = dot(dg[: kmax + 1], rev[order - n : order - n + kmax + 1]) / (n + 1)
    return TaylorSeries(rev[::-1].copy())
