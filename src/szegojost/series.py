"""Finite Taylor and Laurent series with the small arithmetic kit used here.

Coefficients are stored densely in ascending order.  All operations are
truncated-degree exact: the first ``order + 1`` output coefficients are the
mathematically correct ones for the (formal) power-series operation, with no
discretization step involved.  Radius-of-convergence questions are handled
separately in :mod:`szegojost.analysis` by looking at coefficient decay.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidParameterError

__all__ = [
    "TaylorSeries",
    "LaurentSeries",
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

    def is_real(self, tol: float = 0.0) -> bool:
        return bool(np.max(np.abs(self.coeffs.imag), initial=0.0) <= tol)


def taylor_mul(a: TaylorSeries, b: TaylorSeries, order: int | None = None) -> TaylorSeries:
    """Cauchy product truncated at ``order`` (default: min of the inputs)."""
    if order is None:
        order = min(a.order, b.order)
    full = np.convolve(a.coeffs, b.coeffs)
    return TaylorSeries(full).truncated(order)


def taylor_reciprocal(a: TaylorSeries, order: int | None = None) -> TaylorSeries:
    """Series of 1/a; requires a(0) != 0."""
    if order is None:
        order = a.order
    c = a.coeffs
    c0 = c[0]
    if c0 == 0:
        raise DomainError("reciprocal needs a nonzero constant term")
    top = len(c) - 1
    dot = np.dot
    # rev[order - k] holds d_k, so d_{k-1} .. d_{k-jmax} is a forward slice
    rev = np.zeros(order + 1, dtype=complex)
    rev[order] = 1.0 / c0
    # d_k = -(sum_{j=1..k} c_j d_{k-j}) / c_0, with absent c_j treated as 0
    for k in range(1, order + 1):
        jmax = min(k, top)
        rev[order - k] = -dot(c[1 : jmax + 1], rev[order - k + 1 : order - k + 1 + jmax]) / c0
    return TaylorSeries(rev[::-1].copy())


def taylor_exp(a: TaylorSeries, order: int | None = None) -> TaylorSeries:
    """Series of exp(a) via the derivative recursion e' = a' e."""
    if order is None:
        order = a.order
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


@dataclass(frozen=True)
class LaurentSeries:
    """Two-sided truncated series sum_{|k|<=N} c_k z^k on an annulus.

    ``coeffs[j]`` holds the coefficient of z^(j - N) where N is the tail
    order, so the array length is odd: c_{-N} .. c_0 .. c_N.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = _ascoeffs(self.coeffs)
        if c.size % 2 != 1:
            raise InvalidParameterError(
                "a two-sided series needs an odd coefficient count (-N..N)"
            )
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return (len(self.coeffs) - 1) // 2

    def coeff(self, k: int) -> complex:
        if abs(k) > self.order:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.order])

    def positive_tail(self) -> np.ndarray:
        """Coefficients c_1 .. c_N (outward decay tells the outer radius)."""
        return self.coeffs[self.order + 1 :]

    def negative_tail(self) -> np.ndarray:
        """Coefficients c_{-1} .. c_{-N} (decay tells the inner radius)."""
        return self.coeffs[self.order - 1 :: -1]

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if np.any(z == 0):
            raise DomainError("a two-sided series cannot be evaluated at 0")
        n = self.order
        pos = np.polynomial.polynomial.polyval(z, self.coeffs[n:])
        neg = np.polynomial.polynomial.polyval(1.0 / z, self.coeffs[n::-1])
        # both sums include c_0 once
        return pos + neg - self.coeffs[n]

    @classmethod
    def from_tails(cls, center, positive, negative) -> "LaurentSeries":
        """Assemble from c_0, (c_1..c_N), (c_{-1}..c_{-N})."""
        pos = np.asarray(positive, dtype=complex)
        neg = np.asarray(negative, dtype=complex)
        n = max(len(pos), len(neg))
        c = np.zeros(2 * n + 1, dtype=complex)
        c[n] = center
        c[n + 1 : n + 1 + len(pos)] = pos
        c[n - 1 : n - 1 - len(neg) if len(neg) < n else None : -1] = neg
        return cls(c)
