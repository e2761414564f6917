"""Half-line Jacobi recursion engine.

Covers the coefficient side of the real-line theory: orthonormal and
second-kind polynomial evaluation, truncated matrices with a boundary shift,
their m-functions, the averaged (Carmona-type) density, and a brute-force
spectral-measure oracle that the tests and demo 03 check bound-state
weights against.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidParameterError,
    NumericalDegeneracyError,
    OutOfRangeError,
    PoleError,
)

__all__ = [
    "JacobiParams",
    "PolyEval",
    "PointMeasure",
    "eval_polys",
    "truncated_matrix",
    "m_n_b",
    "carmona_density",
    "carmona_moment",
    "spectral_measure_oracle",
    "dombrowski_nevai_s",
]

# dense-solver size guard for the eigen-oracle
EIGEN_ORACLE_MAX_SIZE = 2000


@dataclass(frozen=True)
class JacobiParams:
    """Jacobi parameter sequences (a_n, b_n), 1-based in formulas.

    ``free_after = k`` means a_n = 1 and b_n = 0 for every n > k (the stored
    arrays must reach at least index k).  ``free_after = None`` means the
    sequences are known only up to the stored length; reading past the end
    raises :class:`OutOfRangeError`.
    """

    a: np.ndarray
    b: np.ndarray
    free_after: int | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 1 or b.ndim != 1:
            raise InvalidParameterError("a and b must be 1-d arrays")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise InvalidParameterError("Jacobi parameters must be finite")
        if np.any(a <= 0):
            raise InvalidParameterError("every a_n must be positive")
        if self.free_after is None:
            if len(a) != len(b):
                raise InvalidParameterError(
                    "truncated parameters need a and b of equal length"
                )
        else:
            k = int(self.free_after)
            if k < 0 or len(a) < k or len(b) < k:
                raise InvalidParameterError(
                    "free_after must be >= 0 and covered by the stored arrays"
                )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def free(cls) -> "JacobiParams":
        return cls(np.empty(0), np.empty(0), free_after=0)

    @property
    def is_free_tailed(self) -> bool:
        return self.free_after is not None

    def a_entry(self, n: int) -> float:
        if n < 1:
            raise InvalidParameterError("a_n is defined for n >= 1")
        if n <= len(self.a):
            return float(self.a[n - 1])
        if self.is_free_tailed:
            return 1.0
        raise OutOfRangeError(n, "a")

    def b_entry(self, n: int) -> float:
        if n < 1:
            raise InvalidParameterError("b_n is defined for n >= 1")
        if n <= len(self.b):
            return float(self.b[n - 1])
        if self.is_free_tailed:
            return 0.0
        raise OutOfRangeError(n, "b")

    def a_slice(self, n: int) -> np.ndarray:
        """a_1 .. a_n as an array."""
        return np.array([self.a_entry(j) for j in range(1, n + 1)])

    def b_slice(self, n: int) -> np.ndarray:
        return np.array([self.b_entry(j) for j in range(1, n + 1)])

    def free_range_order(self) -> int:
        """Smallest l with a_n = 1 for n >= l and b_n = 0 for n > l.

        Only defined for free-tailed parameters; this is the range of the
        perturbation, the l for which the Jost function is a polynomial of
        degree <= 2l.
        """
        if not self.is_free_tailed:
            raise InvalidParameterError("range is defined for free tails only")
        ell_a = 0
        for n in range(len(self.a), 0, -1):
            if self.a[n - 1] != 1.0:
                ell_a = n + 1
                break
        ell_b = 0
        for n in range(len(self.b), 0, -1):
            if self.b[n - 1] != 0.0:
                ell_b = n
                break
        return max(ell_a, ell_b, int(self.free_after))


@dataclass(frozen=True)
class PolyEval:
    """Orthonormal p_0..p_n and second-kind q_0..q_n evaluated at x.

    ``p`` and ``q`` have shape (n+1,) + shape(x); the second kind starts at
    q_0 = 0, q_1 = 1/a_1 so the Wronskian a_n(p_{n-1}q_n - p_n q_{n-1}) is
    exactly 1.
    """

    x: np.ndarray
    p: np.ndarray
    q: np.ndarray

    @property
    def order(self) -> int:
        return len(self.p) - 1

    def wronskian(self, n: int, a_n: float) -> np.ndarray:
        return a_n * (self.p[n - 1] * self.q[n] - self.p[n] * self.q[n - 1])


def eval_polys(params: JacobiParams, n: int, x) -> PolyEval:
    """Run the three-term recursion x p_k = a_{k+1}p_{k+1} + b_{k+1}p_k + a_k p_{k-1}.

    ``x`` may be a scalar or an array, real or complex; the recursion is
    vectorized over x.  Forward iteration in double precision is stable for
    |x| within a couple of units of the parameter sup-norm.
    """
    if n < 0:
        raise InvalidParameterError("order must be nonnegative")
    x = np.asarray(x)
    dt = complex if np.iscomplexobj(x) else float
    p = np.zeros((n + 1,) + x.shape, dtype=dt)
    q = np.zeros((n + 1,) + x.shape, dtype=dt)
    p[0] = 1.0
    # q_{-1} = -1 with a_0 = 1 makes the first step produce q_1 = 1/a_1
    p_prev, q_prev = np.zeros_like(p[0]), -np.ones_like(q[0])
    a_prev = 1.0
    for k in range(n):
        a_next = params.a_entry(k + 1)
        b_next = params.b_entry(k + 1)
        p_new = ((x - b_next) * p[k] - a_prev * p_prev) / a_next
        q_new = ((x - b_next) * q[k] - a_prev * q_prev) / a_next
        p_prev, q_prev = p[k], q[k]
        p[k + 1], q[k + 1] = p_new, q_new
        a_prev = a_next
    return PolyEval(x=x, p=p, q=q)


def orthonormal_poly_coeffs(params: JacobiParams, n: int) -> list[np.ndarray]:
    """Monomial-basis coefficient arrays of p_0 .. p_n (ascending powers)."""
    coeffs = [np.array([1.0])]
    if n == 0:
        return coeffs
    prev = np.zeros(1)
    a_prev = 1.0
    for k in range(n):
        a_next = params.a_entry(k + 1)
        b_next = params.b_entry(k + 1)
        cur = coeffs[k]
        new = np.zeros(k + 2)
        new[1:] += cur
        new[: k + 1] -= b_next * cur
        new[: len(prev)] -= a_prev * prev
        coeffs.append(new / a_next)
        prev = cur
        a_prev = a_next
    return coeffs


def truncated_matrix(params: JacobiParams, n: int, shift: complex = 0.0) -> np.ndarray:
    """Top-left n-by-n block of the Jacobi matrix with b_n replaced by b_n + shift."""
    if n < 1:
        raise InvalidParameterError("matrix size must be >= 1")
    diag = params.b_slice(n).astype(complex if np.iscomplexobj(shift) else float)
    diag[-1] += shift
    mat = np.diag(diag)
    if n > 1:
        off = params.a_slice(n - 1)
        mat[np.arange(n - 1), np.arange(1, n)] = off
        mat[np.arange(1, n), np.arange(n - 1)] = off
    return mat


def m_n_b(params: JacobiParams, n: int, b: complex, z: complex) -> complex:
    """m-function of the shifted truncation: -(a_n q_n - b q_{n-1})/(a_n p_n - b p_{n-1}).

    Agrees with the (1,1) resolvent entry of the n-by-n matrix with boundary
    term b; poles sit at its eigenvalues.
    """
    if n < 1:
        raise InvalidParameterError("truncation size must be >= 1")
    ev = eval_polys(params, n, complex(z))
    a_n = params.a_entry(n)
    num = a_n * ev.q[n] - b * ev.q[n - 1]
    den = a_n * ev.p[n] - b * ev.p[n - 1]
    scale = max(abs(ev.p[n]), abs(ev.p[n - 1]), 1.0)
    if abs(den) < 1e-13 * scale:
        raise PoleError(z, context=f"m-function of the size-{n} truncation")
    return complex(-num / den)


def carmona_density(params: JacobiParams, n: int, x) -> np.ndarray:
    """Density 1/(pi (a_n^2 p_n^2 + p_{n-1}^2)) of the boundary-averaged measure.

    Strictly positive for real x: p_n and p_{n-1} share no zeros.
    """
    if n < 1:
        raise InvalidParameterError("the averaged density needs n >= 1")
    ev = eval_polys(params, n, np.asarray(x, dtype=float))
    a_n = params.a_entry(n)
    return 1.0 / (np.pi * (a_n**2 * ev.p[n] ** 2 + ev.p[n - 1] ** 2))


def carmona_moment(params: JacobiParams, n: int, ell: int) -> float:
    """Moment integral x^ell against the averaged density, closed form.

    The density is 1/(pi Q(x)) with Q of degree 2n and no real zeros, so for
    ell <= 2n-2 the integral is 2i times the sum of residues of x^ell/Q over
    the upper half-plane.  Higher moments diverge and are refused.
    """
    if n < 1:
        raise InvalidParameterError("the averaged density needs n >= 1")
    if ell < 0 or ell > 2 * n - 2:
        raise InvalidParameterError(
            f"moment {ell} of the order-{n} averaged measure diverges"
        )
    coeffs = orthonormal_poly_coeffs(params, n)
    a_n = params.a_entry(n)
    q_poly = a_n**2 * np.convolve(coeffs[n], coeffs[n])
    q_poly[: 2 * n - 1] += np.convolve(coeffs[n - 1], coeffs[n - 1])
    roots = np.polynomial.polynomial.polyroots(q_poly)
    dq = np.polynomial.polynomial.polyder(q_poly)
    total = 0.0 + 0.0j
    scale = float(np.max(np.abs(q_poly)))
    for zeta in roots[roots.imag > 0]:
        dq_val = np.polynomial.polynomial.polyval(zeta, dq)
        if abs(dq_val) < 1e-10 * scale:
            raise NumericalDegeneracyError(
                "near-multiple root in the averaged-density denominator"
            )
        total += zeta**ell / dq_val
    # (1/pi) * 2*pi*i * sum(residues) = 2i * sum(residues)
    return float((2j * total).real)


def spectral_measure_oracle(params: JacobiParams, n: int, shift: float = 0.0) -> "PointMeasure":
    """Eigen-decomposition route to the spectral measure of the truncation.

    Nodes are eigenvalues of the n-by-n matrix (diagonal boundary shift added
    to the last entry); weights are squared first components of the
    orthonormal eigenvectors.
    """
    # scipy.linalg dominates the package import time; only this oracle needs it.
    from scipy.linalg import eigh_tridiagonal

    if n < 1:
        raise InvalidParameterError("truncation size must be >= 1")
    if n > EIGEN_ORACLE_MAX_SIZE:
        raise InvalidParameterError(
            f"eigen-oracle size {n} exceeds the cap {EIGEN_ORACLE_MAX_SIZE}"
        )
    if np.iscomplexobj(np.asarray(shift)):
        raise InvalidParameterError("spectral measure needs a real shift")
    diag = params.b_slice(n)
    diag[-1] += float(shift)
    off = params.a_slice(n - 1) if n > 1 else np.empty(0)
    try:
        vals, vecs = eigh_tridiagonal(diag, off)
    except Exception as exc:  # pragma: no cover - solver failure is exotic
        raise NumericalDegeneracyError(f"eigensolver failed: {exc}") from exc
    weights = vecs[0, :] ** 2
    return PointMeasure(nodes=vals, weights=weights)


def dombrowski_nevai_s(params: JacobiParams, ell: int, x) -> np.ndarray:
    """S_l(x) = p_l^2 + p_{l-1}^2 - x p_l p_{l-1}.

    Under x = z + 1/z this equals g_l(z) g_l(1/z); it vanishes at eigenvalues
    of the range-l operator and also at resonance energies.
    """
    if ell < 1:
        raise InvalidParameterError("the approximant needs l >= 1")
    ev = eval_polys(params, ell, np.asarray(x, dtype=float))
    return ev.p[ell] ** 2 + ev.p[ell - 1] ** 2 - ev.x * ev.p[ell] * ev.p[ell - 1]


@dataclass(frozen=True)
class PointMeasure:
    """Finitely supported probability measure on the real line."""

    nodes: np.ndarray
    weights: np.ndarray
    mass_tol: float = field(default=1e-12, compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise InvalidParameterError("nodes and weights must be matching 1-d arrays")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidParameterError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise InvalidParameterError("weights must be positive")
        if abs(float(weights.sum()) - 1.0) > self.mass_tol:
            raise InvalidParameterError(
                f"weights sum to {weights.sum():.17g}, not 1 within {self.mass_tol:g}"
            )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def moment(self, ell: int) -> float:
        return float(np.dot(self.weights, self.nodes**ell))

    def stieltjes(self, e: complex) -> complex:
        """Borel transform sum w_j/(e - x_j) in the resolvent variable."""
        gaps = np.abs(e - self.nodes)
        j = int(np.argmin(gaps))
        if gaps[j] < 1e-12:
            err = PoleError(e, context="Borel transform at a point mass")
            err.residue = float(self.weights[j])
            err.node = float(self.nodes[j])
            raise err
        return complex(np.sum(self.weights / (e - self.nodes)))
