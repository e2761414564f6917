"""Unit-circle recursion engine.

Covers the coefficient side of the circle theory: the Szego recursion for
orthonormal and second-kind polynomials, paraorthogonal polynomials and their
point measures, Bernstein-Szego approximants, and the Caratheodory transform
of a sampled circle measure.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AliasingError,
    DomainError,
    InvalidParameterError,
    OutOfRangeError,
)
from .series import TaylorSeries, taylor_mul, taylor_reciprocal

__all__ = [
    "VerblunskyCoeffs",
    "CirclePolyPair",
    "CircleMeasure",
    "ParaOrthogonalPoly",
    "PopucMeasure",
    "szego_recursion",
    "second_kind",
    "popuc",
    "popuc_point_measure",
    "bernstein_szego",
    "popuc_average_check",
    "caratheodory",
    "roots_of_unity",
]

_polyval = np.polynomial.polynomial.polyval


@dataclass(frozen=True)
class VerblunskyCoeffs:
    """Verblunsky coefficients alpha_0, alpha_1, ... with a tail policy.

    ``zero_after = k`` means alpha_n = 0 for all n > k (so the sequence is
    finitely supported); ``zero_after = None`` means the sequence is known
    only up to the stored length and reading past it raises
    :class:`OutOfRangeError`.

    Each instance carries a private cache of the 1/D series derived from it
    (:func:`~szegojost.szego.dinv_from_alphas`), so the suites of one
    ``verify`` run share it.  It lives as long as the instance and is not
    a dataclass field (it takes no part in ``repr`` or ``==``).  ``alpha``
    is stored as a read-only copy, so the cache cannot go stale.
    """

    alpha: np.ndarray
    zero_after: int | None = None

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=complex)
        if alpha.ndim != 1:
            raise InvalidParameterError("alpha must be a 1-d array")
        if not np.all(np.isfinite(alpha)):
            raise InvalidParameterError("alpha entries must be finite")
        if alpha.size and np.max(np.abs(alpha)) >= 1.0:
            raise InvalidParameterError("every |alpha_n| must be < 1")
        if self.zero_after is not None and self.zero_after >= 0:
            if len(alpha) < self.zero_after + 1:
                alpha = np.concatenate(
                    [alpha, np.zeros(self.zero_after + 1 - len(alpha), dtype=complex)]
                )
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "_cache", {})

    @classmethod
    def finitely_supported(cls, alphas) -> "VerblunskyCoeffs":
        alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
        return cls(alphas, zero_after=len(alphas) - 1)

    @classmethod
    def zero(cls) -> "VerblunskyCoeffs":
        return cls(np.empty(0, dtype=complex), zero_after=-1)

    @property
    def is_finitely_supported(self) -> bool:
        return self.zero_after is not None

    def entry(self, n: int) -> complex:
        if n < 0:
            raise InvalidParameterError("alpha_n is defined for n >= 0")
        if n < len(self.alpha):
            return complex(self.alpha[n])
        if self.is_finitely_supported:
            return 0.0 + 0.0j
        raise OutOfRangeError(n, "alpha")

    def slice(self, n: int) -> np.ndarray:
        """alpha_0 .. alpha_{n-1} as an array, zero past a finite support."""
        n = max(n, 0)
        if n > len(self.alpha) and not self.is_finitely_supported:
            raise OutOfRangeError(len(self.alpha), "alpha")
        out = np.zeros(n, dtype=complex)
        stored = min(n, len(self.alpha))
        out[:stored] = self.alpha[:stored]
        return out

    def rho(self, n: int) -> float:
        return float(np.sqrt(1.0 - abs(self.entry(n)) ** 2))

    def kappa(self, n: int) -> float:
        """kappa_n = prod_{j<n} rho_j^{-1}; nondecreasing in n."""
        al = self.slice(n)
        return float(np.prod(1.0 / np.sqrt(1.0 - np.abs(al) ** 2)))

    def kappa_inf(self) -> float:
        """Limit of kappa_n; finite because sum |alpha_n|^2 < infinity here."""
        if not self.is_finitely_supported:
            raise InvalidParameterError(
                "kappa_inf needs a finitely supported tail; pass the stored "
                "length to kappa() for a truncated estimate"
            )
        return self.kappa(len(self.alpha))

    def negated(self) -> "VerblunskyCoeffs":
        return VerblunskyCoeffs(-self.alpha, zero_after=self.zero_after)

    def is_real(self) -> bool:
        return bool(np.all(self.alpha.imag == 0.0))


def _monic_pair(coeffs: VerblunskyCoeffs, n: int) -> tuple[np.ndarray | None, np.ndarray]:
    """Monic (Phi_{n-1}, Phi_n) as ascending coefficient arrays; Phi_{-1} is None.

    Phi_m sits at ``buf[n - m:]`` of one zeroed buffer of length n + 1, so
    z Phi_m is already in place at ``buf[n - m - 1:]`` and each
    :func:`_szego_step` subtracts conj(alpha_m) Phi_m* there.  The recursion
    runs in O(n) memory and allocates nothing per step.  The two returned
    arrays may share that buffer.

    The steps stop at the last nonzero alpha.  With alpha_m = 0 every part of
    the subtracted term is +0 or -0, and x - (+-0) = x for every x but -0.
    ``buf`` never holds a -0: it starts at +0 and 1, and a difference is -0
    only as (-0) - (+0).  So each later step would leave ``buf`` as it is,
    bit for bit, and Phi_m is ``buf[n - m:]`` for every m past the support.
    That needs a finite ``buf`` (inf * 0 is nan), which is checked once
    before the steps are skipped.
    """
    if n < 0:
        raise InvalidParameterError("order must be nonnegative")
    ca = np.conj(coeffs.slice(n))
    support = np.flatnonzero(ca)
    stop = int(support[-1]) + 1 if support.size else 0
    buf, star = _monic_buffers(n)
    prev = None
    for m in range(n):
        if m == stop and np.isfinite(buf).all():
            return buf[1:], buf
        if m == n - 1:
            prev = buf[1:].copy()
        _szego_step(buf, _phi_star(buf, star, m), ca[m])
    return prev, buf


def _monic_buffers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(buf, star) of length n + 1 for :func:`_szego_step`, buf holding Phi_0 = 1 at its end."""
    buf = np.zeros(n + 1, dtype=complex)
    buf[n] = 1.0
    return buf, np.empty(n + 1, dtype=complex)


def _phi_star(buf: np.ndarray, star: np.ndarray, m: int) -> np.ndarray:
    """``star[:m + 1]`` set to Phi_m* (Phi_m = ``buf[-m - 1:]`` conjugated and reversed)."""
    return np.conjugate(buf[: -m - 2 : -1], out=star[: m + 1])


def _szego_step(buf: np.ndarray, term: np.ndarray, ca) -> None:
    """``buf[-m - 2:]`` becomes Phi_{m+1} = z Phi_m - ca Phi_m*, with ca = conj(alpha_m).

    ``buf[-m - 1:]`` holds Phi_m behind a zero, so ``buf[-m - 2:]`` already
    holds z Phi_m.  ``term`` holds the m + 1 coefficients of Phi_m* (from
    :func:`_phi_star`) and is overwritten with ca Phi_m*, which is then
    subtracted in place.  With ca = 0 and a finite ``term`` the step
    subtracts only +-0, which leaves every part of ``buf`` but a -0 as it
    was; :func:`_monic_pair` skips such steps on that ground.  This is the
    one monic recursion kernel: both :func:`_monic_pair` and the moment
    recursion of circle ingestion call it.
    """
    np.multiply(ca, term, out=term)
    buf[-len(term) - 1 : -1] -= term


def _monic(coeffs: VerblunskyCoeffs, n: int) -> np.ndarray:
    """Monic Phi_n: the second array of :func:`_monic_pair`."""
    return _monic_pair(coeffs, n)[1]


@dataclass(frozen=True)
class CirclePolyPair:
    """Orthonormal phi_n and phi_n* as ascending coefficient arrays.

    phi_star is exactly the conjugated-and-reversed phi array, so the two
    have equal modulus on the unit circle by construction; kappa is the
    leading coefficient of phi_n (and the constant term of phi_n*).
    """

    phi: np.ndarray
    phi_star: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=complex))
        object.__setattr__(self, "phi_star", np.asarray(self.phi_star, dtype=complex))

    @property
    def degree(self) -> int:
        return len(self.phi) - 1

    @property
    def monic(self) -> np.ndarray:
        return self.phi / self.kappa

    def __call__(self, z):
        return _polyval(np.asarray(z, dtype=complex), self.phi)

    def star(self, z):
        return _polyval(np.asarray(z, dtype=complex), self.phi_star)


def szego_recursion(coeffs: VerblunskyCoeffs, n: int) -> CirclePolyPair:
    """(phi_n, phi_n*) after n recursion steps."""
    monic = _monic(coeffs, n)
    kappa = coeffs.kappa(n)
    phi = kappa * monic
    return CirclePolyPair(phi=phi, phi_star=np.conj(phi[::-1]), kappa=kappa)


def second_kind(coeffs: VerblunskyCoeffs, n: int) -> CirclePolyPair:
    """(psi_n, psi_n*): the recursion run with every alpha negated."""
    return szego_recursion(coeffs.negated(), n)


@dataclass(frozen=True)
class ParaOrthogonalPoly:
    """z Phi_n - conj(omega) Phi_n* and its zeros (all on the unit circle)."""

    coeffs: np.ndarray
    zeros: np.ndarray
    omega: complex

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return _polyval(np.asarray(z, dtype=complex), self.coeffs)


def popuc(coeffs: VerblunskyCoeffs, n: int, omega: complex) -> ParaOrthogonalPoly:
    """Paraorthogonal polynomial of degree n+1 for boundary parameter omega.

    Zeros are the eigenvalues of the cut-off CMV matrix (see
    :func:`_paraorthogonal_zeros`), so they lie on the circle to rounding.
    """
    omega = _boundary_parameter(n, omega)
    phi = _monic(coeffs, n)
    poly = np.zeros(n + 2, dtype=complex)
    poly[1:] = phi
    poly[: n + 1] -= np.conj(omega) * np.conj(phi[::-1])
    zeros = _paraorthogonal_zeros(coeffs.slice(n), omega)
    return ParaOrthogonalPoly(coeffs=poly, zeros=zeros, omega=omega)


def _boundary_parameter(n: int, omega) -> complex:
    if n < 0:
        raise InvalidParameterError("order must be nonnegative")
    omega = complex(omega)
    if abs(abs(omega) - 1.0) > 1e-12:
        raise InvalidParameterError(f"omega must be unimodular, got |omega|={abs(omega)!r}")
    return omega


# |t| above which the first pole counts as too near a zero (about 2e-13 of angle)
_POLE_LIMIT = 1e3


def _paraorthogonal_zeros(alpha: np.ndarray, omega: complex) -> np.ndarray:
    """Zeros of z Phi_n - conj(omega) Phi_n* for alpha_0 .. alpha_{n-1}, sorted.

    They are the eigenvalues of the unitary cut-off CMV matrix U of
    :func:`_cut_cmv` (Cantero-Moral-Velazquez; Simon, OPUC 1, ch. 4).  For
    a pole e^{i phi} off the spectrum, W = e^{-i phi} U has the Hermitian
    Cayley transform H = i (I - W)^{-1} (I + W), whose eigenvalue
    t = -cot((theta - phi) / 2) belongs to the zero e^{i theta}.  Each t
    carries an error of about eps * max|t|, so the pole should sit far from
    every zero.  It starts where the zeros of free coefficients leave their
    gaps; when that pole lands near a zero (or on one), the widest gap of
    the first angles gives the pole of a second, final solve.
    """
    size = len(alpha) + 1
    phi = (cmath.phase(omega.conjugate()) + math.pi) / size
    try:
        theta, t_max = _cayley_angles(alpha, omega, phi)
    except np.linalg.LinAlgError:
        theta, t_max = None, math.inf
    # evenly spread zeros put every pole within half the mean gap of a zero,
    # where |t| is about 2 size / pi; no second pole could do better.  An
    # inverse that overflowed leaves t_max nan, which fails the test too.
    if not t_max <= max(_POLE_LIMIT, size):
        phi = phi + 0.5 * math.pi / size if theta is None else _widest_gap_midpoint(theta)
        theta, _ = _cayley_angles(alpha, omega, phi)
    return np.sort(np.exp(1j * theta))


def _cut_cmv(alpha: np.ndarray, omega: complex) -> np.ndarray:
    """(n+1) x (n+1) cut-off CMV matrix U = L M with alpha_n replaced by omega.

    L = Theta_0 + Theta_2 + ... and M = 1 + Theta_1 + Theta_3 + ... (direct
    sums) with Theta_j = [[conj a_j, rho_j], [rho_j, -a_j]] on rows and
    columns j, j+1, a_j = alpha_j for j < n and a_n = omega, rho_n = 0; a
    block that would reach past the matrix keeps its one entry conj a_n.
    Then det(z - U) = z Phi_n - conj(omega) Phi_n*.  Row r of L has its
    second entry in the row r ^ 1 it shares a block with, so row r of U is
    L[r, r] M[r] + L[r, r ^ 1] M[r ^ 1], and no matrix product is formed.
    """
    n = len(alpha)
    size = n + 1
    a = np.append(alpha, omega)
    rho = np.zeros(size)
    rho[:n] = np.sqrt(1.0 - np.abs(alpha) ** 2)
    m = np.zeros((size, size), dtype=complex)
    flat = m.reshape(-1)
    diag, upper, lower = flat[:: size + 1], flat[1 :: size + 1], flat[size :: size + 1]
    diag[0] = 1.0
    diag[1::2] = np.conj(a[1::2])
    diag[2::2] = -a[1:-1:2]
    upper[1::2] = lower[1::2] = rho[1:-1:2]
    l_diag = np.empty(size, dtype=complex)
    l_diag[0::2] = np.conj(a[0::2])
    l_diag[1::2] = -a[:-1:2]
    l_off = np.repeat(rho[0::2], 2)[:size, None]
    u = m[np.minimum(np.arange(size) ^ 1, n)]
    u *= l_off
    m *= l_diag[:, None]
    u += m
    return u


def _cayley_angles(alpha: np.ndarray, omega: complex, phi: float) -> tuple[np.ndarray, float]:
    """Eigenangles of the cut-off CMV matrix from its Cayley transform about e^{i phi}.

    With X = (I - W)^{-1}, the transform i (I - W)^{-1} (I + W) = i (2X - I)
    has Hermitian part i (X - X^H), so one inverse and one ``eigvalsh`` of
    that part give every t.  U is rebuilt for each pole and turned into
    I - W in place, which keeps one fewer (n+1)^2 array alive.  Returns the
    angles and max|t|.
    """
    size = len(alpha) + 1
    x = _cut_cmv(alpha, omega)
    x *= -cmath.exp(-1j * phi)
    x.reshape(-1)[:: size + 1] += 1.0
    x = np.linalg.inv(x)
    h = x.conj().T
    h -= x
    h *= -1j
    t = np.linalg.eigvalsh(h)
    return phi + 2.0 * np.arctan2(1.0, -t), float(np.max(np.abs(t)))


def _widest_gap_midpoint(theta: np.ndarray) -> float:
    ang = np.sort(np.mod(theta, 2.0 * math.pi))
    gaps = np.diff(ang, append=ang[0] + 2.0 * math.pi)
    k = int(np.argmax(gaps))
    return float(ang[k] + 0.5 * gaps[k])


@dataclass(frozen=True)
class PopucMeasure:
    """Point measure on the circle carried by paraorthogonal zeros."""

    zeros: np.ndarray
    weights: np.ndarray
    omega: complex

    def moment(self, k: int) -> complex:
        """Trigonometric moment integral of z^(-k)."""
        return complex(np.sum(self.weights * self.zeros ** (-k)))


def popuc_point_measure(coeffs: VerblunskyCoeffs, n: int, omega: complex) -> PopucMeasure:
    """Zeros plus Christoffel weights 1/sum_{k<=n} |phi_k(z_j)|^2.

    The zeros are those of :func:`popuc`, read straight off the alphas; the
    weights come from stepping the orthonormal Szego recursion on the zeros
    themselves (see :func:`_christoffel_weights`), O(n) vector steps with no
    polynomial evaluation.
    """
    omega = _boundary_parameter(n, omega)
    alpha = coeffs.slice(n)
    zeros = _paraorthogonal_zeros(alpha, omega)
    return PopucMeasure(zeros=zeros, weights=_christoffel_weights(alpha, zeros), omega=omega)


def _christoffel_weights(alpha: np.ndarray, z: np.ndarray) -> np.ndarray:
    """1/sum_{k<=n} |phi_k(z)|^2 for alpha_0 .. alpha_{n-1}.

    phi_0 = phi_0* = 1 and
    phi_{k+1} = (z phi_k - conj(alpha_k) phi_k*) / rho_k,
    phi_{k+1}* = (phi_k* - alpha_k z phi_k) / rho_k,
    so each step costs a few vector operations on the points.
    """
    rho = np.sqrt(1.0 - np.abs(alpha) ** 2)
    phi = np.ones(len(z), dtype=complex)
    star = np.ones(len(z), dtype=complex)
    zphi = np.empty(len(z), dtype=complex)
    term = np.empty(len(z), dtype=complex)
    acc = np.ones(len(z))
    # no product is written over its own input: numpy rounds an in-place
    # complex multiply of one element differently
    for a, r in zip(alpha.tolist(), rho.tolist()):
        np.multiply(z, phi, out=zphi)
        # phi <- (z phi - conj(a) star) / r, then star <- (star - a z phi) / r
        np.multiply(a.conjugate(), star, out=phi)
        np.subtract(zphi, phi, out=phi)
        phi /= r
        np.multiply(a, zphi, out=term)
        star -= term
        star /= r
        acc += phi.real**2 + phi.imag**2
    return 1.0 / acc


@dataclass(frozen=True)
class CircleMeasure:
    """Probability measure on the unit circle: sampled weight plus atoms.

    ``weight`` holds samples of the density with respect to dtheta/2pi on the
    uniform grid theta_j = 2 pi j / G; G must be a power of two so the
    transform-based operations stay aligned with the grid.
    """

    weight: np.ndarray
    point_masses: tuple = ()
    mass_tol: float = field(default=1e-10, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        if w.ndim != 1 or w.size < 2 or (w.size & (w.size - 1)) != 0:
            raise InvalidParameterError("weight grid size must be a power of two >= 2")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise InvalidParameterError("weight samples must be finite and nonnegative")
        masses = tuple((complex(z), float(m)) for z, m in self.point_masses)
        for z, m in masses:
            if m <= 0:
                raise InvalidParameterError("point masses must be positive")
            if abs(abs(z) - 1.0) > 1e-12:
                raise InvalidParameterError("point masses must sit on the unit circle")
        total = float(w.mean()) + sum(m for _, m in masses)
        if abs(total - 1.0) > self.mass_tol:
            raise InvalidParameterError(
                f"total mass {total:.17g} is not 1 within {self.mass_tol:g}"
            )
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "point_masses", masses)

    @property
    def grid_size(self) -> int:
        return len(self.weight)

    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.grid_size) / self.grid_size

    def points(self) -> np.ndarray:
        return np.exp(1j * self.thetas())

    def moment(self, k: int) -> complex:
        """Trigonometric moment integral of e^(-i k theta)."""
        grid = np.mean(self.weight * np.exp(-1j * k * self.thetas()))
        atoms = sum(m * z ** (-k) for z, m in self.point_masses)
        return complex(grid + atoms)

    @classmethod
    def lebesgue(cls, grid_size: int = 4096) -> "CircleMeasure":
        return cls(np.ones(grid_size))


def bernstein_szego(coeffs: VerblunskyCoeffs, n: int, grid_size: int = 4096) -> CircleMeasure:
    """Measure with density 1/|phi_n|^2 (w.r.t. dtheta/2pi), sampled on the grid.

    This is the measure whose Verblunsky coefficients equal the first n
    entries of ``coeffs`` and vanish from index n on, so its trigonometric
    moments for |k| <= n agree with those of the full measure.

    The weight's Fourier coefficients decay like R^-|k|, with R the modulus
    of the nearest zero of phi_n*, and the grid folds them back onto the
    mass.  When that aliasing moves the mass by more than the
    :class:`CircleMeasure` tolerance, :class:`AliasingError` names a grid
    size on which R^-G falls below 1e-16.
    """
    pair = szego_recursion(coeffs, n)
    z = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    w = 1.0 / np.abs(pair(z)) ** 2
    total = float(w.mean())
    if abs(total - 1.0) > CircleMeasure.mass_tol:
        # trailing coefficients below rounding only add zeros near infinity
        star = np.polynomial.polynomial.polytrim(
            pair.phi_star, 1e-16 * float(np.max(np.abs(pair.phi_star))))
        radius = float(np.min(np.abs(np.polynomial.polynomial.polyroots(star))))
        resolving = math.ceil(16 * math.log(10) / max(math.log(radius), 1e-15))
        need = max(2 * grid_size, 1 << (resolving - 1).bit_length())
        raise AliasingError(
            f"a {grid_size}-point grid cannot resolve the weight 1/|phi_{n}|^2: the nearest "
            f"zero of phi_{n}* lies at radius {radius:.6g}, and the grid mass is "
            f"{total:.17g}; use grid_size >= {need}"
        )
    return CircleMeasure(weight=w)


def roots_of_unity(count: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(count) / count)


def popuc_average_check(
    coeffs: VerblunskyCoeffs,
    n: int,
    omegas,
    k: int,
) -> tuple[complex, complex]:
    """Average the k-th paraorthogonal moment over omega vs. the cut measure.

    Each moment is a polynomial in omega of degree <= |k| <= n, so a uniform
    root-of-unity grid of size >= 2n+2 averages it exactly; the average must
    match the k-th moment of the degree-n approximant measure, each omega's
    measure coming from :func:`popuc_point_measure`.

    The reference moment is exact: the approximant's Caratheodory function
    is psi_n*/phi_n* = 1 + 2 sum_{j>=1} mu_j z^j (Geronimus), so mu_|k| is
    half its Taylor coefficient, conjugated for k < 0.
    """
    omegas = np.asarray(omegas, dtype=complex)
    if abs(k) > n:
        raise InvalidParameterError("moment order |k| must not exceed n")
    if len(omegas) < 2 * n + 2:
        raise AliasingError(
            f"omega grid of size {len(omegas)} cannot resolve order {n}; need >= {2 * n + 2}"
        )
    if np.max(np.abs(np.abs(omegas) - 1.0)) > 1e-12:
        raise InvalidParameterError("all omega values must be unimodular")
    moments = [popuc_point_measure(coeffs, n, w).moment(k) for w in omegas.tolist()]
    avg = complex(np.mean(moments))
    m = abs(k)
    # psi_n and phi_n share kappa_n, so the monic stars have the same ratio
    phi_star = TaylorSeries(np.conj(_monic(coeffs, n)[::-1]))
    psi_star = TaylorSeries(np.conj(_monic(coeffs.negated(), n)[::-1]))
    carath = complex(taylor_mul(psi_star, taylor_reciprocal(phi_star, m), m).coeffs[m])
    reference = carath if k == 0 else carath / 2.0
    return avg, reference.conjugate() if k < 0 else reference


def caratheodory(measure: CircleMeasure, z: complex) -> complex:
    """F(z) = integral of (zeta + z)/(zeta - z) d mu(zeta) for |z| < 1.

    Trapezoid sum over the weight grid (spectrally accurate for smooth
    weights) plus exact kernel terms for the atoms.  F(0) = 1 and Re F > 0.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("the Caratheodory transform is evaluated inside the disk")
    zeta = measure.points()
    val = complex(np.mean(measure.weight * (zeta + z) / (zeta - z)))
    val += sum(m * (p + z) / (p - z) for p, m in measure.point_masses)
    return val
