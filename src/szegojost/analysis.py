"""Decay-rate estimation, analyticity radii, and verification suites.

The estimators fit log |c_n| against n over a trailing window by least
squares, which suppresses oscillating-coefficient noise better than
pointwise |c_n|^{-1/n}.  Verification suites package measured radii and
deviations into deterministic reports; an estimator failure yields an
inconclusive (failed) report rather than an exception.
"""

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import (
    IllConditionedError,
    InvalidParameterError,
    NumericalDegeneracyError,
)
from .jost import (
    _disk_roots,
    b_series_from_deltas,
    geronimus_deltas,
    jost_g_ell,
    u_from_dinv,
)
from .oprl import JacobiParams, spectral_measure_oracle
from .opuc import VerblunskyCoeffs
from .series import LaurentSeries, TaylorSeries
from .szego import dinv_from_alphas, r_series, s_series

__all__ = [
    "UNDERFLOW_FLOOR",
    "RadiusEstimate",
    "VerificationReport",
    "ProductSet",
    "PadePole",
    "decay_rate",
    "radius_estimate",
    "verify_nevai_totik",
    "verify_damanik_simon",
    "canonical_weight_check",
    "verify_r_minus_s",
    "verify_jost_b_combination",
    "jost_b_combination",
    "gset",
    "pade_pole_probe",
]

UNDERFLOW_FLOOR = 1e-280
INFINITE_RADIUS_CUTOFF = 1e6
_EPS = np.finfo(float).eps
_METHODS = ("cauchy-hadamard-regression", "ratio")


@dataclass(frozen=True)
class RadiusEstimate:
    """Fitted radius of convergence with its regression diagnostics.

    ``radius`` is math.inf when the window is identically zero (or fully
    below the floor) or the fitted slope implies a radius beyond 1e6.  For
    inner-radius estimates of a Laurent tail the value 0.0 plays the same
    sentinel role (no negative tail at all).
    """

    radius: float
    window: tuple
    fit_residual: float
    method: str
    n_points: int

    def __post_init__(self):
        lo, hi = self.window
        if hi - lo + 1 < 8:
            raise InvalidParameterError("estimation window must span >= 8 indices")
        if self.method not in _METHODS:
            raise InvalidParameterError(f"unknown method {self.method!r}")
        if not (self.radius >= 0.0):
            raise InvalidParameterError("radius must be nonnegative")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.radius)


def decay_rate(seq, window=None, floor=UNDERFLOW_FLOOR, method="cauchy-hadamard-regression") -> RadiusEstimate:
    """Radius R with R^-1 estimating limsup |c_n|^(1/n) over the window.

    ``floor`` may be a scalar or an array aligned with ``seq``; entries at or
    below it are excluded from the regression (underflow, or caller-supplied
    rounding-noise levels for cancellation-limited sequences).  An entirely
    excluded window gives the infinite sentinel, not an error; one to three
    surviving points raise a degeneracy error since no slope is trustworthy.
    """
    vals = np.abs(np.asarray(seq, dtype=complex))
    if vals.ndim != 1:
        raise InvalidParameterError("sequence must be one-dimensional")
    n = len(vals)
    if window is None:
        window = (n // 2, n - 1)
    lo, hi = int(window[0]), int(window[1])
    if not (0 <= lo < hi < n):
        raise InvalidParameterError(f"window {window} does not fit a length-{n} sequence")
    if hi - lo + 1 < 8:
        raise InvalidParameterError("estimation window must span >= 8 indices")
    fl = np.broadcast_to(np.asarray(floor, dtype=float), vals.shape)
    idx = np.arange(lo, hi + 1)
    w_vals = vals[lo : hi + 1]
    mask = w_vals > fl[lo : hi + 1]
    used = int(np.count_nonzero(mask))
    if used == 0:
        return RadiusEstimate(math.inf, (lo, hi), 0.0, method, 0)
    if used < 4:
        raise NumericalDegeneracyError(
            f"only {used} usable points in window ({lo}, {hi}); need >= 4"
        )
    x = idx[mask].astype(float)
    y = np.log(w_vals[mask])
    if method == "ratio":
        # consecutive-index ratios; robust to a slowly varying prefactor
        keep = mask[:-1] & mask[1:]
        if int(np.count_nonzero(keep)) < 4:
            raise NumericalDegeneracyError("too few consecutive pairs for ratio method")
        ratios = w_vals[:-1][keep] / w_vals[1:][keep]
        radius = float(np.median(ratios))
        residual = float(np.std(ratios))
    elif method == "cauchy-hadamard-regression":
        slope, intercept = np.polyfit(x, y, 1)
        radius = float(np.exp(-slope))
        residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    else:
        raise InvalidParameterError(f"unknown method {method!r}")
    if radius > INFINITE_RADIUS_CUTOFF:
        radius = math.inf
    return RadiusEstimate(radius, (lo, hi), residual, method, used)


def radius_estimate(series, window=None, floor=UNDERFLOW_FLOOR, method="cauchy-hadamard-regression"):
    """Radius of convergence from Taylor coefficients.

    A TaylorSeries yields one estimate.  A LaurentSeries yields the pair
    (inner, outer): the outer estimate fits the positive-index tail; the
    inner one fits the negative-index tail and reports its reciprocal, the
    inner edge of the annulus of convergence (0.0 when there is no negative
    tail above the floor).
    """
    if isinstance(series, TaylorSeries):
        return decay_rate(series.coeffs, window=window, floor=floor, method=method)
    if isinstance(series, LaurentSeries):
        pos = np.concatenate(([series.coeff(0)], series.positive_tail()))
        neg = np.concatenate(([series.coeff(0)], series.negative_tail()))
        outer = decay_rate(pos, window=window, floor=floor, method=method)
        neg_fit = decay_rate(neg, window=window, floor=floor, method=method)
        inner_radius = 0.0 if neg_fit.is_infinite else 1.0 / neg_fit.radius
        inner = RadiusEstimate(
            inner_radius, neg_fit.window, neg_fit.fit_residual, method, neg_fit.n_points
        )
        return inner, outer
    raise InvalidParameterError(f"cannot estimate a radius for {type(series).__name__}")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification suite.

    ``measured`` is stored as a tuple of (name, value) pairs sorted by name
    so equal inputs give equal (and identically serialized) reports.
    """

    check_id: str
    measured: tuple
    tolerance: float
    passed: bool
    notes: str = ""

    def __post_init__(self):
        items = self.measured
        if isinstance(items, dict):
            items = tuple(sorted(items.items()))
        else:
            items = tuple(sorted((str(k), v) for k, v in items))
        object.__setattr__(self, "measured", items)

    def value(self, name: str):
        for key, val in self.measured:
            if key == name:
                return val
        raise KeyError(name)

    def rows(self):
        """Deterministic (name, value) rows for serialization."""
        out = [("check", self.check_id), ("pass", "true" if self.passed else "false"),
               ("tolerance", self.tolerance)]
        out.extend(self.measured)
        if self.notes:
            out.append(("notes", self.notes))
        return out


def _signal_prefix(values: np.ndarray, floor: np.ndarray, lo: int,
                   guard: float = 64.0) -> int:
    """Last index of the contiguous run from lo that clears the floor.

    Cancellation-limited difference series decay like the true signal only
    up to the point where rounding noise takes over; beyond it the entries
    can wander back above a magnitude-proportional floor.  Accumulated
    rounding noise sits a modest multiple above the single-operation floor,
    so a clean margin (``guard``) is required as well; truncating at the
    first failure keeps the regression on the genuine-signal prefix.
    """
    hi = lo - 1
    for k in range(lo, len(values)):
        if abs(values[k]) > guard * floor[k]:
            hi = k
        else:
            break
    return hi


def _inconclusive(check_id: str, tolerance: float, exc: Exception) -> VerificationReport:
    return VerificationReport(
        check_id=check_id,
        measured=(),
        tolerance=tolerance,
        passed=False,
        notes=f"inconclusive: {exc}",
    )


def _relative_gap(x: float, y: float) -> float:
    if math.isinf(x) and math.isinf(y):
        return 0.0
    if math.isinf(x) or math.isinf(y):
        return math.inf
    return abs(x - y) / max(abs(x), 1e-300)


def verify_nevai_totik(coeffs: VerblunskyCoeffs, order: int = 64, rel_tol: float = 0.05,
                       window=None) -> VerificationReport:
    """Exponential alpha decay against the singularity radius of 1/D.

    Passes when the fitted alpha-decay radius and the fitted radius of the
    Taylor series of 1/D agree within ``rel_tol``; finitely supported alpha
    must produce the infinite sentinel on both sides.
    """
    check = "nevai-totik"
    try:
        alpha = np.array([coeffs.entry(m) for m in range(order + 1)])
        r_alpha = decay_rate(alpha, window=window)
        dinv = dinv_from_alphas(coeffs, order)
        r_d = radius_estimate(dinv, window=window)
    except (NumericalDegeneracyError, InvalidParameterError) as exc:
        return _inconclusive(check, rel_tol, exc)
    gap = _relative_gap(r_alpha.radius, r_d.radius)
    notes = "both sides report the infinite-radius sentinel" if (
        r_alpha.is_infinite and r_d.is_infinite) else ""
    return VerificationReport(
        check_id=check,
        measured={
            "alpha_decay_radius": r_alpha.radius,
            "dinv_radius": r_d.radius,
            "relative_gap": gap,
        },
        tolerance=rel_tol,
        passed=bool(gap <= rel_tol),
        notes=notes,
    )


def _mapped_decay_radius(coeffs: VerblunskyCoeffs, order: int, window):
    """Radius R with limsup (|b_n| + |a_n^2 - 1|)^(1/2n) = 1/R."""
    if coeffs.is_finitely_supported:
        count = len(coeffs.alpha) // 2 + 16
        if window is None:
            window = (count - 9, count - 1)
    else:
        count = (len(coeffs.alpha) - 2) // 2
        if count < 16:
            raise InvalidParameterError(
                f"{len(coeffs.alpha)} stored alphas give {max(count, 0)} mapped "
                "coefficients; the decay fit needs 16"
            )
    b, asq1 = geronimus_deltas(coeffs, count)
    delta = np.abs(b) + np.abs(asq1)
    if not np.any(delta > UNDERFLOW_FLOOR):
        return math.inf, delta
    est = decay_rate(delta, window=window)
    return (math.inf if est.is_infinite else math.sqrt(est.radius)), delta


def verify_damanik_simon(coeffs: VerblunskyCoeffs, order: int = 64, rel_tol: float = 0.05,
                         window=None) -> VerificationReport:
    """Mapped Jacobi-coefficient decay against the Jost-function radius.

    The mapped parameters decay with exponent 2n at rate 1/R; the Jost
    series u built through 1/D must have radius R as well.  Real alpha only.
    """
    check = "damanik-simon"
    if not coeffs.is_real():
        raise InvalidParameterError("this check needs real alpha")
    try:
        r_jacobi, _ = _mapped_decay_radius(coeffs, order, window)
        u = u_from_dinv(coeffs, order=order).u
        r_u = radius_estimate(u, window=None)
    except (NumericalDegeneracyError, InvalidParameterError) as exc:
        return _inconclusive(check, rel_tol, exc)
    gap = _relative_gap(r_jacobi, r_u.radius)
    notes = "both sides report the infinite-radius sentinel" if (
        math.isinf(r_jacobi) and r_u.is_infinite) else ""
    return VerificationReport(
        check_id=check,
        measured={
            "jacobi_decay_radius": r_jacobi,
            "jost_radius": r_u.radius,
            "relative_gap": gap,
        },
        tolerance=rel_tol,
        passed=bool(gap <= rel_tol),
        notes=notes,
    )


def canonical_weight_check(params: JacobiParams, z0: complex | None = None,
                           rel_tol: float = 1e-4, oracle_size: int = 500) -> VerificationReport:
    """Point-mass weights of a finite-range measure against the Jost residue.

    For each disk zero z0 of the Jost polynomial, the eigenvalue residue
    lim (z - z0) M(z) taken from the eigen-decomposition point mass must
    equal (z0 - 1/z0) / (u'(z0) u(1/z0)).  Free parameters have no disk
    zeros and pass trivially.
    """
    check = "canonical-weights"
    u = jost_g_ell(params)
    c = u.coeffs
    roots = _disk_roots(u)
    if z0 is not None:
        if abs(u(z0)) > 1e-8 * float(np.max(np.abs(c))):
            raise InvalidParameterError("supplied z0 is not a zero of the Jost polynomial")
        roots = np.array([complex(z0)])
    if roots.size == 0:
        return VerificationReport(
            check_id=check, measured={"n_zeros": 0.0}, tolerance=rel_tol,
            passed=True, notes="no disk zeros; nothing to check",
        )
    oracle = spectral_measure_oracle(params, oracle_size)
    du = TaylorSeries(np.polynomial.polynomial.polyder(u.coeffs))
    measured = {"n_zeros": float(roots.size)}
    worst = 0.0
    for i, z in enumerate(roots):
        u_reflected = u(1.0 / z)
        if abs(u_reflected) < 1e-10 * float(np.max(np.abs(c))):
            raise NumericalDegeneracyError(
                f"u(1/z0) vanishes at z0 = {z:.6g}; zero/resonance collision"
            )
        rhs = (z - 1.0 / z) / (du(z) * u_reflected)
        e0 = z + 1.0 / z
        j = int(np.argmin(np.abs(oracle.nodes - e0.real)))
        weight = oracle.weights[j]
        if abs(oracle.nodes[j] - e0.real) > 1e-6 * max(1.0, abs(e0)):
            raise NumericalDegeneracyError(
                f"eigen-oracle has no node near E = {e0.real:.6g}"
            )
        residue = weight / (1.0 - 1.0 / z**2)
        dev = abs(residue - rhs) / abs(rhs)
        worst = max(worst, float(dev))
        measured[f"weight_{i}"] = float(weight)
        measured[f"residue_{i}"] = complex(residue)
        measured[f"jost_residue_{i}"] = complex(rhs)
    measured["worst_relative_deviation"] = worst
    return VerificationReport(
        check_id=check, measured=measured, tolerance=rel_tol,
        passed=bool(worst <= rel_tol), notes="",
    )


def verify_r_minus_s(coeffs: VerblunskyCoeffs, order: int = 96, rel_tol: float = 0.05,
                     slack: float = 0.1) -> VerificationReport:
    """Cubed-radius analyticity of the reflection remainder r - S.

    Sanity legs first: the positive Laurent tail of r and the Taylor series
    of S must both have radius R matching the alpha decay within ``rel_tol``.
    The claim leg passes when the fitted radius of r - S reaches R^3 up to
    ``slack``.  Coefficients of the difference below their rounding-noise
    level (the two terms agree to ~R^(-3k) out of magnitude R^(-k)) are
    excluded through an adaptive floor.
    """
    check = "r-minus-s"
    try:
        alpha = np.array([coeffs.entry(m) for m in range(order + 1)])
        dinv = dinv_from_alphas(coeffs, order)
        s = s_series(coeffs, order)
        r = r_series(dinv, order, method="product")
        r_pos = np.concatenate(([r.coeff(0)], r.positive_tail()))
        diff = r_pos - s.coeffs
        if not np.any(np.abs(alpha) > UNDERFLOW_FLOOR):
            return VerificationReport(
                check_id=check,
                measured={"difference_radius": math.inf, "threshold": math.inf},
                tolerance=slack, passed=True,
                notes="alpha is zero; r - S vanishes identically",
            )
        r_alpha = decay_rate(alpha)
        est_s = decay_rate(s.coeffs)
        est_r = decay_rate(r_pos)
        floor = 20.0 * _EPS * (np.abs(r_pos) + np.abs(s.coeffs)) + UNDERFLOW_FLOOR
        hi = _signal_prefix(diff, floor, 2)
        if hi < 2:
            est_diff = RadiusEstimate(math.inf, (2, order), 0.0,
                                      "cauchy-hadamard-regression", 0)
        elif hi < 10:
            raise NumericalDegeneracyError(
                f"difference signal survives rounding only through index {hi}"
            )
        else:
            est_diff = decay_rate(diff, window=(2, hi), floor=floor)
    except (NumericalDegeneracyError, InvalidParameterError) as exc:
        return _inconclusive(check, slack, exc)
    sane = (_relative_gap(est_s.radius, r_alpha.radius) <= rel_tol
            and _relative_gap(est_r.radius, r_alpha.radius) <= rel_tol)
    if math.isinf(r_alpha.radius):
        threshold = math.inf
        claim = est_diff.is_infinite
    else:
        threshold = (r_alpha.radius ** 3) * (1.0 - slack)
        claim = est_diff.is_infinite or est_diff.radius >= threshold
    return VerificationReport(
        check_id=check,
        measured={
            "alpha_decay_radius": r_alpha.radius,
            "s_radius": est_s.radius,
            "r_radius": est_r.radius,
            "difference_radius": est_diff.radius,
            "threshold": threshold,
            "usable_points": float(est_diff.n_points),
        },
        tolerance=slack,
        passed=bool(sane and claim),
        notes="" if sane else "sanity leg failed: r or S radius is off the alpha decay",
    )


def jost_b_combination(u: TaylorSeries, b: TaylorSeries, order: int):
    """Laurent coefficients of (1 - z^2) u(z) + z^2 u(1/z) B(z).

    Returns (series, pos_scale, neg_scale) where the scale arrays hold the
    absolute-value sums that entered each coefficient, the natural yardstick
    for rounding noise in the heavily cancelling positive tail.
    """
    uc = u.coeffs
    bc = b.coeffs
    pos = np.zeros(order + 1, dtype=complex)
    neg = np.zeros(order + 1, dtype=complex)
    pos_scale = np.zeros(order + 1)
    neg_scale = np.zeros(order + 1)
    for m in range(min(order, len(uc) + 1) + 1):
        direct = uc[m] if m < len(uc) else 0.0
        shifted = uc[m - 2] if m >= 2 else 0.0
        pos[m] += direct - shifted
        pos_scale[m] += abs(direct) + abs(shifted)
    for k in range(len(uc)):
        for j in range(len(bc)):
            e = 2 - k + j
            term = uc[k] * bc[j]
            if 0 <= e <= order:
                pos[e] += term
                pos_scale[e] += abs(term)
            elif -order <= e < 0:
                neg[-e] += term
                neg_scale[-e] += abs(term)
    series = LaurentSeries.from_tails(pos[0], pos[1:], neg[1:])
    return series, pos_scale, neg_scale


def verify_jost_b_combination(coeffs: VerblunskyCoeffs, order: int = 64,
                              slack: float = 0.1) -> VerificationReport:
    """Annulus analyticity of (1 - z^2) u(z) + z^2 u(1/z) B(z).

    With mapped-coefficient decay rate 1/R (exponent 2n), the combination
    must be analytic in R^-1 < |z| < R^2: outer radius estimate at least
    R^2 (up to ``slack``), inner at most 1/R.  Real alpha only.
    """
    check = "jost-combination"
    if not coeffs.is_real():
        raise InvalidParameterError("this check needs real alpha")
    try:
        count = order // 2 + 1
        if coeffs.is_finitely_supported:
            available = count
        else:
            available = (len(coeffs.alpha) - 2) // 2
        b_arr, asq1 = geronimus_deltas(coeffs, min(count, available))
        delta = np.abs(b_arr) + np.abs(asq1)
        if not np.any(delta > UNDERFLOW_FLOOR):
            return VerificationReport(
                check_id=check,
                measured={"outer_radius": math.inf, "inner_radius": 0.0},
                tolerance=slack, passed=True,
                notes="free parameters; the combination is entire",
            )
        r_map, _ = _mapped_decay_radius(coeffs, order, None)
        u = u_from_dinv(coeffs, order=order).u
        bser = b_series_from_deltas(b_arr, asq1, order)
        series, pos_scale, neg_scale = jost_b_combination(u, bser, order)
        pos = np.concatenate(([series.coeff(0)], series.positive_tail()))
        neg = np.concatenate(([series.coeff(0)], series.negative_tail()))
        pos_floor = 20.0 * _EPS * pos_scale + UNDERFLOW_FLOOR
        neg_floor = 20.0 * _EPS * neg_scale + UNDERFLOW_FLOOR
        notes = ""
        if coeffs.is_finitely_supported:
            # u and B are exact polynomials, so the combination is a
            # Laurent polynomial: both tails terminate and the annulus is
            # all of C minus the origin.
            live_pos = np.nonzero(np.abs(pos) > 64.0 * pos_floor)[0]
            live_neg = np.nonzero(np.abs(neg) > 64.0 * neg_floor)[0]
            d_pos = int(live_pos.max()) if live_pos.size else 0
            d_neg = int(live_neg.max()) if live_neg.size else 0
            est_outer = RadiusEstimate(math.inf, (2, order), 0.0,
                                       "cauchy-hadamard-regression", 0)
            neg_fit = est_outer
            notes = (f"finitely supported parameters; Laurent polynomial "
                     f"tails end at degrees (+{d_pos}, -{d_neg})")
        else:
            pos_hi = _signal_prefix(pos, pos_floor, 2)
            neg_hi = _signal_prefix(neg, neg_floor, 2)
            if pos_hi < 10 or neg_hi < 10:
                raise NumericalDegeneracyError(
                    f"combination tails survive rounding only through indices "
                    f"({pos_hi}, {neg_hi})"
                )
            est_outer = decay_rate(pos, window=(2, pos_hi), floor=pos_floor)
            neg_fit = decay_rate(neg, window=(2, neg_hi), floor=neg_floor)
    except (NumericalDegeneracyError, InvalidParameterError) as exc:
        return _inconclusive(check, slack, exc)
    inner = 0.0 if neg_fit.is_infinite else 1.0 / neg_fit.radius
    if math.isinf(r_map):
        passed = est_outer.is_infinite and inner == 0.0
        outer_target, inner_target = math.inf, 0.0
    else:
        outer_target = (r_map ** 2) * (1.0 - slack)
        inner_target = (1.0 / r_map) * (1.0 + slack)
        passed = (est_outer.is_infinite or est_outer.radius >= outer_target) and inner <= inner_target
    return VerificationReport(
        check_id=check,
        measured={
            "mapped_decay_radius": r_map,
            "outer_radius": est_outer.radius,
            "inner_radius": inner,
            "outer_target": outer_target,
            "inner_target": inner_target,
        },
        tolerance=slack,
        passed=bool(passed),
        notes=notes,
    )


@dataclass(frozen=True)
class ProductSet:
    """Products z_1 ... z_{n+1} conj(z_{n+2}) ... conj(z_{2n+1}) of generators.

    Holds every distinct such product of magnitude <= cutoff over orders
    n = 0 .. n_max; the generators themselves are the n = 0 layer.
    """

    generators: tuple
    elements: tuple
    n_max: int
    cutoff: float

    def __post_init__(self):
        for g in self.generators:
            if min(abs(g - e) for e in self.elements) > 1e-10:
                raise InvalidParameterError("generators must appear among the elements")

    def nearest(self, z: complex) -> float:
        """Distance from z to the closest element."""
        if not self.elements:
            return math.inf
        return min(abs(z - e) for e in self.elements)


def gset(generators, cutoff: float, n_max: int | None = None) -> ProductSet:
    """Enumerate the conjugate-alternating product set of the generators.

    All products of n+1 generators and n conjugated generators (with
    repetition, any mixture), for n = 0 .. n_max, keeping magnitudes up to
    ``cutoff`` and deduplicating within 1e-10.  Every generator must lie
    strictly outside the closed unit disk, which makes the enumeration
    finite; ``n_max`` defaults to the largest order the cutoff allows.
    """
    gens = [complex(g) for g in generators]
    if not gens:
        return ProductSet(generators=(), elements=(), n_max=0, cutoff=float(cutoff))
    if min(abs(g) for g in gens) <= 1.0:
        raise InvalidParameterError("every generator must satisfy |z| > 1")
    if cutoff < max(abs(g) for g in gens):
        raise InvalidParameterError("cutoff must reach the largest generator")
    gmin = min(abs(g) for g in gens)
    auto = int(math.floor((math.log(cutoff) / math.log(gmin) - 1.0) / 2.0))
    n_hi = auto if n_max is None else min(int(n_max), auto)
    found = []
    for n in range(max(0, n_hi) + 1):
        for plain in combinations_with_replacement(gens, n + 1):
            p = complex(np.prod(plain))
            if abs(p) > cutoff * (1.0 + 1e-12):
                continue
            for conj_part in combinations_with_replacement(gens, n):
                v = p * complex(np.prod([np.conj(c) for c in conj_part])) if conj_part else p
                if abs(v) <= cutoff * (1.0 + 1e-12):
                    found.append(v)
    found.sort(key=lambda z: (z.real, z.imag))
    elements = []
    for v in found:
        if not elements or abs(v - elements[-1]) > 1e-10:
            elements.append(v)
    elements.sort(key=lambda z: (abs(z), z.real, z.imag))
    return ProductSet(
        generators=tuple(gens), elements=tuple(elements),
        n_max=max(0, n_hi), cutoff=float(cutoff),
    )


@dataclass(frozen=True)
class PadePole:
    """One denominator root of a rational approximant with its stability."""

    z: complex
    stable: bool
    movement: float


def _pade_denominator_roots(c: np.ndarray, ell: int, m: int) -> np.ndarray:
    rows = np.empty((m, m))
    for i in range(m):
        for j in range(1, m + 1):
            k = ell + 1 + i - j
            rows[i, j - 1] = c[k] if k >= 0 else 0.0
    rhs = -c[ell + 1 : ell + 1 + m]
    if not np.any(np.abs(rows) > 0.0):
        return np.empty(0, dtype=complex)
    cond = float(np.linalg.cond(rows))
    if not np.isfinite(cond) or cond > 1e13:
        raise IllConditionedError(cond, context=f"({ell},{m}) approximant normal equations")
    b = np.linalg.solve(rows, rhs)
    q = np.concatenate(([1.0], b))
    return np.polynomial.polynomial.polyroots(q)


def pade_pole_probe(series: TaylorSeries, degree: tuple) -> list:
    """Pole candidates of the (L, M) rational approximant to the series.

    A candidate is stable when it moves less than 1e-4 under refinement to
    (L+2, M); refinement needs series order >= L + M + 3, otherwise all
    candidates are flagged unstable.  Real-coefficient input is assumed
    (the fits use real normal equations).
    """
    ell, m = int(degree[0]), int(degree[1])
    if m < 1 or ell < 0:
        raise InvalidParameterError("degrees must satisfy L >= 0, M >= 1")
    if series.order < ell + m + 1:
        raise InvalidParameterError(
            f"series order {series.order} is too small for an ({ell},{m}) fit"
        )
    if np.max(np.abs(series.coeffs.imag)) > 0.0:
        raise InvalidParameterError("pole probing expects real coefficients")
    c = series.coeffs.real
    base = _pade_denominator_roots(c, ell, m)
    refined = None
    if series.order >= ell + m + 3:
        try:
            refined = _pade_denominator_roots(c, ell + 2, m)
        except IllConditionedError:
            refined = None
    out = []
    for z in base:
        if refined is not None and refined.size:
            movement = float(np.min(np.abs(refined - z)))
        else:
            movement = math.inf
        out.append(PadePole(z=complex(z), stable=bool(movement < 1e-4), movement=movement))
    out.sort(key=lambda p: (abs(p.z), p.z.real, p.z.imag))
    return out
