"""Decay-rate estimation, analyticity radii, and verification suites.

The estimators fit log |c_n| against n over a trailing window by least
squares, which suppresses oscillating-coefficient noise better than
pointwise |c_n|^{-1/n}.  Verification suites package measured radii and
deviations into deterministic reports.  The four radius suites run their
legs through ``_report``, the one place where an estimator failure becomes
an inconclusive (failed) report rather than an exception.
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
from .oprl import JacobiParams, eval_polys
from .opuc import VerblunskyCoeffs
from .series import LaurentSeries, TaylorSeries
from .szego import _r_by_product, dinv_from_alphas, s_series

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
# jost_b_combination drops rows whose sum stays below this share of each scale
_ROW_STOP = 2.0 ** -110
# margin of a difference series over its rounding floor, see _signal_prefix
_SIGNAL_GUARD = 64.0


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
    n_points: int

    def __post_init__(self):
        lo, hi = self.window
        if hi - lo + 1 < 8:
            raise InvalidParameterError("estimation window must span >= 8 indices")
        if not (self.radius >= 0.0):
            raise InvalidParameterError("radius must be nonnegative")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.radius)


def decay_rate(seq, window=None, floor=UNDERFLOW_FLOOR) -> RadiusEstimate:
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
        return RadiusEstimate(math.inf, (lo, hi), 0.0, 0)
    if used < 4:
        raise NumericalDegeneracyError(
            f"only {used} usable points in window ({lo}, {hi}); need >= 4"
        )
    x = idx[mask].astype(float)
    y = np.log(w_vals[mask])
    slope, intercept = np.polyfit(x, y, 1)
    radius = float(np.exp(-slope))
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    if radius > INFINITE_RADIUS_CUTOFF:
        radius = math.inf
    return RadiusEstimate(radius, (lo, hi), residual, used)


def radius_estimate(series):
    """Radius of convergence from Taylor coefficients.

    A TaylorSeries yields one estimate.  A LaurentSeries yields the pair
    (inner, outer): the outer estimate fits the positive-index tail; the
    inner one fits the negative-index tail and reports its reciprocal, the
    inner edge of the annulus of convergence (0.0 when there is no negative
    tail above the floor).
    """
    if isinstance(series, TaylorSeries):
        return decay_rate(series.coeffs)
    if isinstance(series, LaurentSeries):
        pos = np.concatenate(([series.coeff(0)], series.positive_tail()))
        neg = np.concatenate(([series.coeff(0)], series.negative_tail()))
        outer = decay_rate(pos)
        neg_fit = decay_rate(neg)
        inner_radius = 0.0 if neg_fit.is_infinite else 1.0 / neg_fit.radius
        inner = RadiusEstimate(inner_radius, neg_fit.window, neg_fit.fit_residual, neg_fit.n_points)
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


def _signal_prefix(values: np.ndarray, floor: np.ndarray, lo: int) -> int:
    """Last index of the contiguous run from lo that clears the floor.

    Cancellation-limited difference series decay like the true signal only
    up to the point where rounding noise takes over; beyond it the entries
    can wander back above a magnitude-proportional floor.  Accumulated
    rounding noise sits a modest multiple above the single-operation floor,
    so a clean margin (``_SIGNAL_GUARD``) is required as well; truncating at
    the first failure keeps the regression on the genuine-signal prefix.
    """
    v = values[lo:]
    clear = np.hypot(v.real, v.imag) > _SIGNAL_GUARD * floor[lo : len(values)]
    fails = np.flatnonzero(~clear)
    return lo - 1 + int(fails[0] if fails.size else len(v))


def _rounding_floor(scale):
    """Rounding-noise level of sums whose terms have absolute sum ``scale``."""
    return 20.0 * _EPS * scale + UNDERFLOW_FLOOR


def _report(check_id: str, tolerance: float, legs) -> VerificationReport:
    """Run a radius suite's ``legs`` and package what they return.

    ``legs()`` returns (measured, passed, notes).  An estimator failure
    (NumericalDegeneracyError or InvalidParameterError) becomes an
    inconclusive, failed report with nothing measured.
    """
    try:
        measured, passed, notes = legs()
    except (NumericalDegeneracyError, InvalidParameterError) as exc:
        measured, passed, notes = (), False, f"inconclusive: {exc}"
    return VerificationReport(check_id=check_id, measured=measured,
                              tolerance=tolerance, passed=bool(passed), notes=notes)


def _relative_gap(x: float, y: float) -> float:
    if math.isinf(x) and math.isinf(y):
        return 0.0
    if math.isinf(x) or math.isinf(y):
        return math.inf
    return abs(x - y) / max(abs(x), 1e-300)


def _agree(names: tuple, first: float, second: float, rel_tol: float):
    """Legs of a two-sided radius comparison: the radii under ``names``,
    their relative gap, and a pass when the gap is within ``rel_tol``."""
    gap = _relative_gap(first, second)
    notes = "both sides report the infinite-radius sentinel" if (
        math.isinf(first) and math.isinf(second)) else ""
    return {names[0]: first, names[1]: second, "relative_gap": gap}, gap <= rel_tol, notes


def verify_nevai_totik(coeffs: VerblunskyCoeffs, order: int = 64,
                       rel_tol: float = 0.05) -> VerificationReport:
    """Exponential alpha decay against the singularity radius of 1/D.

    Passes when the fitted alpha-decay radius and the fitted radius of the
    Taylor series of 1/D agree within ``rel_tol``; finitely supported alpha
    must produce the infinite sentinel on both sides.
    """
    def legs():
        r_alpha = decay_rate(coeffs.slice(order + 1)).radius
        r_d = radius_estimate(dinv_from_alphas(coeffs, order)).radius
        return _agree(("alpha_decay_radius", "dinv_radius"), r_alpha, r_d, rel_tol)

    return _report("nevai-totik", rel_tol, legs)


def _mapped_decay_radius(coeffs: VerblunskyCoeffs, deltas=None) -> float:
    """Radius R with limsup (|b_n| + |a_n^2 - 1|)^(1/2n) = 1/R.

    Finitely supported alpha map to parameters that are free past the
    support, so R is infinite and no delta is built.  A caller that holds
    ``geronimus_deltas(coeffs, (len(coeffs.alpha) - 2) // 2)`` passes it as
    ``deltas``.
    """
    if coeffs.is_finitely_supported:
        return math.inf
    count = (len(coeffs.alpha) - 2) // 2
    if count < 16:
        raise InvalidParameterError(
            f"{len(coeffs.alpha)} stored alphas give {max(count, 0)} mapped "
            "coefficients; the decay fit needs 16"
        )
    b, asq1 = geronimus_deltas(coeffs, count) if deltas is None else deltas
    delta = np.abs(b) + np.abs(asq1)
    if not np.any(delta > UNDERFLOW_FLOOR):
        return math.inf
    return math.sqrt(decay_rate(delta).radius)


def verify_damanik_simon(coeffs: VerblunskyCoeffs, order: int = 64,
                         rel_tol: float = 0.05) -> VerificationReport:
    """Mapped Jacobi-coefficient decay against the Jost-function radius.

    The mapped parameters decay with exponent 2n at rate 1/R; the Jost
    series u built through 1/D must have radius R as well.  Real alpha only.
    """
    if not coeffs.is_real():
        raise InvalidParameterError("this check needs real alpha")

    def legs():
        r_jacobi = _mapped_decay_radius(coeffs)
        r_u = radius_estimate(u_from_dinv(coeffs, order=order).u).radius
        return _agree(("jacobi_decay_radius", "jost_radius"), r_jacobi, r_u, rel_tol)

    return _report("damanik-simon", rel_tol, legs)


def canonical_weight_check(params: JacobiParams, rel_tol: float = 1e-4) -> VerificationReport:
    """Point-mass weights of a finite-range measure against the Jost residue.

    For each disk zero z0 of the Jost polynomial, the eigenvalue residue
    lim (z - z0) M(z) = w / (1 - 1/z0^2), with w the point mass at
    E = z0 + 1/z0, must equal (z0 - 1/z0) / (u'(z0) u(1/z0)).  Free
    parameters have no disk zeros and pass trivially.

    The weight is exact, not read off a truncated matrix.  Past the range
    l = max(free_range_order, 1) the recursion is free, so the square-
    summable solution at E is p_k(E) = p_{l-1}(E) z0^(k-l+1) for k >= l-1,
    and the Christoffel sum closes in a geometric tail:
    1/w = sum_{k<l-1} p_k(E)^2 + p_{l-1}(E)^2 / (1 - z0^2).
    Near the band edge the tail factor amplifies the error in z0 by about
    2 / (1 - z0^2), so each zero first gets one Newton step on
    z^-l u(z) = p_l(E) - z p_{l-1}(E), evaluated by the recursion instead of
    from the rounded coefficients of u.
    """
    check = "canonical-weights"
    u = jost_g_ell(params)
    c = u.coeffs
    roots = _disk_roots(u)
    if roots.size == 0:
        return VerificationReport(
            check_id=check, measured={"n_zeros": 0.0}, tolerance=rel_tol,
            passed=True, notes="no disk zeros; nothing to check",
        )
    ell = max(params.free_range_order(), 1)
    du = TaylorSeries(np.polynomial.polynomial.polyder(u.coeffs))
    measured = {"n_zeros": float(roots.size)}
    worst = 0.0
    for i, z in enumerate(roots):
        p = eval_polys(params, ell, (z + 1.0 / z).real).p
        z = z - z**ell * (p[ell] - z * p[ell - 1]) / du(z)
        u_reflected = u(1.0 / z)
        if abs(u_reflected) < 1e-10 * float(np.max(np.abs(c))):
            raise NumericalDegeneracyError(
                f"u(1/z0) vanishes at z0 = {z:.6g}; zero/resonance collision"
            )
        rhs = (z - 1.0 / z) / (du(z) * u_reflected)
        e0 = z + 1.0 / z
        p = eval_polys(params, ell, e0.real).p
        weight = 1.0 / (np.sum(p[: ell - 1] ** 2) + p[ell - 1] ** 2 / (1.0 - z.real**2))
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
    def legs():
        alpha = coeffs.slice(order + 1)
        dinv = dinv_from_alphas(coeffs, order)
        s = s_series(coeffs, order).coeffs
        r_pos = _r_by_product(dinv, 0, order)
        if not np.any(np.abs(alpha) > UNDERFLOW_FLOOR):
            return ({"difference_radius": math.inf, "threshold": math.inf}, True,
                    "alpha is zero; r - S vanishes identically")
        r_alpha = decay_rate(alpha).radius
        r_s = decay_rate(s).radius
        r_r = decay_rate(r_pos).radius
        diff = r_pos - s
        floor = _rounding_floor(np.abs(r_pos) + np.abs(s))
        hi = _signal_prefix(diff, floor, 2)
        if hi < 2:
            r_diff, used = math.inf, 0
        elif hi < 10:
            raise NumericalDegeneracyError(
                f"difference signal survives rounding only through index {hi}"
            )
        else:
            est = decay_rate(diff, window=(2, hi), floor=floor)
            r_diff, used = est.radius, est.n_points
        sane = _relative_gap(r_s, r_alpha) <= rel_tol and _relative_gap(r_r, r_alpha) <= rel_tol
        threshold = math.inf if math.isinf(r_alpha) else (r_alpha ** 3) * (1.0 - slack)
        measured = {
            "alpha_decay_radius": r_alpha,
            "s_radius": r_s,
            "r_radius": r_r,
            "difference_radius": r_diff,
            "threshold": threshold,
            "usable_points": float(used),
        }
        claim = math.isinf(r_diff) or r_diff >= threshold
        return measured, sane and claim, (
            "" if sane else "sanity leg failed: r or S radius is off the alpha decay")

    return _report("r-minus-s", slack, legs)


def jost_b_combination(u: TaylorSeries, b: TaylorSeries, order: int):
    """Laurent coefficients of (1 - z^2) u(z) + z^2 u(1/z) B(z), for real u and B.

    Returns (series, pos_scale, neg_scale) where the scale arrays hold the
    absolute-value sums that entered each coefficient, the natural yardstick
    for rounding noise in the heavily cancelling positive tail.  Real Jacobi
    parameters give real u and B (Damanik-Simon); complex input raises
    :class:`InvalidParameterError`.

    u_k b_j lands at exponent e = 2 - k + j.  The positive tail adds one row
    of B per u_k, the negative tail one row of u per b_j, so every
    coefficient receives its terms in increasing k, as in the scalar double
    loop over (k, j); a convolution or dot product would change the
    summation order.

    Every 8 rows a tail stops once its scale entries are finite and the
    rows left, bounded by a suffix sum of one factor's moduli times a suffix
    maximum of the other's, come to at most 2^-110 of each of them.  No value
    the suite reads moves.  Each dropped term is below half an ulp of any
    partial sum above 2^-52 * scale, so each such coefficient, and every
    scale entry, is bitwise the full sum.  Every other coefficient stays
    below (2^-52 + 2^-109) * scale in both versions, far under the
    64 * 20 * eps * scale cut of the suite's signal prefix and of its
    finite-support degree test, so its windows, fits and notes are
    unchanged.
    """
    if not (u.is_real() and b.is_real()):
        raise InvalidParameterError("the B-combination needs real u and B")
    if order < 1:
        raise InvalidParameterError("series order must be >= 1")
    uc = u.coeffs.real
    bc = b.coeffs.real
    nu, nb = len(uc), len(bc)
    pos = np.zeros(order + 1)
    neg = np.zeros(order + 1)
    pos_scale = np.zeros(order + 1)
    neg_scale = np.zeros(order + 1)
    # the (1 - z^2) u(z) part: u_m - u_{m-2} at exponent m
    head = min(order, nu + 1) + 1
    direct = np.zeros(head)
    shifted = np.zeros(head)
    direct[: min(head, nu)] = uc[:head]
    shifted[2:] = uc[: max(head - 2, 0)]
    pos[:head] += direct - shifted
    pos_scale[:head] += np.abs(direct) + np.abs(shifted)

    def add_row(out, scale, at, x, y):
        term = x * y
        out[at] += term
        scale[at] += np.abs(term)

    def bounds(x, y):
        # suffix sums of |x| and suffix maxima of |y|, zero past the ends
        size = nu + nb + order + 3
        rest, peak = np.zeros(size), np.zeros(size)
        rest[: len(x)] = np.cumsum(np.abs(x)[::-1])[::-1]
        peak[: len(y)] = np.maximum.accumulate(np.abs(y)[::-1])[::-1]
        return rest, peak

    def settled(bound, scale):
        return np.all(bound <= _ROW_STOP * scale) and np.all(np.isfinite(scale))

    # positive tail: row k puts u_k b_j at e = 2 - k + j for e in [0, order]
    u_rest, b_peak = bounds(uc, bc)
    for k in range(nu):
        if k % 8 == 0 and k and settled(u_rest[k] * b_peak[k - 2 : k - 1 + order], pos_scale):
            break
        lo, hi = max(0, k - 2), min(nb, order + k - 1)
        if lo < hi:
            add_row(pos, pos_scale, slice(2 - k + lo, 2 - k + hi), uc[k], bc[lo:hi])
    # negative tail: row j puts b_j u_k at d = k - 2 - j for d in [1, order]
    b_rest, u_peak = bounds(bc, uc)
    for j in range(nb):
        hi = min(nu, j + 3 + order)
        if j + 3 >= hi:
            break
        if j % 8 == 0 and j and settled(b_rest[j] * u_peak[j + 3 : j + 3 + order], neg_scale[1:]):
            break
        add_row(neg, neg_scale, slice(1, hi - j - 2), uc[j + 3 : hi], bc[j])
    series = LaurentSeries.from_tails(pos[0], pos[1:], neg[1:])
    return series, pos_scale, neg_scale


def verify_jost_b_combination(coeffs: VerblunskyCoeffs, order: int = 64,
                              slack: float = 0.1) -> VerificationReport:
    """Annulus analyticity of (1 - z^2) u(z) + z^2 u(1/z) B(z).

    With mapped-coefficient decay rate 1/R (exponent 2n), the combination
    must be analytic in R^-1 < |z| < R^2: outer radius estimate at least
    R^2 (up to ``slack``), inner at most 1/R.  Real alpha only.
    """
    if not coeffs.is_real():
        raise InvalidParameterError("this check needs real alpha")

    def legs():
        count = order // 2 + 1
        # a truncated alpha maps every stored pair once; its first entries
        # feed B and all of them the mapped decay radius
        stored = count if coeffs.is_finitely_supported else (len(coeffs.alpha) - 2) // 2
        mapped = geronimus_deltas(coeffs, stored)
        b_arr, asq1 = (d[:count] for d in mapped)
        delta = np.abs(b_arr) + np.abs(asq1)
        # an empty delta (order or stored alphas too short) is no evidence of
        # free parameters; _mapped_decay_radius reports the shortage
        if delta.size and not np.any(delta > UNDERFLOW_FLOOR):
            return ({"outer_radius": math.inf, "inner_radius": 0.0}, True,
                    "free parameters; the combination is entire")
        r_map = _mapped_decay_radius(coeffs, mapped)
        u = u_from_dinv(coeffs, order=order).u
        bser = b_series_from_deltas(b_arr, asq1, order)
        series, pos_scale, neg_scale = jost_b_combination(u, bser, order)
        pos = np.concatenate(([series.coeff(0)], series.positive_tail()))
        neg = np.concatenate(([series.coeff(0)], series.negative_tail()))
        pos_floor = _rounding_floor(pos_scale)
        neg_floor = _rounding_floor(neg_scale)
        if coeffs.is_finitely_supported:
            # u and B are exact polynomials, so the combination is a
            # Laurent polynomial: both tails terminate and the annulus is
            # all of C minus the origin.  Reading the degrees needs no fit,
            # but the branch keeps the fitted one's shortest window (2, order).
            if order - 1 < 8:
                raise InvalidParameterError("estimation window must span >= 8 indices")
            live_pos = np.nonzero(np.abs(pos) > _SIGNAL_GUARD * pos_floor)[0]
            live_neg = np.nonzero(np.abs(neg) > _SIGNAL_GUARD * neg_floor)[0]
            d_pos = int(live_pos.max()) if live_pos.size else 0
            d_neg = int(live_neg.max()) if live_neg.size else 0
            outer, inner = math.inf, 0.0
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
            outer = decay_rate(pos, window=(2, pos_hi), floor=pos_floor).radius
            r_neg = decay_rate(neg, window=(2, neg_hi), floor=neg_floor).radius
            inner = 0.0 if math.isinf(r_neg) else 1.0 / r_neg
            notes = ""
        if math.isinf(r_map):
            outer_target, inner_target = math.inf, 0.0
        else:
            outer_target = (r_map ** 2) * (1.0 - slack)
            inner_target = (1.0 / r_map) * (1.0 + slack)
        measured = {
            "mapped_decay_radius": r_map,
            "outer_radius": outer,
            "inner_radius": inner,
            "outer_target": outer_target,
            "inner_target": inner_target,
        }
        passed = (math.isinf(outer) or outer >= outer_target) and inner <= inner_target
        return measured, passed, notes

    return _report("jost-combination", slack, legs)


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
