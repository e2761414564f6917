"""Decay-rate estimation, analyticity radii, and verification suites.

The one estimator, :func:`decay_rate`, fits log |c_n| against n over an
index window by least squares, which suppresses oscillating-coefficient
noise better than pointwise |c_n|^{-1/n}.  The four radius suites make
all nine fits through ``_fit``, the one place that picks the window (the
trailing half, or a difference series' signal prefix above its rounding
floor), cuts one too short and caches the fits suites share.  They run
their legs through ``_report``, the one place where an estimator failure
becomes an inconclusive report rather than an exception.
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
from .jost import b_series_from_deltas, finite_range_jost_data, geronimus_deltas, u_from_dinv
from .oprl import JacobiParams, eval_polys
from .opuc import VerblunskyCoeffs
from .series import TaylorSeries
from .szego import _support_end, _taylor_r, dinv_from_alphas, s_series

__all__ = [
    "RadiusEstimate",
    "VerificationReport",
    "ProductSet",
    "PadePole",
    "decay_rate",
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
# most candidate products gset tries, see gset (about 1 s at ~12 us each)
_GSET_MAX_CANDIDATES = 100_000
_VERDICTS = ("pass", "fail", "inconclusive")


@dataclass(frozen=True)
class RadiusEstimate:
    """Fitted radius of convergence with its regression diagnostics.

    ``radius`` is math.inf when the window is identically zero (or fully
    below the floor) or the fitted slope implies a radius beyond 1e6.
    """

    radius: float
    window: tuple
    fit_residual: float
    n_points: int


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


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification suite.

    ``verdict`` is "pass", "fail" or "inconclusive", the last where double
    precision cannot decide the claim.  The notes start with "inconclusive"
    exactly when the verdict is, so :meth:`rows`, which writes ``pass`` as
    true only for a pass, still tells the three apart.  ``measured`` is
    stored as a tuple of (name, value) pairs sorted by name so equal inputs
    give equal (and identically serialized) reports.
    """

    check_id: str
    measured: tuple
    tolerance: float
    verdict: str
    notes: str = ""

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise InvalidParameterError(f"verdict must be one of {_VERDICTS}, got {self.verdict!r}")
        if (self.verdict == "inconclusive") != self.notes.startswith("inconclusive"):
            raise InvalidParameterError("the notes must start with 'inconclusive' exactly when "
                                        f"the verdict is, got {self.verdict!r} with {self.notes!r}")
        items = self.measured
        if isinstance(items, dict):
            items = tuple(sorted(items.items()))
        else:
            items = tuple(sorted((str(k), v) for k, v in items))
        object.__setattr__(self, "measured", items)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

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
    """Last index of the contiguous run from lo that clears the floor
    ``_SIGNAL_GUARD`` times over, as accumulated rounding noise sits a modest
    multiple above one operation's.  A cancelling difference decays like its
    signal only until rounding noise takes over, after which its entries can
    wander back above the floor, so the run stops at the first failure."""
    v = values[lo:]
    clear = np.hypot(v.real, v.imag) > _SIGNAL_GUARD * floor[lo : len(values)]
    fails = np.flatnonzero(~clear)
    return lo - 1 + int(fails[0] if fails.size else len(v))


def _signal_ends(values, scale):
    """(signal prefix end from index 2, last index clearing the floor or 0)
    of sums whose terms have absolute sums ``scale``: 20 eps scale +
    ``UNDERFLOW_FLOOR`` bounds their rounding noise, which an entry must
    clear ``_SIGNAL_GUARD`` times over, as in :func:`_signal_prefix`."""
    floor = 20.0 * _EPS * scale + UNDERFLOW_FLOOR
    live = np.flatnonzero(np.hypot(values.real, values.imag) > _SIGNAL_GUARD * floor)
    return _signal_prefix(values, floor, 2), int(live[-1]) if live.size else 0


def _fit(values, scale=None, share=None):
    """The suites' one radius fit: (radius, usable points, window end).

    The window is :func:`decay_rate`'s trailing half or, given ``scale``,
    the signal prefix (2, hi) of a series of sums (see :func:`_signal_ends`).
    There hi < 2 gives the infinite sentinel, and hi < 10 no radius (None)
    for the caller to report under its series' name.  A fit that several
    suites read passes ``share = (coeffs._cache, key)`` and is kept there;
    its ``values`` may be a function that builds them, called on a miss.
    """
    cache, key = share or ({}, None)
    if key not in cache:
        values = values() if callable(values) else values
        window = None if scale is None else (2, _signal_ends(values, scale)[0])
        if window and window[1] < 10:
            cache[key] = (math.inf if window[1] < 2 else None), 0, window[1]
        else:
            # a prefix clears its floor throughout, so every point is used
            est = decay_rate(values, window)
            cache[key] = est.radius, est.n_points, est.window[1]
    return cache[key]


def _report(check_id: str, tolerance: float, legs) -> VerificationReport:
    """Run a radius suite's ``legs`` and package what they return.

    ``legs()`` returns (measured, verdict, notes), and an inconclusive leg
    keeps what it measured.  An estimator failure (NumericalDegeneracyError
    or InvalidParameterError) becomes an inconclusive report with nothing
    measured.
    """
    try:
        measured, verdict, notes = legs()
    except (NumericalDegeneracyError, InvalidParameterError) as exc:
        measured, verdict, notes = (), "inconclusive", f"inconclusive: {exc}"
    return VerificationReport(check_id=check_id, measured=measured,
                              tolerance=tolerance, verdict=verdict, notes=notes)


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
    verdict = "pass" if gap <= rel_tol else "fail"
    return {names[0]: first, names[1]: second, "relative_gap": gap}, verdict, notes


def verify_nevai_totik(coeffs: VerblunskyCoeffs, order: int = 64,
                       rel_tol: float = 0.05) -> VerificationReport:
    """Exponential alpha decay against the singularity radius of 1/D.

    Passes when the fitted alpha-decay radius and the fitted radius of the
    Taylor series of 1/D agree within ``rel_tol``; finitely supported alpha
    must produce the infinite sentinel on both sides.
    """
    def legs():
        r_alpha = _fit(coeffs.slice(order + 1), share=(coeffs._cache, ("alpha_fit", order)))[0]
        r_d = _fit(dinv_from_alphas(coeffs, order).coeffs)[0]
        return _agree(("alpha_decay_radius", "dinv_radius"), r_alpha, r_d, rel_tol)

    return _report("nevai-totik", rel_tol, legs)


def _mapped_decay_radius(coeffs: VerblunskyCoeffs) -> float:
    """Radius R with limsup (|b_n| + |a_n^2 - 1|)^(1/2n) = 1/R.

    Finitely supported alpha map to parameters that are free past the
    support, so R is infinite and no delta is built; the fit is shared.
    """
    if coeffs.is_finitely_supported:
        return math.inf
    count = (len(coeffs.alpha) - 2) // 2
    if count < 16:
        raise InvalidParameterError(f"{len(coeffs.alpha)} stored alphas give {max(count, 0)} "
                                    "mapped coefficients; the decay fit needs 16")

    def delta():
        b, asq1 = geronimus_deltas(coeffs, count)
        return np.abs(b) + np.abs(asq1)

    return math.sqrt(_fit(delta, share=(coeffs._cache, ("deltas_fit", count)))[0])


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
        r_u = _fit(u_from_dinv(coeffs, order=order).u.coeffs)[0]
        return _agree(("jacobi_decay_radius", "jost_radius"), r_jacobi, r_u, rel_tol)

    return _report("damanik-simon", rel_tol, legs)


def canonical_weight_check(params: JacobiParams) -> VerificationReport:
    """Point-mass weights of a finite-range measure against the Jost residue.

    For each disk zero z0 of the Jost polynomial, the eigenvalue residue
    lim (z - z0) M(z) = w / (1 - 1/z0^2), with w the point mass at
    E = z0 + 1/z0, must equal (z0 - 1/z0) / (u'(z0) u(1/z0)) within a
    relative 1e-4.  Free parameters have no disk zeros and pass trivially.

    The weight is exact, not read off a truncated matrix.  Past the range
    l = max(free_range_order, 1) the recursion is free, so the square-
    summable solution at E is p_k(E) = p_{l-1}(E) z0^(k-l+1) for k >= l-1,
    and the Christoffel sum closes in a geometric tail:
    1/w = sum_{k<l-1} p_k(E)^2 + p_{l-1}(E)^2 / (1 - z0^2).
    Near the band edge the tail factor amplifies the error in z0 by about
    2 / (1 - z0^2), so the zeros are the Newton-polished ones of
    :func:`~szegojost.jost.finite_range_jost_data`.  E is symmetric under
    z <-> 1/z, so u(1/z0) = z0^-l (p_l(E) - p_{l-1}(E) / z0) needs no
    coefficients of u at |z| > 1, where their rounding would grow by |z0|^-2l.
    A zero where |u(1/z0)| < 1e-10 max|u|, or a residue is 0 or not finite,
    makes the report inconclusive, with a note naming it.
    """
    check, rel_tol = "canonical-weights", 1e-4
    data = finite_range_jost_data(params)
    u, zeros = data.u, data.zeros_in_disk
    ell = max(params.free_range_order(), 1)
    if zeros.size == 0:
        return VerificationReport(
            check_id=check, measured={"n_zeros": 0.0}, tolerance=rel_tol,
            verdict="pass", notes="no disk zeros; nothing to check",
        )
    du = TaylorSeries(np.polynomial.polynomial.polyder(u.coeffs))
    measured = {"n_zeros": float(zeros.size)}
    worst, lost = 0.0, []
    # a zero whose terms over- or underflow is named below, not warned about
    with np.errstate(all="ignore"):
        u_floor = 1e-10 * float(np.max(np.abs(u.coeffs)))
        for i, z in enumerate(zeros):
            p = eval_polys(params, ell, (z + 1.0 / z).real).p
            u_reflected = z**-ell * (p[ell] - p[ell - 1] / z)
            rhs = (z - 1.0 / z) / (du(z) * u_reflected)
            weight = 1.0 / (np.sum(p[: ell - 1] ** 2) + p[ell - 1] ** 2 / (1.0 - z.real**2))
            residue = weight / (1.0 - 1.0 / z**2)
            # np.maximum, unlike max, keeps a nan deviation
            worst = float(np.maximum(worst, abs(residue - rhs) / abs(rhs)))
            if not (abs(u_reflected) >= u_floor
                    and 0 < abs(residue) < math.inf and 0 < abs(rhs) < math.inf):
                lost.append(f"{z:.6g}")
            measured[f"weight_{i}"] = float(weight)
            measured[f"residue_{i}"] = complex(residue)
            measured[f"jost_residue_{i}"] = complex(rhs)
    measured["worst_relative_deviation"] = worst
    verdict = "inconclusive" if lost else "pass" if worst <= rel_tol else "fail"
    notes = f"inconclusive: double precision loses the identity at z0 = {', '.join(lost)}"
    return VerificationReport(check_id=check, measured=measured, tolerance=rel_tol,
                              verdict=verdict, notes=notes if lost else "")


def verify_r_minus_s(coeffs: VerblunskyCoeffs, order: int = 96, rel_tol: float = 0.05,
                     slack: float = 0.1) -> VerificationReport:
    """Cubed-radius analyticity of the reflection remainder r - S.

    Sanity legs first: the positive Laurent tail of r and the Taylor series
    of S must both have radius R matching the alpha decay within ``rel_tol``.
    The claim leg passes when the fitted radius of r - S reaches R^3 up to
    ``slack``.  Coefficients of the difference below their rounding-noise
    level (the two terms agree to ~R^(-3k) out of magnitude R^(-k)) are
    excluded through an adaptive floor.

    The r_k come from :func:`~szegojost.szego._taylor_r`, which decides from
    the alphas how far D is built: when they vanish from an index
    s <= ``order``, D has unit l2 norm and is built only as far as its
    terms can move an r_k by a bit, otherwise through the last nonzero
    coefficient of 1/D.  Either way each r_k has the bits of the full build.
    """
    def legs():
        alpha = coeffs.slice(order + 1)
        dinv = dinv_from_alphas(coeffs, order)
        s = s_series(coeffs, order).coeffs
        r_range = _taylor_r(coeffs, dinv, order)
        if not np.any(np.abs(alpha) > UNDERFLOW_FLOOR):
            return ({"difference_radius": math.inf, "threshold": math.inf}, "pass",
                    "alpha is zero; r - S vanishes identically")
        r_alpha = _fit(alpha, share=(coeffs._cache, ("alpha_fit", order)))[0]
        r_s = _fit(s)[0]
        # the fits read the trailing half of r and the signal prefix of r - S;
        # no other r_k is formed, and the arrays keep their full length
        r_pos = np.zeros(order + 1, dtype=complex)
        tail = (order + 1) // 2
        r_pos[tail:] = r_range(tail, order)
        r_r = _fit(r_pos)[0]
        done = 0
        while True:
            grown = min(max(2 * done, 16), tail)
            r_pos[done:grown] = r_range(done, grown - 1)
            done = grown
            diff, scale = r_pos - s, np.abs(r_pos) + np.abs(s)
            # r_0 .. r_{done - 1} and the trailing half are formed, so a
            # failure below done is the first one of the full series
            if done == tail or _signal_ends(diff, scale)[0] + 1 < done:
                break
        r_diff, used, hi = _fit(diff, scale)
        if r_diff is None:
            raise NumericalDegeneracyError(
                f"difference signal survives rounding only through index {hi}")
        sane = _relative_gap(r_s, r_alpha) <= rel_tol and _relative_gap(r_r, r_alpha) <= rel_tol
        threshold = math.inf if math.isinf(r_alpha) else (r_alpha ** 3) * (1.0 - slack)
        measured = {
            "alpha_decay_radius": r_alpha,
            "s_radius": r_s,
            "r_radius": r_r,
            "threshold": threshold,
            "usable_points": float(used),
        }
        # _fit reads a difference at its floor from index 2 as one that
        # vanishes identically, which holds only for alphas that end within
        # the order; otherwise it underflowed and no radius was read
        if sane and hi < 2 and _support_end(coeffs) > order:
            return measured, "inconclusive", (
                f"inconclusive: difference signal survives rounding only through index {hi} "
                "though alpha does not end within the order")
        measured["difference_radius"] = r_diff
        claim = math.isinf(r_diff) or r_diff >= threshold
        return measured, "pass" if sane and claim else "fail", (
            "" if sane else "sanity leg failed: r or S radius is off the alpha decay")

    return _report("r-minus-s", slack, legs)


def jost_b_combination(u: TaylorSeries, b: TaylorSeries, order: int):
    """Laurent coefficients of (1 - z^2) u(z) + z^2 u(1/z) B(z), for real u and B.

    Returns real arrays (pos, neg, pos_scale, neg_scale) of length
    ``order + 1``: pos[e] is the coefficient of z^e and neg[d] that of
    z^-d, with neg[0] = pos[0] = c_0, so each tail is a sequence the decay
    fits read as it is.  The scale arrays hold the absolute-value sums that
    entered each coefficient (neg_scale[0] is 0), the natural yardstick for
    rounding noise in the heavily cancelling positive tail.  Real Jacobi
    parameters give real u and B (Damanik-Simon); complex input, and a
    non-finite coefficient, raise :class:`InvalidParameterError`.

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
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(neg))):
        raise InvalidParameterError("coefficients must be finite")
    neg[0] = pos[0]
    return pos, neg, pos_scale, neg_scale


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
        # a truncated alpha maps every stored pair once (cached on coeffs);
        # its first entries feed B and all of them the mapped decay radius
        stored = count if coeffs.is_finitely_supported else (len(coeffs.alpha) - 2) // 2
        b_arr, asq1 = (d[:count] for d in geronimus_deltas(coeffs, stored))
        delta = np.abs(b_arr) + np.abs(asq1)
        # an empty delta (order or stored alphas too short) is no evidence of
        # free parameters; _mapped_decay_radius reports the shortage
        if delta.size and not np.any(delta > UNDERFLOW_FLOOR):
            return ({"outer_radius": math.inf, "inner_radius": 0.0}, "pass",
                    "free parameters; the combination is entire")
        r_map = _mapped_decay_radius(coeffs)
        u = u_from_dinv(coeffs, order=order).u
        bser = b_series_from_deltas(b_arr, asq1, order)
        pos, neg, pos_scale, neg_scale = jost_b_combination(u, bser, order)
        if coeffs.is_finitely_supported:
            # u and B are exact polynomials, so the combination is a Laurent
            # polynomial: both tails terminate and the annulus is all of C minus
            # the origin.  Reading the degrees needs no fit, but orders below 9
            # stay inconclusive, as they were when this branch fitted (2, order).
            if order < 9:
                raise InvalidParameterError(
                    f"series order {order} is too short to read the tails; need >= 9")
            d_pos, d_neg = _signal_ends(pos, pos_scale)[1], _signal_ends(neg, neg_scale)[1]
            outer, inner = math.inf, 0.0
            notes = (f"finitely supported parameters; Laurent polynomial "
                     f"tails end at degrees (+{d_pos}, -{d_neg})")
        else:
            outer, pos_used, pos_hi = _fit(pos, pos_scale)
            r_neg, neg_used, neg_hi = _fit(neg, neg_scale)
            # a tail cut short, or lost to rounding from index 2, is no evidence
            if not (pos_used and neg_used):
                raise NumericalDegeneracyError("combination tails survive rounding only "
                                               f"through indices ({pos_hi}, {neg_hi})")
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
        return measured, "pass" if passed else "fail", notes

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

    The enumeration skips the conjugate parts of a plain product (n+1
    generators) above the cutoff, and tries all C(n+k-1, k-1) of them for
    one within it, for k generators.  So the candidates are counted as the
    plain products within the cutoff, judged by the sum of the generators'
    log-moduli, times C(n+k-1, k-1); more than ``_GSET_MAX_CANDIDATES`` in
    all raise :class:`InvalidParameterError` before any product is built.
    """
    if not math.isfinite(cutoff):
        raise InvalidParameterError(f"cutoff must be finite, got {cutoff!r}")
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
    k = len(gens)
    logs = sorted((math.log(abs(g)) for g in gens), reverse=True)
    limit = math.log(cutoff) + 1e-12
    candidates = 0
    for n in range(max(0, n_hi) + 1):
        within = _products_within(logs, n + 1, limit)
        candidates += within * math.comb(n + k - 1, k - 1)
        if candidates > _GSET_MAX_CANDIDATES:
            raise InvalidParameterError(
                f"cutoff {cutoff:g} needs more than {_GSET_MAX_CANDIDATES} candidate "
                f"products ({candidates} through order {n} of {n_hi}); lower the cutoff "
                "or cap the order with --n-max"
            )
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


def _products_within(logs, parts: int, limit: float) -> int:
    """How many multisets of ``parts`` generators have log-moduli summing to <= limit.

    ``logs`` holds the generators' log-moduli, all positive, in descending
    order.  Each exponent of the largest is tried in turn; the rest is
    counted whole once even its largest-only product is within the limit.
    """
    first, rest = logs[0], logs[1:]
    if not rest:
        return int(parts * first <= limit)
    count = 0
    for e in range(parts + 1):
        left = limit - e * first
        if left < 0.0:
            break
        if (parts - e) * rest[0] <= left:
            count += math.comb(parts - e + len(rest) - 1, len(rest) - 1)
        else:
            count += _products_within(rest, parts - e, left)
    return count


@dataclass(frozen=True)
class PadePole:
    """One denominator root of a rational approximant with its stability."""

    z: complex
    stable: bool
    movement: float


def _pade_denominator_roots(c: np.ndarray, ell: int, m: int) -> np.ndarray:
    # Toeplitz rows: entry (i, j) is c_{ell+i-j}, zero below index 0
    k = ell + np.arange(m)[:, None] - np.arange(m)
    rows = np.where(k >= 0, c[np.maximum(k, 0)], 0.0)
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
