"""Measure specifications, discretization, and coefficient ingestion.

A MeasureSpec is the human-writable description (JSON document) of a
probability measure on the unit circle or on [-2, 2]: a named analytic
weight family or inline samples, plus finitely many point masses.  Circle
specs realize to a CircleMeasure on a power-of-two grid; line specs realize
to a large PointMeasure on Gauss nodes of a reference free matrix, after an
integrability precheck on the endpoint behavior of the weight.
"""

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateMeasureError,
    InvalidParameterError,
    PreconditionError,
)
from .oprl import JacobiParams, PointMeasure
from .opuc import (
    CircleMeasure,
    VerblunskyCoeffs,
    _bernstein_szego_weight,
    _monic_buffers,
    _phi_star,
    _szego_step,
)

__all__ = [
    "MeasureSpec",
    "ExperimentConfig",
    "load_config",
    "realize_circle",
    "realize_line",
    "ingest_circle",
    "ingest_line",
    "parse_alpha_spec",
]

CONFIG_ENV_VAR = "SZEGOJOST_CONFIG"
_GAUSS_REFERENCE_SIZE = 2000
# ExperimentConfig fields read from the config's "tolerances" object
_TOLERANCES = ("one_sided_slack", "radius_rel")


@dataclass(frozen=True)
class MeasureSpec:
    """Declarative description of a circle or line probability measure.

    Exactly one of ``family`` (with ``family_params``) or ``samples`` gives
    the a.c. weight, which realization scales so that the total mass is 1.
    Point masses are (location, mass) pairs: unimodular locations for circle
    measures, real for line measures.
    """

    kind: str
    family: str | None = None
    family_params: tuple = ()
    samples: tuple | None = None
    point_masses: tuple = ()

    def __post_init__(self):
        if self.kind not in ("circle", "line"):
            raise InvalidParameterError(f"kind must be circle or line, got {self.kind!r}")
        if (self.family is None) == (self.samples is None):
            raise InvalidParameterError("specify exactly one of family or samples")
        if self.family is not None:
            table = _CIRCLE_FAMILIES if self.kind == "circle" else _LINE_FAMILIES
            if self.family not in table:
                raise InvalidParameterError(
                    f"unknown {self.kind} family {self.family!r}; choose from {tuple(table)}"
                )
            object.__setattr__(self, "family_params", tuple(float(p) for p in self.family_params))
        if self.samples is not None:
            arr = tuple(float(s) for s in self.samples)
            if len(arr) < 8:
                raise InvalidParameterError("inline samples need at least 8 points")
            if min(arr) < 0.0:
                raise InvalidParameterError("weight samples must be nonnegative")
            object.__setattr__(self, "samples", arr)
        masses = []
        total = 0.0
        for loc, mass in self.point_masses:
            loc, mass = complex(loc), float(mass)
            if mass <= 0.0:
                raise InvalidParameterError("point masses must be positive")
            total += mass
            if self.kind == "circle":
                if abs(abs(loc) - 1.0) > 1e-9:
                    raise InvalidParameterError(f"circle mass location {loc} is not unimodular")
                loc = loc / abs(loc)
            else:
                if abs(loc.imag) > 1e-12:
                    raise InvalidParameterError(f"line mass location {loc} is not real")
                loc = loc.real
            masses.append((loc, mass))
        if total >= 1.0:
            raise InvalidParameterError("point masses must total less than 1")
        object.__setattr__(self, "point_masses", tuple(masses))

    @classmethod
    def from_dict(cls, doc: dict) -> "MeasureSpec":
        known = {"kind", "acWeight", "pointMasses"}
        extra = set(doc) - known
        if extra:
            raise InvalidParameterError(f"unknown field(s) in measure document: {sorted(extra)}")
        if "kind" not in doc or "acWeight" not in doc:
            raise InvalidParameterError("measure document needs fields kind and acWeight")
        family, params, samples = None, (), None
        ac = doc["acWeight"]
        if isinstance(ac, str):
            name, _, rest = ac.partition(":")
            family = name.strip()
            if rest.strip():
                try:
                    params = tuple(float(tok) for tok in rest.split(","))
                except ValueError as exc:
                    raise InvalidParameterError(f"bad acWeight parameter list {rest!r}") from exc
        elif isinstance(ac, dict) and "samples" in ac:
            samples = ac["samples"]
            if not (isinstance(samples, list) and all(isinstance(s, (int, float, str))
                                                      for s in samples)):
                raise InvalidParameterError(f"samples must be a list of numbers, got {samples!r}")
            samples = tuple(samples)
        else:
            raise InvalidParameterError("acWeight must be 'family:params' or {'samples': [...]}")
        masses = doc.get("pointMasses", [])
        if not isinstance(masses, list) or not all(
                isinstance(m, list) and len(m) == 2 and isinstance(m[0], (int, float, str))
                and isinstance(m[1], (int, float)) and not isinstance(m[1], bool) for m in masses):
            raise InvalidParameterError("pointMasses must be a list of [location, mass] pairs "
                                        f"with a numeric mass, got {masses!r}")
        masses = tuple((m[0] if not isinstance(m[0], str) else complex(m[0]), m[1])
                       for m in masses)
        return cls(
            kind=doc["kind"],
            family=family,
            family_params=params,
            samples=samples,
            point_masses=masses,
        )

    @classmethod
    def from_file(cls, path: str) -> "MeasureSpec":
        import json

        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise InvalidParameterError("measure document must be a JSON object")
        return cls.from_dict(doc)


def _cosine_polynomial(params, thetas: np.ndarray) -> np.ndarray:
    w = np.ones_like(thetas)
    for j, cj in enumerate(params, start=1):
        w += cj * np.cos(j * thetas)
    if np.min(w) <= 0.0:
        raise InvalidParameterError("cosine-polynomial weight is not strictly positive")
    return w


# circle family name -> weight(family_params, thetas)
_CIRCLE_FAMILIES = {
    "uniform": lambda params, thetas: np.ones_like(thetas),
    "bernstein-szego": lambda alphas, thetas: _bernstein_szego_weight(
        VerblunskyCoeffs.finitely_supported(alphas), len(alphas), thetas),
    "cosine-polynomial": _cosine_polynomial,
}


def realize_circle(spec: MeasureSpec, grid_size: int = 4096) -> CircleMeasure:
    """Sample a circle spec onto its grid and normalize the total mass."""
    if spec.kind != "circle":
        raise InvalidParameterError("realize_circle needs a circle-kind spec")
    if spec.samples is not None:
        w = np.asarray(spec.samples, dtype=float)
    else:
        thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
        w = _CIRCLE_FAMILIES[spec.family](spec.family_params, thetas)
    mass_total = sum(m for _, m in spec.point_masses)
    mean = float(np.mean(w))
    if mean <= 0.0:
        raise PreconditionError("a.c. part vanishes; point-mass-only measures are excluded")
    scale = (1.0 - mass_total) / mean
    return CircleMeasure(weight=scale * w, point_masses=spec.point_masses)


@lru_cache(maxsize=8)
def _free_gauss_rule(size: int):
    """Gauss nodes and weights of the size-N free matrix, in closed form.

    The truncated free matrix has eigenvalues 2 cos(k pi/(N+1)) and
    first-component weights (2/(N+1)) sin^2(k pi/(N+1)); these quadrature
    nodes integrate polynomials of degree <= 2N-1 exactly against the
    semicircle density sqrt(4-x^2)/(2 pi).
    """
    k = np.arange(size, 0, -1)
    angles = k * np.pi / (size + 1)
    nodes = 2.0 * np.cos(angles)
    weights = (2.0 / (size + 1)) * np.sin(angles) ** 2
    return nodes, weights


def _szego_mapped(alphas):
    def density(x):
        x = np.asarray(x, dtype=float)
        theta = np.arccos(np.clip(x / 2.0, -1.0, 1.0))
        w = _CIRCLE_FAMILIES["bernstein-szego"](alphas, theta)
        return w * np.sqrt(np.maximum(4.0 - x**2, 0.0)) / (2.0 * np.pi)
    return density


# line family name -> density(family_params), a vectorized f(x) on (-2, 2)
_LINE_FAMILIES = {
    "semicircle-free": lambda params: lambda x: np.sqrt(
        np.maximum(4.0 - np.asarray(x) ** 2, 0.0)) / (2.0 * np.pi),
    "uniform": lambda params: lambda x: np.full_like(np.asarray(x, dtype=float), 0.25),
    "szego-mapped": _szego_mapped,
}


def _line_density(spec: MeasureSpec):
    """Vectorized a.c. density f(x) on (-2, 2), up to normalization."""
    if spec.samples is not None:
        xs = np.linspace(-2.0, 2.0, len(spec.samples))
        vals = np.asarray(spec.samples, dtype=float)
        return lambda x: np.interp(x, xs, vals)
    return _LINE_FAMILIES[spec.family](spec.family_params)


def check_line_integrability(spec: MeasureSpec) -> None:
    """Require f(x)/(4 - x^2) to be integrable, naming a divergent endpoint.

    The families carry a sqrt(4 - x^2) factor or are flat, and samples
    interpolate linearly, so the integral converges exactly at an endpoint
    where f vanishes; a nonzero f(+-2) makes it diverge logarithmically.
    """
    ends = _line_density(spec)(np.array([-2.0, 2.0]))
    bad = [name for name, f in zip(("-2", "+2"), ends) if f != 0.0]
    if bad:
        raise PreconditionError(
            "integral of f(x)/(4 - x^2) diverges at endpoint "
            + " and ".join(bad)
            + "; the weight does not vanish there"
        )


def realize_line(spec: MeasureSpec) -> PointMeasure:
    """Discretize a line spec on free-matrix Gauss nodes.

    The a.c. part is re-weighted from the semicircle reference rule, so
    polynomial integrals hold to Gauss accuracy; point masses are merged
    into the node list.
    """
    if spec.kind != "line":
        raise InvalidParameterError("realize_line needs a line-kind spec")
    nodes, gauss_w = _free_gauss_rule(_GAUSS_REFERENCE_SIZE)
    f = _line_density(spec)(nodes)
    if np.min(f) < 0.0:
        raise InvalidParameterError("line weight is negative somewhere on (-2, 2)")
    reference = np.sqrt(4.0 - nodes**2) / (2.0 * np.pi)
    w = gauss_w * f / reference
    total = float(np.sum(w))
    if total <= 0.0:
        raise PreconditionError("a.c. part vanishes; point-mass-only measures are excluded")
    mass_total = sum(m for _, m in spec.point_masses)
    w = (1.0 - mass_total) / total * w
    xs, ws = list(nodes), list(w)
    for loc, mass in spec.point_masses:
        j = int(np.searchsorted(xs, loc))
        if j < len(xs) and abs(xs[j] - loc) < 1e-12:
            ws[j] += mass
        elif j > 0 and abs(xs[j - 1] - loc) < 1e-12:
            ws[j - 1] += mass
        else:
            xs.insert(j, float(loc))
            ws.insert(j, mass)
    return PointMeasure(nodes=np.array(xs), weights=np.array(ws))


def _circle_support_size(measure) -> int:
    """Grid nodes plus the distinct atoms that sit on no grid node."""
    g = measure.grid_size
    off_grid = []
    for loc, _ in measure.point_masses:
        node = np.exp(2j * np.pi * round(np.angle(loc) * g / (2.0 * np.pi)) / g)
        if abs(loc - node) > 1e-12 and all(abs(loc - z) > 1e-12 for z in off_grid):
            off_grid.append(loc)
    return g + len(off_grid)


def ingest_circle(measure, n: int) -> VerblunskyCoeffs:
    """Recursion coefficients of a sampled circle measure, first n entries.

    The moments mu_j = integral of z^j d mu, j = 0..n, come from one inverse
    FFT of the grid weight (taken at j mod G, since the grid measure's
    moments are G-periodic) plus the atoms.  The monic recursion then runs
    on the moments alone, choosing each alpha_m so the next monic
    polynomial integrates to zero: alpha_m = conj(<z Phi_m> / <Phi_m^*>),
    with <z Phi_m> = sum_i phi_i mu_{i+1} and <Phi_m^*> = sum_i phi*_i mu_i.
    The cost is O(G log G + n^2).  The denominator is the squared monic
    norm; when it degenerates (or an alpha reaches the unit circle) the
    sampled measure cannot support the requested order.

    A measure on S points has alpha_0 .. alpha_{S-2} inside the disk and
    |alpha_{S-1}| = 1, where S is G plus the atoms off the grid nodes.  So
    n >= S raises at step S - 1 before any arithmetic, instead of letting
    rounding place the computed |alpha_{S-1}| on either side of the guard.
    """
    if isinstance(measure, MeasureSpec):
        measure = realize_circle(measure)
    if float(np.min(measure.weight)) <= 0.0:
        raise PreconditionError("ingestion needs a strictly positive a.c. weight")
    support = _circle_support_size(measure)
    if n >= support:
        raise DegenerateMeasureError(
            support - 1, f"the measure has {support} support points, so alpha_{support - 1} "
            "is unimodular"
        )
    powers = np.arange(n + 1)
    mu = np.fft.ifft(measure.weight)[powers % measure.grid_size]
    for loc, mass in measure.point_masses:
        mu = mu + mass * loc**powers
    alphas = np.zeros(n, dtype=complex)
    dot = np.dot
    buf, star = _monic_buffers(n)
    # an overflow leaves a non-finite alpha, which VerblunskyCoeffs refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(n):
            phi_star = _phi_star(buf, star, m)
            num = dot(buf[n - m :], mu[1 : m + 2])
            den = dot(phi_star, mu[: m + 1])
            if abs(den) < 1e-13:
                raise DegenerateMeasureError(
                    m, "monic norm collapsed; measure is numerically trivial"
                )
            alpha = np.conj(num / den)
            if abs(alpha) >= 1.0 - 1e-13:
                raise DegenerateMeasureError(
                    m, f"|alpha_{m}| = {abs(alpha):.6f} reached the unit circle"
                )
            alphas[m] = alpha
            _szego_step(buf, phi_star, np.conj(alpha), phi_star)
    return VerblunskyCoeffs(alpha=alphas)


def ingest_line(measure, n: int) -> JacobiParams:
    """Recursion coefficients of a line measure, first n rows.

    MeasureSpec inputs pass the endpoint integrability check and are
    discretized first; the coefficients then come from the discretized
    orthogonalization recurrence on the node values.
    """
    if isinstance(measure, MeasureSpec):
        check_line_integrability(measure)
        measure = realize_line(measure)
    x, w = measure.nodes, measure.weights
    if n > len(x):
        raise InvalidParameterError(f"order {n} exceeds the {len(x)} support points")
    a = np.zeros(n)
    b = np.zeros(n)
    p_prev = np.zeros_like(x)
    p = np.ones_like(x) / math.sqrt(float(np.sum(w)))
    a_prev = 0.0
    wx = w * x
    r = np.empty_like(x)
    tmp = np.empty_like(x)
    for m in range(n):
        # b_m = sum w x p^2;  r = (x - b_m) p - a_{m-1} p_{m-1};  a_m = |r|_w
        np.multiply(wx, p, out=tmp)
        tmp *= p
        b[m] = float(np.sum(tmp))
        np.subtract(x, b[m], out=r)
        r *= p
        np.multiply(a_prev, p_prev, out=tmp)
        r -= tmp
        np.multiply(w, r, out=tmp)
        tmp *= r
        norm_sq = float(np.sum(tmp))
        if norm_sq <= 1e-26:
            raise DegenerateMeasureError(m + 1, "residual norm collapsed; too few support points")
        a[m] = math.sqrt(norm_sq)
        np.divide(r, a[m], out=p_prev)
        p_prev, p = p, p_prev
        a_prev = a[m]
    return JacobiParams(a=a, b=b)


@dataclass(frozen=True)
class ExperimentConfig:
    """Run-wide defaults: series order, grid size, and the two suite tolerances.

    ``radius_rel`` bounds the relative gap of a two-sided radius comparison;
    ``one_sided_slack`` is the share a one-sided radius may fall short of
    its target.
    """

    series_order: int = 64
    grid_size: int = 4096
    radius_rel: float = 0.05
    one_sided_slack: float = 0.1

    def __post_init__(self):
        for name in _TOLERANCES:
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise InvalidParameterError(
                    f"tolerance {name!r} must be finite and >= 0, got {value!r}"
                )
        if self.one_sided_slack >= 1:
            raise InvalidParameterError(
                f"tolerance 'one_sided_slack' must be below 1, got {self.one_sided_slack!r}"
            )
        if self.series_order < 8:
            raise InvalidParameterError(
                f"config field 'seriesOrder' must be >= 8, got {self.series_order!r}"
            )
        g = self.grid_size
        if g < 4 * self.series_order or g & (g - 1) != 0:
            raise InvalidParameterError(
                f"grid size {g} must be a power of two >= 4 * series order"
            )

    def to_dict(self) -> dict:
        return {
            "seriesOrder": self.series_order,
            "gridSize": self.grid_size,
            "tolerances": {name: getattr(self, name) for name in _TOLERANCES},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Config from its JSON object; absent fields and tolerances keep their defaults."""
        extra = set(doc) - {"seriesOrder", "gridSize", "tolerances"}
        if extra:
            raise InvalidParameterError(f"unknown config field(s): {sorted(extra)}")
        fields = {}
        for key, name in (("seriesOrder", "series_order"), ("gridSize", "grid_size")):
            if key in doc:
                value = doc[key]
                # an integral float such as 64.0 is an integer; a bool is not
                if isinstance(value, bool) or not isinstance(value, (int, float)) or (
                        isinstance(value, float) and not value.is_integer()):
                    raise InvalidParameterError(
                        f"config field {key!r} must be an integer, got {value!r}"
                    )
                fields[name] = int(value)
        tol = doc.get("tolerances", {})
        if not isinstance(tol, dict):
            raise InvalidParameterError(f"config field 'tolerances' must be an object, got {tol!r}")
        extra = set(tol) - set(_TOLERANCES)
        if extra:
            raise InvalidParameterError(f"unknown tolerance name(s): {sorted(extra)}")
        for name, value in tol.items():
            # kept as given, so the sidecar writes the number back unchanged
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidParameterError(f"tolerance {name!r} must be a number, got {value!r}")
            fields[name] = value
        return cls(**fields)


def load_config(path: str | None = None) -> ExperimentConfig:
    """Config from an explicit path, the environment variable, or defaults."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return ExperimentConfig()
    import json

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InvalidParameterError("config document must be a JSON object")
    return ExperimentConfig.from_dict(doc)


def parse_alpha_spec(text: str, order: int = 64) -> VerblunskyCoeffs:
    """Coefficient sequences from generator notation, inline lists, or files.

    geometric:C=0.5,R=2   ->  alpha_n = C R^-n, entries 0..order (truncated)
    constant:c=0.25       ->  alpha_n = c, entries 0..order (truncated)
    0.5,0.25,0.125        ->  finitely supported, as listed
    file:coeffs.txt       ->  finitely supported, whitespace/comma separated

    The generated specs need ``order >= 0``; order 0 keeps alpha_0 alone.
    """
    text = text.strip()
    name, _, rest = text.partition(":")
    if name in ("geometric", "constant") and order < 0:
        raise InvalidParameterError(f"a {name}: spec needs order >= 0, got {order}")
    if name == "geometric":
        kv = _parse_kv(rest, ("C", "R"))
        c, r = kv["C"], kv["R"]
        if not r > 1.0:
            raise InvalidParameterError("geometric spec needs R > 1")
        alpha = c * r ** (-np.arange(order + 1, dtype=float))
        return VerblunskyCoeffs(alpha=alpha)
    if name == "constant":
        if "=" in rest:
            value = _parse_kv(rest, ("c",))["c"]
        else:
            value = float(rest)
        return VerblunskyCoeffs(alpha=np.full(order + 1, value))
    if name == "file":
        with open(rest.strip(), "r", encoding="utf-8") as fh:
            toks = fh.read().replace(",", " ").split()
        return VerblunskyCoeffs.finitely_supported([complex(t) for t in toks])
    try:
        values = [complex(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse coefficient spec {text!r}") from exc
    if not values:
        raise InvalidParameterError("empty coefficient spec")
    return VerblunskyCoeffs.finitely_supported(values)


def _parse_kv(rest: str, keys: tuple) -> dict:
    out = {}
    for tok in rest.split(","):
        key, eq, val = tok.partition("=")
        if not eq:
            raise InvalidParameterError(f"expected key=value, got {tok!r}")
        key = key.strip()
        if key not in keys:
            raise InvalidParameterError(f"unknown key {key!r}; expected {keys}")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise InvalidParameterError(f"bad numeric value in {tok!r}") from exc
    missing = [k for k in keys if k not in out]
    if missing:
        raise InvalidParameterError(f"missing key(s) {missing} in spec")
    return out
