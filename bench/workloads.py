"""Seeded op generators for the three workloads.

An op is one ``szegojost`` command line plus what the oracle needs to check
its output.  Each workload yields rounds: a round has a fixed mix of op
kinds, so every run of a workload measures the same mix whatever the seed.
Measure documents are written to a work directory when their round is
generated, outside the timed region.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

# Every workload draws only inputs on which the package at the benchmark's
# first commit is correct, so a run's ``failed`` count is 0 and any failure
# is a regression.  The inputs on which that commit fails are kept in the
# ``known-defects`` workload (not timed by BENCHMARK.json); see BASELINE.md.
#
# verify-1024 runs a fixed panel of (R, C) draws spread over R in [1.2, 3.4]
# with both signs of C.  At order 1024 the cost of one op is dominated by a
# companion eigensolve whose iteration count jumps between neighbouring
# inputs (1 s to 27 s per op for R in [1.2, 5] and |C| in [0.1, 0.7]), so
# a handful of fresh draws per run would make the run's mean cost a lottery.
# The seed orders the panel; the panel itself is the workload.  Above
# R = 3.4 the decay fits of `verify all` meet coefficients that underflow
# to 0 and report radius inf (a known defect).  Three of the ten ops
# (verify at R = 3.0, 3.2, 3.4) cost about the same and sit in the middle,
# so the median op stays inside that cluster when single ops jitter.  The
# panel's round (about 35 s on a 2-core x86_64 container) must fit twice,
# untraced and traced, into one traced run.
VERIFY_PANEL = ((1.2, -0.3), (2.5, -0.6), (3.0, 0.2), (3.2, -0.15), (3.4, 0.1))
VERIFY_ORDER = 1024
# Geometric draws elsewhere take R in [2.2, 3.6].  At order 64, below
# R = 2 the jost-combination suite fails plainly and the r series aliases,
# and above R = 4 it fails plainly on scattered draws (known defects).
GEOMETRIC_R = (2.2, 3.6)
# Bernstein-Szego documents: 1..8 alphas in (-0.3, 0.3).  Larger or longer
# draws put a zero of phi_n* within 1 % of the circle, where the sampled
# grids alias (known defect); these keep every zero beyond 1.03.
BS_ALPHA_MAX = 0.3
BS_ALPHA_COUNT = 8
INTERACTIVE_ORDER = 64


@dataclass
class Op:
    """One command line and the facts its check needs."""

    kind: str
    argv: list
    ref: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


def _geometric(c: float, r: float) -> str:
    return f"geometric:C={_fmt(c)},R={_fmt(r)}"


def _list(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _signed(rng, lo: float, hi: float) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def _geometric_draw(rng):
    return _signed(rng, 0.1, 0.7), float(rng.uniform(*GEOMETRIC_R))


def _unit(rng) -> complex:
    t = rng.uniform(0.0, 2.0 * np.pi)
    return complex(np.cos(t), np.sin(t))


def _complex_token(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.17g}j"


# ------------------------------------------------------------------ verify-1024

def verify_rounds(rng, workdir):
    while True:
        ops = []
        for r, c in VERIFY_PANEL:
            spec = _geometric(c, r)
            ref = {"C": c, "R": r, "order": VERIFY_ORDER}
            ops.append(Op("verify-geometric", ["verify", "all", "--alpha", spec,
                                               "--order", str(VERIFY_ORDER)], ref))
            ops.append(Op("jost-geometric", ["jost", "--what", "zeros", "--alpha", spec,
                                             "--order", str(VERIFY_ORDER)], ref))
        yield [ops[i] for i in rng.permutation(len(ops))]


# ----------------------------------------------------------------- measure-series

class _DocWriter:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, doc: dict) -> str:
        body = {"kind": doc["kind"], "acWeight": doc["acWeight"]}
        if doc.get("masses"):
            body["pointMasses"] = [[_complex_token(loc), m] for loc, m in doc["masses"]]
        path = os.path.join(self.workdir, f"measure-{self.count:05d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
        return path


def _bs_alphas(rng):
    return [float(v) for v in rng.uniform(-BS_ALPHA_MAX, BS_ALPHA_MAX,
                                          size=int(rng.integers(1, BS_ALPHA_COUNT + 1)))]


def _cosine_coeffs(rng):
    c = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 9)))
    # sum |c_j| < 1 keeps the weight strictly positive (above 1 - sum |c_j|)
    return [float(v) for v in c * rng.uniform(0.2, 0.9) / np.sum(np.abs(c))]


def _circle_doc(rng, family: str, mass: bool) -> dict:
    params = {"bernstein-szego": _bs_alphas, "cosine-polynomial": _cosine_coeffs,
              "uniform": lambda _: []}[family](rng)
    masses = [(_unit(rng), float(rng.uniform(0.01, 0.2)))] if mass else []
    return {"kind": "circle", "family": family, "params": params, "masses": masses,
            "acWeight": f"{family}:{_list(params)}" if params else family}


def measure_rounds(rng, workdir):
    docs = _DocWriter(workdir)
    while True:
        ops = []
        # 13 ops a round, so the median op is the middle of one kind's spread
        # (an even count puts it in the gap between two kinds' costs)
        circle = [(family, n) for family in ("bernstein-szego", "cosine-polynomial")
                  for n in (64, 128, 256)] + [("uniform", 128)]
        for family, n in circle:
            doc = _circle_doc(rng, family, bool(rng.integers(0, 2)))
            ops.append(Op("ingest-circle", ["coeffs", "--from-measure", docs.write(doc),
                                            "--n", str(n)], {"doc": doc, "n": n}))
        alphas = _bs_alphas(rng)
        doc = {"kind": "line", "family": "szego-mapped", "params": alphas, "masses": [],
               "acWeight": f"szego-mapped:{_list(alphas)}"}
        n = int(rng.integers(16, 201))
        ops.append(Op("ingest-line", ["coeffs", "--from-measure", docs.write(doc), "--n", str(n)],
                      {"doc": doc, "n": n}))
        doc = {"kind": "line", "family": "semicircle-free", "params": [], "masses": [],
               "acWeight": "semicircle-free"}
        n = int(rng.integers(16, 201))
        ops.append(Op("ingest-line", ["coeffs", "--from-measure", docs.write(doc), "--n", str(n)],
                      {"doc": doc, "n": n}))
        for family in ("bernstein-szego", "cosine-polynomial"):
            doc = _circle_doc(rng, family, False)
            ops.append(Op("szego-d", ["szego", "--from-measure", docs.write(doc),
                                      "--order", "1024"], {"doc": doc, "order": 1024}))
        alphas = _bs_alphas(rng)
        ops.append(Op("szego-r-list", ["szego", "--series", "r", f"--alpha={_list(alphas)}",
                                       "--order", "1024"], {"alphas": alphas, "order": 1024}))
        c, r = _geometric_draw(rng)
        omega = _unit(rng)
        ops.append(Op("popuc", ["popuc", "--alpha", _geometric(c, r), "--n", "256",
                                f"--omega={_fmt(omega.real)},{_fmt(omega.imag)}"], {"n": 256}))
        yield [ops[i] for i in rng.permutation(len(ops))]


# ----------------------------------------------------------------- interactive-64

def _finite_range(rng):
    """Jacobi parameters of range 1..6 with exactly one bound state, well off the band.

    One diagonal entry has |b_k| >= 2.2, so the Rayleigh quotient at e_k puts
    an eigenvalue outside [-2, 2]; a_l = 1 makes the range exactly l.  The
    other entries (a_j <= 1, |b_j| <= 0.2) are too weak to bind a second
    state near the band edge, where the Jost zeros and the truncated-matrix
    oracle lose accuracy (see the known-defects workload).
    """
    a, b = _weak_range(rng)
    b[int(rng.integers(0, len(b)))] = _signed(rng, 2.2, 3.5)
    return [float(v) for v in a], [float(v) for v in b]


def _weak_range(rng):
    """Jacobi parameters of range 1..6 near the free ones (a_j in [0.6, 1], |b_j| <= 0.2).

    No bound state: the density Carmona's formula averages stays smooth.
    """
    ell = int(rng.integers(1, 7))
    b = rng.uniform(-0.2, 0.2, size=ell)
    a = np.concatenate((rng.uniform(0.6, 1.0, size=ell - 1), [1.0]))
    return a, b


def interactive_rounds(rng, workdir):
    order = str(INTERACTIVE_ORDER)
    while True:
        ops = []
        c, r = _geometric_draw(rng)
        spec = _geometric(c, r)
        geo = {"C": c, "R": r, "order": INTERACTIVE_ORDER}
        ops.append(Op("verify-geometric", ["verify", "all", "--alpha", spec, "--order", order], geo))
        a, b = _finite_range(rng)
        fr = {"a": a, "b": b}
        ops.append(Op("jost-finite", ["jost", "--what", "zeros", f"--a={_list(a)}",
                                      f"--b={_list(b)}"], fr))
        ops.append(Op("verify-canonical", ["verify", "canonical-weights", f"--a={_list(a)}",
                                           f"--b={_list(b)}"], fr))
        b1 = _signed(rng, 1.1, 3.0)
        ops.append(Op("jost-b1", ["jost", "--what", "zeros", f"--b1={_fmt(b1)}"], {"b1": b1}))
        # the 13th op of the round; an odd count keeps the median inside one kind
        ops.append(Op("jost-b1-series", ["jost", "--what", "series", f"--b1={_fmt(b1)}"],
                      {"b1": b1}))
        n = int(rng.integers(1, 6))
        a, b = (list(map(float, v)) for v in _weak_range(rng))
        ops.append(Op("carmona", ["carmona", f"--a={_list(a)}", f"--b={_list(b)}", "--n", str(n),
                                  "--grid=-4:4:33"], {"a": a, "b": b, "n": n}))
        c2, r2 = _geometric_draw(rng)
        omega = _unit(rng)
        n = int(rng.integers(1, 33))
        ops.append(Op("popuc", ["popuc", "--alpha", _geometric(c2, r2), "--n", str(n),
                                f"--omega={_fmt(omega.real)},{_fmt(omega.imag)}"], {"n": n}))
        gens = [complex(rng.uniform(1.5, 3.0) * _unit(rng)) for _ in range(2)]
        cutoff = float(rng.uniform(max(abs(g) for g in gens), 40.0))
        ops.append(Op("gset", ["gset", "--generators=" + ",".join(_complex_token(g) for g in gens),
                               "--cutoff", _fmt(cutoff)], {"generators": gens, "cutoff": cutoff}))
        ell = int(rng.integers(2, 9))
        ops.append(Op("probe", ["probe", "--alpha", spec, "--series", "s", "--degree", f"{ell},1",
                                "--order", order], geo))
        ops.append(Op("map", ["coeffs", "--alpha", spec, "--order", order, "--map"], geo))
        for series in ("s", "r", "dinv"):
            ops.append(Op(f"szego-{series}", ["szego", "--alpha", spec, "--series", series,
                                              "--order", order], geo))
        yield [ops[i] for i in rng.permutation(len(ops))]


# ------------------------------------------------------------------ known-defects

# One input per defect class the oracle finds in the package at the
# benchmark's first commit (BASELINE.md); every op of this workload fails
# there.  The timed workloads draw around these inputs, so this workload is
# what shows the defects, and a fix shows as a falling ``failed`` count.
_ALIASING_CIRCLE = (
    -0.3297719165820089, -0.34639478887614705, -0.06733258055660185, 0.0975695681497416,
    0.4889826273574761, 0.46349611735594054, 0.4878528399459696, -0.25443058476257263,
    0.09888320179178922, -0.06413085628626847, -0.2685977042621196, -0.43462262928328377,
    -0.33127162624394313, -0.14154827121379332, -0.4119782695248433, -0.3492610086300447)
_ALIASING_LINE = (
    -0.30838374097986476, 0.30236416113453, -0.3086760739427997, -0.4184473826364873,
    0.3552269742870702, 0.3612834961776684, 0.3765370964165805, -0.028090280641209775,
    -0.22595161138628173, -0.49290817139683374, 0.14572089557494783, 0.21990938350869305,
    0.33556921650027416, -0.21812217263545786)
_ALIASING_D = (
    -0.006822333418867843, 0.4137438408940174, 0.2368979862014584, 0.38217679561056905,
    -0.3882350118808928, -0.30423649650329054, -0.4342957743963881, 0.32931949846468467,
    0.46281866180581643, -0.4860089789715665, 0.2892536438715758, 0.2278311985279744,
    0.4081867943853771, -0.22961452674059935)
_PRECHECK_LINE = (
    0.16815744103397023, 0.3847149824854088, 0.4998030282851982, -0.35636305365231447,
    0.03729772442731616, 0.3812005287254918, -0.4469703251415782, 0.0882931558557919,
    -0.32608865061170633, 0.2678302621654288, 0.4376310347269122, 0.03828819266067918,
    -0.49103352674956424)
_NEAR_EDGE = {  # (a, b) with a bound state near the band edge
    "verdict": ((0.9844362531836187, 0.6447342246442308, 1.2359342555219917,
                 0.9285928871411308, 0.7562196289261546, 1.0),
                (-0.7771076481603483, 0.6616557117116593, 0.922022053207276,
                 -2.389180932932973, -0.8540752246754151, -0.7295448290200539)),
    "threshold": ((0.8514459329304024, 1.340226887768875, 0.9640334165917497, 1.0),
                  (-0.5014732717278794, 3.0117896475734116, 0.8319772238710474,
                   0.6370699399402302)),
}


def known_defect_rounds(rng, workdir):
    docs = _DocWriter(workdir)
    ops = []
    for c, r, order in ((0.5, 5.0, VERIFY_ORDER), (0.5, 1.5, INTERACTIVE_ORDER),
                        (0.22556862557067128, 4.715007712454389, INTERACTIVE_ORDER)):
        ops.append(Op("verify-geometric", ["verify", "all", "--alpha", _geometric(c, r),
                                           "--order", str(order)], {"C": c, "R": r, "order": order}))
    for a, b in _NEAR_EDGE.values():
        ops.append(Op("verify-canonical", ["verify", "canonical-weights", f"--a={_list(a)}",
                                           f"--b={_list(b)}"], {"a": list(a), "b": list(b)}))
    a, b, n = [1.0], [3.3556083210013874], 4
    ops.append(Op("carmona", ["carmona", f"--a={_list(a)}", f"--b={_list(b)}", "--n", str(n),
                              "--grid=-4:4:33"], {"a": a, "b": b, "n": n}))
    c, r = 0.6267430976375139, 1.232033233988311
    ops.append(Op("szego-r", ["szego", "--alpha", _geometric(c, r), "--series", "r", "--order",
                              str(INTERACTIVE_ORDER)], {"C": c, "R": r, "order": INTERACTIVE_ORDER}))
    for kind, family, alphas, size in (("ingest-circle", "bernstein-szego", _ALIASING_CIRCLE, 128),
                                       ("ingest-line", "szego-mapped", _ALIASING_LINE, 102),
                                       ("ingest-line", "szego-mapped", _PRECHECK_LINE, 92),
                                       ("szego-d", "bernstein-szego", _ALIASING_D, 1024)):
        doc = {"kind": "line" if kind == "ingest-line" else "circle", "family": family,
               "params": list(alphas), "masses": [], "acWeight": f"{family}:{_list(alphas)}"}
        if kind == "szego-d":
            argv, ref = ["szego", "--from-measure", docs.write(doc), "--order", str(size)], {"order": size}
        else:
            argv, ref = ["coeffs", "--from-measure", docs.write(doc), "--n", str(size)], {"n": size}
        ops.append(Op(kind, argv, {"doc": doc, **ref}))
    while True:
        yield [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {
    "verify-1024": verify_rounds,
    "measure-series": measure_rounds,
    "interactive-64": interactive_rounds,
    "known-defects": known_defect_rounds,
}
