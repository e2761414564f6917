"""Command-line front end.

Every subcommand writes one CSV table (stdout, or a file with a JSON
sidecar carrying config and provenance), each row through one printf
template: integers as integers, floats as ``%.17g`` (full round-trip
precision).  Output is deterministic: fixed column order, fixed row order,
no timestamps, so repeated runs at a fixed BLAS thread count are
byte-identical.  Across thread counts the last bits of values that come
from LAPACK may differ.  LAPACK output reaches the CLI only through
``polyroots`` (finite-range Jost zeros, the residue moments of ``carmona``
and the Pade poles of ``probe``), the inverse and ``eigvalsh`` that give
the paraorthogonal zeros of ``popuc``, the linear solve of ``probe``, and
the least-squares solve (``lstsq``) inside ``np.polyfit`` of every radius
fit in ``decay_rate`` and of the endpoint check that ``coeffs
--from-measure`` runs on a line weight; no command runs
``eigh_tridiagonal``.

Exit codes: 0 success, 1 failed verification (report still written),
2 malformed input or invalid parameters.
"""

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .analysis import (
    canonical_weight_check,
    gset,
    pade_pole_probe,
    verify_damanik_simon,
    verify_jost_b_combination,
    verify_nevai_totik,
    verify_r_minus_s,
)
from .errors import SzegojostError
from .jost import _jost_prefactor, finite_range_jost_data, geronimus_map, u_from_dinv
from .measures import (
    ExperimentConfig,
    MeasureSpec,
    ingest_circle,
    ingest_line,
    load_config,
    parse_alpha_spec,
    realize_circle,
)
from .oprl import JacobiParams, carmona_density, carmona_moment, truncated_matrix
from .opuc import popuc_point_measure
from .szego import d_from_weight, dinv_from_alphas, r_series, s_series

CSV_SCHEMA = "szegojost.csv.v1"
META_SCHEMA = "szegojost.meta.v2"

_SUITES = (
    "canonical-weights",
    "damanik-simon",
    "jost-combination",
    "nevai-totik",
    "r-minus-s",
)


# an index and two floats: the (k, re, im) and (n, a, b) tables
_PAIR_ROW = "%d,%.17g,%.17g"


def _fmt(value) -> str:
    """One cell of the ``verify`` report, whose values mix types."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (complex, np.complexfloating)):
        return "%.17g%+.17gj" % (value.real, value.imag)
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def _write_output(args, table: str, header: list, template: str, rows,
                  config: ExperimentConfig) -> None:
    lines = [f"# schema={CSV_SCHEMA} table={table}", ",".join(header)]
    lines.extend(map(template.__mod__, rows))
    text = "\n".join(lines) + "\n"
    if args.output:
        # hashed before the CSV is written, in case the output path is the input
        input_hash = _hash_input(args)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        meta = {
            "schema": META_SCHEMA,
            "table": table,
            "tool": "szegojost",
            "toolVersion": __version__,
            "config": config.to_dict(),
            "inputSha256": input_hash,
        }
        with open(args.output + ".meta.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(text)


def _write_complex(args, table: str, index: str, values: np.ndarray, config: ExperimentConfig,
                   start: int = 0) -> None:
    """Table of (index, re, im) rows of a complex array whose first entry has index ``start``."""
    rows = zip(range(start, start + len(values)), values.real.tolist(), values.imag.tolist())
    _write_output(args, table, [index, "re", "im"], _PAIR_ROW, rows, config)


def _write_jacobi(args, params: JacobiParams, config: ExperimentConfig) -> None:
    rows = zip(range(1, len(params.a) + 1), params.a.tolist(), params.b.tolist())
    _write_output(args, "jacobi", ["n", "a", "b"], _PAIR_ROW, rows, config)


def _hash_input(args) -> str:
    path = getattr(args, "from_measure", None)
    if path:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    key = "|".join(
        f"{name}={getattr(args, name)}"
        for name in ("alpha", "a", "b", "b1", "generators", "grid", "degree", "omega")
        if getattr(args, name, None) is not None
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def _parse_float_list(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _jacobi_from_args(args) -> JacobiParams:
    if getattr(args, "b1", None) is not None:
        return JacobiParams(a=np.array([1.0]), b=np.array([args.b1]), free_after=1)
    if args.a is None or args.b is None:
        raise SzegojostError("give either --b1 or both --a and --b")
    a = np.array(_parse_float_list(args.a))
    b = np.array(_parse_float_list(args.b))
    return JacobiParams(a=a, b=b, free_after=len(a))


def _cmd_coeffs(args, config: ExperimentConfig) -> int:
    order = args.order if args.order is not None else config.series_order
    if args.from_measure:
        spec = MeasureSpec.from_file(args.from_measure)
        n = args.n if args.n is not None else 8
        if n < 0:
            raise SzegojostError(f"--n must be >= 0, got {n}")
        if spec.kind == "circle":
            coeffs = ingest_circle(realize_circle(spec, config.grid_size), n)
            _write_complex(args, "alpha", "n", coeffs.slice(n), config)
        else:
            _write_jacobi(args, ingest_line(spec, n), config)
        return 0
    coeffs = parse_alpha_spec(args.alpha, order)
    if args.map:
        _write_jacobi(args, geronimus_map(coeffs), config)
        return 0
    count = len(coeffs.alpha) if coeffs.is_finitely_supported else order + 1
    _write_complex(args, "alpha", "n", coeffs.slice(count), config)
    return 0


def _cmd_szego(args, config: ExperimentConfig) -> int:
    order = args.order if args.order is not None else config.series_order
    if args.from_measure:
        spec = MeasureSpec.from_file(args.from_measure)
        d = d_from_weight(realize_circle(spec, config.grid_size), order)
        _write_complex(args, "d", "k", d.coeffs, config)
        return 0
    coeffs = parse_alpha_spec(args.alpha, order)
    if args.series == "s":
        _write_complex(args, "s", "k", s_series(coeffs, order).coeffs, config)
        return 0
    dinv = dinv_from_alphas(coeffs, order)
    if args.series == "r":
        ser = r_series(dinv, order)
        _write_complex(args, "r", "k", ser.coeffs, config, start=-ser.order)
        return 0
    _write_complex(args, "dinv", "k", dinv.coeffs, config)
    return 0


def _cmd_jost(args, config: ExperimentConfig) -> int:
    order = args.order if args.order is not None else config.series_order
    if not args.alpha:
        data = finite_range_jost_data(_jacobi_from_args(args))
    elif args.what == "zeros":
        # u = c/D has no zeros in the disk (see u_from_dinv): once alpha
        # passes u's checks the table is empty, so 1/D is not built
        _jost_prefactor(parse_alpha_spec(args.alpha, order), order)
        data = None
    else:
        data = u_from_dinv(parse_alpha_spec(args.alpha, order), order=order)
    if args.what == "zeros":
        z = e = np.empty(0, dtype=complex)
        if data is not None:
            z, e = data.zeros_in_disk, data.eigenvalues
        rows = zip(range(len(z)), z.real.tolist(), z.imag.tolist(), e.real.tolist(),
                   e.imag.tolist())
        _write_output(args, "zeros", ["j", "re", "im", "eig_re", "eig_im"],
                      "%d,%.17g,%.17g,%.17g,%.17g", rows, config)
        return 0
    _write_complex(args, "jost", "k", data.u.coeffs, config)
    return 0


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, count = text.split(":")
        return np.linspace(float(lo), float(hi), int(count))
    except ValueError as exc:
        raise SzegojostError(f"bad grid {text!r}; expected lo:hi:count") from exc


def _cmd_carmona(args, config: ExperimentConfig) -> int:
    if args.free:
        params = JacobiParams(a=np.empty(0), b=np.empty(0), free_after=0)
    else:
        params = _jacobi_from_args(args)
    n = args.n
    xs = _parse_grid(args.grid)
    dens = carmona_density(params, n, xs)
    # (J_n^ell)_00 is the ell-th moment of J itself for ell <= 2n - 1
    mat = truncated_matrix(params, n)
    vec = np.zeros(n)
    vec[0] = 1.0
    header = ["x", "density"]
    moment_cols = []
    for ell in range(2 * n - 1):
        header.extend([f"moment{ell}_carmona", f"moment{ell}_oracle"])
        moment_cols.append((carmona_moment(params, n, ell), vec[0]))
        vec = mat @ vec
    # the moment columns are the same on every row, so they are formatted
    # once into the row template (a formatted float holds no "%")
    template = "%.17g,%.17g" + "".join(",%.17g,%.17g" % pair for pair in moment_cols)
    rows = zip(xs.tolist(), dens.tolist())
    _write_output(args, "carmona", header, template, rows, config)
    return 0


def _cmd_popuc(args, config: ExperimentConfig) -> int:
    coeffs = parse_alpha_spec(args.alpha, args.n)
    parts = _parse_float_list(args.omega)
    if len(parts) not in (1, 2):
        raise SzegojostError(f"bad omega {args.omega!r}; expected re or re,im")
    measure = popuc_point_measure(coeffs, args.n, complex(*parts))
    z = measure.zeros
    rows = zip(range(len(z)), z.real.tolist(), z.imag.tolist(), measure.weights.tolist())
    _write_output(args, "popuc", ["j", "re", "im", "weight"], "%d,%.17g,%.17g,%.17g",
                  rows, config)
    return 0


def _run_suite(name: str, args, config: ExperimentConfig, coeffs, order: int):
    rel = config.radius_rel
    slack = config.one_sided_slack
    if name == "canonical-weights":
        params = _jacobi_from_args(args) if (args.b1 is not None or args.a) else JacobiParams(
            a=np.array([1.0]), b=np.array([1.5]), free_after=1)
        return canonical_weight_check(params)
    if name == "nevai-totik":
        return verify_nevai_totik(coeffs, order, rel_tol=rel)
    if name == "damanik-simon":
        return verify_damanik_simon(coeffs, order, rel_tol=rel)
    if name == "r-minus-s":
        return verify_r_minus_s(coeffs, order, rel_tol=rel, slack=slack)
    if name == "jost-combination":
        return verify_jost_b_combination(coeffs, order, slack=slack)
    raise SzegojostError(f"unknown suite {name!r}")


def _cmd_verify(args, config: ExperimentConfig) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    if args.suite != "canonical-weights" and args.alpha is None:
        raise SzegojostError("verification needs --alpha (except canonical-weights)")
    order = args.order if args.order is not None else config.series_order
    # One parse serves every suite, so they share the series cached on it.
    coeffs = None
    rows = []
    all_passed = True
    for name in names:
        if coeffs is None and name != "canonical-weights":
            coeffs = parse_alpha_spec(args.alpha, order)
        report = _run_suite(name, args, config, coeffs, order)
        all_passed &= report.passed
        rows.extend((name, key, _fmt(val)) for key, val in report.rows())
    _write_output(args, "reports", ["suite", "field", "value"], "%s,%s,%s", rows, config)
    return 0 if all_passed else 1


def _cmd_gset(args, config: ExperimentConfig) -> int:
    gens = [complex(tok) for tok in args.generators.split(",") if tok.strip()]
    result = gset(gens, args.cutoff, n_max=args.n_max)
    rows = [(j, z.real, z.imag, abs(z)) for j, z in enumerate(result.elements)]
    _write_output(args, "gset", ["j", "re", "im", "magnitude"], "%d,%.17g,%.17g,%.17g",
                  rows, config)
    return 0


def _cmd_probe(args, config: ExperimentConfig) -> int:
    order = args.order if args.order is not None else config.series_order
    coeffs = parse_alpha_spec(args.alpha, order)
    if args.series == "dinv":
        series = dinv_from_alphas(coeffs, order)
    else:
        series = s_series(coeffs, order)
    try:
        ell, m = (int(tok) for tok in args.degree.split(","))
    except ValueError as exc:
        raise SzegojostError(f"bad degree {args.degree!r}; expected L,M") from exc
    poles = pade_pole_probe(series, (ell, m))
    rows = [(j, p.z.real, p.z.imag, p.stable, p.movement) for j, p in enumerate(poles)]
    _write_output(args, "pade", ["j", "re", "im", "stable", "movement"],
                  "%d,%.17g,%.17g,%d,%.17g", rows, config)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szegojost",
        description="Recursion coefficients, Szego/Jost functions, and decay-analyticity checks.",
    )
    parser.add_argument("--config", help="path to a JSON config (or set SZEGOJOST_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, alpha=True, order=True, output=True):
        if alpha:
            p.add_argument("--alpha", help="coefficient spec: geometric:C=..,R=.., constant:c=.., list, or file:path")
        if order:
            p.add_argument("--order", type=int, default=None, help="series order (default from config)")
        if output:
            p.add_argument("-o", "--output", help="output CSV path (sidecar written alongside)")

    p = sub.add_parser("coeffs", help="emit or ingest coefficient tables")
    common(p)
    p.add_argument("--from-measure", help="measure document to ingest")
    p.add_argument("--n", type=int, help="number of coefficients to ingest")
    p.add_argument("--map", action="store_true", help="emit mapped Jacobi parameters")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("szego", help="series on the circle side: 1/D, S, or r")
    common(p)
    p.add_argument("--series", choices=["dinv", "s", "r"], default="dinv")
    p.add_argument("--from-measure", help="measure document; emits D from its weight")
    p.set_defaults(func=_cmd_szego)

    p = sub.add_parser("jost", help="Jost series u, finite-range polynomial, or disk zeros")
    common(p)
    p.add_argument("--a", help="comma-separated a_n entries (finite range)")
    p.add_argument("--b", help="comma-separated b_n entries (finite range)")
    p.add_argument("--b1", type=float, help="shortcut: single b_1 perturbation")
    p.add_argument("--what", choices=["series", "zeros"], default="series")
    p.set_defaults(func=_cmd_jost)

    p = sub.add_parser("carmona", help="approximating-density table with moment columns")
    common(p, alpha=False, order=False)
    p.add_argument("--free", action="store_true", help="use free parameters")
    p.add_argument("--a", help="comma-separated a_n entries")
    p.add_argument("--b", help="comma-separated b_n entries")
    p.add_argument("--b1", type=float, help="shortcut: single b_1 perturbation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", required=True, help="x grid as lo:hi:count")
    p.set_defaults(func=_cmd_carmona)

    p = sub.add_parser("popuc", help="paraorthogonal zeros and weights")
    common(p, order=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega", default="1", help="unimodular omega as re or re,im")
    p.set_defaults(func=_cmd_popuc)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=list(_SUITES) + ["all"])
    common(p)
    p.add_argument("--a", help="comma-separated a_n entries (canonical-weights)")
    p.add_argument("--b", help="comma-separated b_n entries (canonical-weights)")
    p.add_argument("--b1", type=float, default=None, help="b_1 for canonical-weights (default 1.5)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gset", help="conjugate-alternating product set of generators")
    common(p, alpha=False, order=False)
    p.add_argument("--generators", required=True, help="comma-separated complex generators")
    p.add_argument("--cutoff", type=float, required=True)
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(func=_cmd_gset)

    p = sub.add_parser("probe", help="rational-approximant pole probe")
    common(p)
    p.add_argument("--degree", default="4,1", help="approximant degrees L,M")
    p.add_argument("--series", choices=["s", "dinv"], default="s")
    p.set_defaults(func=_cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except (SzegojostError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
