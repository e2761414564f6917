"""szegojost benchmark: closed-loop CLI workloads with an independent oracle.

    python3 bench/run.py --workload interactive-64 --seed 1 --seconds 15 --trace 0

One client in one process drives ``szegojost.cli.main(argv)``; the next op
is sent only after the previous one returns.  BLAS and OpenMP are pinned to
one thread (single-threaded LAPACK is both faster and steadier than two
threads for the companion eigensolves that dominate at order 1024).

Ops run in rounds (see ``workloads.py``); the loop stops at the first round
boundary after the ops' summed wall time reaches ``--seconds``.  Input
generation and checking happen between ops and are not timed.  Every op's
output is checked by ``checks.py`` against ``oracle.py``, which does not
import the package.  The timed workloads draw only inputs the package got
right when the benchmark was written, so ``correct`` is true exactly when
no op failed.  ``--workload known-defects`` (not in BENCHMARK.json) runs the
inputs it got wrong; see ``BASELINE.md``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds twice, untraced and then with every public package
function wrapped (``tracer.py``), and prints per-layer metrics; its counts
repeat exactly for a given seed.  The last stdout line is one JSON object;
a run record (and, traced, the spans) is written under ``bench/out/``.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"
# glibc raises its mmap threshold as large arrays are freed and then serves
# them from a heap that does not shrink, so the peak RSS of a loop would
# depend on the order of its ops.  A pinned threshold (glibc's default
# value) unmaps every large array on free, as a fresh CLI process would.
# glibc reads it at start-up, hence the re-exec (which starts no process).
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
    os.environ.update(MALLOC_ENV)
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [SRC, HERE]

import numpy as np  # noqa: E402  (after the thread pins)

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("cli", "analysis", "jost", "szego", "series", "opuc", "oprl", "measures")
# (function, fields) for the function-level per-layer metrics
FUNCTIONS = (
    ("jost.u_from_dinv", ("self_s", "calls")),
    ("jost.finite_range_jost_data", ("self_s",)),
    ("analysis.jost_b_combination", ("self_s",)),
    ("analysis.decay_rate", ("self_s", "calls")),
    ("analysis.canonical_weight_check", ("self_s",)),
    ("analysis.pade_pole_probe", ("self_s",)),
    ("analysis.gset", ("self_s",)),
    ("szego.dinv_from_alphas", ("self_s", "calls")),
    ("szego.r_series", ("self_s",)),
    ("szego.d_from_weight", ("self_s",)),
    ("series.taylor_exp", ("self_s",)),
    ("series.taylor_reciprocal", ("self_s",)),
    ("opuc.popuc_point_measure", ("self_s",)),
    ("opuc.szego_recursion", ("self_s",)),
    ("oprl.spectral_measure_oracle", ("self_s",)),
    ("oprl.carmona_density", ("self_s",)),
    ("oprl.carmona_moment", ("self_s",)),
    ("measures.ingest_circle", ("self_s",)),
    ("measures.ingest_line", ("self_s",)),
    ("measures.realize_circle", ("self_s",)),
    ("measures.realize_line", ("self_s",)),
    ("measures.parse_alpha_spec", ("self_s",)),
    ("cli.main", ("self_s",)),
)
UNITS = {"self_s": "s", "calls": "count", "errors": "count"}
# Rounds of a traced run: enough ops per workload for every layer to show,
# few enough that the untraced and traced passes fit the run time limit.
TRACE_ROUNDS = {"verify-1024": 1, "measure-series": 3, "interactive-64": 20, "known-defects": 1}
SETUP_REPEATS = 11


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _versions() -> dict:
    import numpy
    import scipy

    def blas(config):
        try:
            return config["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
    }


def measure_setup() -> list:
    """Wall seconds from spawning a fresh interpreter until ``szegojost.cli`` is imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import szegojost.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # fills the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


@dataclass
class Result:
    """One executed op: exit code (None if it raised), output digest and size, wall seconds."""

    rc: int
    digest: str
    nbytes: int
    wall: float
    outcome: object = None


def execute(cli, argv):
    """(Result, stdout, error text) of one ``cli.main(argv)`` call.

    ``main`` is looked up on the module at each call so a traced pass runs
    the tracer's wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # the loop must go on; the op counts as failed
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    data = out.getvalue().encode()
    result = Result(rc, hashlib.sha256(data).hexdigest(), len(data), wall)
    return result, out.getvalue(), error or err.getvalue().strip()


def check_one(op, result, text, error):
    if result.rc is None:
        return checks.Outcome(True, "raise", error)
    try:
        return checks.check(op, result.rc, text, error)
    except (IndexError, ValueError) as exc:  # unparsable output
        return checks.Outcome(True, "mismatch", f"unreadable output: {exc}")


def closed_loop(cli, rounds, seconds, fixed_rounds=None):
    """Run whole rounds until the ops' wall time reaches ``seconds`` (or a fixed count).

    Each op is checked as soon as it returns, outside its timed interval;
    only the verdict and a digest of the output are kept.
    """
    ops, results, busy, count = [], [], 0.0, 0
    while (busy < seconds) if fixed_rounds is None else (count < fixed_rounds):
        for op in next(rounds):
            result, text, error = execute(cli, op.argv)
            result.outcome = check_one(op, result, text, error)
            busy += result.wall
            ops.append(op)
            results.append(result)
        count += 1
    return ops, results, count


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _inputs(ops, results) -> dict:
    """Per op kind: op count, distinct input sizes, median and total latency."""
    kinds = {}
    for op, result in zip(ops, results):
        ref = op.ref
        size = ref.get("order") or ref.get("n") or len(ref.get("b", ())) or ref.get("cutoff")
        entry = kinds.setdefault(op.kind, {"sizes": set(), "walls": []})
        entry["sizes"].add(size)
        entry["walls"].append(result.wall)
    return {kind: {"ops": len(e["walls"]), "sizes": sorted(e["sizes"], key=str),
                   "median_s": statistics.median(e["walls"]), "total_s": sum(e["walls"])}
            for kind, e in kinds.items()}


def _failure_list(ops, results) -> list:
    return [{"op": i, "kind": op.kind, "argv": op.argv, "reason": r.outcome.reason,
             "detail": r.outcome.detail, "suites": r.outcome.suites, "doc": op.ref.get("doc")}
            for i, (op, r) in enumerate(zip(ops, results)) if r.outcome.failed]


def traced_pass(cli, ops, results):
    """Rerun the ops with every public package function wrapped; flag changed output."""
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for i, op in enumerate(ops):
            tracer.op = i
            traced.append(execute(cli, op.argv)[0])
    finally:
        tracer.uninstall()
    for plain, with_trace in zip(results, traced):
        if plain.digest != with_trace.digest and not plain.outcome.failed:
            plain.outcome.failed, plain.outcome.reason = True, "bytes"
            plain.outcome.detail = "traced CSV differs from the untraced run"
    return tracer, traced


def layer_metrics(tracer, traced, untraced):
    """Per-layer metrics of a traced pass, and the base of the inconclusive share."""
    summary = tracer.summary()
    empty = {"self_s": 0.0, "calls": 0, "errors": 0}
    metrics = {}
    for module in MODULES:
        for key in ("self_s", "calls", "errors"):
            metrics[f"{module}.{key}"] = _metric(summary.get(module, empty)[key], UNITS[key])
    for name, keys in FUNCTIONS:
        for key in keys:
            metrics[f"{name}.{key}"] = _metric(summary.get(name, empty)[key], UNITS[key])
    reports = sum(r.outcome.reports for r in untraced)
    inconclusive = sum(r.outcome.inconclusive for r in untraced)
    traced_wall = sum(r.wall for r in traced)
    metrics["jost.zeros_found"] = _metric(sum(r.outcome.zeros for r in untraced), "count")
    metrics["cli.output_bytes"] = _metric(sum(r.nbytes for r in traced), "bytes")
    metrics["analysis.inconclusive_share"] = _metric(inconclusive / reports if reports else 0.0, "ratio")
    metrics["tracing.overhead"] = _metric(traced_wall / sum(r.wall for r in untraced), "ratio")
    metrics["tracing.span_coverage"] = _metric(tracer.top_level_seconds() / traced_wall, "ratio")
    return metrics, {"reports": reports, "inconclusive": inconclusive}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "szegojost", "cli.py")):
        print(f"error: no szegojost sources under {SRC}", file=sys.stderr)
        return 2
    setup_times = measure_setup()
    from szegojost import cli

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        rounds = WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
        fixed = TRACE_ROUNDS[args.workload] if args.trace else None
        ops, results, n_rounds = closed_loop(cli, rounds, args.seconds, fixed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer, traced = traced_pass(cli, ops, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [r.wall for r in results]
    failures = _failure_list(ops, results)
    attempted, failed = len(ops), len(failures)
    correct = not failures
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "env": {var: os.environ[var] for var in THREAD_VARS + tuple(MALLOC_ENV)},
        "versions": _versions(),
        "rounds": n_rounds,
        "ops": attempted,
        "inputs": _inputs(ops, results),
        "setup_samples_s": setup_times,
        "failures": failures,
    }
    lines = [f"workload={args.workload} seed={args.seed} rounds={n_rounds} ops={attempted} "
             f"trace={args.trace}"]
    if args.trace:
        metrics, base = layer_metrics(tracer, traced, results)
        record["inconclusive_base"] = base
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.records(), fh)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        lines.append(f"analysis.inconclusive_share base: {base['inconclusive']} inconclusive of "
                     f"{base['reports']} suite reports")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "ops_per_s": _metric(attempted / sum(walls), "ops/s"),
            "op_p50_s": _metric(statistics.median(walls), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        extra = {"error_rate": _metric(failed / attempted, "ratio")}
        if attempted >= 100:
            extra["op_p90_s"] = _metric(statistics.quantiles(walls, n=10)[8], "s")
        record["extra_metrics"] = extra
        lines.append(f"latency samples: {attempted} ops; setup samples: {len(setup_times)}")
        for name, m in extra.items():
            lines.append(f"{name} = {m['value']!r} {m['unit']}")
    record["metrics"] = metrics
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']!r} {m['unit']}")
    reasons = {}
    for f in failures:
        reasons[f["reason"]] = reasons.get(f["reason"], 0) + 1
    lines.append(f"failed ops by reason: {reasons or 'none'}")
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
