"""Self-tests of the benchmark: tracer nesting, the failure rule, seeded inputs."""

import io
import contextlib

import numpy as np
import pytest

import checks
import oracle
import workloads
from szegojost import analysis, cli, jost
from tracer import Tracer


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def test_damanik_simon_span_nesting_and_identical_output():
    argv = ["verify", "damanik-simon", "--alpha", "geometric:C=0.5,R=2", "--order", "64"]
    _, plain = _run(argv)
    original = jost.u_from_dinv
    tracer = Tracer()
    tracer.install()
    try:
        _, traced = _run(argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert jost.u_from_dinv is original and analysis.u_from_dinv is original
    names = [s.name for s in tracer.spans]
    u_spans = [i for i, s in enumerate(tracer.spans) if s.name == "jost.u_from_dinv"]
    assert u_spans, names
    u = u_spans[0]
    assert names[tracer.spans[u].parent] == "analysis.verify_damanik_simon"
    assert any(s.name == "szego.dinv_from_alphas" and s.parent == u for s in tracer.spans)
    top = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in top] == ["cli.main"]
    self_times = tracer.self_times()
    assert min(self_times) >= 0.0
    assert sum(self_times) == pytest.approx(top[0].duration, rel=1e-9)


R = 5.0
GOOD = {
    "nevai-totik": {"pass": "true", "alpha_decay_radius": "5.0", "dinv_radius": "5.01"},
    "jost-combination": {"pass": "true", "mapped_decay_radius": "5", "inner_radius": "0.2",
                         "outer_radius": "24.1"},
}


@pytest.mark.parametrize("suite", sorted(GOOD))
def test_failure_rule_pass(suite):
    assert checks.classify_report(suite, GOOD[suite], R)[0] == "pass"


def test_failure_rule_plain_fail():
    fields = dict(GOOD["jost-combination"], **{"pass": "false", "mapped_decay_radius": "inf"})
    assert checks.classify_report("jost-combination", fields, R)[0] == "fail"


def test_failure_rule_inconclusive():
    fields = {"pass": "false", "notes": "inconclusive: difference signal survives rounding only "
                                        "through index 8"}
    assert checks.classify_report("r-minus-s", fields, R)[0] == "inconclusive"


def test_failure_rule_wrong_radius():
    fields = {"pass": "true", "alpha_decay_radius": "inf", "dinv_radius": "inf",
              "notes": "both sides report the infinite-radius sentinel"}
    verdict, why = checks.classify_report("nevai-totik", fields, R)
    assert verdict == "fail" and "inf" in why


def test_failure_rule_canonical_weights():
    states = ([1.5 + 1.0 / 1.5], [5.0 / 9.0])
    ok = {"pass": "true", "n_zeros": "1", "weight_0": "0.55555555555555491"}
    assert checks.classify_report("canonical-weights", ok, states)[0] == "pass"
    assert checks.classify_report("canonical-weights", dict(ok, n_zeros="0"), states)[0] == "fail"
    assert checks.classify_report("canonical-weights", dict(ok, weight_0="0.5"), states)[0] == "fail"
    # a state 3e-4 from the band edge is beyond the oracle's 400 rows: its weight is not judged
    near = ([1.5 + 1.0 / 1.5, 2.0003], [5.0 / 9.0, 1e-4])
    two = dict(ok, n_zeros="2", weight_1="1.2e-4")
    assert checks.classify_report("canonical-weights", two, near)[0] == "pass"


def _inputs(name, seed, workdir, rounds=2):
    """Command lines and oracle facts of the first rounds, with the work directory masked."""
    workdir.mkdir()
    gen = workloads.WORKLOADS[name](np.random.default_rng(seed), str(workdir))
    return [repr((op.argv, op.ref)).replace(str(workdir), "<dir>")
            for _ in range(rounds) for op in next(gen)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = _inputs(name, 7, tmp_path / "a")
    assert _inputs(name, 7, tmp_path / "b") == first
    assert _inputs(name, 8, tmp_path / "c") != first


def test_oracle_recovers_bernstein_szego_alphas():
    alphas = [0.3, -0.2, 0.45]
    got = oracle.levinson(oracle.bs_moments(alphas, 8), 8)
    assert np.allclose(got, alphas + [0.0] * 5, atol=1e-14)


def test_oracle_single_b1_bound_state():
    energies, weights = oracle.bound_states((1.0,), (1.5,))
    assert np.allclose(energies, [1.5 + 1.0 / 1.5])
    assert np.allclose(weights, [5.0 / 9.0])


def test_check_accepts_b1_zero():
    op = workloads.Op("jost-b1", ["jost", "--what", "zeros", "--b1=1.5"], {"b1": 1.5})
    rc, text = _run(op.argv)
    outcome = checks.check(op, rc, text)
    assert not outcome.failed and outcome.zeros == 1


def test_jacobi_draws_keep_bound_states_off_the_band_edge():
    # near-edge bound states are known defects; the timed workloads must not draw them
    rng = np.random.default_rng(0)
    for _ in range(50):
        energies, _ = oracle.bound_states(*map(tuple, workloads._finite_range(rng)))
        assert len(energies) == 1 and abs(energies[0]) > 2.3
        assert len(oracle.bound_states(*map(tuple, workloads._weak_range(rng)))[0]) == 0
