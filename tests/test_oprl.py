"""Real-line recursion: polynomial evaluation, truncations, averaged density."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NEAR_EDGE, mild_jacobi, wide_jacobi
from szegojost.errors import (
    InvalidParameterError,
    OutOfRangeError,
)
from szegojost.oprl import (
    JacobiParams,
    PointMeasure,
    carmona_density,
    carmona_moment,
    eval_polys,
    orthonormal_poly_coeffs,
    spectral_measure_oracle,
    truncated_matrix,
)


def test_jacobi_entry_policies():
    params = JacobiParams(a=[0.9, 1.1], b=[0.5, -0.5], free_after=2)
    assert params.a_entry(2) == 1.1
    assert params.a_entry(5) == 1.0
    assert params.b_entry(5) == 0.0
    truncated = JacobiParams(a=[0.9], b=[0.5])
    with pytest.raises(OutOfRangeError):
        truncated.a_entry(2)
    with pytest.raises(InvalidParameterError):
        truncated.a_entry(0)


def test_jacobi_validation():
    with pytest.raises(InvalidParameterError):
        JacobiParams(a=[0.0], b=[0.1])
    with pytest.raises(InvalidParameterError):
        JacobiParams(a=[1.0, 1.0], b=[0.1])
    with pytest.raises(InvalidParameterError):
        JacobiParams(a=[1.0], b=[np.nan])
    with pytest.raises(InvalidParameterError):
        JacobiParams(a=[1.0], b=[0.0], free_after=3)


def test_free_range_order():
    # free_after is a lower bound on the range even when entries end earlier
    params = JacobiParams(a=[1.2, 1.0, 1.0], b=[0.0, 0.3, 0.0], free_after=3)
    assert params.free_range_order() == 3
    tight = JacobiParams(a=[1.2, 1.0], b=[0.0, 0.0], free_after=0)
    assert tight.free_range_order() == 2
    assert JacobiParams.free().free_range_order() == 0


@st.composite
def _jacobi_draws(draw):
    """Short parameter rows whose entries hit the free values 1 and +-0 often."""
    a = draw(st.lists(st.sampled_from([1.0, 0.5, 1.25]), max_size=8))
    b_entries = st.sampled_from([0.0, -0.0, 0.3, -1.5])
    if draw(st.booleans()):
        b = draw(st.lists(b_entries, max_size=8))
        free_after = draw(st.integers(0, min(len(a), len(b))))
    else:
        b = draw(st.lists(b_entries, min_size=len(a), max_size=len(a)))
        free_after = None
    return JacobiParams(a=np.array(a, dtype=float), b=np.array(b, dtype=float),
                        free_after=free_after)


def _range_by_definition(params):
    """The smallest l >= free_after with a_n = 1 for n >= l and b_n = 0 for n > l."""
    top = max(len(params.a), len(params.b)) + 1
    ell = int(params.free_after)
    while not (all(params.a_entry(n) == 1.0 for n in range(max(ell, 1), top + 1))
               and all(params.b_entry(n) == 0.0 for n in range(ell + 1, top + 1))):
        ell += 1
    return ell


@given(_jacobi_draws(), st.integers(-2, 12))
@settings(max_examples=300, deadline=None)
def test_slices_and_range_match_their_entries(params, n):
    """a_slice and b_slice equal the per-entry reads, bit for bit, or raise the
    same OutOfRangeError; free_range_order equals its definition."""
    for entry, sliced in ((params.a_entry, params.a_slice), (params.b_entry, params.b_slice)):
        try:
            want = np.array([entry(j) for j in range(1, n + 1)])
        except OutOfRangeError as exc:
            with pytest.raises(OutOfRangeError) as got:
                sliced(n)
            assert (got.value.index, str(got.value)) == (exc.index, str(exc))
        else:
            got = sliced(n)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if params.is_free_tailed:
        assert params.free_range_order() == _range_by_definition(params)


def test_eval_polys_free_values():
    """Free recursion: p_0, p_1, p_2 = 1, x, x^2 - 1."""
    free = JacobiParams.free()
    ev = eval_polys(free, 2, 2.0)
    assert np.allclose(ev.p, [1.0, 2.0, 3.0])
    ev = eval_polys(free, 2, 0.0)
    assert np.allclose(ev.p, [1.0, 0.0, -1.0])


def test_eval_polys_vectorizes(rng):
    params = wide_jacobi(rng, 8, free=False)
    xs = np.array([0.3, -1.7, 2.1])
    ev = eval_polys(params, 6, xs)
    assert ev.p.shape == (7, 3)
    for j, x in enumerate(xs):
        single = eval_polys(params, 6, float(x))
        assert np.allclose(ev.p[:, j], single.p)
        assert np.allclose(ev.q[:, j], single.q)


def test_second_kind_start():
    """q_0 = 0 and q_1 = 1/a_1."""
    params = JacobiParams(a=[2.0], b=[0.7])
    ev = eval_polys(params, 1, 0.123)
    assert ev.q[0] == 0.0
    assert np.isclose(ev.q[1], 0.5)


def test_wronskian_is_one(rng):
    """a_n (p_{n-1} q_n - p_n q_{n-1}) = 1 for every n and x."""
    for _ in range(10):
        params = mild_jacobi(rng, 30)
        n = int(rng.integers(2, 29))
        xs = rng.uniform(-1.8, 1.8, 20)
        ev = eval_polys(params, n, xs)
        w = ev.wronskian(n, params.a_entry(n))
        assert np.max(np.abs(w - 1.0)) < 1e-10


@given(st.integers(0, 2**31 - 1), st.integers(2, 25))
@settings(max_examples=25, deadline=None)
def test_wronskian_property(seed, n):
    """The normalization holds for arbitrary mild draws and orders."""
    gen = np.random.default_rng(seed)
    params = mild_jacobi(gen, n + 1)
    x = float(gen.uniform(-1.8, 1.8))
    ev = eval_polys(params, n, x)
    assert abs(ev.wronskian(n, params.a_entry(n)) - 1.0) < 1e-10


def test_orthonormal_coeffs_match_evaluation(rng):
    params = wide_jacobi(rng, 8, free=False)
    coeffs = orthonormal_poly_coeffs(params, 6)
    xs = rng.uniform(-2.0, 2.0, 5)
    ev = eval_polys(params, 6, xs)
    for k, ck in enumerate(coeffs):
        vals = np.polynomial.polynomial.polyval(xs, ck)
        assert np.allclose(vals, ev.p[k], atol=1e-10)


def test_orthonormality_under_eigen_oracle(rng):
    """The recursion output is orthonormal for the truncation's own measure."""
    params = wide_jacobi(rng, 12, free=False)
    oracle = spectral_measure_oracle(params, 12)
    ev = eval_polys(params, 7, oracle.nodes)
    gram = (ev.p * oracle.weights) @ ev.p.T
    assert np.max(np.abs(gram - np.eye(8))) < 1e-10


def test_truncated_matrix_shape_and_symmetry(rng):
    params = wide_jacobi(rng, 6, free=False)
    mat = truncated_matrix(params, 5)
    assert mat.shape == (5, 5)
    assert np.allclose(mat, mat.T)
    assert np.allclose(np.diag(mat), params.b_slice(5))
    with pytest.raises(InvalidParameterError):
        truncated_matrix(params, 0)


def test_truncation_eigenvalues_are_p_n_zeros(rng):
    params = mild_jacobi(rng, 9, free=False)
    n = 8
    eigs = np.linalg.eigvalsh(truncated_matrix(params, n))
    ev = eval_polys(params, n, eigs)
    assert np.max(np.abs(ev.p[n])) < 1e-9


def test_carmona_density_free_closed_form():
    """n = 1 free density is 1/(pi (x^2 + 1))."""
    free = JacobiParams.free()
    xs = np.linspace(-4.0, 4.0, 41)
    dens = carmona_density(free, 1, xs)
    assert np.max(np.abs(dens - 1.0 / (np.pi * (xs**2 + 1.0)))) < 1e-14


def test_carmona_density_positive(rng):
    params = wide_jacobi(rng, 6)
    xs = np.linspace(-5.0, 5.0, 101)
    assert np.all(carmona_density(params, 4, xs) > 0.0)


def test_carmona_moments_match_eigen_oracle(rng):
    """Low moments of the averaged density equal the spectral-measure moments."""
    for _ in range(4):
        params = wide_jacobi(rng, 8)
        oracle = spectral_measure_oracle(params, 400)
        for n in (2, 4, 5):
            for ell in range(2 * n - 1):
                assert abs(carmona_moment(params, n, ell) - oracle.moment(ell)) < 1e-6


def test_carmona_high_moments_refused():
    free = JacobiParams.free()
    with pytest.raises(InvalidParameterError):
        carmona_moment(free, 2, 3)
    with pytest.raises(InvalidParameterError):
        carmona_moment(free, 2, -1)


def test_spectral_oracle_free_two_by_two():
    free = JacobiParams.free()
    oracle = spectral_measure_oracle(free, 2)
    assert np.allclose(oracle.nodes, [-1.0, 1.0])
    assert np.allclose(oracle.weights, [0.5, 0.5])


def test_spectral_oracle_moments_are_matrix_powers(rng):
    """moment(l) equals the (1,1) entry of J_n^l."""
    params = wide_jacobi(rng, 10, free=False)
    n = 10
    oracle = spectral_measure_oracle(params, n)
    mat = truncated_matrix(params, n)
    power = np.eye(n)
    for ell in range(7):
        assert np.isclose(oracle.moment(ell), power[0, 0], atol=1e-10)
        power = power @ mat


def test_spectral_oracle_matches_the_tridiagonal_solver(rng):
    """The dense eigh of truncated_matrix agrees with scipy's tridiagonal solver."""
    linalg = pytest.importorskip("scipy.linalg")
    a, b = NEAR_EDGE["verdict"]
    cases = [(JacobiParams.free(), 2),
             (JacobiParams(a=np.array(a), b=np.array(b), free_after=len(a)), 2000)]
    cases += [(wide_jacobi(rng, 8), n) for n in (5, 8, 400)]
    for params, n in cases:
        oracle = spectral_measure_oracle(params, n)
        vals, vecs = linalg.eigh_tridiagonal(params.b_slice(n), params.a_slice(n - 1))
        weights = vecs[0] ** 2
        assert np.max(np.abs(oracle.nodes - vals)) <= 1e-13 * np.max(np.abs(vals))
        assert np.max(np.abs(oracle.weights - weights)) <= 1e-13 * np.max(weights)


def test_spectral_oracle_guards():
    free = JacobiParams.free()
    with pytest.raises(InvalidParameterError):
        spectral_measure_oracle(free, 3000)


def test_point_measure_validation():
    with pytest.raises(InvalidParameterError):
        PointMeasure(nodes=[0.0, 0.0], weights=[0.5, 0.5])
    with pytest.raises(InvalidParameterError):
        PointMeasure(nodes=[0.0, 1.0], weights=[0.5, 0.6])
    with pytest.raises(InvalidParameterError):
        PointMeasure(nodes=[0.0, 1.0], weights=[1.1, -0.1])


