import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subband_nmf import NmfParams, encode, factorize, split_reconstruction
from subband_nmf.defaults import EPSILON

from conftest import planted_instance


def test_params_validation():
    NmfParams(rank=1, max_iters=1)
    with pytest.raises(ValueError):
        NmfParams(rank=0)
    with pytest.raises(ValueError):
        NmfParams(rank=2, max_iters=0)
    with pytest.raises(ValueError, match="seed must be a nonnegative whole number, got -1"):
        NmfParams(rank=2, seed=-1)


def test_factorize_shapes_and_positivity():
    r = np.random.default_rng(0)
    v = r.uniform(0, 1, (12, 20))
    res = factorize(v, NmfParams(rank=4, max_iters=30, seed=1))
    assert res.w.shape == (12, 4)
    assert res.h.shape == (4, 20)
    assert len(res.objective_trace) == 30
    assert np.all(res.w >= 1e-12) and np.all(res.h >= 1e-12)


def test_factorize_rejects_negative():
    with pytest.raises(ValueError):
        factorize(np.array([[1.0, -0.5]]), NmfParams(rank=1))


def test_trace_matches_final_objective():
    r = np.random.default_rng(3)
    v = r.uniform(0, 1, (10, 14))
    res = factorize(v, NmfParams(rank=3, max_iters=25, seed=0))
    d = float(np.sum((v - res.w @ res.h) ** 2))
    assert res.objective_trace[-1] == pytest.approx(d, rel=1e-12)


def _residual_objective(v, w, h):
    r = v - w @ h
    return float(np.sum(r * r))


def _residual_factorize(v, params):
    # the update loop with the objective taken from the m x n residual
    eps = EPSILON
    rng = np.random.default_rng(params.seed)
    w = rng.uniform(eps, 1.0, size=(v.shape[0], params.rank))
    h = rng.uniform(eps, 1.0, size=(params.rank, v.shape[1]))
    trace = []
    for _ in range(params.max_iters):
        h = np.maximum(h * ((w.T @ v) / np.maximum((w.T @ w) @ h, eps)), eps)
        w = np.maximum(w * ((v @ h.T) / np.maximum(w @ (h @ h.T), eps)), eps)
        trace.append(_residual_objective(v, w, h))
    return w, h, trace


def _shape_case(name):
    r = np.random.default_rng(17)
    if name == "tall":
        return r.uniform(0, 1, (40, 12)), 4, 200
    if name == "wide":
        return r.uniform(0, 1, (12, 40)), 4, 200
    if name == "rank_above_cols":
        return r.uniform(0, 1, (20, 3)), 6, 300
    return planted_instance(16, 40, 5, 0)[2], 5, 1000


@pytest.mark.parametrize("case", ["tall", "wide", "rank_above_cols", "planted"])
def test_factorize_matches_residual_loop(case):
    # same factor bits as the loop that forms the residual; the Gram-form
    # trace differs by roundoff, which scales with ||V||^2 (the expansion
    # cancels), so that is the floor of the tolerance near an exact fit
    v, rank, iters = _shape_case(case)
    params = NmfParams(rank=rank, max_iters=iters, seed=5)
    res = factorize(v, params)
    w, h, trace = _residual_factorize(v, params)
    np.testing.assert_array_equal(res.w, w)
    np.testing.assert_array_equal(res.h, h)
    assert res.objective_trace == pytest.approx(trace, rel=1e-12, abs=1e-12 * np.sum(v * v))
    assert min(res.objective_trace) >= 0.0


def test_encode_trace_matches_residual_and_stays_nonnegative():
    # at this planted fit the unclamped Gram form dips below zero by
    # roundoff on hundreds of sweeps
    w0, _, v = planted_instance(16, 40, 5, 1)
    params = NmfParams(rank=5, max_iters=3000, seed=1)
    trace = []
    encode(v, w0, params, objective_trace=trace)
    assert min(trace) >= 0.0
    direct = []
    h = np.random.default_rng(params.seed).uniform(EPSILON, 1.0, (5, v.shape[1]))
    for _ in range(params.max_iters):
        h = np.maximum(h * ((w0.T @ v) / np.maximum((w0.T @ w0) @ h, EPSILON)), EPSILON)
        direct.append(_residual_objective(v, w0, h))
    assert trace == pytest.approx(direct, rel=1e-12, abs=1e-12 * np.sum(v * v))


def test_factorize_deterministic():
    r = np.random.default_rng(8)
    v = r.uniform(0, 1, (9, 11))
    a = factorize(v, NmfParams(rank=3, max_iters=40, seed=7))
    b = factorize(v, NmfParams(rank=3, max_iters=40, seed=7))
    np.testing.assert_array_equal(a.w, b.w)
    np.testing.assert_array_equal(a.h, b.h)
    assert a.objective_trace == b.objective_trace
    c = factorize(v, NmfParams(rank=3, max_iters=40, seed=8))
    assert not np.array_equal(a.w, c.w)


def test_monotone_objective_fixed_cases():
    for seed in range(10):
        r = np.random.default_rng(seed)
        v = r.uniform(0, 2, (16, 24))
        res = factorize(v, NmfParams(rank=5, max_iters=60, seed=seed))
        t = np.asarray(res.objective_trace)
        assert np.all(np.diff(t) <= 1e-9)


@settings(deadline=None, max_examples=30)
@given(
    m=st.integers(2, 24), n=st.integers(2, 32), rank=st.integers(1, 6),
    seed=st.integers(0, 2**31),
)
def test_monotone_objective_property(m, n, rank, seed):
    r = np.random.default_rng(seed)
    v = r.uniform(0, 1, (m, n))
    res = factorize(v, NmfParams(rank=rank, max_iters=40, seed=seed))
    t = np.asarray(res.objective_trace)
    assert np.all(np.diff(t) <= 1e-9)
    tr = []
    encode(v, res.w, NmfParams(rank=rank, max_iters=40, seed=seed + 1), objective_trace=tr)
    assert np.all(np.diff(np.asarray(tr)) <= 1e-9)


def test_planted_product_recovered():
    # v built from a known rank-2 product; the construction is the oracle
    r = np.random.default_rng(11)
    w0 = r.uniform(0, 1, (8, 2))
    h0 = r.uniform(0, 1, (2, 12))
    v = w0 @ h0
    res = factorize(v, NmfParams(rank=2, max_iters=500, seed=11))
    assert res.objective_trace[-1] <= 1e-6 * np.sum(v * v)


def test_planted_block_instances_recovered():
    for seed in (0, 1, 2):
        _, _, v = planted_instance(16, 40, 5, seed)
        res = factorize(v, NmfParams(rank=5, max_iters=500, seed=seed))
        assert res.objective_trace[-1] <= 1e-6 * np.sum(v * v)


def test_zero_matrix_objective_vanishes():
    res = factorize(np.zeros((4, 4)), NmfParams(rank=2, max_iters=20, seed=0))
    # factor entries are floored at epsilon, so d is epsilon^2-scale, not 0
    assert all(d <= 1e-40 for d in res.objective_trace)


def test_encode_planted_solution():
    r = np.random.default_rng(21)
    w = r.uniform(0, 1, (10, 3))
    h_true = r.uniform(0, 1, (3, 15))
    v = w @ h_true
    tr = []
    h = encode(v, w, NmfParams(rank=3, max_iters=500, seed=2), objective_trace=tr)
    assert h.shape == (3, 15)
    assert tr[-1] <= 1e-6 * np.sum(v * v)


def test_encode_zero_target():
    tr = []
    h = encode(np.zeros((5, 4)), np.random.default_rng(0).uniform(0.1, 1, (5, 2)),
               NmfParams(rank=2, max_iters=100, seed=0), objective_trace=tr)
    assert np.all(h <= 1e-6)
    assert tr[-1] <= 1e-12


def test_encode_scalar_closed_form():
    # r = 1, n = 1: least squares gives h = (w^T v)/(w^T w)
    r = np.random.default_rng(5)
    w = r.uniform(0.1, 1, (6, 1))
    v = 0.73 * w
    h = encode(v, w, NmfParams(rank=1, max_iters=200, seed=0))
    expected = ((w.T @ v) / (w.T @ w)).item()
    assert h[0, 0] == pytest.approx(expected, rel=1e-9)


def test_encode_never_mutates_dictionary():
    r = np.random.default_rng(9)
    w = r.uniform(0, 1, (7, 3))
    frozen = w.copy()
    encode(r.uniform(0, 1, (7, 9)), w, NmfParams(rank=3, max_iters=50, seed=0))
    np.testing.assert_array_equal(w, frozen)


def _read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


def test_encode_and_factorize_only_read_their_inputs():
    # read-only inputs make any in-place write raise; the results own
    # their memory, and a second call starts from the same initial factors
    r = np.random.default_rng(12)
    v = _read_only(r.uniform(0, 1, (9, 13)))
    w = _read_only(r.uniform(0.1, 1, (9, 4)))
    v_bytes, w_bytes = v.tobytes(), w.tobytes()
    params = NmfParams(rank=3, max_iters=7, seed=2)
    trace = []
    h = encode(v, w, params, objective_trace=trace)
    res = factorize(v, params)
    assert v.tobytes() == v_bytes and w.tobytes() == w_bytes
    for out in (h, res.w, res.h):
        assert not np.shares_memory(out, v) and not np.shares_memory(out, w)
    assert not np.shares_memory(res.w, res.h)
    assert np.array_equal(encode(v, w, params), h)
    again = factorize(v, params)
    assert np.array_equal(again.w, res.w) and np.array_equal(again.h, res.h)


def test_encode_matches_allocating_update_bit_for_bit():
    # the one-buffer H update keeps the operation order of this expression
    r = np.random.default_rng(13)
    v = r.uniform(0, 1, (11, 17)) ** 2
    w = r.uniform(0.1, 1, (11, 6))
    params = NmfParams(rank=6, max_iters=40, seed=4)
    h = np.random.default_rng(params.seed).uniform(EPSILON, 1.0, (6, 17))
    h0 = h.copy()
    for _ in range(params.max_iters):
        h = np.maximum(h * ((w.T @ v) / np.maximum((w.T @ w) @ h, EPSILON)), EPSILON)
    assert np.array_equal(encode(v, w, params), h)
    assert not np.array_equal(h, h0)


def test_encode_row_mismatch():
    with pytest.raises(ValueError, match="row mismatch"):
        encode(np.ones((4, 2)), np.ones((5, 2)), NmfParams(rank=2, max_iters=1))


def test_split_reconstruction_axis_aligned():
    w_s = np.array([[1.0], [0.0]])
    w_n = np.array([[0.0], [1.0]])
    h = np.array([[2.0], [3.0]])
    speech, noise = split_reconstruction(w_s, w_n, h)
    np.testing.assert_array_equal(speech, [[2.0], [0.0]])
    np.testing.assert_array_equal(noise, [[0.0], [3.0]])


def test_split_reconstruction_zero_noise_rows():
    r = np.random.default_rng(2)
    w_s = r.uniform(0, 1, (6, 2))
    w_n = r.uniform(0, 1, (6, 3))
    h = np.vstack([r.uniform(0, 1, (2, 5)), np.zeros((3, 5))])
    speech, noise = split_reconstruction(w_s, w_n, h)
    np.testing.assert_array_equal(noise, np.zeros((6, 5)))
    np.testing.assert_allclose(speech, w_s @ h[:2])


def test_split_reconstruction_dense_oracle():
    r = np.random.default_rng(4)
    w_s = r.uniform(0, 1, (5, 2))
    w_n = r.uniform(0, 1, (5, 4))
    h = r.uniform(0, 1, (6, 7))
    speech, noise = split_reconstruction(w_s, w_n, h)
    full = np.hstack([w_s, w_n]) @ h
    np.testing.assert_allclose(speech + noise, full, atol=1e-12)


def test_split_reconstruction_partition_mismatch():
    with pytest.raises(ValueError, match="rows"):
        split_reconstruction(np.ones((3, 2)), np.ones((3, 2)), np.ones((5, 1)))
