import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subband_nmf import NmfParams, encode, factorize, split_reconstruction
from subband_nmf.defaults import ENCODE_TOL, EPSILON

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


def _residual_encode(v, w, params, h=None):
    """`encode` on one column block, with the objective taken from the m x n residual.

    Each sweep traces the objective of the H it starts from, and stops
    there, keeping that H, once the objective is zero or no more than
    ENCODE_TOL below the previous sweep's.  h is the initial H, by
    default the seeded draw.
    """
    if h is None:
        h = np.random.default_rng(params.seed).uniform(EPSILON, 1.0, (w.shape[1], v.shape[1]))
    trace = []
    for _ in range(params.max_iters):
        d = _residual_objective(v, w, h)
        converged = d == 0.0 or len(trace) > 0 and trace[-1] - d <= ENCODE_TOL * trace[-1]
        trace.append(d)
        if converged:
            break
        h = np.maximum(h * ((w.T @ v) / np.maximum((w.T @ w) @ h, EPSILON)), EPSILON)
    return h, trace


def test_encode_trace_matches_residual_and_stays_nonnegative():
    # at this planted fit the unclamped Gram form dips below zero by
    # roundoff on hundreds of sweeps, and the stop fires once roundoff
    # holds the objective up; until then encode's trace is the prefix of
    # the residual loop's without a stop
    w0, _, v = planted_instance(16, 40, 5, 1)
    params = NmfParams(rank=5, max_iters=3000, seed=1)
    trace = []
    encode(v, w0, params, objective_trace=trace)
    assert min(trace) >= 0.0
    assert 2 < len(trace) < params.max_iters
    direct = []
    h = np.random.default_rng(params.seed).uniform(EPSILON, 1.0, (5, v.shape[1]))
    for _ in range(len(trace)):
        direct.append(_residual_objective(v, w0, h))
        h = np.maximum(h * ((w0.T @ v) / np.maximum((w0.T @ w0) @ h, EPSILON)), EPSILON)
    assert trace == pytest.approx(direct, rel=1e-12, abs=1e-12 * np.sum(v * v))


@pytest.mark.parametrize("m, n, rank", [(12, 30, 4), (20, 50, 6), (40, 12, 3), (8, 300, 3)])
def test_encode_stops_where_the_residual_loop_stops(m, n, rank):
    # 300 columns make two 150-column blocks, each stopping on its own; the
    # trace sums the objectives the blocks had at each sweep, a stopped
    # block's last one included
    r = np.random.default_rng(m * n * rank)
    v, w = r.uniform(0, 1, (m, n)), r.uniform(0.1, 1, (m, rank))
    params = NmfParams(rank=rank, max_iters=1000, seed=3)
    trace = []
    h = encode(v, w, params, objective_trace=trace)
    h0 = np.random.default_rng(params.seed).uniform(EPSILON, 1.0, (rank, n))
    bounds = [0, n // 2, n] if n == 300 else [0, n]
    blocks = [_residual_encode(v[:, a:b], w, params, h0[:, a:b])
              for a, b in zip(bounds, bounds[1:])]
    lengths = [len(t) for _, t in blocks]
    assert 2 < min(lengths) and max(lengths) < params.max_iters
    expected = [sum(t[min(k, len(t) - 1)] for _, t in blocks) for k in range(max(lengths))]
    assert trace == pytest.approx(expected, rel=1e-12)
    np.testing.assert_array_equal(h, np.hstack([h_b for h_b, _ in blocks]))
    if n == 300:
        assert lengths[0] != lengths[1]


def test_encode_max_iters_caps_the_sweeps():
    r = np.random.default_rng(31)
    v, w = r.uniform(0, 1, (12, 30)), r.uniform(0.1, 1, (12, 4))
    _, stopped = _residual_encode(v, w, NmfParams(rank=4, max_iters=1000, seed=0))
    cap = NmfParams(rank=4, max_iters=len(stopped) // 2, seed=0)
    trace = []
    h = encode(v, w, cap, objective_trace=trace)
    h_ref, ref = _residual_encode(v, w, cap)
    assert len(trace) == len(ref) == cap.max_iters
    assert trace == pytest.approx(ref, rel=1e-12)
    np.testing.assert_array_equal(h, h_ref)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_encode_of_zero_v_stops_with_h_at_the_floor(dtype):
    # the first sweep floors every activation; the second starts from the
    # same objective, and the third is never run
    w = np.random.default_rng(0).uniform(0.1, 1, (5, 2)).astype(dtype)
    trace = []
    h = encode(np.zeros((5, 4), dtype), w, NmfParams(rank=2, max_iters=100, seed=0), trace)
    assert len(trace) == 3 and trace[1] == trace[2] > 0.0
    assert h.dtype == dtype and np.all(h == dtype(EPSILON))


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
    # the one-buffer H update keeps the operation order of this expression,
    # evaluated in v's dtype from the float64 draw cast to it
    r = np.random.default_rng(13)
    v = r.uniform(0, 1, (11, 17)) ** 2
    w = r.uniform(0.1, 1, (11, 6))
    params = NmfParams(rank=6, max_iters=40, seed=4)
    h0 = np.random.default_rng(params.seed).uniform(EPSILON, 1.0, (6, 17))
    for dtype in (np.float64, np.float32):
        v_d, w_d, h = v.astype(dtype), w.astype(dtype), h0.astype(dtype)
        for _ in range(params.max_iters):
            h = np.maximum(h * ((w_d.T @ v_d) / np.maximum((w_d.T @ w_d) @ h, EPSILON)), EPSILON)
        got = encode(v_d, w_d, params)
        assert got.dtype == h.dtype == dtype
        assert np.array_equal(got, h)
        assert not np.array_equal(h, h0.astype(dtype))


def test_factorize_matches_allocating_updates_bit_for_bit():
    # the one-buffer H and W updates keep the operation order of these
    # expressions, evaluated in v's dtype from the float64 draws cast to it;
    # a float64 v is the float64 solver, a float32 v stays float32
    r = np.random.default_rng(14)
    v = r.uniform(0, 1, (11, 17)) ** 2
    params = NmfParams(rank=4, max_iters=40, seed=6)
    draw = np.random.default_rng(params.seed)
    w0 = draw.uniform(EPSILON, 1.0, (11, 4))
    h0 = draw.uniform(EPSILON, 1.0, (4, 17))
    for dtype in (np.float64, np.float32):
        v_d, w, h = v.astype(dtype), w0.astype(dtype), h0.astype(dtype)
        for _ in range(params.max_iters):
            h = np.maximum(h * ((w.T @ v_d) / np.maximum((w.T @ w) @ h, EPSILON)), EPSILON)
            w = np.maximum(w * ((v_d @ h.T) / np.maximum(w @ (h @ h.T), EPSILON)), EPSILON)
        res = factorize(v_d, params)
        assert res.w.dtype == res.h.dtype == w.dtype == h.dtype == dtype
        np.testing.assert_array_equal(res.w, w)
        np.testing.assert_array_equal(res.h, h)
        assert res.objective_trace[-1] == pytest.approx(
            float(np.sum((v - w.astype(np.float64) @ h.astype(np.float64)) ** 2)),
            rel=1e-12 if dtype == np.float64 else 1e-3,
        )


@pytest.mark.parametrize("with_trace", ["factorize", "encode"])
def test_float32_objective_overflow_raises_instead_of_tracing_nan(with_trace):
    # ||V||^2 of these float32 features overflows float32 while every entry,
    # and every update, stays finite: the objective must raise under
    # errstate(over="raise"), not go on as inf - inf.  encode forms it per
    # column block, and ||V_b||^2 of each of its two 150-column blocks
    # overflows too
    v = np.full((200, 300), 2e17, dtype=np.float32)
    w = np.ones((200, 2), dtype=np.float32)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        if with_trace == "factorize":
            factorize(v, NmfParams(rank=2, max_iters=2))
        else:
            encode(v, w, NmfParams(rank=2, max_iters=2), objective_trace=[])


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
