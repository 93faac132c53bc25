"""Frame/overlap-add plumbing shared by both enhancement paths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subband_nmf import (
    BandModel,
    FrameSpec,
    MixSpec,
    NmfParams,
    Signal,
    StftBasisModel,
    SubbandBasisModel,
    dwpt,
    get_filters,
)
from subband_nmf.framing import (
    check_nonneg_matrix,
    frame_count,
    frame_signal,
    overlap_add,
    rms,
    square_elementwise,
)

from conftest import make_signal


def test_signal_validates_input():
    with pytest.raises(ValueError):
        Signal(np.zeros((2, 2)), 8000)
    with pytest.raises(ValueError):
        Signal(np.array([1.0, np.nan]), 8000)
    with pytest.raises(ValueError):
        Signal(np.zeros(4), 0)


def test_signal_casts_to_float64():
    s = Signal(np.array([1, 2, 3], dtype=np.int32), 8000)
    assert s.samples.dtype == np.float64


def test_frame_spec_bounds():
    FrameSpec(256, 256)
    FrameSpec(256, 1)
    with pytest.raises(ValueError):
        FrameSpec(256, 0)
    with pytest.raises(ValueError):
        FrameSpec(256, 257)
    with pytest.raises(ValueError):
        FrameSpec(0, 1)


# one constructor per whole-number setting, each taking the setting's value
WHOLE_SETTINGS = {
    "Signal.sample_rate": lambda v: Signal(np.zeros(8), v),
    "StftBasisModel.sample_rate": lambda v: StftBasisModel(
        np.ones((3, 1)), np.ones((3, 1)), FrameSpec(4, 2), v),
    "SubbandBasisModel.sample_rate": lambda v: SubbandBasisModel(
        1, "haar", FrameSpec(4, 2), [BandModel(np.ones((4, 1)), np.ones((4, 1)), 1.0)] * 2, v),
    "FrameSpec.frame_size": lambda v: FrameSpec(v, 1),
    "FrameSpec.frame_shift": lambda v: FrameSpec(512, v),
    "NmfParams.rank": lambda v: NmfParams(v),
    "NmfParams.max_iters": lambda v: NmfParams(2, v),
    "NmfParams.seed": lambda v: NmfParams(2, 3, v),
    "MixSpec.seed": lambda v: MixSpec(0.0, v),
    "SubbandBasisModel.level": lambda v: SubbandBasisModel(v, "haar", FrameSpec(4, 2), [], 8000),
    "dwpt.level": lambda v: dwpt(Signal(np.ones(100), 8000), v, get_filters("haar")),
}


@pytest.mark.parametrize("value", [256.5, 2.5, 3.5, 1.5])
@pytest.mark.parametrize("setting", WHOLE_SETTINGS)
def test_fractional_setting_rejected_naming_it(setting, value):
    name = setting.split(".")[1]
    with pytest.raises(ValueError, match=f"^{name} must be a (positive|nonnegative) whole number"):
        WHOLE_SETTINGS[setting](value)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: NmfParams(-10**5000),
         "rank must be a positive whole number, got -<16610-bit integer>"),
        (lambda: MixSpec(0, -10**5000),
         "seed must be a nonnegative whole number, got -<16610-bit integer>"),
        (lambda: dwpt(Signal(np.ones(100), 8000), 10**5000, get_filters("haar")),
         "level <16610-bit integer> too deep"),
        (lambda: SubbandBasisModel(
            10**5000, "haar", FrameSpec(4, 2),
            [BandModel(np.ones((4, 1)), np.ones((4, 1)), 1.0)] * 2, 8000),
         r"level <16610-bit integer> needs 2\*\*<16610-bit integer> band models, got 2"),
    ],
    ids=["rank", "seed", "dwpt-level", "model-level"],
)
def test_int_past_the_digit_limit_named_by_bit_length(build, message):
    # str() refuses an int of more than 4,300 digits with a message naming no setting
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


def test_whole_settings_stored_as_int():
    spec = FrameSpec(256.0, np.int64(80))
    params = NmfParams(np.int32(2), 3.0, np.uint8(1))
    mix = MixSpec(0.0, np.int64(3))
    band = BandModel(np.ones((4, 1)), np.ones((4, 1)), 1.0)
    model = SubbandBasisModel(np.int64(1), "haar", FrameSpec(4, 2), [band] * 2, 8000.0)
    stored = [spec.frame_size, spec.frame_shift, params.rank, params.max_iters, params.seed,
              mix.seed, model.level, model.sample_rate]
    assert stored == [256, 80, 2, 3, 1, 3, 1, 8000]
    assert all(type(v) is int for v in stored)
    assert spec == FrameSpec(256, 80) and params == NmfParams(2, 3, 1)
    x = Signal(np.ones(64), 8000)
    np.testing.assert_array_equal(dwpt(x, 2.0, get_filters("db4")),
                                  dwpt(x, 2, get_filters("db4")))


def test_single_frame_identity():
    # length 256, size 256, shift 80: exactly one column equal to the input
    x = make_signal(256)
    f = frame_signal(x.samples, FrameSpec(256, 80))
    assert f.shape == (256, 1)
    np.testing.assert_array_equal(f[:, 0], x.samples)


def test_frame_starts_by_hand():
    # length 416, size 256, shift 80: floor((416-256)/80)+1 = 3 frames
    x = make_signal(416)
    spec = FrameSpec(256, 80)
    assert frame_count(416, spec) == 3
    f = frame_signal(x.samples, spec)
    assert f.shape == (256, 3)
    for j, start in enumerate((0, 80, 160)):
        np.testing.assert_array_equal(f[:, j], x.samples[start:start + 256])
    # a float32 signal is framed as it is, into a float32 matrix of the
    # same columns; any other dtype is read as float64
    f32 = frame_signal(x.samples.astype(np.float32), spec)
    assert f32.dtype == np.float32
    np.testing.assert_array_equal(f32, f.astype(np.float32))
    assert frame_signal(np.arange(416), spec).dtype == np.float64


def test_frame_count_matches_enumeration():
    for n in (10, 100, 257, 999, 1200):
        for size in (4, 10, 64):
            for shift in (1, 3, size // 2 or 1, size):
                starts = [s for s in range(0, n - size + 1, shift)]
                if n >= size:
                    assert frame_count(n, FrameSpec(size, shift)) == len(starts)


def test_too_short_signal_rejected():
    with pytest.raises(ValueError, match="too short"):
        frame_signal(make_signal(100).samples, FrameSpec(256, 80))


def test_overlap_add_constant_frames():
    spec = FrameSpec(16, 4)
    frames = np.ones((16, 5))
    out = overlap_add(frames, spec, 32)
    covered = (5 - 1) * 4 + 16
    np.testing.assert_allclose(out[:covered], 1.0)
    np.testing.assert_array_equal(out[covered:], 0.0)


def test_overlap_add_single_frame_no_overlap():
    spec = FrameSpec(8, 8)
    fr = np.arange(8.0)[:, None]
    out = overlap_add(fr, spec, 8)
    np.testing.assert_array_equal(out, np.arange(8.0))


def test_overlap_add_target_len_is_a_whole_number():
    spec = FrameSpec(8, 4)
    frames = np.arange(24.0).reshape(8, 3)
    np.testing.assert_array_equal(overlap_add(frames, spec, 16.0), overlap_add(frames, spec, 16))
    for target_len in (2.5, 0, "16"):
        with pytest.raises(ValueError, match="^target_len must be a positive whole number"):
            overlap_add(frames, spec, target_len)


def test_frame_then_overlap_add_reconstructs():
    x = make_signal(1200, seed=3)
    spec = FrameSpec(256, 80)
    covered = (frame_count(1200, spec) - 1) * 80 + 256
    out = overlap_add(frame_signal(x.samples, spec), spec, 1200)
    np.testing.assert_allclose(out[:covered], x.samples[:covered], atol=1e-12)


def test_overlap_add_brute_force_average():
    # every output sample is the mean of all frame entries that land on it,
    # summed in column order, so the result is bit-identical.  Geometries
    # (size, shift, frames, target_len): overlapping, a shift that does not
    # divide the size, no overlap, shift 1, one frame, truncated and
    # zero-padded targets, and the paper's 1000/20
    r = np.random.default_rng(7)
    for size, shift, n_frames, target_len in [
        (6, 2, 4, 12),
        (7, 3, 5, 19),
        (7, 3, 5, 25),
        (5, 5, 3, 15),
        (8, 1, 6, 10),
        (9, 4, 1, 9),
        (1000, 20, 40, 1790),
    ]:
        frames = r.uniform(-1, 1, (size, n_frames))
        n = max((n_frames - 1) * shift + size, target_len)
        acc = np.zeros(n)
        cnt = np.zeros(n)
        for j in range(n_frames):
            for i in range(size):
                acc[j * shift + i] += frames[i, j]
                cnt[j * shift + i] += 1
        out = overlap_add(frames, FrameSpec(size, shift), target_len)
        np.testing.assert_array_equal(out, (acc / np.maximum(cnt, 1.0))[:target_len])


@settings(deadline=None, max_examples=60)
@given(
    size=st.integers(2, 128),
    shift_frac=st.floats(0.01, 1.0),
    extra=st.integers(0, 400),
    seed=st.integers(0, 2**31),
)
def test_framing_round_trip_property(size, shift_frac, extra, seed):
    shift = max(1, int(size * shift_frac))
    n = size + extra
    x = make_signal(n, seed=seed)
    spec = FrameSpec(size, shift)
    out = overlap_add(frame_signal(x.samples, spec), spec, n)
    covered = (frame_count(n, spec) - 1) * shift + size
    assert np.max(np.abs(out[:covered] - x.samples[:covered])) < 1e-12


def test_square_elementwise_cases():
    np.testing.assert_array_equal(square_elementwise(np.array([[-2.0, 3.0]])), [[4.0, 9.0]])
    np.testing.assert_array_equal(square_elementwise(np.zeros((3, 2))), np.zeros((3, 2)))
    np.testing.assert_array_equal(square_elementwise(np.array([[0.5]])), [[0.25]])


def test_check_nonneg_matrix():
    m = check_nonneg_matrix([[1.0, 0.0], [2.0, 3.0]])
    assert m.dtype == np.float64
    with pytest.raises(ValueError):
        check_nonneg_matrix(np.array([[-1.0]]))
    with pytest.raises(ValueError):
        check_nonneg_matrix(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        check_nonneg_matrix(np.zeros(3))


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.nan, "finite"),
        (np.inf, "finite"),
        (-np.inf, "finite"),
        (-0.5, "nonnegative"),
    ],
)
def test_check_nonneg_matrix_messages(bad, message):
    m = np.ones((4, 5))
    m[2, 3] = bad
    with pytest.raises(ValueError, match=f"^w must contain only {message} values$"):
        check_nonneg_matrix(m, "w")
    # the finite check comes first, whatever else is wrong
    m[0, 0] = -1.0
    expected = "nonnegative" if np.isfinite(bad) else "finite"
    with pytest.raises(ValueError, match=f"only {expected} values"):
        check_nonneg_matrix(m, "w")


def test_check_nonneg_matrix_accepts_empty_and_negative_zero():
    assert check_nonneg_matrix(np.zeros((0, 3))).shape == (0, 3)
    check_nonneg_matrix(np.array([[-0.0, 1.0]]))


@settings(deadline=None, max_examples=80)
@given(
    size=st.integers(1, 40),
    shift_frac=st.floats(0.01, 1.0),
    n_frames=st.integers(1, 12),
    extra=st.integers(-30, 30),
    seed=st.integers(0, 2**31),
)
def test_overlap_add_matches_column_loop_property(size, shift_frac, n_frames, extra, seed):
    # the block-order sum gives the bits of a column-by-column loop
    shift = max(1, int(size * shift_frac))
    covered = (n_frames - 1) * shift + size
    target_len = max(1, covered + extra)
    frames = np.random.default_rng(seed).normal(size=(size, n_frames))
    acc = np.zeros(max(covered, target_len))
    cnt = np.zeros(len(acc))
    for k in range(n_frames):
        acc[k * shift : k * shift + size] += frames[:, k]
        cnt[k * shift : k * shift + size] += 1.0
    out = overlap_add(frames, FrameSpec(size, shift), target_len)
    assert np.array_equal(out, (acc / np.maximum(cnt, 1.0))[:target_len])


def test_rms():
    assert rms(np.zeros(0)) == 0.0
    assert rms(np.array([3.0, -3.0])) == 3.0
    np.testing.assert_allclose(rms(np.array([1.0, 0.0])), np.sqrt(0.5))
