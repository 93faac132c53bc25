"""STFT analysis/synthesis and the full-band enhancement baseline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subband_nmf import (
    ComplexSpectrogram,
    FrameSpec,
    NmfParams,
    Signal,
    StftBasisModel,
    enhance_stft,
    istft,
    mix_at_snr,
    MixSpec,
    separation_gain,
    ssnr,
    stft,
    synth_white_noise,
    train_stft_model,
    wiener_gain,
)
from subband_nmf.defaults import EPSILON
from subband_nmf.framing import frame_count
from subband_nmf.spectral import get_window

from conftest import make_signal, make_tone


def test_get_window_names():
    np.testing.assert_array_equal(get_window("hamming", 64), np.hamming(64))
    np.testing.assert_array_equal(get_window("hann", 64), np.hanning(64))
    np.testing.assert_array_equal(get_window("rectangular", 16), np.ones(16))
    with pytest.raises(ValueError, match="unknown window"):
        get_window("blackman", 64)


def test_spectrogram_validation():
    spec = FrameSpec(16, 4)
    ComplexSpectrogram(np.zeros((9, 3), dtype=complex), spec)
    with pytest.raises(ValueError, match="bins"):
        ComplexSpectrogram(np.zeros((8, 3), dtype=complex), spec)
    with pytest.raises(ValueError):
        ComplexSpectrogram(np.full((9, 2), np.nan + 0j), spec)


def test_stft_matches_direct_dft():
    # hand oracle: rfft of one windowed frame computed by direct summation
    x = make_signal(40, seed=6)
    spec = FrameSpec(16, 8)
    s = stft(x, spec, "hamming")
    assert s.values.shape == (9, frame_count(40, spec))
    w = np.hamming(16)
    frame0 = x.samples[:16] * w
    k = np.arange(9)[:, None]
    n = np.arange(16)[None, :]
    direct = np.sum(frame0[None, :] * np.exp(-2j * np.pi * k * n / 16), axis=1)
    np.testing.assert_allclose(s.values[:, 0], direct, atol=1e-12)


def test_stft_zero_signal():
    s = stft(Signal(np.zeros(100), 8000), FrameSpec(32, 8))
    np.testing.assert_array_equal(s.values, 0.0)


def test_bin_centered_tone_concentrates():
    # 500 Hz at 8 kHz with 256-point frames sits exactly on bin 16
    x = make_tone(500.0, 0.5)
    s = stft(x, FrameSpec(256, 80))
    mag = np.abs(s.values)
    for j in range(mag.shape[1]):
        col = mag[:, j].copy()
        peak = col[16]
        col[15:18] = 0.0
        assert peak >= 100.0 * col.max()


def test_istft_identity_interior():
    x = make_signal(2000, seed=4)
    for window in ("hamming", "hann", "rectangular"):
        s = stft(x, FrameSpec(256, 80), window)
        y = istft(s, 2000)
        interior = slice(256, 2000 - 256)
        assert np.max(np.abs(y[interior] - x.samples[interior])) < 1e-8


def test_istft_zero_spectrogram():
    s = ComplexSpectrogram(np.zeros((9, 5), dtype=complex), FrameSpec(16, 4))
    np.testing.assert_array_equal(istft(s, 40), np.zeros(40))


def test_istft_pads_past_coverage():
    s = stft(make_signal(64), FrameSpec(32, 16))
    y = istft(s, 100)
    assert len(y) == 100
    np.testing.assert_array_equal(y[64:], 0.0)


@pytest.mark.parametrize(
    "size, shift, n_frames, target_len, window",
    [
        (16, 4, 5, 32, "hamming"),
        (15, 7, 4, 40, "hann"),
        (8, 8, 3, 20, "rectangular"),
        (32, 1, 6, 30, "hann"),
        (256, 80, 9, 896, "hamming"),
        (256, 80, 14, 1400, "hann"),
        (7, 3, 6, 30, "hamming"),
    ],
)
def test_istft_brute_force_weighted_sum(size, shift, n_frames, target_len, window):
    # window-weighted frames over the summed squared window, each sample
    # accumulated in column order, so the result is bit-identical
    r = np.random.default_rng(11)
    bins = size // 2 + 1
    values = r.normal(size=(bins, n_frames)) + 1j * r.normal(size=(bins, n_frames))
    spec = ComplexSpectrogram(values, FrameSpec(size, shift), window)
    frames = np.fft.irfft(spec.values, n=size, axis=0)
    w = get_window(window, size)
    n = max((n_frames - 1) * shift + size, target_len)
    num = np.zeros(n)
    den = np.zeros(n)
    for k in range(n_frames):
        for i in range(size):
            num[k * shift + i] += w[i] * frames[i, k]
            den[k * shift + i] += w[i] * w[i]
    expected = (num / np.maximum(den, 1e-8))[:target_len]
    np.testing.assert_array_equal(istft(spec, target_len), expected)


@settings(deadline=None, max_examples=40)
@given(
    size_exp=st.integers(3, 8),
    shift_frac=st.floats(0.1, 1.0),
    window=st.sampled_from(("hamming", "hann", "rectangular")),
    seed=st.integers(0, 2**31),
)
def test_istft_round_trip_property(size_exp, shift_frac, window, seed):
    # reconstruction is exact wherever the accumulated squared window is
    # meaningfully above the synthesis floor; hann's zero endpoints can
    # leave isolated samples with no usable weight at large shifts
    size = 2**size_exp
    shift = max(1, int(size * shift_frac))
    n = 4 * size
    x = make_signal(n, seed=seed)
    spec = FrameSpec(size, shift)
    y = istft(stft(x, spec, window), n)
    w2 = get_window(window, size) ** 2
    weight = np.zeros(n)
    for k in range(frame_count(n, spec)):
        weight[k * shift : k * shift + size] += w2
    mask = weight >= 1e-6
    assert np.max(np.abs(y[mask] - x.samples[mask])) < 1e-8


def test_unit_gain_identity():
    # gain fixed at one reproduces the analysis/synthesis round trip
    x = make_signal(1500, seed=12)
    spec = FrameSpec(256, 80)
    s = stft(x, spec)
    scaled = ComplexSpectrogram(s.values * 1.0, spec)
    np.testing.assert_array_equal(istft(scaled, 1500), istft(s, 1500))


def test_wiener_gain_hand_cases():
    g = wiener_gain(np.array([[1.0]]), np.array([[3.0]]))
    assert g[0, 0] == 0.25
    assert np.sqrt(g)[0, 0] == 0.5
    np.testing.assert_array_equal(wiener_gain(np.array([[5.0]]), np.array([[0.0]])), 1.0)
    # equal parts split the gain exactly in half
    a = np.random.default_rng(0).uniform(0.1, 1, (4, 6))
    np.testing.assert_array_equal(wiener_gain(a, a.copy()), np.full((4, 6), 0.5))


def test_wiener_gain_matches_two_line_formula():
    # zeros exercise the floored denominator, negatives the clip; the
    # inputs are read-only, so a write into them would raise
    r = np.random.default_rng(4)
    s = r.uniform(-0.2, 1, (6, 9))
    n = r.uniform(-0.2, 1, (6, 9))
    s[0, :3] = 0.0
    n[0, :2] = 0.0
    n[1, 0] = 1e-14
    expected = np.clip(s / np.maximum(s + n, EPSILON), 0.0, 1.0)
    s_bytes, n_bytes = s.tobytes(), n.tobytes()
    s.setflags(write=False)
    n.setflags(write=False)
    g = wiener_gain(s, n)
    assert np.array_equal(g, expected)
    assert s.tobytes() == s_bytes and n.tobytes() == n_bytes
    # integer parts give a float gain, as the formula does
    assert np.array_equal(wiener_gain([[1, 0]], [[3, 0]]), [[0.25, 0.0]])


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**31), scale=st.floats(1e-6, 1e6))
def test_wiener_gain_bounds_property(seed, scale):
    r = np.random.default_rng(seed)
    s = scale * r.uniform(0, 1, (5, 8))
    n = scale * r.uniform(0, 1, (5, 8))
    g = wiener_gain(s, n)
    assert np.all(g >= 0.0) and np.all(g <= 1.0)


def test_model_validation():
    spec = FrameSpec(16, 4)
    with pytest.raises(ValueError, match="w_speech"):
        StftBasisModel(np.ones((5, 2)), np.ones((9, 2)), spec, sample_rate=8000)
    with pytest.raises(ValueError, match="nonnegative"):
        StftBasisModel(-np.ones((9, 2)), np.ones((9, 2)), spec, sample_rate=8000)
    with pytest.raises(ValueError, match="feature kind"):
        StftBasisModel(
            np.ones((9, 2)), np.ones((9, 2)), spec, feature_kind="mel", sample_rate=8000
        )


def test_train_on_sinusoid_concentrates_dictionary():
    model = train_stft_model(
        [make_tone(500.0, 1.0)],
        [synth_white_noise(1.0, 8000, 0, 0.5)],
        FrameSpec(256, 80),
        speech_params=NmfParams(rank=2, max_iters=100, seed=0),
        noise_params=NmfParams(rank=2, max_iters=50, seed=0),
    )
    assert model.sample_rate == 8000
    for k in range(model.w_speech.shape[1]):
        assert abs(int(np.argmax(model.w_speech[:, k])) - 16) <= 1


def test_train_empty_class_rejected():
    with pytest.raises(ValueError, match="empty"):
        train_stft_model([], [synth_white_noise(0.5, 8000, 0, 0.5)], FrameSpec(64, 16))


def test_train_mixed_rates_rejected():
    with pytest.raises(ValueError, match="mixed sample rates"):
        train_stft_model(
            [make_tone(300, 0.2, rate=8000)],
            [make_tone(300, 0.2, rate=16000)],
            FrameSpec(64, 16),
            speech_params=NmfParams(rank=1, max_iters=2),
            noise_params=NmfParams(rank=1, max_iters=2),
        )


def test_train_rejects_all_zero_clean():
    # subnormal samples square to zero, so they would train what silence does
    for value in (0.0, 5e-324, 1e-320):
        silent = Signal(np.full(4000, value), 8000)
        with pytest.raises(ValueError, match="degenerate clean set"):
            train_stft_model(
                [silent], [synth_white_noise(0.5, 8000, 0, 0.5)], FrameSpec(64, 16),
                speech_params=NmfParams(rank=1, max_iters=2),
                noise_params=NmfParams(rank=1, max_iters=2),
            )


def test_rank_one_feature_matrix_recovered():
    # power features of a stationary tone form a near-rank-1 matrix
    x = make_tone(500.0, 0.5)
    v = np.abs(stft(x, FrameSpec(256, 80)).values) ** 2
    from subband_nmf import factorize

    res = factorize(v, NmfParams(rank=1, max_iters=300, seed=0))
    assert res.objective_trace[-1] <= 1e-6 * np.sum(v * v)


def _tiny_models(seed=0):
    clean = [make_tone(500.0, 2.0)]
    noise = [synth_white_noise(2.0, 8000, seed, 0.5)]
    return train_stft_model(
        clean, noise, FrameSpec(256, 80),
        speech_params=NmfParams(rank=2, max_iters=100, seed=0),
        noise_params=NmfParams(rank=4, max_iters=100, seed=0),
    )


def test_enhance_improves_tone_in_noise():
    model = _tiny_models()
    clean = make_tone(500.0, 1.0)
    noisy = mix_at_snr(clean, synth_white_noise(1.0, 8000, 99, 0.5), MixSpec(0.0, 3))
    out = enhance_stft(noisy, model, NmfParams(rank=6, max_iters=50, seed=0))
    assert len(out.samples) == len(noisy.samples)
    assert ssnr(clean, out) > ssnr(clean, noisy)


def test_enhance_preserves_phase():
    # the gain is a real nonnegative multiplier on the complex values, so
    # the modified spectrum's phase deviates from the input's by at most
    # atan2 roundoff wherever the gain is nonzero
    model = _tiny_models()
    noisy = mix_at_snr(
        make_tone(500.0, 0.5), synth_white_noise(0.5, 8000, 7, 0.5), MixSpec(5.0, 1)
    )
    v = stft(noisy, model.frame_spec, model.window_name).values
    w = np.hstack([model.w_speech, model.w_noise])
    from subband_nmf import encode, split_reconstruction

    h = encode(np.abs(v) ** 2, w, NmfParams(rank=6, max_iters=30, seed=0))
    s_part, n_part = split_reconstruction(model.w_speech, model.w_noise, h)
    scaled = v * wiener_gain(s_part, n_part)
    mask = np.abs(scaled) > 0
    dphi = np.angle(scaled[mask]) - np.angle(v[mask])
    dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
    assert np.max(np.abs(dphi)) < 1e-12


def test_enhance_unit_gain_limit():
    # noise dictionary pinned at epsilon: gain ~ 1, output ~ round trip
    x = Signal(synth_white_noise(0.5, 8000, 3, 0.4).samples, 8000)
    spec = FrameSpec(256, 80)
    v = np.abs(stft(x, spec).values) ** 2
    from subband_nmf import factorize

    w_s = factorize(v, NmfParams(rank=8, max_iters=300, seed=0)).w
    model = StftBasisModel(w_s, np.full((129, 2), 1e-12), spec, sample_rate=8000)
    out = enhance_stft(x, model, NmfParams(rank=10, max_iters=100, seed=0))
    ident = istft(stft(x, spec), len(x.samples))
    interior = slice(256, len(x.samples) - 256)
    err = np.max(np.abs(out.samples[interior] - ident[interior]))
    assert err < 5e-3


def test_enhance_rate_mismatch_rejected():
    model = _tiny_models()
    with pytest.raises(ValueError, match="sample rate"):
        enhance_stft(make_tone(440.0, 0.3, rate=16000), model)


def test_separation_gain_rejects_overflowed_reconstruction():
    # W^T V overflows, so every activation becomes inf and both class
    # reconstructions overflow: inf / inf is nan
    w = np.full((4, 4), 1e150)
    params = NmfParams(rank=8, max_iters=1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="gain values must be finite"
    ):
        separation_gain(np.full((4, 3), 1e300), w, w, params)
