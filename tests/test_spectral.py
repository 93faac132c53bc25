"""STFT analysis/synthesis and the full-band enhancement baseline."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subband_nmf import (
    BandModel,
    FrameSpec,
    NmfParams,
    Signal,
    StftBasisModel,
    SubbandBasisModel,
    enhance_dwpt,
    enhance_stft,
    istft,
    mix_at_snr,
    MixSpec,
    ssnr,
    stft,
    synth_white_noise,
    train_dwpt_model,
    train_stft_model,
    wiener_gain,
)
from subband_nmf import spectral
from subband_nmf.defaults import EPSILON
from subband_nmf.framing import frame_count

from conftest import make_signal, make_tone, unit_gain_model


def test_spectrogram_validation():
    # irfft would silently crop or pad a wrong bin count
    spec = FrameSpec(16, 4)
    assert len(istft(np.zeros((9, 3), dtype=complex), spec, 24)) == 24
    with pytest.raises(ValueError, match="bins"):
        istft(np.zeros((8, 3), dtype=complex), spec, 24)
    with pytest.raises(ValueError, match="2-D"):
        istft(np.zeros(9, dtype=complex), spec, 24)
    with pytest.raises(ValueError, match="finite"):
        istft(np.full((9, 2), np.nan + 0j), spec, 20)


def test_istft_target_len_is_a_whole_number():
    spec = FrameSpec(16, 4)
    values = stft(make_signal(40, seed=2), spec)
    np.testing.assert_array_equal(istft(values, spec, 30.0), istft(values, spec, 30))
    assert len(istft(values, spec, 0)) == 0
    for target_len in (30.5, -1, "30"):
        with pytest.raises(ValueError, match="^target_len must be a nonnegative whole number"):
            istft(values, spec, target_len)


def test_stft_matches_direct_dft():
    # hand oracle: rfft of one windowed frame computed by direct summation
    x = make_signal(40, seed=6)
    spec = FrameSpec(16, 8)
    s = stft(x, spec)
    assert s.shape == (9, frame_count(40, spec)) and s.dtype == np.complex128
    w = np.hamming(16)
    frame0 = x.samples[:16] * w
    k = np.arange(9)[:, None]
    n = np.arange(16)[None, :]
    direct = np.sum(frame0[None, :] * np.exp(-2j * np.pi * k * n / 16), axis=1)
    np.testing.assert_allclose(s[:, 0], direct, atol=1e-12)


def test_stft_zero_signal():
    s = stft(Signal(np.zeros(100), 8000), FrameSpec(32, 8))
    np.testing.assert_array_equal(s, 0.0)


def test_bin_centered_tone_concentrates():
    # 500 Hz at 8 kHz with 256-point frames sits exactly on bin 16
    x = make_tone(500.0, 0.5)
    s = stft(x, FrameSpec(256, 80))
    mag = np.abs(s)
    for j in range(mag.shape[1]):
        col = mag[:, j].copy()
        peak = col[16]
        col[15:18] = 0.0
        assert peak >= 100.0 * col.max()


def test_istft_identity_interior():
    x = make_signal(2000, seed=4)
    y = istft(stft(x, FrameSpec(256, 80)), FrameSpec(256, 80), 2000)
    interior = slice(256, 2000 - 256)
    assert np.max(np.abs(y[interior] - x.samples[interior])) < 1e-8


def test_istft_zero_spectrogram():
    s = np.zeros((9, 5), dtype=complex)
    np.testing.assert_array_equal(istft(s, FrameSpec(16, 4), 40), np.zeros(40))


def test_istft_pads_past_coverage():
    spec = FrameSpec(32, 16)
    y = istft(stft(make_signal(64), spec), spec, 100)
    assert len(y) == 100
    np.testing.assert_array_equal(y[64:], 0.0)


ISTFT_CASES = [(16, 4, 5, 32), (15, 7, 4, 40), (8, 8, 3, 20), (32, 1, 6, 30),
               (256, 80, 9, 896), (256, 80, 14, 1400), (7, 3, 6, 30)]


@pytest.mark.parametrize(
    "size, shift, n_frames, target_len", ISTFT_CASES,
    ids=["-".join(map(str, case)) + "-hamming" for case in ISTFT_CASES],
)
def test_istft_brute_force_weighted_sum(size, shift, n_frames, target_len):
    # Hamming-weighted frames over the summed squared window, each sample
    # accumulated in column order, so the result is bit-identical
    r = np.random.default_rng(11)
    bins = size // 2 + 1
    values = r.normal(size=(bins, n_frames)) + 1j * r.normal(size=(bins, n_frames))
    frames = np.fft.irfft(values, n=size, axis=0)
    w = np.hamming(size)
    n = max((n_frames - 1) * shift + size, target_len)
    num = np.zeros(n)
    den = np.zeros(n)
    for k in range(n_frames):
        for i in range(size):
            num[k * shift + i] += w[i] * frames[i, k]
            den[k * shift + i] += w[i] * w[i]
    expected = (num / np.maximum(den, 1e-8))[:target_len]
    np.testing.assert_array_equal(istft(values, FrameSpec(size, shift), target_len), expected)


@settings(deadline=None, max_examples=40)
@given(
    size_exp=st.integers(3, 8),
    shift_frac=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**31),
)
def test_istft_round_trip_property(size_exp, shift_frac, seed):
    # reconstruction is exact wherever the accumulated squared window is
    # meaningfully above the synthesis floor
    size = 2**size_exp
    shift = max(1, int(size * shift_frac))
    n = 4 * size
    x = make_signal(n, seed=seed)
    spec = FrameSpec(size, shift)
    y = istft(stft(x, spec), spec, n)
    w2 = np.hamming(size) ** 2
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
    np.testing.assert_array_equal(istft(s * 1.0, spec, 1500), istft(s, spec, 1500))


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


def test_models_reject_a_dictionary_without_columns():
    # such a model enhanced to silence and was saved to a file load_model refused
    with pytest.raises(ValueError, match="^w_speech must have at least one column$"):
        StftBasisModel(np.ones((9, 0)), np.ones((9, 2)), FrameSpec(16, 4), 8000)
    with pytest.raises(ValueError, match="^band 1 w_noise must have at least one column$"):
        SubbandBasisModel(1, "db8", FrameSpec(16, 4), [
            BandModel(np.ones((16, 2)), np.ones((16, 2)), 1.0),
            BandModel(np.ones((16, 2)), np.ones((16, 0)), 1.0),
        ], 8000)


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


@pytest.mark.parametrize(
    "window_name, feature_kind, message",
    [("hann", "power", "unknown window 'hann'"),
     ("hamming", "magnitude", "unknown feature kind 'magnitude'")],
    ids=["hann", "magnitude"],
)
def test_train_rejects_other_analyses_before_any_work(window_name, feature_kind, message):
    # an empty clean class would fail the training-set check, so reaching
    # the analysis error shows that it comes first
    with pytest.raises(ValueError, match=message):
        train_stft_model([], [], FrameSpec(64, 16), window_name, feature_kind)


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
    v = np.abs(stft(x, FrameSpec(256, 80))) ** 2
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


def test_both_enhancers_encode_float32_features(monkeypatch):
    # the gain core hands `encode` float32 features and a float32 stacked
    # dictionary on both front ends, and gets float32 activations back;
    # a direct float64 call still encodes in float64
    seen, encode = [], spectral.encode

    def recording_encode(v, w_fixed, params):
        h = encode(v, w_fixed, params)
        seen.append((v.dtype, w_fixed.dtype, h.dtype))
        return h

    monkeypatch.setattr(spectral, "encode", recording_encode)
    noisy = make_signal(2000, seed=3)
    enhance_stft(noisy, _tiny_models(), NmfParams(rank=6, max_iters=5))
    enhance_dwpt(noisy, unit_gain_model(2, FrameSpec(32, 8)), "db8", NmfParams(12, 5))
    assert seen == [(np.float32,) * 3] * 5
    r = np.random.default_rng(0)
    v, w = r.uniform(0, 1, (9, 7)), r.uniform(0, 1, (9, 3))
    assert encode(v, w, NmfParams(rank=3, max_iters=5)).dtype == np.float64
    # a float64 dictionary is cast to a float32 v's dtype
    np.testing.assert_array_equal(
        encode(v.astype(np.float32), w, NmfParams(rank=3, max_iters=5)),
        encode(v.astype(np.float32), w.astype(np.float32), NmfParams(rank=3, max_iters=5)),
    )


def test_both_trainers_factorize_float32_features(monkeypatch):
    # both trainers hand `factorize` float32 features and get a float32
    # dictionary back, one call per class (per band on dwpt); the models
    # hold those very arrays, not a copy.  A model built from float64
    # arrays holds them rounded to float32, and a direct float64 call
    # still factorizes in float64.
    seen, returned, factorize = [], [], spectral.factorize

    def recording_factorize(v, params):
        res = factorize(v, params)
        seen.append((v.dtype, res.w.dtype))
        returned.append(res.w)
        return res

    monkeypatch.setattr(spectral, "factorize", recording_factorize)
    stft_model = _tiny_models()
    dwpt_model = train_dwpt_model(
        [make_tone(500.0, 0.5)], [synth_white_noise(0.5, 8000, 0, 0.5)], 2, "db4",
        FrameSpec(32, 8), speech_params=NmfParams(2, 2, 0), noise_params=NmfParams(2, 2, 0),
    )
    assert seen == [(np.float32, np.float32)] * (2 + 2 * 2**2)
    held = [w for m in (stft_model, *dwpt_model.per_band) for w in (m.w_speech, m.w_noise)]
    assert len(held) == len(returned)
    # bands train side by side, so their calls may come in any order
    assert {id(w) for w in held} == {id(w) for w in returned}
    w64 = np.arange(1.0, 65.0).reshape(32, 2) / 7.0
    for model, rows in (
        (BandModel(w64, w64, 1.0), 32),
        (StftBasisModel(w64[:17], w64[:17], FrameSpec(32, 8), 8000), 17),
    ):
        assert model.w_speech.dtype == model.w_noise.dtype == np.float32
        np.testing.assert_array_equal(model.w_speech, w64[:rows].astype(np.float32))
    v = np.random.default_rng(0).uniform(0, 1, (9, 7))
    res = factorize(v, NmfParams(rank=3, max_iters=5))
    assert res.w.dtype == res.h.dtype == np.float64


def test_both_enhancers_form_their_gain_in_wiener_gain(monkeypatch):
    # one gain core: `enhance_stft` reaches `wiener_gain` once, and
    # `enhance_dwpt` once per band, each time with float32 class parts
    calls, wiener_gain = [], spectral.wiener_gain

    def counting_wiener_gain(speech_part, noise_part):
        calls.append((speech_part.dtype, noise_part.dtype))
        return wiener_gain(speech_part, noise_part)

    monkeypatch.setattr(spectral, "wiener_gain", counting_wiener_gain)
    noisy = make_signal(2000, seed=3)
    enhance_stft(noisy, _tiny_models(), NmfParams(rank=6, max_iters=5))
    assert len(calls) == 1
    enhance_dwpt(noisy, unit_gain_model(2, FrameSpec(32, 8)), "db8", NmfParams(12, 5))
    assert calls == [(np.float32, np.float32)] * (1 + 2**2)


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
    v = stft(noisy, model.frame_spec)
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
    v = np.abs(stft(x, spec)) ** 2
    from subband_nmf import factorize

    w_s = factorize(v, NmfParams(rank=8, max_iters=300, seed=0)).w
    model = StftBasisModel(w_s, np.full((129, 2), 1e-12), spec, sample_rate=8000)
    out = enhance_stft(x, model, NmfParams(rank=10, max_iters=100, seed=0))
    ident = istft(stft(x, spec), spec, len(x.samples))
    interior = slice(256, len(x.samples) - 256)
    err = np.max(np.abs(out.samples[interior] - ident[interior]))
    assert err < 5e-3


def test_enhance_rate_mismatch_rejected():
    model = _tiny_models()
    with pytest.raises(ValueError, match="sample rate"):
        enhance_stft(make_tone(440.0, 0.3, rate=16000), model)


def test_enhance_rejects_input_shorter_than_one_frame_before_stft(monkeypatch):
    model = _tiny_models()
    stft_calls = []

    def counting_stft(x, spec):
        stft_calls.append(len(x))
        return stft(x, spec)

    monkeypatch.setattr(spectral, "stft", counting_stft)
    with pytest.raises(ValueError, match="input too short: 255 samples, frame size is 256"):
        enhance_stft(make_signal(255), model)
    assert stft_calls == []
    assert len(enhance_stft(make_signal(256), model)) == 256
    assert stft_calls == [256]


def test_enhance_stft_rejects_overflow_inside_encode():
    # the float32 power spectrum is finite but W^T V overflows; the overflow
    # raises at once, whatever the caller's error state, as one ValueError
    # about the input level and no warning.  The dictionary is inside
    # float32's range, which a model's dictionaries must be.
    spec = FrameSpec(16, 4)
    w = np.full((9, 2), 1e30)
    model = StftBasisModel(w, w, spec, sample_rate=8000)
    noisy = Signal(1e12 * make_signal(64).samples, 8000)
    with np.errstate(over="raise"):
        assert np.all(np.isfinite((np.abs(stft(noisy, spec)) ** 2).astype(np.float32)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="^input level too high"
        ):
            enhance_stft(noisy, model, NmfParams(rank=4, max_iters=1))
