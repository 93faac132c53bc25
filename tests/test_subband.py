"""Per-band gain, normalization, and the subband enhancement pipeline."""

import warnings

import numpy as np
import pytest

from subband_nmf import (
    BandModel,
    FrameSpec,
    MixSpec,
    NmfParams,
    Signal,
    SubbandBasisModel,
    dwpt,
    enhance_dwpt,
    enhance_stft,
    enhance_subbands,
    get_filters,
    mix_at_snr,
    separation_gain,
    ssnr,
    subband_gain,
    synth_white_noise,
    train_dwpt_model,
    train_stft_model,
)
from subband_nmf import spectral, subband
from subband_nmf.framing import frame_count, frame_signal, overlap_add, rms, square_elementwise
from subband_nmf.nmf import encode, factorize, split_reconstruction
from subband_nmf.spectral import wiener_gain

from conftest import make_signal, make_tone, unit_gain_model

FILT = get_filters("db8")


def small_params(rank, iters=80, seed=0):
    return NmfParams(rank=rank, max_iters=iters, seed=seed)


def tiny_model(level=2, frame=FrameSpec(32, 8), seed=0):
    clean = [make_tone(500.0, 1.5)]
    noise = [synth_white_noise(1.5, 8000, seed, 0.5)]
    return train_dwpt_model(
        clean, noise, level, FILT, frame,
        speech_params=small_params(2), noise_params=small_params(3),
    )


def test_band_model_validation():
    with pytest.raises(ValueError):
        BandModel(np.ones((4, 1)), np.ones((4, 1)), sigma_clean=-1.0)


@pytest.mark.parametrize("sigma", [np.inf, np.nan])
def test_band_model_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma_clean must be finite and nonnegative"):
        BandModel(np.ones((4, 1)), np.ones((4, 1)), sigma_clean=sigma)


def test_subband_model_validation():
    bm = BandModel(np.ones((32, 1)), np.ones((32, 1)), 1.0)
    with pytest.raises(ValueError, match="band models"):
        SubbandBasisModel(2, "db8", FrameSpec(32, 8), [bm, bm], 8000)
    with pytest.raises(ValueError, match="rows"):
        SubbandBasisModel(1, "db8", FrameSpec(16, 4), [bm, bm], 8000)


def test_subband_model_huge_level_rejected_at_once():
    # compared with the band count's bit length before 2**level is formed
    bm = BandModel(np.ones((32, 1)), np.ones((32, 1)), 1.0)
    with pytest.raises(ValueError, match="level 1000000000000000000 needs .* band models, got 2"):
        SubbandBasisModel(10**18, "db8", FrameSpec(32, 8), [bm, bm], 8000)


def test_train_shapes_and_sigma():
    model = tiny_model()
    assert model.n_bands == 4
    assert len(model.per_band) == 4
    # sigma oracle: rms of each decomposed training band
    bands = dwpt(make_tone(500.0, 1.5), 2, FILT)
    for b in range(4):
        assert model.per_band[b].sigma_clean == pytest.approx(
            rms(bands[b]), rel=1e-12
        )
    assert model.sample_rate == 8000


def test_train_constant_band_sigma():
    # constant-amplitude band: rms equals the absolute value
    assert rms(np.full(100, -0.3)) == pytest.approx(0.3)


def test_train_rejects_empty_sets():
    with pytest.raises(ValueError, match="empty clean"):
        train_dwpt_model([], [make_tone(300, 1.0)], 2, FILT, FrameSpec(32, 8))
    with pytest.raises(ValueError, match="empty noise"):
        train_dwpt_model([make_tone(300, 1.0)], [], 2, FILT, FrameSpec(32, 8))


def test_train_rejects_short_utterance():
    with pytest.raises(ValueError, match="too short"):
        train_dwpt_model(
            [make_tone(300.0, 0.01)], [make_tone(200.0, 1.0)], 2, FILT, FrameSpec(64, 16),
            speech_params=small_params(1, 2), noise_params=small_params(1, 2),
        )


def test_train_rejects_all_zero_clean():
    # subnormal samples square to zero, so they would train what silence does
    for value in (0.0, 5e-324, 1e-320):
        silent = Signal(np.full(4000, value), 8000)
        with pytest.raises(ValueError, match="degenerate clean set"):
            train_dwpt_model(
                [silent], [synth_white_noise(0.5, 8000, 0, 0.5)], 2, FILT, FrameSpec(32, 8),
                speech_params=small_params(1, 2), noise_params=small_params(1, 2),
            )


@pytest.mark.parametrize("front_end", ["dwpt", "stft"])
def test_mixed_rates_rejected_before_any_factorization(monkeypatch, front_end):
    # the training set is checked at entry, not after the dictionaries are learned
    calls = []

    def counting_factorize(v, params):
        calls.append(v.shape)
        return factorize(v, params)

    for module in (spectral, subband):
        monkeypatch.setattr(module, "factorize", counting_factorize, raising=False)
    clean, noise = [make_tone(300, 0.5, rate=8000)], [make_tone(300, 0.5, rate=16000)]
    kw = dict(speech_params=small_params(1, 2), noise_params=small_params(1, 2))
    with pytest.raises(ValueError, match="mixed sample rates"):
        if front_end == "dwpt":
            train_dwpt_model(clean, noise, 2, FILT, FrameSpec(32, 8), **kw)
        else:
            train_stft_model(clean, noise, FrameSpec(32, 8), **kw)
    assert calls == []


def test_subband_gain_hand_case():
    # speech part 1, noise part 3 per entry: sqrt(1/4) = 0.5
    g = np.sqrt(wiener_gain(np.ones((3, 2)), 3 * np.ones((3, 2))))
    np.testing.assert_array_equal(g, np.full((3, 2), 0.5))
    # noiseless limit
    g = np.sqrt(wiener_gain(np.ones((3, 2)), np.zeros((3, 2))))
    np.testing.assert_array_equal(g, np.ones((3, 2)))


def test_subband_gain_bounds_and_length():
    band = make_signal(300, seed=3).samples
    r = np.random.default_rng(0)
    g = subband_gain(
        band, r.uniform(0, 1, (32, 2)), r.uniform(0, 1, (32, 3)),
        FrameSpec(32, 8), small_params(5, 30),
    )
    assert len(g) == 300
    assert np.all(g >= 0.0) and np.all(g <= 1.0)


def test_subband_gain_matches_brute_force_ola():
    # independent oracle: rebuild the gain matrix with the same public ops,
    # then de-frame it by direct enumeration of frame-to-sample hits
    band = make_signal(142, seed=8).samples
    spec = FrameSpec(16, 4)
    r = np.random.default_rng(5)
    w_s = r.uniform(0, 1, (16, 2))
    w_n = r.uniform(0, 1, (16, 2))
    params = small_params(4, 40, seed=9)
    g = subband_gain(band, w_s, w_n, spec, params)

    v = square_elementwise(frame_signal(band, spec))
    h = encode(v, np.hstack([w_s, w_n]), params)
    sp, npart = split_reconstruction(w_s, w_n, h)
    mat = np.sqrt(wiener_gain(sp, npart))
    nf = mat.shape[1]
    covered = (nf - 1) * 4 + 16
    acc = np.zeros(covered)
    cnt = np.zeros(covered)
    for j in range(nf):
        for i in range(16):
            acc[j * 4 + i] += mat[i, j]
            cnt[j * 4 + i] += 1
    expected = acc / cnt
    np.testing.assert_allclose(g[:covered], np.clip(expected, 0, 1), atol=1e-12)
    # past the last covered sample the gain holds its final value
    assert covered < 142
    np.testing.assert_array_equal(g[covered:], g[covered - 1])


def test_enhance_identity_path():
    # unit gains, normalization off: pure decomposition round trip
    model = unit_gain_model(2, FrameSpec(32, 8))
    x = make_signal(3000, seed=4)
    out = enhance_dwpt(x, model, FILT, normalize=False)
    assert np.max(np.abs(out.samples - x.samples)) < 1e-10


def test_enhance_normalization_sets_band_rms():
    model = tiny_model()
    x = mix_at_snr(
        make_tone(500.0, 1.0), synth_white_noise(1.0, 8000, 17, 0.5), MixSpec(0.0, 2)
    )
    s = dwpt(x, model.level, FILT)
    out = enhance_subbands(s, model, small_params(5, 30))
    for b, bm in enumerate(model.per_band):
        got = rms(out[b])
        if got > 1e-12:
            assert got == pytest.approx(bm.sigma_clean, rel=1e-9)


def test_normalization_scale_arithmetic():
    # band with rms 4 and target 2 is scaled by exactly 0.5
    model = unit_gain_model(2, FrameSpec(32, 8), sigma_clean=2.0)
    band = np.full(64, 4.0)
    s_in = dwpt(make_signal(256), 2, FILT)
    s_in[0] = band
    out = enhance_subbands(s_in, model, normalize=True)
    assert rms(out[0]) == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(out[0], 2.0, atol=1e-9)


def test_zero_sigma_band_is_silenced():
    model = unit_gain_model(2, FrameSpec(32, 8), sigma_clean=0.0)
    x = make_signal(2000, seed=5)
    out = enhance_dwpt(x, model, FILT, normalize=True)
    np.testing.assert_allclose(out.samples, 0.0, atol=1e-12)


def test_enhance_improves_tone_in_noise():
    model = tiny_model()
    clean = make_tone(500.0, 1.0)
    noisy = mix_at_snr(clean, synth_white_noise(1.0, 8000, 23, 0.5), MixSpec(0.0, 4))
    out = enhance_dwpt(noisy, model, FILT, small_params(5, 50))
    assert len(out.samples) == len(noisy.samples)
    assert ssnr(clean, out) > ssnr(clean, noisy)


def test_enhance_filter_mismatch():
    model = tiny_model()
    with pytest.raises(ValueError, match="filter"):
        enhance_dwpt(make_tone(300, 0.5), model, get_filters("db4"))


def test_enhance_rate_mismatch():
    model = tiny_model()
    with pytest.raises(ValueError, match="sample rate"):
        enhance_dwpt(make_tone(300, 0.5, rate=16000), model, FILT)


def test_enhance_band_count_mismatch():
    model = tiny_model(level=2)
    s = dwpt(make_signal(2048), 3, FILT)
    with pytest.raises(ValueError, match="bands"):
        enhance_subbands(s, model)


def test_enhance_rejects_input_shorter_than_one_frame_per_band():
    # level 2, frame 64: each band holds one frame from 63 * 4 + 1 samples on
    model = tiny_model(frame=FrameSpec(64, 16))
    with pytest.raises(ValueError, match="input too short: 160 samples, .* at least 253"):
        enhance_dwpt(make_tone(300.0, 160 / 8000), model, FILT)
    with pytest.raises(ValueError, match="input too short: 252 samples"):
        enhance_dwpt(make_signal(252), model, FILT)
    assert len(enhance_dwpt(make_signal(253), model, FILT)) == 253


def test_enhance_subbands_rejects_bands_shorter_than_one_frame():
    model = tiny_model(frame=FrameSpec(64, 16))
    short = dwpt(make_tone(300.0, 160 / 8000), 2, FILT)
    with pytest.raises(ValueError, match="40 samples each, .* frame size is 64"):
        enhance_subbands(short, model)
    s = dwpt(make_signal(256), 2, FILT)
    assert s.shape == (4, 64)
    assert enhance_subbands(s, model).shape == (4, 64)


def test_extreme_amplitudes_enhance_or_raise_value_error():
    # every finite input is either enhanced to a finite signal of its own
    # length or rejected with ValueError, never another exception; near
    # 1e153 the squared features overflow inside the encoding
    dwpt_model = tiny_model()
    stft_model = train_stft_model(
        [make_tone(500.0, 1.5)], [synth_white_noise(1.5, 8000, 0, 0.5)], FrameSpec(32, 8),
        speech_params=small_params(2), noise_params=small_params(3),
    )
    x = make_signal(1000).samples
    x = x / np.max(np.abs(x))
    for exponent in [*range(-300, 301, 10), 153, 153.5, 154, 155]:
        noisy = Signal(x * 10.0**exponent, 8000)
        for enhance in (
            lambda: enhance_dwpt(noisy, dwpt_model, FILT, small_params(1, 10)),
            lambda: enhance_stft(noisy, stft_model, small_params(1, 10)),
        ):
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    out = enhance()
                except ValueError:
                    continue
            assert len(out) == len(noisy)
            assert np.all(np.isfinite(out.samples))


def test_overflowing_input_raises_one_value_error():
    # squaring the features (or the NMF products formed from them)
    # overflows float64: one ValueError about the input level, no warning
    x = make_signal(1000).samples
    x = x / np.max(np.abs(x))
    tone = make_tone(500.0, 1.5).samples / 0.5
    train_kw = dict(speech_params=small_params(2, 10), noise_params=small_params(3, 10))
    dwpt_model, frame = tiny_model(), FrameSpec(32, 8)
    stft_model = train_stft_model(
        [make_tone(500.0, 1.5)], [synth_white_noise(1.5, 8000, 0, 0.5)], frame, **train_kw
    )
    band = dwpt_model.per_band[0]
    for exponent in (153, 154, 300):
        noisy = Signal(x * 10.0**exponent, 8000)
        clean = Signal(tone * 10.0**exponent, 8000)
        bands = dwpt(noisy, 2, FILT)
        # band 0's squared frames, saturated at the largest float64 where
        # squaring overflows, so that separation_gain gets finite features
        with np.errstate(over="ignore"):
            features = np.minimum(frame_signal(np.square(bands[0]), frame),
                                  np.finfo(np.float64).max)
        calls = {
            "enhance_dwpt": lambda: enhance_dwpt(
                noisy, dwpt_model, FILT, small_params(1, 10)).samples,
            "enhance_stft": lambda: enhance_stft(noisy, stft_model, small_params(1, 10)).samples,
            "enhance_subbands": lambda: enhance_subbands(bands, dwpt_model, small_params(1, 10)),
            "subband_gain": lambda: subband_gain(
                bands[0], band.w_speech, band.w_noise, frame, small_params(1, 10)),
            "separation_gain": lambda: separation_gain(
                features, band.w_speech, band.w_noise, small_params(1, 10)),
            "train_dwpt": lambda: train_dwpt_model([clean], [noisy], 2, FILT, frame, **train_kw),
            "train_stft": lambda: train_stft_model([clean], [noisy], frame, **train_kw),
        }
        for name, call in calls.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    out = call()
                except ValueError as e:
                    assert str(e).startswith("input level too high"), (exponent, name)
                    continue
            # enhancing at 1e153 overflows nothing on this input
            assert exponent == 153 and not name.startswith("train"), (exponent, name)
            assert np.all(np.isfinite(out))
