import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subband_nmf import (
    MixSpec,
    Signal,
    mix_at_snr,
    synth_pink_noise,
    synth_tone,
    synth_white_noise,
)

from conftest import make_signal


def measured_snr_db(clean, mixed):
    residual = mixed.samples - clean.samples
    return 10.0 * np.log10(np.mean(clean.samples**2) / np.mean(residual**2))


def test_mix_spec_validation():
    MixSpec(0.0)
    with pytest.raises(ValueError):
        MixSpec(np.nan)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        MixSpec(0.0, seed=-1)


def test_equal_power_zero_db_alpha_one():
    clean = Signal(np.array([1.0, -1.0, 1.0, -1.0]), 8000)
    noise = Signal(np.array([1.0, 1.0, 1.0, 1.0]), 8000)
    mixed = mix_at_snr(clean, noise, MixSpec(0.0, seed=0))
    # constant noise: any offset yields the same segment, alpha = 1
    np.testing.assert_allclose(mixed.samples, clean.samples + 1.0, atol=1e-12)


def test_twenty_db_alpha_tenth():
    clean = Signal(np.ones(8), 8000)
    noise = Signal(np.ones(8), 8000)
    mixed = mix_at_snr(clean, noise, MixSpec(20.0))
    np.testing.assert_allclose(mixed.samples - clean.samples, 0.1, atol=1e-12)


def test_requested_snr_is_exact():
    clean = make_signal(4000, seed=1)
    noise = synth_white_noise(0.3, 8000, 2, 0.5)
    for snr in range(-5, 21):
        mixed = mix_at_snr(clean, noise, MixSpec(float(snr), seed=snr + 10))
        assert abs(measured_snr_db(clean, mixed) - snr) < 1e-9


@settings(deadline=None, max_examples=50)
@given(
    snr=st.floats(-30.0, 40.0),
    seed=st.integers(0, 2**31),
    n=st.integers(64, 5000),
)
def test_snr_property(snr, seed, n):
    clean = make_signal(n, seed=seed)
    noise = make_signal(max(n // 3, 8), seed=seed + 1)
    mixed = mix_at_snr(clean, noise, MixSpec(snr, seed=seed))
    assert abs(measured_snr_db(clean, mixed) - snr) < 1e-9


def test_noise_read_cyclically():
    # noise shorter than the clean signal: the added segment must be a
    # rotation of the tiled base noise, matching the seeded offset
    clean = Signal(np.zeros(10) + 1.0, 8000)
    noise = Signal(np.array([1.0, 2.0, 3.0]), 8000)
    spec = MixSpec(0.0, seed=5)
    mixed = mix_at_snr(clean, noise, spec)
    segment = mixed.samples - clean.samples
    offset = int(np.random.default_rng(5).integers(0, 3))
    expected = noise.samples[(offset + np.arange(10)) % 3]
    alpha = segment[0] / expected[0]
    np.testing.assert_allclose(segment, alpha * expected, atol=1e-12)


def test_mix_rejects_silence_and_rate_mismatch():
    loud = make_signal(100, seed=0)
    silent = Signal(np.zeros(100), 8000)
    with pytest.raises(ValueError, match="silent"):
        mix_at_snr(silent, loud, MixSpec(0.0))
    with pytest.raises(ValueError, match="silent"):
        mix_at_snr(loud, silent, MixSpec(0.0))
    with pytest.raises(ValueError, match="rates"):
        mix_at_snr(loud, make_signal(100, rate=16000), MixSpec(0.0))


@pytest.mark.filterwarnings("error")
def test_mix_rejects_empty_input():
    empty, loud = Signal(np.zeros(0), 8000), make_signal(100)
    with pytest.raises(ValueError, match="cannot mix an empty clean signal"):
        mix_at_snr(empty, loud, MixSpec(0.0))
    with pytest.raises(ValueError, match="cannot mix an empty noise signal"):
        mix_at_snr(loud, empty, MixSpec(0.0))


def test_tone_amplitude_and_rms():
    tone = synth_tone(440.0, 1.0, 8000, amplitude=0.5)
    assert np.max(np.abs(tone.samples)) <= 0.5 + 1e-12
    assert np.max(np.abs(tone.samples)) > 0.49
    assert abs(np.sqrt(np.mean(tone.samples**2)) - 0.5 / np.sqrt(2)) < 1e-3


def test_tone_frequency_by_spectrum():
    tone = synth_tone(1000.0, 1.0, 8000)
    spectrum = np.abs(np.fft.rfft(tone.samples))
    peak_hz = np.argmax(spectrum) * 8000 / len(tone.samples)
    assert abs(peak_hz - 1000.0) < 2.0


def test_tone_rejects_out_of_band():
    with pytest.raises(ValueError):
        synth_tone(4000.0, 0.1, 8000)
    with pytest.raises(ValueError):
        synth_tone(0.0, 0.1, 8000)


def test_generators_deterministic():
    a = synth_white_noise(0.25, 8000, 7)
    b = synth_white_noise(0.25, 8000, 7)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = synth_pink_noise(0.25, 8000, 7)
    d = synth_pink_noise(0.25, 8000, 7)
    np.testing.assert_array_equal(c.samples, d.samples)
    assert not np.array_equal(a.samples, synth_white_noise(0.25, 8000, 8).samples)


def test_white_noise_bounds_and_rms():
    w = synth_white_noise(2.0, 8000, 3, amplitude=0.5)
    assert np.all(np.abs(w.samples) <= 0.5)
    # uniform on [-a, a] has rms a/sqrt(3)
    assert abs(np.sqrt(np.mean(w.samples**2)) - 0.5 / np.sqrt(3)) < 5e-3


def test_pink_noise_rms_matches_white():
    p = synth_pink_noise(2.0, 8000, 3, amplitude=0.5)
    assert np.sqrt(np.mean(p.samples**2)) == pytest.approx(0.5 / np.sqrt(3), rel=1e-12)


def test_pink_noise_spectral_tilt():
    # over octave bands the per-band power of 1/f noise stays roughly flat,
    # so the low octave must carry far more power per Hz than the top one
    p = synth_pink_noise(8.0, 8000, 11)
    spectrum = np.abs(np.fft.rfft(p.samples)) ** 2
    freqs = np.fft.rfftfreq(len(p.samples), 1 / 8000)
    low = spectrum[(freqs >= 20) & (freqs < 40)].mean()
    high = spectrum[(freqs >= 2000) & (freqs < 4000)].mean()
    assert low > 10 * high
