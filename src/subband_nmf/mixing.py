"""SNR-controlled mixing and synthetic test-signal generators.

The generators stand in for recorded speech and noise corpora in
desk-scale experiments; mix_at_snr rescales whatever it is given, so
generator amplitudes only set relative headroom.
"""

from dataclasses import dataclass

import numpy as np

from .framing import Signal, _whole

__all__ = [
    "MixSpec",
    "mix_at_snr",
    "synth_pink_noise",
    "synth_sweep",
    "synth_tone",
    "synth_white_noise",
]


@dataclass(frozen=True)
class MixSpec:
    """Target SNR in dB plus the seed choosing the noise offset."""

    snr_db: float
    seed: int = 0

    def __post_init__(self):
        if not _is_finite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db!r}")
        object.__setattr__(self, "seed", _whole(self.seed, "seed", 0))


def mix_at_snr(clean: Signal, noise: Signal, spec: MixSpec) -> Signal:
    """Add a scaled noise segment so the mixture hits the requested SNR.

    The noise is read cyclically starting at a seed-chosen offset (and
    tiled if shorter than the clean signal).  The scale factor solves
    10*log10(P_clean / P_noise_scaled) = snr_db with powers averaged
    over the clean utterance's full extent, so the requested SNR holds
    by construction.
    """
    if clean.sample_rate != noise.sample_rate:
        raise ValueError("sample rates differ")
    for name, signal in (("clean", clean), ("noise", noise)):
        if len(signal) == 0:
            raise ValueError(f"cannot mix an empty {name} signal")
    n = len(clean.samples)
    rng = np.random.default_rng(spec.seed)
    offset = int(rng.integers(0, len(noise.samples)))
    idx = (offset + np.arange(n)) % len(noise.samples)
    segment = noise.samples[idx]

    p_clean = float(np.mean(clean.samples**2))
    p_noise = float(np.mean(segment**2))
    if p_clean <= 0.0 or p_noise <= 0.0:
        raise ValueError("cannot set SNR with silent input")
    alpha = np.sqrt(p_clean / (p_noise * 10.0 ** (spec.snr_db / 10.0)))
    return Signal(clean.samples + alpha * segment, clean.sample_rate)


def _is_finite(value) -> bool:
    """Whether value is one finite number; False for "1", None or a list."""
    try:
        return np.ndim(value) == 0 and bool(np.isfinite(value))
    except TypeError:
        return False


def _sample_count(duration_s: float, sample_rate: int, amplitude: float) -> int:
    """duration_s * sample_rate rounded to a whole sample count.

    Every generator starts here, so the arguments they share are checked
    once: ValueError unless the rate is a positive whole number, the
    duration a finite number >= 0, and the amplitude a finite number.
    """
    sample_rate = _whole(sample_rate, "sample_rate")
    if not (_is_finite(duration_s) and duration_s >= 0):
        raise ValueError(f"duration_s must be finite and nonnegative, got {duration_s!r}")
    if not _is_finite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")
    return int(round(duration_s * sample_rate))


def synth_tone(
    freq_hz: float, duration_s: float, sample_rate: int, amplitude: float = 0.5
) -> Signal:
    """Pure sinusoid; freq must sit below the Nyquist rate."""
    n = _sample_count(duration_s, sample_rate, amplitude)
    if not (_is_finite(freq_hz) and 0.0 < freq_hz < sample_rate / 2.0):
        raise ValueError(
            f"tone frequency {freq_hz!r} Hz outside (0, {sample_rate / 2.0}) Hz"
        )
    t = np.arange(n) / sample_rate
    return Signal(amplitude * np.sin(2.0 * np.pi * freq_hz * t), sample_rate)


def synth_sweep(
    duration_s: float, sample_rate: int, seed: int = 0, amplitude: float = 0.5
) -> Signal:
    """Triangle FM sweep over 150-3850 Hz, the desk experiments' speech class.

    The seed jitters the 1.6 s sweep period by up to 10% and the start phase.
    """
    n = _sample_count(duration_s, sample_rate, amplitude)
    rng = np.random.default_rng(_whole(seed, "seed", 0))
    period = 1.6 * rng.uniform(0.9, 1.1)
    t = np.arange(n) / sample_rate + rng.uniform(0, period)
    tri = 2.0 * np.abs(t / period - np.floor(t / period + 0.5))
    freq = 150.0 + (3850.0 - 150.0) * tri
    phase = 2.0 * np.pi * np.cumsum(freq) / sample_rate
    return Signal(amplitude * np.sin(phase), sample_rate)


def synth_white_noise(
    duration_s: float, sample_rate: int, seed: int = 0, amplitude: float = 0.5
) -> Signal:
    """Uniform white noise in [-amplitude, amplitude], reproducible by seed."""
    n = _sample_count(duration_s, sample_rate, amplitude)
    rng = np.random.default_rng(_whole(seed, "seed", 0))
    return Signal(rng.uniform(-amplitude, amplitude, n), sample_rate)


def synth_pink_noise(
    duration_s: float, sample_rate: int, seed: int = 0, amplitude: float = 0.5
) -> Signal:
    """1/f-power noise, rms-matched to white noise of the same amplitude.

    White Gaussian noise is shaped in the frequency domain by 1/sqrt(f)
    (DC zeroed), then rescaled to the rms of uniform white noise at the
    given amplitude so the two generators are interchangeable as noise
    classes.
    """
    n = _sample_count(duration_s, sample_rate, amplitude)
    if n < 2:  # the 1/f shaping needs a DC bin and one more
        raise ValueError(
            f"pink noise needs at least 2 samples; {duration_s} s at {sample_rate} Hz "
            f"gives {n}"
        )
    rng = np.random.default_rng(_whole(seed, "seed", 0))
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    k = np.arange(len(spectrum), dtype=np.float64)
    k[0] = 1.0
    spectrum = spectrum / np.sqrt(k)
    spectrum[0] = 0.0
    x = np.fft.irfft(spectrum, n=n)
    target_rms = amplitude / np.sqrt(3.0)
    x = x * (target_rms / np.sqrt(np.mean(x * x)))
    return Signal(x, sample_rate)
