"""STFT-domain supervised enhancement baseline, and the shared gain core.

Pipeline: windowed STFT, per-class dictionary training on power (or
magnitude) spectra, fixed-dictionary encoding of the noisy spectrogram,
ratio gain on the magnitudes with the phase carried through untouched,
weighted overlap-add resynthesis.

`separation_gain` is the back end both front ends share: encode a
feature matrix against the stacked [W_S W_N], split the reconstruction
by class and form the ratio gain.  The subband front end calls it once
per band on squared frame matrices.  `_train_pair` is the training half
they share, run after `_check_training_set` has checked the training set.
"""

from dataclasses import dataclass, field

import numpy as np

from .defaults import (
    DEFAULT_FEATURE_KIND,
    DEFAULT_WINDOW,
    ENCODE_ITERS,
    EPSILON,
    NOISE_RANK,
    SPEECH_RANK,
)
from .framing import FrameSpec, Signal, _overlap_sum, check_nonneg_matrix, frame_signal
from .nmf import NmfParams, _reject_overflow, encode, factorize, split_reconstruction

__all__ = [
    "ComplexSpectrogram",
    "StftBasisModel",
    "enhance_stft",
    "istft",
    "separation_gain",
    "stft",
    "train_stft_model",
    "wiener_gain",
]

FEATURE_KINDS = ("power", "magnitude")

# Synthesis denominator floor: keeps fully-uncovered samples at zero
# instead of dividing 0/0.
_OLA_FLOOR = 1e-8

_WINDOWS = {
    "hamming": np.hamming,
    "hann": np.hanning,
    "rectangular": np.ones,
}


def _check_window(name: str) -> None:
    if name not in _WINDOWS:
        raise ValueError(f"unknown window '{name}' (choose from {tuple(_WINDOWS)})")


def get_window(name: str, size: int) -> np.ndarray:
    _check_window(name)
    return _WINDOWS[name](size).astype(np.float64)


@dataclass
class ComplexSpectrogram:
    """Complex STFT values (bins x frames) plus the analysis geometry."""

    values: np.ndarray
    frame_spec: FrameSpec
    window_name: str = DEFAULT_WINDOW

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 2:
            raise ValueError("spectrogram values must be 2-D")
        expected = self.frame_spec.frame_size // 2 + 1
        if self.values.shape[0] != expected:
            raise ValueError(
                f"expected {expected} bins for frame size "
                f"{self.frame_spec.frame_size}, got {self.values.shape[0]}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrogram values must be finite")


def stft(x: Signal, spec: FrameSpec, window_name: str = DEFAULT_WINDOW) -> ComplexSpectrogram:
    """Windowed short-time transform of a real signal.

    Frames the signal, applies the named analysis window, and takes the
    real-input DFT of each column; bins = frame_size/2 + 1.
    """
    window = get_window(window_name, spec.frame_size)
    frames = frame_signal(x.samples, spec)
    frames *= window[:, None]
    return ComplexSpectrogram(
        values=np.fft.rfft(frames, axis=0), frame_spec=spec, window_name=window_name
    )


def istft(f: ComplexSpectrogram, target_len: int) -> np.ndarray:
    """Weighted overlap-add inverse of `stft`.

    Each inverse-transformed frame is weighted by the synthesis window
    (same as analysis) and accumulated; the sum is divided by the
    accumulated squared window, floored at 1e-8.  Covered samples come
    back exactly; samples past the coverage are zero.
    """
    if target_len < 0:
        raise ValueError("target_len must be nonnegative")
    size, shift = f.frame_spec.frame_size, f.frame_spec.frame_shift
    window = get_window(f.window_name, size)
    frames = np.fft.irfft(f.values, n=size, axis=0)
    frames *= window[:, None]
    num = _overlap_sum(frames, shift, target_len)
    squared = np.broadcast_to((window * window)[:, None], frames.shape)
    return num / np.maximum(_overlap_sum(squared, shift, target_len), _OLA_FLOOR)


def _features(values: np.ndarray, kind: str) -> np.ndarray:
    if kind not in FEATURE_KINDS:
        raise ValueError(f"unknown feature kind '{kind}' (choose from {FEATURE_KINDS})")
    mag = np.abs(values)
    return np.multiply(mag, mag, out=mag) if kind == "power" else mag


def _check_dictionaries(w_speech, w_noise, rows: int, where: str = "") -> None:
    """Reject a dictionary pair that is not 2-D with `rows` rows, finite and nonnegative."""
    for name, w in (("w_speech", w_speech), ("w_noise", w_noise)):
        if w.ndim != 2 or w.shape[0] != rows:
            raise ValueError(f"{where}{name} must have {rows} rows")
        check_nonneg_matrix(w, f"{where}{name}")


def _check_rate(model, noisy: Signal) -> None:
    """Reject input whose sample rate differs from the model's."""
    if noisy.sample_rate != model.sample_rate:
        raise ValueError(
            f"model sample rate {model.sample_rate} != input rate {noisy.sample_rate}"
        )


@dataclass
class StftBasisModel:
    """Per-class spectral dictionaries plus the analysis settings."""

    w_speech: np.ndarray
    w_noise: np.ndarray
    frame_spec: FrameSpec
    window_name: str = DEFAULT_WINDOW
    feature_kind: str = DEFAULT_FEATURE_KIND
    sample_rate: int = field(kw_only=True)

    def __post_init__(self):
        self.w_speech = np.asarray(self.w_speech, dtype=np.float64)
        self.w_noise = np.asarray(self.w_noise, dtype=np.float64)
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        _check_dictionaries(self.w_speech, self.w_noise, self.frame_spec.frame_size // 2 + 1)
        _check_window(self.window_name)
        if self.feature_kind not in FEATURE_KINDS:
            raise ValueError(
                f"unknown feature kind '{self.feature_kind}' (choose from {FEATURE_KINDS})"
            )


def _check_training_set(clean, noise) -> int:
    """Reject an empty class, mixed rates or a clean class too small to square; return the rate.

    Both front ends train on squared samples, so a clean class of
    subnormal samples trains the same degenerate model as silence.
    """
    for label, signals in (("clean", clean), ("noise", noise)):
        if not signals:
            raise ValueError(f"empty {label} training set")
    rates = {s.sample_rate for s in [*clean, *noise]}
    if len(rates) > 1:
        raise ValueError(f"training signals have mixed sample rates: {sorted(rates)}")
    if not any(np.any(np.square(s.samples)) for s in clean):
        raise ValueError("degenerate clean set: every training sample squares to zero")
    return rates.pop()


def _train_pair(clean, noise, features, speech_params, noise_params):
    """The speech and noise dictionaries learned from one feature space.

    The `features(item)` matrices of each class are concatenated
    column-wise and factorized, clean first (by default at SPEECH_RANK and
    NOISE_RANK); only the dictionary factors are kept.  This is the
    training twin of `separation_gain`.
    """
    if speech_params is None:
        speech_params = NmfParams(rank=SPEECH_RANK)
    if noise_params is None:
        noise_params = NmfParams(rank=NOISE_RANK)
    v_clean = np.hstack([features(item) for item in clean])
    v_noise = np.hstack([features(item) for item in noise])
    return factorize(v_clean, speech_params).w, factorize(v_noise, noise_params).w


@_reject_overflow
def train_stft_model(
    clean,
    noise,
    spec: FrameSpec,
    window_name: str = DEFAULT_WINDOW,
    feature_kind: str = DEFAULT_FEATURE_KIND,
    speech_params: NmfParams | None = None,
    noise_params: NmfParams | None = None,
) -> StftBasisModel:
    """Learn one spectral dictionary per class from labeled signals.

    The training set is checked first (`_check_training_set`); then
    `_train_pair` factorizes each class's feature matrices.
    """
    rate = _check_training_set(clean, noise)
    w_speech, w_noise = _train_pair(
        clean, noise, lambda s: _features(stft(s, spec, window_name).values, feature_kind),
        speech_params, noise_params,
    )
    return StftBasisModel(w_speech, w_noise, spec, window_name, feature_kind, sample_rate=rate)


def wiener_gain(speech_part: np.ndarray, noise_part: np.ndarray) -> np.ndarray:
    """Ratio gain speech/(speech+noise), floored denominator, clipped to [0,1].

    Allocates one float64 output buffer and forms the sum, floor, quotient
    and clip in it; the inputs are only read.
    """
    gain = np.add(speech_part, noise_part, dtype=np.float64)
    np.maximum(gain, EPSILON, out=gain)
    np.divide(speech_part, gain, out=gain)
    return np.clip(gain, 0.0, 1.0, out=gain)


def separation_gain(
    v: np.ndarray, w_s: np.ndarray, w_n: np.ndarray, params: NmfParams | None = None
) -> np.ndarray:
    """Ratio gain of the speech class for every entry of a feature matrix.

    v is encoded against the stacked dictionary [w_s w_n] (by default
    with ENCODE_ITERS sweeps), the encoding is split into the two class
    reconstructions, and `wiener_gain` of those is returned.  A gain
    that is not finite (the encoding overflowed) is rejected.
    """
    w_stack = np.hstack([w_s, w_n])
    if params is None:
        params = NmfParams(rank=w_stack.shape[1], max_iters=ENCODE_ITERS)
    h = encode(v, w_stack, params)
    speech_part, noise_part = split_reconstruction(w_s, w_n, h)
    gain = wiener_gain(speech_part, noise_part)
    # clipped to [0, 1], so the sum is finite unless some entry is NaN
    if not np.isfinite(np.sum(gain)):
        raise ValueError(
            "gain values must be finite: encoding the feature matrix overflowed "
            "float64, so the input level is too high for this model"
        )
    return gain


@_reject_overflow
def enhance_stft(
    noisy: Signal, model: StftBasisModel, params: NmfParams | None = None
) -> Signal:
    """Suppress noise in a signal using a trained spectral model.

    The `separation_gain` of the noisy feature matrix multiplies the
    magnitudes directly while the phase rides along unchanged.
    """
    _check_rate(model, noisy)
    spec = stft(noisy, model.frame_spec, model.window_name)
    v = _features(spec.values, model.feature_kind)
    spec.values *= separation_gain(v, model.w_speech, model.w_noise, params)
    return Signal(istft(spec, len(noisy.samples)), noisy.sample_rate)
