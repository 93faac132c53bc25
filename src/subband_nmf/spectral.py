"""STFT-domain supervised enhancement baseline, and the shared gain core.

Pipeline: Hamming-windowed STFT, per-class dictionary training on power
spectra, fixed-dictionary encoding of the noisy spectrogram,
ratio gain on the magnitudes with the phase carried through untouched,
weighted overlap-add resynthesis.  The spectrogram is a plain complex
matrix: `stft` returns it (bins x frames) and `istft(values, spec,
target_len)` checks its shape and finiteness before inverting it.

`separation_gain` is the back end both front ends share: encode a
feature matrix against the stacked [W_S W_N], split the reconstruction
by class and form the ratio gain.  The subband front end calls it once
per band on squared frame matrices.  `_train_pair` is the training half
they share, run after `_check_training_set` has checked the training set.
"""

from dataclasses import dataclass

import numpy as np

from .defaults import ENCODE_ITERS, EPSILON, NOISE_RANK, SPEECH_RANK
from .framing import (
    FrameSpec, Signal, _overlap_sum, _whole, check_nonneg_matrix, frame_signal
)
from .nmf import NmfParams, _reject_overflow, encode, factorize, split_reconstruction

__all__ = [
    "StftBasisModel",
    "enhance_stft",
    "istft",
    "separation_gain",
    "stft",
    "train_stft_model",
    "wiener_gain",
]

# The one analysis this front end runs, by the names a model file's header
# gives it: a Hamming window, and power spectra as NMF features.
WINDOW_NAME = "hamming"
FEATURE_KIND = "power"

# Synthesis denominator floor: keeps fully-uncovered samples at zero
# instead of dividing 0/0.
_OLA_FLOOR = 1e-8


def _check_analysis(window_name: str, feature_kind: str) -> None:
    """Reject any window or feature kind but the Hamming window and power spectra."""
    if window_name != WINDOW_NAME:
        raise ValueError(f"unknown window '{window_name}' (only '{WINDOW_NAME}' is supported)")
    if feature_kind != FEATURE_KIND:
        raise ValueError(
            f"unknown feature kind '{feature_kind}' (only '{FEATURE_KIND}' is supported)"
        )


def stft(x: Signal, spec: FrameSpec) -> np.ndarray:
    """Hamming-windowed short-time transform of a real signal.

    Frames the signal, applies the Hamming window, and takes the
    real-input DFT of each column: a complex (frame_size/2 + 1, frames)
    matrix.
    """
    frames = frame_signal(x.samples, spec)
    frames *= np.hamming(spec.frame_size)[:, None]
    return np.fft.rfft(frames, axis=0)


def istft(values: np.ndarray, spec: FrameSpec, target_len: int) -> np.ndarray:
    """Weighted overlap-add inverse of `stft`.

    values must be a finite 2-D matrix with frame_size/2 + 1 rows; irfft
    would silently crop or pad any other bin count.  Each
    inverse-transformed frame is weighted by the Hamming synthesis
    window (the analysis window) and accumulated; the sum is divided by the
    accumulated squared window, floored at 1e-8.  Covered samples come
    back exactly; samples past the coverage are zero.
    """
    values = np.asarray(values)
    size, shift = spec.frame_size, spec.frame_shift
    if values.ndim != 2:
        raise ValueError("spectrogram values must be 2-D")
    if values.shape[0] != size // 2 + 1:
        raise ValueError(
            f"expected {size // 2 + 1} bins for frame size {size}, got {values.shape[0]}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("spectrogram values must be finite")
    target_len = _whole(target_len, "target_len", 0)
    window = np.hamming(size)
    frames = np.fft.irfft(values, n=size, axis=0)
    frames *= window[:, None]
    num = _overlap_sum(frames, shift, target_len)
    squared = np.broadcast_to((window * window)[:, None], frames.shape)
    return num / np.maximum(_overlap_sum(squared, shift, target_len), _OLA_FLOOR)


def _power(values: np.ndarray) -> np.ndarray:
    """The power spectrum |values|^2 of STFT values, the NMF features."""
    mag = np.abs(values)
    return np.multiply(mag, mag, out=mag)


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
    """Per-class power-spectrum dictionaries plus the analysis geometry."""

    w_speech: np.ndarray
    w_noise: np.ndarray
    frame_spec: FrameSpec
    sample_rate: int

    def __post_init__(self):
        self.w_speech = np.asarray(self.w_speech, dtype=np.float64)
        self.w_noise = np.asarray(self.w_noise, dtype=np.float64)
        self.sample_rate = _whole(self.sample_rate, "sample_rate")
        _check_dictionaries(self.w_speech, self.w_noise, self.frame_spec.frame_size // 2 + 1)


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
    # kept only because perfbench/workloads.py's train_stft passes both positionally
    window_name: str = WINDOW_NAME,
    feature_kind: str = FEATURE_KIND,
    speech_params: NmfParams | None = None,
    noise_params: NmfParams | None = None,
) -> StftBasisModel:
    """Learn one power-spectrum dictionary per class from labeled signals.

    `window_name` and `feature_kind` accept only "hamming" and "power".
    The training set is checked first (`_check_training_set`); then
    `_train_pair` factorizes each class's power spectra.
    """
    _check_analysis(window_name, feature_kind)
    rate = _check_training_set(clean, noise)
    w_speech, w_noise = _train_pair(
        clean, noise, lambda s: _power(stft(s, spec)), speech_params, noise_params
    )
    return StftBasisModel(w_speech, w_noise, spec, rate)


def wiener_gain(speech_part: np.ndarray, noise_part: np.ndarray) -> np.ndarray:
    """Ratio gain speech/(speech+noise), floored denominator, clipped to [0,1].

    Allocates one float64 output buffer and forms the sum, floor, quotient
    and clip in it; the inputs are only read.
    """
    gain = np.add(speech_part, noise_part, dtype=np.float64)
    np.maximum(gain, EPSILON, out=gain)
    np.divide(speech_part, gain, out=gain)
    return np.clip(gain, 0.0, 1.0, out=gain)


@_reject_overflow
def separation_gain(
    v: np.ndarray, w_s: np.ndarray, w_n: np.ndarray, params: NmfParams | None = None
) -> np.ndarray:
    """Ratio gain of the speech class for every entry of a feature matrix.

    v is encoded against the stacked dictionary [w_s w_n] (by default
    with ENCODE_ITERS sweeps), the encoding is split into the two class
    reconstructions, and `wiener_gain` of those is returned.  An overflow
    anywhere on the way raises "input level too high"; without one the
    gain is finite, since every denominator is floored at EPSILON.
    """
    w_stack = np.hstack([w_s, w_n])
    if params is None:
        params = NmfParams(rank=w_stack.shape[1], max_iters=ENCODE_ITERS)
    h = encode(v, w_stack, params)
    speech_part, noise_part = split_reconstruction(w_s, w_n, h)
    return wiener_gain(speech_part, noise_part)


@_reject_overflow
def enhance_stft(
    noisy: Signal, model: StftBasisModel, params: NmfParams | None = None
) -> Signal:
    """Suppress noise in a signal using a trained spectral model.

    The `separation_gain` of the noisy feature matrix multiplies the
    magnitudes directly while the phase rides along unchanged.
    """
    _check_rate(model, noisy)
    values = stft(noisy, model.frame_spec)
    values *= separation_gain(_power(values), model.w_speech, model.w_noise, params)
    return Signal(istft(values, model.frame_spec, len(noisy.samples)), noisy.sample_rate)
