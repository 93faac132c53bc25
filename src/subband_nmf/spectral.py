"""STFT-domain supervised enhancement baseline, and the shared gain core.

Pipeline: Hamming-windowed STFT, per-class dictionary training on power
spectra, fixed-dictionary encoding of the noisy spectrogram,
ratio gain on the magnitudes with the phase carried through untouched,
weighted overlap-add resynthesis.  The spectrogram is a plain complex
matrix: `stft` returns it (bins x frames) and `istft(values, spec,
target_len)` checks its shape and finiteness before inverting it.

`_ratio_gain` is the back end both front ends share: build a feature
matrix, encode it against the stacked [W_S W_N], split the
reconstruction by class and return the ratio gain of the two parts
(`wiener_gain`).  The subband front end calls it once per band on
squared frame matrices and takes the gain's square root.
`_train_pair` is the training half they share, run once the training set
is checked (`_check_training_set`); `_check_input` checks an enhancer's input.
"""

from dataclasses import dataclass

import numpy as np

from .defaults import ENCODE_ITERS, EPSILON, NOISE_RANK, SPEECH_RANK
from .framing import (
    FrameSpec, Signal, _check_frames, _overlap_sum, _whole, check_nonneg_matrix, frame_signal
)
from .nmf import (
    NmfParams, _one_blas_thread, _reject_overflow, encode, factorize, split_reconstruction
)

__all__ = [
    "StftBasisModel",
    "enhance_stft",
    "istft",
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
    """Reject a dictionary pair unless 2-D with `rows` rows and some columns, finite and >= 0."""
    for name, w in (("w_speech", w_speech), ("w_noise", w_noise)):
        if w.ndim != 2 or w.shape[0] != rows:
            raise ValueError(f"{where}{name} must have {rows} rows")
        if w.shape[1] == 0:
            raise ValueError(f"{where}{name} must have at least one column")
        check_nonneg_matrix(w, f"{where}{name}")


def _check_input(model, noisy: Signal, level: int = 0, taps: int = 0) -> None:
    """Reject input at another sample rate than the model's, or too short for its frames."""
    if noisy.sample_rate != model.sample_rate:
        raise ValueError(
            f"model sample rate {model.sample_rate} != input rate {noisy.sample_rate}"
        )
    _check_frames(len(noisy), model.frame_spec.frame_size, level, "input", taps)


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


def _check_training_set(clean, noise, frame_size: int, level: int = 0, taps: int = 0) -> int:
    """Reject empty classes, short utterances, mixed rates or a silent clean class; return the rate.

    An utterance too short for one frame per band at `level`, or for a
    `taps`-tap filter there, is named by its class and index.  Both front
    ends train on squared samples, so a clean class of subnormal samples
    trains the same degenerate model as silence.
    """
    for label, signals in (("clean", clean), ("noise", noise)):
        if not signals:
            raise ValueError(f"empty {label} training set")
        for i, s in enumerate(signals):
            _check_frames(len(s), frame_size, level, f"{label} utterance {i}", taps)
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
    NOISE_RANK); only the dictionary factors are kept.  `factorize` runs
    in the features' dtype: both trainers build them in float32, so the
    dictionaries come back float32, which a model's float64 arrays hold
    exactly.  A one-item class's matrix is factorized as built, not
    copied.  Each matrix dies when its `factorize` returns, before the
    next class's is built.  This is the training twin of `_ratio_gain`.
    """
    if speech_params is None:
        speech_params = NmfParams(rank=SPEECH_RANK)
    if noise_params is None:
        noise_params = NmfParams(rank=NOISE_RANK)

    def class_matrix(items):
        parts = [features(item) for item in items]
        return parts[0] if len(parts) == 1 else np.hstack(parts)

    return tuple(
        factorize(class_matrix(items), params).w
        for items, params in ((clean, speech_params), (noise, noise_params))
    )


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
    `_train_pair` factorizes each class's power spectra, each utterance's
    formed in float64 and cast to float32, so a power above float32's
    range raises "input level too high".
    """
    _check_analysis(window_name, feature_kind)
    rate = _check_training_set(clean, noise, spec.frame_size)
    w_speech, w_noise = _train_pair(
        clean, noise, lambda s: _power(stft(s, spec)).astype(np.float32),
        speech_params, noise_params,
    )
    return StftBasisModel(w_speech, w_noise, spec, rate)


def wiener_gain(speech_part: np.ndarray, noise_part: np.ndarray) -> np.ndarray:
    """Ratio gain speech/(speech+noise), floored denominator, clipped to [0,1].

    Allocates one float64 output buffer and forms the sum, floor, quotient
    and clip in it; the inputs are only read.
    """
    total = np.add(speech_part, noise_part, dtype=np.float64)
    np.maximum(total, EPSILON, out=total)
    np.divide(speech_part, total, out=total)
    return np.clip(total, 0.0, 1.0, out=total)


def _ratio_gain(features, w_s: np.ndarray, w_n: np.ndarray, params: NmfParams | None):
    """The `wiener_gain` of the feature matrix `features()`, shaped like it.

    The matrix is encoded against the stacked [w_s w_n] (by default with
    ENCODE_ITERS sweeps), and the encoding is split by class with the
    stack's two column views.  Encoding and split run in float32: the
    features and the stack are cast once, so a feature above float32's
    range raises "input level too high" under `nmf._reject_overflow`.
    The float32 matrix dies once encoded and H once split, so the gain is
    formed beside only the two float32 class parts and the stack: about
    two float64 matrices in all.
    """
    if params is None:
        params = NmfParams(rank=w_s.shape[1] + w_n.shape[1], max_iters=ENCODE_ITERS)
    stack = np.hstack([w_s, w_n], dtype=np.float32)
    r_s = w_s.shape[1]
    return wiener_gain(*split_reconstruction(
        stack[:, :r_s], stack[:, r_s:], encode(features().astype(np.float32), stack, params)
    ))


@_reject_overflow
@_one_blas_thread
def enhance_stft(
    noisy: Signal, model: StftBasisModel, params: NmfParams | None = None
) -> Signal:
    """Suppress noise in a signal using a trained spectral model.

    The power spectrum's `_ratio_gain` multiplies the magnitudes
    directly while the phase rides along unchanged.  Every
    matrix product runs at one BLAS thread, and the encoding sweeps run
    on column blocks over the threads BLAS had (`nmf._one_blas_thread`).
    """
    _check_input(model, noisy)
    values = stft(noisy, model.frame_spec)
    values *= _ratio_gain(lambda: _power(values), model.w_speech, model.w_noise, params)
    return Signal(istft(values, model.frame_spec, len(noisy.samples)), noisy.sample_rate)
