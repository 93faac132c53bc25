"""Shared numeric primitives: signals, framing, overlap-add, squaring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _shown(value) -> str:
    """str(value); an int too long for str() is described by its bit length instead."""
    try:
        return str(value)
    except ValueError:  # past Python's limit on the digits of an int
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"


def _float_array(x) -> np.ndarray:
    """x as it is if it is a float32 array, else as a float64 array."""
    if isinstance(x, np.ndarray) and x.dtype == np.float32:
        return x
    return np.asarray(x, dtype=np.float64)


def _whole(value, name: str, lowest: int = 1) -> int:
    """Return value as an int; ValueError naming it unless it is whole (256.0 is) and >= lowest."""
    try:
        if int(value) == value and value >= lowest:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    kind = "positive" if lowest == 1 else "nonnegative"
    raise ValueError(f"{name} must be a {kind} whole number, got {_shown(value)}")


@dataclass
class Signal:
    """Mono time-domain signal with its sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("signal samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("signal samples must be finite")
        self.sample_rate = _whole(self.sample_rate, "sample_rate")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class FrameSpec:
    """Frame size and shift in samples; shift must not exceed size."""

    frame_size: int
    frame_shift: int

    def __post_init__(self):
        for name in ("frame_size", "frame_shift"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if self.frame_shift > self.frame_size:
            raise ValueError("frame_shift must be in [1, frame_size]")


def frame_count(n_samples: int, spec: FrameSpec) -> int:
    """Number of complete frames a signal of n_samples yields."""
    if n_samples < spec.frame_size:
        return 0
    return (n_samples - spec.frame_size) // spec.frame_shift + 1


def _too_deep(n: int, level: int, taps: int) -> bool:
    """Whether `wavelets.dwpt` at `level` leaves n samples too few for a taps-long filter.

    Every band must keep a sample of the signal (n >= 2**level, tested on
    the bit length so that a huge level never forms its power), and the
    last split's 2 * ceil(n / 2**level) samples must span the filter.
    """
    return level >= n.bit_length() or 2 * -(-n >> level) < taps


def _check_frames(n: int, frame_size: int, level: int, what: str, taps: int = 0) -> None:
    """Reject n samples unless each of their 2**level `dwpt` bands holds one frame.

    This is the one length rule of both front ends: level 0 is a signal
    framed whole (stft, or one band).  With a filter of `taps` taps,
    `dwpt`'s own rule holds too: the level is not too deep for the filter
    (`_too_deep`).
    """
    # a band holds ceil(n / 2**level) samples; the shift never forms 2**level
    band = -(-n >> level)
    per_band = f" ({band} per subband)" if level else ""
    if band < frame_size:
        raise ValueError(f"{what} too short: {n} samples{per_band}, frame size is {frame_size}")
    if _too_deep(n, level, taps):
        raise ValueError(
            f"{what} too short for level {_shown(level)}: {n} samples{per_band} leave less "
            f"than one {taps}-tap filter span at the final split"
        )


def frame_signal(x: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """Segment x into overlapped rectangular-window frames.

    Returns a (frame_size, n_frames) matrix whose column k holds
    x[k*shift : k*shift + frame_size].  Trailing samples that do not fill
    a complete frame are dropped.  x must be one-dimensional, and a
    signal shorter than one frame is rejected by `_check_frames` as
    "signal too short: n samples, frame size is m".  A float32 x gives a
    float32 matrix, so that training frames its squared bands straight
    into float32; any other x is read as float64.
    """
    x = _float_array(x)
    if x.ndim != 1:
        raise ValueError("signal samples must be one-dimensional")
    _check_frames(len(x), spec.frame_size, 0, "signal")
    n = frame_count(len(x), spec)
    windows = np.lib.stride_tricks.sliding_window_view(x, spec.frame_size)
    return windows[:: spec.frame_shift][:n].T.copy()


def _overlap_sum(frames: np.ndarray, shift: int, target_len: int) -> np.ndarray:
    """Sum the columns of frames into target_len samples, column k from k*shift on.

    Each output sample adds the entries that land on it in column order,
    starting from 0.0, which fixes the rounding of `overlap_add` and
    `spectral.istft`.  The loop runs over the ceil(size/shift) blocks of
    `shift` rows rather than over the columns: block j of every column
    lands on one contiguous run of the output, shifted by j*shift, and
    a sample's terms from blocks j and j+1 come from columns k and k-1.
    Adding the blocks from the last to the first therefore gives each
    sample its terms in ascending column order, the same bits as a
    column loop.  Samples no column reaches are zero; entries past
    target_len are cut.
    """
    size, n_frames = frames.shape
    last = (size - 1) // shift * shift
    span = n_frames * shift
    acc = np.zeros(max(last + span, target_len))
    for start in range(last, -1, -shift):
        rows = frames[start : start + shift]
        acc[start : start + span].reshape(n_frames, shift)[:, : len(rows)] += rows.T
    return acc[:target_len]


def overlap_add(frames: np.ndarray, spec: FrameSpec, target_len: int) -> np.ndarray:
    """De-frame by overlap-add, averaging over the frames covering each sample.

    Output sample t is the mean of every frame entry mapped onto t; indices
    of target_len covered by no frame are zero.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.size == 0:
        raise ValueError("frame matrix must be a non-empty 2-D array")
    if frames.shape[0] != spec.frame_size:
        raise ValueError("frame matrix row count must equal frame_size")
    target_len = _whole(target_len, "target_len")

    acc = _overlap_sum(frames, spec.frame_shift, target_len)
    # frames k with k*shift <= t < k*shift + size cover sample t
    t = np.arange(target_len)
    first = np.maximum((t - spec.frame_size) // spec.frame_shift + 1, 0)
    last = np.minimum(t // spec.frame_shift, frames.shape[1] - 1)
    return acc / np.maximum(last - first + 1, 1)


def square_elementwise(frames: np.ndarray) -> np.ndarray:
    """Square every entry of a frame matrix, or of a signal before framing.

    Callers validate: `encode` and `factorize` check the squared matrix
    where it enters the NMF, so the entries are not scanned here.
    """
    frames = np.asarray(frames, dtype=np.float64)
    return frames * frames


def check_nonneg_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a 2-D array of finite nonnegative entries and return it as float64.

    A float32 array is returned as it is, not copied up, so that `encode`
    and `factorize` can run in float32.
    """
    m = _float_array(m)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D")
    if m.size == 0:
        return m
    # NaN propagates through min and max, and an infinity lands in one of them
    lo, hi = m.min(), m.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{name} must contain only finite values")
    if lo < 0:
        raise ValueError(f"{name} must contain only nonnegative values")
    return m


def rms(x: np.ndarray) -> float:
    """Root mean square of a sequence; 0.0 for an empty one."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(x * x)))
