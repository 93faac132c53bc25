"""Wavelet packet analysis/synthesis filter bank with periodic boundaries.

A level-J decomposition applies a two-channel orthonormal filter bank
recursively to every node of the full binary tree, yielding 2^J
subband signals, each downsampled by 2^J.  With circular extension the
synthesis bank is the exact transpose of the analysis bank, so the
round trip reconstructs the input to machine precision for any even
length at every split.

The subbands travel as one plain float64 matrix: `dwpt` returns the
(2^J, band length) matrix with one band per row in natural tree order,
and `idwpt(bands, filter_name, length)` merges its rows and keeps the
first `length` samples.  Splits and merges act on the last axis, so each
tree level is one call on the whole matrix.  A filter bank is named by
its family, the name a model file stores; each transform looks the taps
up from that name.
"""

from __future__ import annotations

import math

import numpy as np

from .framing import Signal, _shown, _too_deep, _whole

__all__ = ["FILTER_NAMES", "dwpt", "get_filters", "idwpt"]

_SQRT3 = math.sqrt(3.0)
_SQRT2 = math.sqrt(2.0)

# Orthonormal scaling (low-pass) taps, sum = sqrt(2).  Names carry the tap
# count.  The 8-tap set is the classic extremal-phase Daubechies filter.
_SCALING_TAPS = {
    "haar": (1.0 / _SQRT2, 1.0 / _SQRT2),
    "db4": (
        (1.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 - _SQRT3) / (4.0 * _SQRT2),
        (1.0 - _SQRT3) / (4.0 * _SQRT2),
    ),
    "db8": (
        0.2303778133088965,
        0.7148465705529157,
        0.6308807679298589,
        -0.027983769416859854,
        -0.18703481171909309,
        0.030841381835560764,
        0.0328830116668852,
        -0.010597401785069032,
    ),
}

FILTER_NAMES = tuple(_SCALING_TAPS)


def _filter_taps(filter_name: str) -> tuple[np.ndarray, np.ndarray]:
    """A shipped family's (low, high) analysis taps; ValueError for any other name.

    Synthesis uses the same taps: with circular extension the bank is
    exact only when synthesis is the transpose of analysis.
    """
    # a tuple compares by equality, so an unhashable argument is refused too
    if filter_name not in FILTER_NAMES:
        raise ValueError(f"unknown wavelet filter '{filter_name}' (choose from {FILTER_NAMES})")
    low = np.array(_SCALING_TAPS[filter_name], dtype=np.float64)
    # Quadrature-mirror high-pass: alternate signs on the reversed low-pass.
    return low, ((-1.0) ** np.arange(len(low))) * low[::-1]


def get_filters(name: str) -> str:
    """Return a shipped filter family's name once it is checked; a bank is named by its family."""
    _filter_taps(name)
    return name


def _tap_count(filter_name: str) -> int:
    """A shipped family's filter length; ValueError for any other name."""
    return len(_filter_taps(filter_name)[0])


def _band_length(x: np.ndarray) -> int:
    """The length of the last axis, which a split or merge must not find empty."""
    if x.shape[-1] == 0:
        raise ValueError("cannot split or merge an empty band")
    return x.shape[-1]


def analysis_split(x: np.ndarray, filter_name: str):
    """One circular-convolution analysis step on the last axis: (low, high), each half length.

    Output k of each half is the window x[2k : 2k + taps], indices taken
    mod n, against that half's taps.  x is one band or a (rows, n) matrix.
    """
    low, high = _filter_taps(filter_name)
    x = np.asarray(x, dtype=np.float64)
    n = _band_length(x)
    if n % 2 != 0:
        raise ValueError("length must be even at every level")
    ext = np.concatenate([x, x[..., np.arange(len(low) - 1) % n]], axis=-1)
    windows = np.lib.stride_tricks.sliding_window_view(ext, len(low), axis=-1)[..., ::2, :]
    return windows @ low, windows @ high


def synthesis_merge(low: np.ndarray, high: np.ndarray, filter_name: str) -> np.ndarray:
    """Inverse of analysis_split, as its transpose, on the last axis.

    Tap j sends low[k] and high[k] back to sample (2k + j) mod n, the one
    it was read from.  The taps accumulate into whole periods of n, which
    are then folded, so a band shorter than the filter wraps several times.
    """
    g, h = _filter_taps(filter_name)
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    if low.shape != high.shape:
        raise ValueError("low/high subband shape mismatch")
    n = 2 * _band_length(low)
    # the last tap lands on sample n + taps - 3 before the fold
    periods = -(-(n + len(g) - 2) // n)
    acc = np.zeros(low.shape[:-1] + (periods * n,))
    for j in range(len(g)):
        acc[..., j : j + n : 2] += low * g[j] + high * h[j]
    return acc.reshape(low.shape[:-1] + (periods, n)).sum(axis=-2)


def dwpt(signal: Signal, level: int, filter_name: str) -> np.ndarray:
    """Full packet decomposition: a (2^level, band length) matrix, one band per row.

    The rows are in natural tree order.  The input is zero-padded to the
    next multiple of 2^level; `idwpt` takes the unpadded length back.
    """
    taps = _tap_count(filter_name)
    level = _whole(level, "level")
    orig = len(signal)
    if orig < 1:
        raise ValueError("cannot transform an empty signal")
    if _too_deep(orig, level, taps):
        raise ValueError(
            f"level {_shown(level)} too deep: a length-{orig} signal leaves less than "
            f"one {taps}-tap filter span at the final split"
        )
    bands = np.concatenate([signal.samples, np.zeros(-orig % (1 << level))])[None, :]
    for _ in range(level):
        # each row becomes its low band followed by its high band
        bands = np.stack(analysis_split(bands, filter_name), axis=1).reshape(2 * len(bands), -1)
    return bands


def idwpt(bands: np.ndarray, filter_name: str, length: int) -> np.ndarray:
    """Merge the rows of a `dwpt` matrix back up the tree; keep `length` samples.

    Only the shape is checked: 2-D with a power-of-two row count of at
    least 2, and length a whole number in [1, bands.size].
    """
    bands = np.asarray(bands, dtype=np.float64)
    if bands.ndim != 2:
        raise ValueError(f"bands must be a 2-D matrix, got {bands.ndim} dimensions")
    rows = bands.shape[0]
    if rows < 2 or rows & (rows - 1):
        raise ValueError(f"band count must be a power of two >= 2, got {rows}")
    length = _whole(length, "length")
    if length > bands.size:
        raise ValueError(f"length must be in [1, {bands.size}], got {length}")
    while len(bands) > 1:
        bands = synthesis_merge(bands[0::2], bands[1::2], filter_name)
    return bands[0][:length]
