"""Wavelet packet analysis/synthesis filter bank with periodic boundaries.

A level-J decomposition applies a two-channel orthonormal filter bank
recursively to every node of the full binary tree, yielding 2^J
subband signals, each downsampled by 2^J.  With circular extension the
synthesis bank is the exact transpose of the analysis bank, so the
round trip reconstructs the input to machine precision for any even
length at every split.

The subbands travel as one plain float64 matrix: `dwpt` returns the
(2^J, band length) matrix with one band per row in natural tree order,
and `idwpt(bands, filters, length)` merges its rows and keeps the first
`length` samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framing import Signal, _shown, _whole

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


@dataclass(frozen=True)
class WaveletFilters:
    """Two-channel orthonormal tap pair, exactly the named family's.

    A model file records only the name.  Synthesis uses the analysis taps:
    with circular extension the bank is exact only when synthesis is the
    transpose of analysis.
    """

    name: str
    analysis_low: np.ndarray
    analysis_high: np.ndarray

    def __post_init__(self):
        low, high = _family_taps(self.name)
        if not (np.array_equal(self.analysis_low, low)
                and np.array_equal(self.analysis_high, high)):
            raise ValueError(f"filters named '{self.name}' must carry the {self.name} taps")

    @property
    def taps(self) -> int:
        return len(self.analysis_low)


def _check_filter_name(name: str) -> None:
    if name not in _SCALING_TAPS:
        raise ValueError(f"unknown wavelet filter '{name}' (choose from {FILTER_NAMES})")


def _family_taps(name: str):
    """The (low-pass, high-pass) analysis taps of a shipped family."""
    _check_filter_name(name)
    low = np.array(_SCALING_TAPS[name], dtype=np.float64)
    # Quadrature-mirror high-pass: alternate signs on the reversed low-pass.
    high = ((-1.0) ** np.arange(len(low))) * low[::-1]
    return low, high


def get_filters(name: str) -> WaveletFilters:
    """Look up a shipped orthonormal filter family by name."""
    return WaveletFilters(name, *_family_taps(name))


def analysis_split(x: np.ndarray, filters: WaveletFilters):
    """One circular-convolution analysis step: (low, high), each half length."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) % 2 != 0:
        raise ValueError("length must be even at every level")
    ext = np.concatenate([x, np.resize(x, filters.taps - 1)])
    windows = np.lib.stride_tricks.sliding_window_view(ext, filters.taps)[::2]
    return windows @ filters.analysis_low, windows @ filters.analysis_high


def synthesis_merge(
    low: np.ndarray, high: np.ndarray, filters: WaveletFilters
) -> np.ndarray:
    """Inverse of analysis_split: upsample, filter, and fold circularly."""
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    if len(low) != len(high):
        raise ValueError("low/high subband length mismatch")
    n = 2 * len(low)
    if n == 0:
        return np.zeros(0)
    up_low = np.zeros(n)
    up_low[::2] = low
    up_high = np.zeros(n)
    up_high[::2] = high
    y = np.convolve(up_low, filters.analysis_low) + np.convolve(
        up_high, filters.analysis_high
    )
    out = y[:n].copy()
    tail = y[n:]
    while tail.size > 0:
        m = min(tail.size, n)
        out[:m] += tail[:m]
        tail = tail[m:]
    return out


def dwpt(signal: Signal, level: int, filters: WaveletFilters) -> np.ndarray:
    """Full packet decomposition: a (2^level, band length) matrix, one band per row.

    The rows are in natural tree order.  The input is zero-padded to the
    next multiple of 2^level; `idwpt` takes the unpadded length back.
    """
    level = _whole(level, "level")
    orig = len(signal)
    if orig < 1:
        raise ValueError("cannot transform an empty signal")
    # every band keeps a sample of the signal (orig >= 2**level, tested on the bit
    # length so that a huge level never forms its power) and the last split's
    # 2 * ceil(orig / 2**level) samples span the filter
    if level >= orig.bit_length() or 2 * -(-orig >> level) < filters.taps:
        raise ValueError(
            f"level {_shown(level)} too deep: a length-{orig} signal leaves less than "
            f"one {filters.taps}-tap filter span at the final split"
        )
    x = np.concatenate([signal.samples, np.zeros(-orig % (1 << level))])
    bands = [x]
    for _ in range(level):
        split = []
        for band in bands:
            lo, hi = analysis_split(band, filters)
            split.append(lo)
            split.append(hi)
        bands = split
    return np.array(bands)


def idwpt(bands: np.ndarray, filters: WaveletFilters, length: int) -> np.ndarray:
    """Merge the rows of a `dwpt` matrix back up the tree; keep `length` samples.

    Only the shape is checked: 2-D with a power-of-two row count of at
    least 2, and 1 <= length <= bands.size.
    """
    bands = np.asarray(bands, dtype=np.float64)
    if bands.ndim != 2:
        raise ValueError(f"bands must be a 2-D matrix, got {bands.ndim} dimensions")
    rows = bands.shape[0]
    if rows < 2 or rows & (rows - 1):
        raise ValueError(f"band count must be a power of two >= 2, got {rows}")
    if not 1 <= length <= bands.size:
        raise ValueError(f"length must be in [1, {bands.size}], got {length}")
    merged = list(bands)
    while len(merged) > 1:
        merged = [
            synthesis_merge(merged[i], merged[i + 1], filters)
            for i in range(0, len(merged), 2)
        ]
    return merged[0][:length]
