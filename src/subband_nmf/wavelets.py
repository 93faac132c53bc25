"""Wavelet packet analysis/synthesis filter bank with periodic boundaries.

A level-J decomposition applies a two-channel orthonormal filter bank
recursively to every node of the full binary tree, yielding 2^J
subband signals, each downsampled by 2^J.  With circular extension the
synthesis bank is the exact transpose of the analysis bank, so the
round trip reconstructs the input to machine precision for any even
length at every split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framing import Signal

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
    """Two-channel orthonormal tap pair.

    Synthesis uses the analysis taps: with circular extension the bank is
    exact only when synthesis is the transpose of analysis.
    """

    name: str
    analysis_low: np.ndarray
    analysis_high: np.ndarray

    def __post_init__(self):
        taps = len(self.analysis_low)
        if len(self.analysis_high) != taps or taps % 2 != 0 or taps < 2:
            raise ValueError("filters must share an even tap count")

    @property
    def taps(self) -> int:
        return len(self.analysis_low)


def _check_filter_name(name: str) -> None:
    if name not in _SCALING_TAPS:
        raise ValueError(f"unknown wavelet filter '{name}' (choose from {FILTER_NAMES})")


def get_filters(name: str) -> WaveletFilters:
    """Look up a shipped orthonormal filter family by name."""
    _check_filter_name(name)
    low = np.array(_SCALING_TAPS[name], dtype=np.float64)
    # Quadrature-mirror high-pass: alternate signs on the reversed low-pass.
    high = ((-1.0) ** np.arange(len(low))) * low[::-1]
    return WaveletFilters(name=name, analysis_low=low, analysis_high=high)


@dataclass
class SubbandSet:
    """The 2^level downsampled subband signals of one full-band signal."""

    level: int
    subbands: list
    original_length: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if len(self.subbands) != 2**self.level:
            raise ValueError(
                f"expected {2**self.level} subbands, got {len(self.subbands)}"
            )
        lengths = {len(b) for b in self.subbands}
        if len(lengths) != 1:
            raise ValueError("subbands must share one length")
        if self.original_length < 1:
            raise ValueError("original_length must be positive")

    @property
    def band_length(self) -> int:
        return len(self.subbands[0])


def _circular_extend(x: np.ndarray, extra: int) -> np.ndarray:
    if extra <= 0:
        return x
    if extra <= len(x):
        return np.concatenate([x, x[:extra]])
    return np.concatenate([x, np.resize(x, extra)])


def analysis_split(x: np.ndarray, filters: WaveletFilters):
    """One circular-convolution analysis step: (low, high), each half length."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) % 2 != 0:
        raise ValueError("length must be even at every level")
    ext = _circular_extend(x, filters.taps - 1)
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


def dwpt(signal: Signal, level: int, filters: WaveletFilters) -> SubbandSet:
    """Full packet decomposition into 2^level subbands, natural tree order.

    The input is zero-padded to the next multiple of 2^level; the
    pre-padding length is recorded so the inverse can strip it.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    orig = len(signal)
    if orig < 1:
        raise ValueError("cannot transform an empty signal")
    block = 1 << level
    padded_len = ((orig + block - 1) // block) * block
    if padded_len // (1 << (level - 1)) < filters.taps:
        raise ValueError(
            f"level {level} too deep: a length-{orig} signal leaves less than "
            f"one {filters.taps}-tap filter span at the final split"
        )
    x = np.concatenate([signal.samples, np.zeros(padded_len - orig)])
    bands = [x]
    for _ in range(level):
        split = []
        for band in bands:
            lo, hi = analysis_split(band, filters)
            split.append(lo)
            split.append(hi)
        bands = split
    return SubbandSet(level=level, subbands=bands, original_length=orig)


def idwpt(s: SubbandSet, filters: WaveletFilters) -> np.ndarray:
    """Merge a SubbandSet back up the tree and strip the padding.

    The band count (2^level) and the shared band length are the
    invariants `SubbandSet` checks when it is built.
    """
    bands = [np.asarray(b, dtype=np.float64) for b in s.subbands]
    while len(bands) > 1:
        bands = [
            synthesis_merge(bands[i], bands[i + 1], filters)
            for i in range(0, len(bands), 2)
        ]
    full = bands[0]
    if s.original_length > len(full):
        raise ValueError("original_length exceeds reconstructed length")
    return full[: s.original_length]
