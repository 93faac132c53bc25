"""PCM16 WAV reading and writing.

Deliberately narrow: 16-bit PCM only, mono output, multichannel inputs
averaged down with a warning.  Read samples are scaled by 1/32768 so the
full int16 range maps into [-1, 1); writing clips to [-1, 1] and rounds
symmetrically, which keeps the round-trip error within one quantization
step per sample.
"""

import wave
import warnings
from dataclasses import dataclass

import numpy as np

from .framing import Signal

__all__ = ["WavInfo", "read_wav", "write_wav"]

_SCALE = 32768.0


@dataclass(frozen=True)
class WavInfo:
    sample_rate: int
    channels: int
    bit_depth: int
    frame_count: int


def read_wav(path) -> tuple[Signal, WavInfo]:
    """Read a PCM16 WAV file into a mono Signal plus its raw geometry.

    Any failure is a ValueError that starts with the path.  The `wave`
    module itself refuses every format tag but PCM, so a float or
    compressed file fails as "not a readable WAV file (unknown format:
    3)"; a PCM file of another sample width fails as "only PCM16".
    """
    try:
        with wave.open(str(path), "rb") as wf:
            width = wf.getsampwidth()
            channels = wf.getnchannels()
            rate = wf.getframerate()
            n = wf.getnframes()
            raw = wf.readframes(n)
    except (wave.Error, EOFError, RuntimeError) as e:
        # wave raises EOFError for a chunk header cut short and RuntimeError
        # for a chunk it cannot skip; both carry an empty message
        raise ValueError(f"{path}: not a readable WAV file ({str(e) or type(e).__name__})") from e
    if width != 2:
        raise ValueError(f"{path}: only PCM16 supported, got {8 * width}-bit samples")
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    if channels > 1:
        warnings.warn(f"{path}: averaging {channels} channels to mono")
        data = data.reshape(-1, channels).mean(axis=1)
    info = WavInfo(sample_rate=rate, channels=channels, bit_depth=16, frame_count=n)
    return Signal(data / _SCALE, rate), info


def write_wav(path, signal: Signal) -> None:
    """Write a Signal as mono PCM16, clipping to [-1, 1] first."""
    # the header holds the byte rate, twice the sample rate, in 32 unsigned bits
    if signal.sample_rate >= 2**31:
        raise ValueError(f"sample_rate must be below 2**31 for WAV, got {signal.sample_rate}")
    x = np.clip(signal.samples, -1.0, 1.0)
    # symmetric rounding (half away from zero) keeps the quantizer
    # unbiased across positive and negative amplitudes
    q = np.sign(x) * np.floor(np.abs(x) * _SCALE + 0.5)
    q = np.clip(q, -32768, 32767).astype("<i2")
    # wave.open(path) would leave a half-built writer whose __del__ raises
    # a stray AttributeError when the path cannot be opened
    with open(path, "wb") as f, wave.open(f, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(signal.sample_rate)
        wf.writeframes(q.tobytes())
