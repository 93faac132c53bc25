"""PCM16 WAV round trips and quantization conventions."""

import gc
import struct
import sys
import wave

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subband_nmf import Signal, read_wav, write_wav

from conftest import make_signal


def write_raw_pcm16(path, samples_int16, rate=8000, channels=1):
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(np.asarray(samples_int16, dtype="<i2").tobytes())


def test_read_zero_file(tmp_path):
    p = tmp_path / "z.wav"
    write_raw_pcm16(p, np.zeros(64, dtype=np.int16))
    sig, info = read_wav(p)
    np.testing.assert_array_equal(sig.samples, np.zeros(64))
    assert info.sample_rate == 8000
    assert info.channels == 1
    assert info.bit_depth == 16
    assert info.frame_count == 64


def test_read_scaling_convention(tmp_path):
    p = tmp_path / "s.wav"
    write_raw_pcm16(p, np.array([-32768, 16384, 0, 32767], dtype=np.int16))
    sig, _ = read_wav(p)
    assert sig.samples[0] == -1.0
    assert sig.samples[1] == 0.5
    assert sig.samples[2] == 0.0
    assert sig.samples[3] == pytest.approx(32767 / 32768)


def test_write_quantization_cases(tmp_path):
    p = tmp_path / "q.wav"
    write_wav(p, Signal(np.array([2.0, 0.0, -2.0, 0.5, 1.0]), 8000))
    with wave.open(str(p), "rb") as w:
        raw = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
    assert raw[0] == 32767  # clipped
    assert raw[1] == 0
    assert raw[2] == -32768
    assert raw[3] == 16384
    assert raw[4] == 32767


def test_round_trip_quantization_bound(tmp_path):
    x = make_signal(1000, seed=5)
    p = tmp_path / "r.wav"
    write_wav(p, x)
    back, info = read_wav(p)
    assert info.frame_count == 1000
    assert back.sample_rate == 8000
    assert np.max(np.abs(back.samples - x.samples)) <= 1.0 / 32768.0


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 3000))
def test_round_trip_property(seed, n, tmp_path_factory):
    x = make_signal(n, seed=seed, scale=0.97)
    p = tmp_path_factory.mktemp("wav") / "x.wav"
    write_wav(p, x)
    back, _ = read_wav(p)
    assert np.max(np.abs(back.samples - x.samples)) <= 1.0 / 32768.0


def test_second_round_trip_is_fixed_point(tmp_path):
    # once quantized, further write/read cycles are exact
    x = make_signal(500, seed=9)
    a = tmp_path / "a.wav"
    b = tmp_path / "b.wav"
    write_wav(a, x)
    once, _ = read_wav(a)
    write_wav(b, once)
    twice, _ = read_wav(b)
    np.testing.assert_array_equal(once.samples, twice.samples)
    assert a.read_bytes() == b.read_bytes()


def test_multichannel_averaged_with_warning(tmp_path):
    p = tmp_path / "st.wav"
    left = np.array([1000, 2000, 3000], dtype=np.int16)
    right = np.array([3000, 4000, 5000], dtype=np.int16)
    interleaved = np.column_stack([left, right]).ravel()
    write_raw_pcm16(p, interleaved, channels=2)
    with pytest.warns(UserWarning, match="averaging"):
        sig, info = read_wav(p)
    assert info.channels == 2
    np.testing.assert_allclose(sig.samples, (left + right) / 2.0 / 32768.0, atol=1e-12)


def test_read_rejects_eight_bit(tmp_path):
    p = tmp_path / "b8.wav"
    with wave.open(str(p), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(8000)
        w.writeframes(bytes(range(64)))
    with pytest.raises(ValueError, match="only PCM16"):
        read_wav(p)


def test_read_rejects_a_float_wav_as_unreadable(tmp_path):
    # format tag 3 (IEEE float): the wave module refuses every tag but PCM
    data = struct.pack("<4f", 0.1, 0.2, 0.3, 0.4)
    fmt = struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 32)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    p = tmp_path / "float.wav"
    p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(ValueError, match=r"not a readable WAV file \(unknown format: 3\)$"):
        read_wav(p)


def test_read_rejects_non_wav(tmp_path):
    p = tmp_path / "not.wav"
    p.write_bytes(b"definitely not RIFF data")
    with pytest.raises(ValueError, match="not a readable WAV"):
        read_wav(p)


def test_write_to_directory_raises_only_the_open_error(tmp_path, monkeypatch):
    # a writer that wave built around a path it could not open would fail
    # again in its __del__, as an unraisable AttributeError
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with pytest.raises(IsADirectoryError):
        write_wav(tmp_path, Signal(np.zeros(8), 8000))
    gc.collect()
    assert unraisable == []


def test_rate_past_the_header_rejected_before_writing(tmp_path):
    # the header's byte rate, twice the sample rate, is an unsigned 32-bit field
    p = tmp_path / "fast.wav"
    with pytest.raises(ValueError, match=r"must be below 2\*\*31 for WAV, got 2147483648"):
        write_wav(p, Signal(np.zeros(8), 2**31))
    assert not p.exists()
    x = Signal(np.array([0.0, 0.5, -0.25, 0.0]), 2**31 - 1)
    write_wav(p, x)
    back, info = read_wav(p)
    assert info.sample_rate == back.sample_rate == 2**31 - 1
    np.testing.assert_array_equal(back.samples, x.samples)
