"""The robustness contract, stated as properties over a small model.

Every finite input is either enhanced to a finite signal of its own
length or rejected with a ValueError; silence in gives silence out;
gains stay in [0, 1]; and a corrupt model or WAV file raises only
ValueError.  `test_boundary_contract` sweeps the geometry too: both
trainers, a save/load round trip and both enhancers, over lengths near
the shortest accepted, where a rejection must come before any transform
and no dwpt band may come out louder than it went in.
"""

import functools

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from subband_nmf import (
    FrameSpec,
    NmfParams,
    Signal,
    enhance_dwpt,
    enhance_stft,
    enhance_subbands,
    get_filters,
    load_model,
    read_wav,
    save_model,
    subband_gain,
    train_dwpt_model,
    train_stft_model,
    write_wav,
)
from subband_nmf import spectral, subband
from subband_nmf.framing import rms
from subband_nmf.spectral import _ratio_gain

from conftest import make_tone, make_signal

RATE = 8000
FILTERS = get_filters("db4")
ENCODE = NmfParams(rank=4, max_iters=10, seed=0)
# enhance_dwpt needs (frame_size - 1) * 2^level + 1 samples
SHORTEST_DWPT = 31 * 4 + 1

few = settings(max_examples=25, deadline=None)


@functools.lru_cache(maxsize=None)
def models():
    clean = [make_tone(500.0, 0.5)]
    noise = [make_signal(4000, seed=1)]
    train = dict(speech_params=NmfParams(rank=2, max_iters=20, seed=0),
                 noise_params=NmfParams(rank=2, max_iters=20, seed=0))
    dwpt_model = train_dwpt_model(clean, noise, 2, FILTERS, FrameSpec(32, 8), **train)
    stft_model = train_stft_model(clean, noise, FrameSpec(64, 16), **train)
    return dwpt_model, stft_model


def front_ends():
    dwpt_model, stft_model = models()
    return (functools.partial(enhance_dwpt, model=dwpt_model, filter_name=FILTERS, params=ENCODE),
            functools.partial(enhance_stft, model=stft_model, params=ENCODE))


@few
@given(st.integers(SHORTEST_DWPT, 3000))
def test_silence_in_gives_silence_out(n):
    for enhance in front_ends():
        out = enhance(Signal(np.zeros(n), RATE))
        assert len(out) == n
        assert not np.any(out.samples)


finite_samples = arrays(
    np.float64,
    st.integers(1, 1500),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@few
@given(finite_samples)
def test_finite_input_gives_finite_output_or_value_error(samples):
    for enhance in front_ends():
        try:
            out = enhance(Signal(samples, RATE))
        except ValueError:
            continue
        assert len(out) == len(samples)
        assert np.all(np.isfinite(out.samples))


def shortest_accepted(level, taps, frame_size):
    """The fewest samples whose 2**level bands each hold a frame and span the filter."""
    step = 1 << level
    return max((frame_size - 1) * step + 1, (-(-taps // 2) - 1) * step + 1, step)


def waveform(kind, n, amplitude, seed):
    if kind == "noise":
        return amplitude * np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    if kind == "tone":
        return amplitude * np.sin(0.4 * np.arange(n) + seed)
    return np.full(n, amplitude)


# silence one time in four, else a level from 1e-8 to 1e3
levels = st.floats(-8.0, 3.0).map(lambda e: 10.0**e)
amplitudes = st.one_of(levels, levels, levels, st.just(0.0))


@st.composite
def contract_cases(draw):
    """A geometry, ranks and sweeps, and three signals near the shortest accepted length."""
    front_end = draw(st.sampled_from(["stft", "haar", "db4", "db8"]))
    level = 0 if front_end == "stft" else draw(st.integers(1, 3))
    taps = {"stft": 0, "haar": 2, "db4": 4, "db8": 8}[front_end]
    frame_size = draw(st.integers(1, 12))
    spec = FrameSpec(frame_size, draw(st.integers(1, frame_size)))
    shortest = shortest_accepted(level, taps, frame_size)
    step = 1 << level

    # too short one time in four, else up to 4 samples per band longer
    longer = st.integers(0, 4 * step)
    offsets = st.one_of(longer, longer, longer, st.integers(-2 * step, -1))

    def signal(kind=None):
        n = max(0, shortest + draw(offsets))
        kind = kind or draw(st.sampled_from(["noise", "tone", "DC"]))
        seed = draw(st.integers(0, 3))
        return Signal(waveform(kind, n, draw(amplitudes), seed), RATE)

    ranks = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sweeps = draw(st.integers(2, 5))
    return dict(front_end=front_end, level=level, spec=spec, ranks=ranks, sweeps=sweeps,
                clean=signal(), noise=signal("noise"), noisy=signal())


@settings(max_examples=300, deadline=None)
@given(contract_cases())
def test_boundary_contract(tmp_path_factory, case):
    # every input is rejected with a ValueError before any transform, or
    # enhanced to a finite signal of its length, silence to silence, and on
    # dwpt no band comes out louder than it went in
    transforms, band_pairs = [], []

    def counted(transform):
        def run(*args):
            transforms.append(transform.__name__)
            return transform(*args)
        return run

    def recorded(bands, *args, **kwargs):
        out = enhance_subbands(bands, *args, **kwargs)
        band_pairs.append((np.asarray(bands), out))
        return out

    front_end, spec, sweeps = case["front_end"], case["spec"], case["sweeps"]
    speech_rank, noise_rank = case["ranks"]
    train = dict(speech_params=NmfParams(speech_rank, sweeps, seed=0),
                 noise_params=NmfParams(noise_rank, sweeps, seed=0))
    encode = NmfParams(speech_rank + noise_rank, sweeps, seed=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subband, "dwpt", counted(subband.dwpt))
        mp.setattr(spectral, "stft", counted(spectral.stft))
        mp.setattr(subband, "enhance_subbands", recorded)
        try:
            if front_end == "stft":
                model = train_stft_model([case["clean"]], [case["noise"]], spec, **train)
            else:
                model = train_dwpt_model([case["clean"]], [case["noise"]], case["level"],
                                         front_end, spec, **train)
        except ValueError as e:
            event(f"train rejected: {str(e).split(':')[0]}")
            assert transforms == []
            return
        path = tmp_path_factory.getbasetemp() / "contract.snm"
        save_model(model, path)
        saved = path.read_bytes()
        model = load_model(path)
        save_model(model, path)
        assert path.read_bytes() == saved

        noisy = case["noisy"]
        transforms.clear()
        try:
            if front_end == "stft":
                out = enhance_stft(noisy, model, encode)
            else:
                out = enhance_dwpt(noisy, model, front_end, encode)
        except ValueError as e:
            event(f"enhance rejected: {str(e).split(':')[0]}")
            assert transforms == []
            return
    event("enhanced")
    assert len(out) == len(noisy)
    assert np.all(np.isfinite(out.samples))
    if not np.any(noisy.samples):
        assert not np.any(out.samples)
    assert len(band_pairs) == (front_end != "stft")
    for bands, enhanced in band_pairs:
        for band, shat in zip(bands, enhanced):
            assert rms(shat) <= rms(band) * (1.0 + 1e-12)


def nonneg(shape, high):
    return arrays(np.float64, shape, elements=st.floats(0.0, high))


@few
@given(nonneg((6, 5), 1e6), nonneg((6, 2), 10.0), nonneg((6, 3), 10.0))
def test_ratio_gain_stays_in_unit_interval(v, w_s, w_n):
    # the shared core's gain, which the stft path applies as it is
    g = _ratio_gain(lambda: v, w_s, w_n, ENCODE)
    assert g.shape == v.shape
    assert np.all((g >= 0.0) & (g <= 1.0))


@few
@given(arrays(np.float64, st.integers(8, 200), elements=st.floats(-1e6, 1e6)),
       nonneg((8, 2), 10.0), nonneg((8, 2), 10.0))
def test_subband_gain_stays_in_unit_interval(band, w_s, w_n):
    g = subband_gain(band, w_s, w_n, FrameSpec(8, 2), ENCODE)
    assert g.shape == band.shape
    assert np.all((g >= 0.0) & (g <= 1.0))


@functools.lru_cache(maxsize=None)
def saved_bytes(tmp_dir):
    out = []
    for i, model in enumerate(models()):
        path = tmp_dir / f"model_{i}.snm"
        save_model(model, path)
        out.append(path.read_bytes())
    return tuple(out)


def corruptions():
    # half of the positions land in the header, which is short
    position = st.one_of(st.integers(0, 300), st.integers(0, 10**6))
    return st.one_of(
        st.tuples(st.just("truncate"), position, st.just(0)),
        st.tuples(st.just("replace"), position, st.integers(0, 255)),
        st.tuples(st.just("insert"), position, st.integers(0, 255)),
    )


def corrupt(raw, corruption) -> bytes:
    raw = bytearray(raw)
    kind, pos, byte = corruption
    pos %= len(raw)
    if kind == "truncate":
        del raw[pos:]
    elif kind == "replace":
        raw[pos] = byte
    else:
        raw.insert(pos, byte)
    return bytes(raw)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1), corruptions())
def test_corrupt_model_file_raises_only_value_error(tmp_path_factory, which, corruption):
    tmp_dir = tmp_path_factory.getbasetemp()
    path = tmp_dir / "corrupt.snm"
    path.write_bytes(corrupt(saved_bytes(tmp_dir)[which], corruption))
    try:
        load_model(path)
    except ValueError:
        pass


@functools.lru_cache(maxsize=None)
def wav_bytes(tmp_dir):
    path = tmp_dir / "clip.wav"
    write_wav(path, make_signal(300, seed=2))
    return path.read_bytes()


# a corrupt channel count is read as a multichannel file, which warns
@pytest.mark.filterwarnings("ignore:.*averaging")
@settings(max_examples=60, deadline=None)
@given(corruptions())
def test_corrupt_wav_file_raises_only_value_error(tmp_path_factory, corruption):
    tmp_dir = tmp_path_factory.getbasetemp()
    path = tmp_dir / "corrupt.wav"
    path.write_bytes(corrupt(wav_bytes(tmp_dir), corruption))
    try:
        read_wav(path)
    except ValueError:
        pass

