"""The robustness contract, stated as properties over a small model.

Every finite input is either enhanced to a finite signal of its own
length or rejected with a ValueError; silence in gives silence out;
gains stay in [0, 1]; and a corrupt model file raises only ValueError.
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from subband_nmf import (
    FrameSpec,
    NmfParams,
    Signal,
    enhance_dwpt,
    enhance_stft,
    get_filters,
    load_model,
    save_model,
    separation_gain,
    subband_gain,
    train_dwpt_model,
    train_stft_model,
)

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
    return (functools.partial(enhance_dwpt, model=dwpt_model, filters=FILTERS, params=ENCODE),
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


def nonneg(shape, high):
    return arrays(np.float64, shape, elements=st.floats(0.0, high))


@few
@given(nonneg((6, 5), 1e6), nonneg((6, 2), 10.0), nonneg((6, 3), 10.0))
def test_separation_gain_stays_in_unit_interval(v, w_s, w_n):
    g = separation_gain(v, w_s, w_n, ENCODE)
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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1), corruptions())
def test_corrupt_model_file_raises_only_value_error(tmp_path_factory, which, corruption):
    tmp_dir = tmp_path_factory.getbasetemp()
    raw = bytearray(saved_bytes(tmp_dir)[which])
    kind, pos, byte = corruption
    pos %= len(raw)
    if kind == "truncate":
        del raw[pos:]
    elif kind == "replace":
        raw[pos] = byte
    else:
        raw.insert(pos, byte)
    path = tmp_dir / "corrupt.snm"
    path.write_bytes(bytes(raw))
    try:
        load_model(path)
    except ValueError:
        pass

