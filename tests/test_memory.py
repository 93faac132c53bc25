"""Feature matrices die when the NMF that reads them returns.

Enhancement builds each feature matrix inside the shared gain core, so
the matrix is freed once encoded, and the activations once split, before
the gain is allocated beside the two float32 class reconstructions.
Each training thread builds and factorizes one class before it builds
the next, dwpt training frames each squared band straight into float32,
and `factorize` holds no temporary the size of its input.  A model holds float32
dictionaries, 4 bytes per entry: a trained one keeps the arrays
`factorize` returns, and a loaded one owns float32 arrays that
`load_model` rounded straight from the file's bytes, with no copy of
the payload.  The peaks are tracemalloc's, which sees
every numpy buffer and none of BLAS's own.
"""

import threading
import tracemalloc
import weakref
from collections import defaultdict

import numpy as np
import pytest

from subband_nmf import (
    BandModel,
    FrameSpec,
    NmfParams,
    SubbandBasisModel,
    load_model,
    save_model,
    subband_gain,
    synth_white_noise,
    train_dwpt_model,
    train_stft_model,
)
from subband_nmf import nmf, spectral
from subband_nmf.framing import frame_count

from conftest import make_tone


def traced_peak(fn):
    """fn's traced peak above what was allocated when it was called.

    fn runs once untraced first: a process's first products allocate
    lasting caches.
    """
    fn()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_subband_gain_peak_is_two_frame_matrices_and_the_encoding():
    # the paper's ratios: rank / frame size 0.2, 600 frames, at 25 frames
    # per sample, which `subband_gain` frames as given (a finer shift would
    # be coarsened, building less than the matrix the bound divides by).
    # Measured at 2.137 frame matrices: the float64 gain, the two float32
    # class parts, the float32 stack and the sum's cast buffers.  Keeping
    # the float32 H through the gain measured 2.236; float64 class parts
    # with the gain formed in one part's buffer measured 2.201.
    spec = FrameSpec(400, 16)
    rng = np.random.default_rng(0)
    band = rng.uniform(-1.0, 1.0, 599 * 16 + 400)
    w_s, w_n = rng.uniform(0.0, 1.0, (400, 16)), rng.uniform(0.0, 1.0, (400, 64))
    params = NmfParams(rank=80, max_iters=2)
    frame_matrix = 400 * frame_count(len(band), spec) * 8
    peak = traced_peak(lambda: subband_gain(band, w_s, w_n, spec, params))
    assert peak < 2.27 * frame_matrix


def test_factorize_holds_no_copy_of_its_input():
    # measured at 0.052 of v at rank 4: the factors and their products.
    # Forming ||V||^2 from V*V measured 1.018.  A float32 v measured 0.053
    # of its own size, the float64 draws of the factors included; copying
    # it up to float64 (the float64 solver) measured 2.10.
    for dtype in (np.float64, np.float32):
        v = np.random.default_rng(0).uniform(size=(400, 600)).astype(dtype)
        peak = traced_peak(lambda: nmf.factorize(v, NmfParams(rank=4, max_iters=2)))
        assert peak < 0.25 * v.nbytes


def test_train_pair_peak_holds_one_class():
    # two classes of one equal-sized item each: a one-item class is
    # factorized as built, so training holds one class matrix.  Measured at
    # 1.08; copying it through a stack measured 2.02, and holding the other
    # class too adds one more.
    m, n = 100, 2000
    params = NmfParams(rank=2, max_iters=2)
    peak = traced_peak(lambda: spectral._train_pair(
        [n], [n], lambda cols: np.ones((m, cols)), params, params
    ))
    assert peak < 1.5 * m * n * 8


def test_dwpt_training_frames_each_band_in_float32(monkeypatch):
    # without a thread-count setter the two bands train one after another,
    # so one class's float32 frame matrix is the largest buffer alive.
    # Measured at 1.31 of it: that matrix, both classes' `dwpt` bands and
    # the squared band.  Framing in float64 and factorizing that (the
    # float64 trainer) measured 2.34, and framing in float64, then casting
    # to float32, 3.27.
    monkeypatch.setattr(nmf, "_blas_threads_api", lambda: nmf._NO_SETTER)
    spec, params = FrameSpec(256, 8), NmfParams(rank=2, max_iters=2)
    clean, noise = [make_tone(500.0, 2.0)], [synth_white_noise(2.0, 8000, 0, 0.5)]
    frame_matrix = 256 * frame_count(-(-16000 // 2), spec) * 4
    peak = traced_peak(lambda: train_dwpt_model(
        clean, noise, 1, "db4", spec, speech_params=params, noise_params=params
    ))
    assert peak < 1.6 * frame_matrix


def test_trained_dwpt_model_holds_four_bytes_per_dictionary_entry():
    # the paper's largest object is the dwpt model, one dictionary pair per
    # band; copied up to float64 it takes 8 bytes per entry
    params = NmfParams(rank=2, max_iters=2)
    model = train_dwpt_model(
        [make_tone(500.0, 0.5)], [synth_white_noise(0.5, 8000, 0, 0.5)], 2, "db4",
        FrameSpec(32, 8), speech_params=params, noise_params=params,
    )
    dictionaries = [w for band in model.per_band for w in (band.w_speech, band.w_noise)]
    entries = sum(w.size for w in dictionaries)
    assert entries == 2**2 * 2 * 32 * 2
    assert sum(w.nbytes for w in dictionaries) == 4 * entries


def test_loaded_dwpt_model_holds_four_bytes_per_dictionary_entry(tmp_path):
    # a loaded model rounds each matrix of the file to float32 once and
    # holds no view of the file's bytes, which die with the load
    params = NmfParams(rank=2, max_iters=2)
    model = train_dwpt_model(
        [make_tone(500.0, 0.5)], [synth_white_noise(0.5, 8000, 0, 0.5)], 2, "db4",
        FrameSpec(32, 8), speech_params=params, noise_params=params,
    )
    save_model(model, tmp_path / "m.snm")
    back = load_model(tmp_path / "m.snm")
    dictionaries = [w for band in back.per_band for w in (band.w_speech, band.w_noise)]
    entries = sum(w.size for w in dictionaries)
    assert entries == 2**2 * 2 * 32 * 2
    assert sum(w.nbytes for w in dictionaries) == 4 * entries
    assert all(w.base is None for w in dictionaries)


def test_load_model_peak_is_the_file_and_its_float32_matrices(tmp_path):
    # the file's bytes are read once and each matrix is rounded to float32
    # straight from them.  Measured at 1.50 file sizes; 2.00 when the model
    # held float64 views of a payload copy, 2.50 with float32 matrices
    # rounded from such a copy.
    rng = np.random.default_rng(0)
    bands = [
        BandModel(rng.uniform(0, 1, (1000, 40)), rng.uniform(0, 1, (1000, 160)), 0.5)
        for _ in range(2)
    ]
    path = tmp_path / "m.snm"
    save_model(SubbandBasisModel(1, "db4", FrameSpec(1000, 20), bands, 8000), path)
    assert traced_peak(lambda: load_model(path)) < 1.75 * path.stat().st_size


@pytest.mark.parametrize("front_end", ["dwpt", "stft"])
def test_training_never_holds_both_classes(monkeypatch, front_end):
    # keyed by thread: dwpt trains its bands, and stft its two classes, side
    # by side, so another class matrix may be alive on another thread
    inputs = defaultdict(list)

    def checked_factorize(v, params):
        mine = inputs[threading.get_ident()]
        assert all(ref() is None for ref in mine), "an earlier class matrix is alive"
        mine.append(weakref.ref(v))
        return factorize(v, params)

    factorize = spectral.factorize
    monkeypatch.setattr(spectral, "factorize", checked_factorize)
    clean, noise = [make_tone(500.0, 0.5)], [synth_white_noise(0.5, 8000, 0, 0.5)]
    kw = dict(speech_params=NmfParams(rank=2, max_iters=2),
              noise_params=NmfParams(rank=2, max_iters=2))
    if front_end == "dwpt":
        train_dwpt_model(clean, noise, 2, "db4", FrameSpec(32, 8), **kw)
    else:
        train_stft_model(clean, noise, FrameSpec(64, 16), **kw)
    assert sum(map(len, inputs.values())) == {"dwpt": 8, "stft": 2}[front_end]
