"""Enhancement and dwpt training at one BLAS thread, spread over the threads BLAS had.

`enhance_dwpt`, `enhance_stft` and `train_dwpt_model` hold BLAS at one
thread for the whole call and run the subbands (dwpt) or column blocks
of the encoding sweeps (stft) side by side, on as many threads as BLAS
had on entry.  `train_stft_model` keeps BLAS's threads.  These tests set
that count through the OpenBLAS setter the library finds, and restore
it afterwards.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

from subband_nmf import (
    FrameSpec,
    MixSpec,
    NmfParams,
    dwpt,
    enhance_dwpt,
    enhance_stft,
    enhance_subbands,
    idwpt,
    load_model,
    mix_at_snr,
    save_model,
    synth_sweep,
    synth_white_noise,
    train_dwpt_model,
    train_stft_model,
)
from subband_nmf import cli, nmf, spectral, subband
from subband_nmf.defaults import EPSILON
from subband_nmf.framing import frame_signal, rms, square_elementwise

API = nmf._blas_threads_api()
PARAMS = NmfParams(rank=1, max_iters=20, seed=0)
TRAIN = dict(speech_params=NmfParams(4, 15, 0), noise_params=NmfParams(6, 15, 0))
# frame and ranks whose products round differently at 1, 2 and 3 BLAS
# threads when BLAS keeps its threads
TRAIN_SPEC = FrameSpec(128, 16)
TRAIN_WIDE = dict(speech_params=NmfParams(12, 2, 0), noise_params=NmfParams(40, 2, 0))


@pytest.fixture
def blas_threads():
    """Set the BLAS thread count for a test; the count before it is restored after."""
    if API is None:
        pytest.skip("no OpenBLAS thread-count setter found in numpy's bundled libraries")
    get, set_ = API
    before = get()
    yield set_
    set_(before)


@pytest.fixture(scope="module")
def corpus():
    clean = synth_sweep(4.0, 8000, seed=1)
    noise = synth_white_noise(4.0, 8000, seed=2)
    noisy = mix_at_snr(synth_sweep(2.5, 8000, seed=3), noise, MixSpec(5.0, 1))
    return clean, noise, noisy


@pytest.fixture(scope="module")
def dwpt_model(corpus, tmp_path_factory):
    # read back from the file it was saved to, as `enhance` reads a model
    clean, noise, _ = corpus
    path = tmp_path_factory.mktemp("threads") / "dwpt.snm"
    save_model(train_dwpt_model([clean], [noise], 3, "db8", FrameSpec(64, 16), **TRAIN), path)
    return load_model(path)


@pytest.fixture(scope="module")
def stft_model(corpus):
    # ranks whose column-block products round differently from the whole
    # product; at ranks 4 and 6 the blocks gave the same bytes
    clean, noise, _ = corpus
    return train_stft_model([clean], [noise], FrameSpec(128, 32),
                            speech_params=NmfParams(16, 15, 0), noise_params=NmfParams(48, 15, 0))


def digest(signal):
    return hashlib.sha256(signal.samples.tobytes()).hexdigest()


def serial_dwpt(noisy, model):
    """`enhance_dwpt` written as the loop over bands it runs at one thread."""
    bands = dwpt(noisy, model.level, model.filter_name)
    out = np.empty_like(bands)
    for band, bm, shat in zip(bands, model.per_band, out):
        shat[:] = band * subband.subband_gain(band, bm.w_speech, bm.w_noise,
                                              model.frame_spec, PARAMS)
        shat *= min(bm.sigma_clean, rms(band)) / max(rms(shat), EPSILON)
    return idwpt(out, model.filter_name, len(noisy))


def record_band_threads(monkeypatch):
    """Wrap `subband_gain` to log (thread name, BLAS count, band peak) per call."""
    seen, gain = [], subband.subband_gain

    def logged(s_b, *args, **kwargs):
        blas = API[0]() if API else None
        seen.append((threading.current_thread().name, blas, np.max(np.abs(s_b))))
        return gain(s_b, *args, **kwargs)

    monkeypatch.setattr(subband, "subband_gain", logged)
    return seen


def train_dwpt(corpus):
    clean, noise, _ = corpus
    return train_dwpt_model([clean], [noise], 3, "db8", TRAIN_SPEC, **TRAIN_WIDE)


def model_bytes(model, path):
    save_model(model, path)
    return path.read_bytes()


def serial_dwpt_training(corpus):
    """`train_dwpt_model` written as the loop over bands it runs at one thread.

    Each squared band is cast to float32 before it is framed, as the
    trainer does.
    """
    clean, noise, _ = corpus
    clean_sets, noise_sets = [dwpt(clean, 3, "db8")], [dwpt(noise, 3, "db8")]
    bands = []
    for b in range(8):
        w_speech, w_noise = spectral._train_pair(
            clean_sets, noise_sets,
            lambda s: frame_signal(square_elementwise(s[b]).astype(np.float32), TRAIN_SPEC),
            TRAIN_WIDE["speech_params"], TRAIN_WIDE["noise_params"],
        )
        bands.append(subband.BandModel(w_speech, w_noise, rms(clean_sets[0][b])))
    return subband.SubbandBasisModel(3, "db8", TRAIN_SPEC, bands, clean.sample_rate)


def record_factorize_threads(monkeypatch, scale_in_helpers=1.0):
    """Wrap training's `factorize` to log (thread name, BLAS count) per call.

    A scale other than 1 multiplies every matrix factorized outside the
    calling thread by it.
    """
    seen, factorize, caller = [], spectral.factorize, threading.current_thread()

    def logged(v, params):
        seen.append((threading.current_thread().name, API[0]() if API else None))
        if threading.current_thread() is not caller:
            v = v * scale_in_helpers
        return factorize(v, params)

    monkeypatch.setattr(spectral, "factorize", logged)
    return seen


def test_dwpt_bytes_do_not_depend_on_the_thread_count(blas_threads, dwpt_model, corpus,
                                                      monkeypatch):
    noisy = corpus[2]
    seen = record_band_threads(monkeypatch)
    digests = {}
    for count in (1, 2, 3):
        blas_threads(count)
        digests[count] = digest(enhance_dwpt(noisy, dwpt_model, "db8", PARAMS))
        assert API[0]() == count
    assert len(set(digests.values())) == 1, digests
    # each band ran at one BLAS thread, and at 3 threads the 8 bands were
    # split 3, 3, 2 over three threads, the caller among them
    assert {blas for _, blas, _ in seen} == {1}
    at_three = [name for name, _, _ in seen[16:]]
    assert len(at_three) == 8
    assert sorted(at_three.count(i) for i in set(at_three)) == [2, 3, 3]
    assert threading.current_thread().name in at_three


def test_dwpt_at_one_thread_is_the_serial_band_loop(blas_threads, dwpt_model, corpus):
    noisy = corpus[2]
    blas_threads(1)
    serial = serial_dwpt(noisy, dwpt_model)
    blas_threads(2)
    np.testing.assert_array_equal(enhance_dwpt(noisy, dwpt_model, "db8", PARAMS).samples, serial)


def test_stft_repeats_bit_for_bit_and_stays_near_one_thread(blas_threads, stft_model, corpus):
    noisy = corpus[2]
    blas_threads(1)
    one = enhance_stft(noisy, stft_model, PARAMS).samples
    blas_threads(2)
    two = [enhance_stft(noisy, stft_model, PARAMS).samples for _ in range(2)]
    np.testing.assert_array_equal(two[0], two[1])
    # two column blocks of the float32 encoding gave equal bytes (OpenBLAS
    # 0.3.31, SkylakeX, 2 cores), and moved a float64 encoding by 2.5e-16 of
    # the peak; a block left unswept would move it by far more
    assert np.max(np.abs(two[0] - one)) <= 1e-13 * np.max(np.abs(one))
    assert API[0]() == 2


def test_encode_outside_a_call_keeps_one_block(blas_threads, rng):
    # a direct encode is not an enhancement call: it sweeps H whole at the
    # caller's BLAS count, as it always did
    blas_threads(2)
    v, w = rng.uniform(size=(16, 40)), rng.uniform(size=(16, 5))
    trace = []
    h = nmf.encode(v, w, PARAMS, trace)
    np.testing.assert_array_equal(nmf.encode(v, w, PARAMS), h)
    assert len(trace) == PARAMS.max_iters and API[0]() == 2


def test_overflow_in_a_helper_thread_raises_the_level_error(blas_threads, dwpt_model, corpus,
                                                           monkeypatch):
    blas_threads(2)
    bands = dwpt(corpus[2], dwpt_model.level, "db8")
    bands[1] *= 1e160  # band 1 is the helper thread's first band at two threads
    seen = record_band_threads(monkeypatch)
    with pytest.raises(ValueError, match="^input level too high"):
        enhance_subbands(bands, dwpt_model, PARAMS)
    loud = [name for name, _, peak in seen if peak > 1e100]
    assert loud and loud[0] != threading.current_thread().name
    assert API[0]() == 2


def test_callers_at_once_restore_the_count(blas_threads, dwpt_model, corpus):
    # more callers than cores, switching often, share the one saved count;
    # a lost update of the shared depth would leave BLAS at one thread
    noisy = corpus[2]
    blas_threads(2)
    expected = digest(enhance_dwpt(noisy, dwpt_model, "db8", PARAMS))
    results, start = [], threading.Barrier(4)

    def call():
        start.wait()
        for _ in range(3):
            results.append(digest(enhance_dwpt(noisy, dwpt_model, "db8", PARAMS)))

    callers = [threading.Thread(target=call) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [expected] * 12
    assert API[0]() == 2


def test_no_thread_outlives_a_call(blas_threads, dwpt_model, stft_model, corpus):
    blas_threads(3)
    before = threading.active_count()
    enhance_dwpt(corpus[2], dwpt_model, "db8", PARAMS)
    enhance_stft(corpus[2], stft_model, PARAMS)
    train_dwpt(corpus)
    assert threading.active_count() == before


def test_without_a_setter_nothing_is_set_and_the_bands_run_serially(blas_threads, dwpt_model,
                                                                     corpus, monkeypatch):
    noisy = corpus[2]
    blas_threads(2)
    serial = serial_dwpt(noisy, dwpt_model)
    seen = record_band_threads(monkeypatch)
    monkeypatch.setattr(nmf, "_blas_threads_api", lambda: None)
    out = enhance_dwpt(noisy, dwpt_model, "db8", PARAMS)
    np.testing.assert_array_equal(out.samples, serial)
    # BLAS kept its two threads, and every band ran in the calling thread
    assert {(name, blas) for name, blas, _ in seen} == {(threading.current_thread().name, 2)}


def test_tiles_reraise_the_first_error_after_joining():
    def fail_odd(i):
        if i % 2:
            raise KeyError(i)

    def overflow_in_a_helper(i):
        if threading.current_thread() is not threading.main_thread():
            np.float64(1e308) * 10.0

    nmf._local.threads = 3
    try:
        before = threading.active_count()
        with pytest.raises(KeyError):
            nmf._run_tiles(fail_odd, 5)
        # numpy's errstate is a context variable: helpers run in the caller's
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            nmf._run_tiles(overflow_in_a_helper, 3)
        assert threading.active_count() == before
        assert nmf._threads() == 3
    finally:
        del nmf._local.threads


def test_dwpt_training_bytes_do_not_depend_on_the_thread_count(blas_threads, corpus,
                                                               tmp_path, monkeypatch):
    seen = record_factorize_threads(monkeypatch)
    saved = {}
    for count in (1, 2, 3):
        blas_threads(count)
        saved[count] = model_bytes(train_dwpt(corpus), tmp_path / f"{count}.snm")
        assert API[0]() == count
    assert saved[1] == saved[2] == saved[3]
    # every band's two factorizations ran at one BLAS thread, and at 3
    # threads the 8 bands were split 3, 3, 2 over three threads, the caller
    # among them
    assert len(seen) == 48 and {blas for _, blas in seen} == {1}
    at_three = [name for name, _ in seen[32:]]
    assert sorted(at_three.count(name) for name in set(at_three)) == [4, 6, 6]
    assert threading.current_thread().name in at_three


def test_dwpt_training_at_two_threads_is_the_serial_band_loop(blas_threads, corpus, tmp_path):
    blas_threads(1)
    serial = model_bytes(serial_dwpt_training(corpus), tmp_path / "serial.snm")
    blas_threads(2)
    assert model_bytes(train_dwpt(corpus), tmp_path / "tiles.snm") == serial
    assert API[0]() == 2


def test_overflow_in_a_helper_band_raises_the_level_error(blas_threads, corpus, monkeypatch):
    blas_threads(2)
    seen = record_factorize_threads(monkeypatch, scale_in_helpers=1e160)
    before = threading.active_count()
    with pytest.raises(ValueError, match="^input level too high"):
        train_dwpt(corpus)
    assert any(name != threading.current_thread().name for name, _ in seen)
    assert threading.active_count() == before
    assert API[0]() == 2


def test_without_a_setter_the_bands_train_serially(blas_threads, corpus, tmp_path,
                                                   monkeypatch):
    blas_threads(2)
    serial = model_bytes(serial_dwpt_training(corpus), tmp_path / "serial.snm")
    seen = record_factorize_threads(monkeypatch)
    monkeypatch.setattr(nmf, "_blas_threads_api", lambda: None)
    assert model_bytes(train_dwpt(corpus), tmp_path / "unset.snm") == serial
    # BLAS kept its two threads, and every band trained in the calling thread
    assert len(seen) == 16
    assert set(seen) == {(threading.current_thread().name, 2)}


@pytest.mark.parametrize("environ, expected", [
    ({}, [1]),
    ({"OPENBLAS_NUM_THREADS": "2"}, []),
    ({"OMP_NUM_THREADS": "2"}, []),
    ({"MKL_NUM_THREADS": "2"}, []),
])
def test_jobs_workers_share_the_cores(monkeypatch, environ, expected):
    for name in cli._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in environ.items():
        monkeypatch.setenv(name, value)
    calls = []
    monkeypatch.setattr(cli, "_enhancer", None)
    monkeypatch.setattr(cli, "_blas_threads_api", lambda: (lambda: 2, calls.append))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    cli._start_worker(len, 2)
    assert calls == expected and cli._enhancer is len
    monkeypatch.setattr(cli, "_blas_threads_api", lambda: None)
    cli._start_worker(abs, 2)
    assert calls == expected and cli._enhancer is abs
