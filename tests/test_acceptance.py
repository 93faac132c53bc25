"""Release gate: the ten behaviors the toolkit must deliver, at full scale.

Each criterion records one PASS/FAIL line with its headline number; the
lines are echoed in the terminal summary (see conftest) and visible
directly with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from subband_nmf import (
    FILTER_NAMES,
    FrameSpec,
    MixSpec,
    NmfParams,
    Signal,
    dwpt,
    enhance_dwpt,
    enhance_stft,
    enhance_subbands,
    encode,
    factorize,
    get_filters,
    idwpt,
    mix_at_snr,
    read_wav,
    ssnr,
    synth_pink_noise,
    synth_sweep,
    synth_white_noise,
    train_dwpt_model,
    train_stft_model,
    wiener_gain,
    write_wav,
)
from subband_nmf.cli import main as cli_main
from subband_nmf.defaults import EPSILON
from subband_nmf.framing import frame_count, frame_signal, overlap_add, rms

from conftest import make_signal, planted_instance, unit_gain_model

REPORT_LINES = []

RATE = 8000


def report(num, ok, detail):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, line


# -- 1: perfect reconstruction ------------------------------------------------

def test_c01_perfect_reconstruction():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for _ in range(50):
        n = int(rng.integers(100, 10001))
        x = Signal(rng.uniform(-1, 1, n), RATE)
        for name in FILTER_NAMES:
            filters = get_filters(name)
            for level in (1, 2, 3, 4):
                y = idwpt(dwpt(x, level, filters), filters, len(x))
                worst = max(worst, float(np.max(np.abs(y - x.samples))))
                count += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, ok, f"max |idwpt(dwpt(f)) - f| = {worst:.2e} over {count} "
                  f"transforms (J=1..4, {len(FILTER_NAMES)} families) in {elapsed:.1f}s")


# -- 2: multiplicative updates never increase the objective -------------------

def test_c02_nmf_monotonicity():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = -np.inf
    for k in range(100):
        m = int(rng.integers(4, 33))
        n = int(rng.integers(4, 65))
        rank = int(rng.integers(1, 9))
        v = rng.uniform(0, 1, (m, n))
        res = factorize(v, NmfParams(rank=rank, max_iters=60, seed=k))
        steps = np.diff(np.asarray(res.objective_trace))
        worst = max(worst, float(steps.max(initial=-np.inf)))
        trace = []
        encode(v, res.w, NmfParams(rank=rank, max_iters=60, seed=k + 1),
               objective_trace=trace)
        steps = np.diff(np.asarray(trace))
        worst = max(worst, float(steps.max(initial=-np.inf)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(2, ok, f"largest objective increase {worst:.2e} over 100 matrices "
                  f"x (factorize + encode) in {elapsed:.1f}s")


# -- 3: planted factorizations are recovered ----------------------------------

def test_c03_planted_recovery():
    t0 = time.perf_counter()
    fact_hits = 0
    worst_fact = 0.0
    for seed in range(100):
        _, _, v = planted_instance(16, 48, 4, 1000 + seed)
        res = factorize(v, NmfParams(rank=4, max_iters=500, seed=seed))
        rel = res.objective_trace[-1] / float(np.sum(v * v))
        worst_fact = max(worst_fact, rel)
        fact_hits += rel <= 1e-6

    enc_hits = 0
    worst_enc = 0.0
    for seed in range(100):
        w0, h0, v = planted_instance(16, 48, 4, 2000 + seed)
        trace = []
        encode(v, w0, NmfParams(rank=4, max_iters=500, seed=seed),
               objective_trace=trace)
        rel = trace[-1] / float(np.sum(v * v))
        worst_enc = max(worst_enc, rel)
        enc_hits += rel <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = fact_hits >= 95 and enc_hits == 100
    report(3, ok, f"factorize {fact_hits}/100 (worst rel {worst_fact:.1e}), "
                  f"encode {enc_hits}/100 (worst rel {worst_enc:.1e}) in {elapsed:.1f}s")


# -- 4: gain contracts ---------------------------------------------------------

def test_c04_gain_contracts():
    direct = wiener_gain(np.array([[1.0]]), np.array([[3.0]]))[0, 0]
    rooted = float(np.sqrt(wiener_gain(np.array([[1.0]]), np.array([[3.0]])))[0, 0])
    rng = np.random.default_rng(3)
    in_bounds = True
    for _ in range(50):
        s = rng.uniform(0, 10, (8, 16))
        n = rng.uniform(0, 10, (8, 16))
        g = wiener_gain(s, n)
        gr = np.sqrt(g)
        in_bounds &= bool(np.all(g >= 0) and np.all(g <= 1)
                          and np.all(gr >= 0) and np.all(gr <= 1))
    ok = direct == 0.25 and rooted == 0.5 and in_bounds
    report(4, ok, f"speech=1,noise=3 -> direct {direct} (want 0.25), "
                  f"sqrt {rooted} (want 0.5); bounds hold on 50 random batches")


# -- shared desk-scale fixtures ------------------------------------------------

def _small_dwpt_model():
    return train_dwpt_model(
        [synth_sweep(8.0, RATE, 1)],
        [synth_white_noise(4.0, RATE, 1, 0.5), synth_pink_noise(4.0, RATE, 2, 0.5)],
        3,
        get_filters("db8"),
        FrameSpec(256, 32),
        speech_params=NmfParams(rank=4, max_iters=100, seed=0),
        noise_params=NmfParams(rank=8, max_iters=100, seed=0),
    )


# -- 5: power normalization restores the clean training rms --------------------

def test_c05_power_normalization():
    model = _small_dwpt_model()
    filters = get_filters("db8")
    params = NmfParams(rank=12, max_iters=50, seed=0)
    noisy = mix_at_snr(synth_sweep(2.0, RATE, 50),
                       synth_white_noise(2.0, RATE, 100, 0.5), MixSpec(0.0, 0))
    s = dwpt(noisy, model.level, filters)
    raw = enhance_subbands(s, model, params, normalize=False)
    normed = enhance_subbands(s, model, params, normalize=True)
    worst = 0.0
    checked = 0
    for b, bm in enumerate(model.per_band):
        sigma_hat = rms(raw[b])
        if sigma_hat <= EPSILON or bm.sigma_clean == 0.0:
            continue
        got = rms(normed[b])
        worst = max(worst, abs(got - bm.sigma_clean) / bm.sigma_clean)
        checked += 1
    ok = checked > 0 and worst < 1e-9
    report(5, ok, f"band rms vs sigma: worst rel err {worst:.2e} over {checked} bands")


# -- 6: identity path ----------------------------------------------------------

def test_c06_identity_path():
    # the gain path runs in full; the model's band gains are exactly 1.0
    model = unit_gain_model(3, FrameSpec(256, 32))
    x = make_signal(9000, seed=6)
    out = enhance_dwpt(x, model, get_filters("db8"), normalize=False)
    err = float(np.max(np.abs(out.samples - x.samples)))
    ok = err <= 1e-10
    report(6, ok, f"unit gains + normalization off: max |out - in| = {err:.2e}")


# -- 7: desk-scale enhancement ordering ----------------------------------------

def test_c07_desk_scale_ordering():
    t0 = time.perf_counter()
    clean_train = [synth_sweep(30.0, RATE, 1)]
    noise_train = [synth_white_noise(15.0, RATE, 1, 0.5),
                   synth_pink_noise(15.0, RATE, 2, 0.5)]
    stft_model = train_stft_model(
        clean_train, noise_train, FrameSpec(256, 80),
        speech_params=NmfParams(rank=4, max_iters=200, seed=0),
        noise_params=NmfParams(rank=8, max_iters=200, seed=0),
    )
    dwpt_model = train_dwpt_model(
        clean_train, noise_train, 3, get_filters("db8"), FrameSpec(256, 32),
        speech_params=NmfParams(rank=4, max_iters=200, seed=0),
        noise_params=NmfParams(rank=8, max_iters=200, seed=0),
    )
    enc = NmfParams(rank=12, max_iters=50, seed=0)
    filters = get_filters("db8")

    ok = True
    details = []
    for snr in (0.0, 5.0, 10.0):
        rows = []
        for seed in range(10):
            clean = synth_sweep(2.0, RATE, 50 + seed)
            noise = (synth_white_noise(2.0, RATE, 100 + seed, 0.5) if seed % 2 == 0
                     else synth_pink_noise(2.0, RATE, 100 + seed, 0.5))
            noisy = mix_at_snr(clean, noise, MixSpec(snr, seed))
            rows.append((
                ssnr(clean, noisy),
                ssnr(clean, enhance_dwpt(noisy, dwpt_model, filters, enc)),
                ssnr(clean, enhance_stft(noisy, stft_model, enc)),
            ))
        med_noisy, med_dwpt, med_stft = np.median(np.asarray(rows), axis=0)
        ok &= bool(med_dwpt > med_noisy and med_dwpt >= med_stft)
        details.append(f"{snr:.0f}dB[n {med_noisy:.2f} d {med_dwpt:.2f} s {med_stft:.2f}]")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(7, ok, "median SSNR " + " ".join(details) +
                  f" (need dwpt > noisy and dwpt >= stft) in {elapsed:.0f}s")


# -- 8: mixing hits the requested SNR exactly ----------------------------------

def test_c08_mix_snr_accuracy():
    worst = 0.0
    for snr in range(-5, 21):
        clean = make_signal(6000, seed=snr + 50)
        noise = make_signal(2000, seed=snr + 150)
        mixed = mix_at_snr(clean, noise, MixSpec(float(snr), seed=snr + 100))
        resid = mixed.samples - clean.samples
        got = 10.0 * np.log10(np.mean(clean.samples**2) / np.mean(resid**2))
        worst = max(worst, abs(got - snr))
    ok = worst < 1e-9
    report(8, ok, f"max |measured - requested| = {worst:.2e} dB across -5..20 dB")


# -- 9: byte-identical reruns ---------------------------------------------------

def test_c09_determinism(tmp_path):
    write_wav(tmp_path / "clean.wav", synth_sweep(2.0, RATE, 3))
    write_wav(tmp_path / "noise.wav", synth_white_noise(2.0, RATE, 4, 0.5))
    noisy = mix_at_snr(read_wav(tmp_path / "clean.wav")[0],
                       read_wav(tmp_path / "noise.wav")[0], MixSpec(0.0, 5))
    write_wav(tmp_path / "noisy.wav", noisy)

    blobs = []
    for tag in ("one", "two"):
        model = tmp_path / f"{tag}.snm"
        out = tmp_path / f"{tag}.wav"
        assert cli_main([
            "train", "--method", "dwpt-nmf",
            "--clean", str(tmp_path / "clean.wav"),
            "--noise", str(tmp_path / "noise.wav"),
            "--out", str(model),
            "--level", "2", "--frame-size", "64", "--frame-shift", "16",
            "--speech-rank", "3", "--noise-rank", "4",
            "--iters-train", "40", "--seed", "11",
        ]) == 0
        assert cli_main([
            "enhance", "--model", str(model), "--in", str(tmp_path / "noisy.wav"),
            "--out", str(out), "--iters-encode", "30", "--seed", "11",
        ]) == 0
        blobs.append((model.read_bytes(), out.read_bytes()))
    ok = blobs[0] == blobs[1]
    report(9, ok, f"two seeded train+enhance runs: model and WAV bytes "
                  f"{'identical' if ok else 'DIFFER'} "
                  f"({len(blobs[0][0])}B model, {len(blobs[0][1])}B audio)")


# -- 10: framing / overlap-add identity -----------------------------------------

def test_c10_framing_identity():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 512))
        shift = int(rng.integers(1, size + 1))
        n = size + int(rng.integers(0, 2000))
        x = rng.uniform(-1, 1, n)
        spec = FrameSpec(size, shift)
        out = overlap_add(frame_signal(x, spec), spec, n)
        covered = (frame_count(n, spec) - 1) * shift + size
        worst = max(worst, float(np.max(np.abs(out[:covered] - x[:covered]))))
    ok = worst < 1e-12
    report(10, ok, f"max covered-sample error {worst:.2e} over 100 configurations")
