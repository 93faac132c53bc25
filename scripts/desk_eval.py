#!/usr/bin/env python3
"""Desk-scale comparison of subband vs spectral NMF enhancement.

Trains both model kinds on a synthetic corpus (a frequency-swept tone
as the "speech" class, white + pink noise as the "noise" class), then
enhances seeded mixtures at several SNRs and prints median metrics for
the noisy input and both enhancers.

The defaults are acceptance criterion 7's protocol, which calls
`train_models` and `run_condition` and gates on their median SSNRs:
J=3 db8 subbands on 256/32 frames against a 256/80 STFT, 4 speech and
8 noise atoms trained for 200 sweeps on 30 s of audio, and ten 2 s
clips per SNR, each mixed with 2 s of noise and encoded for 50 sweeps.

Run from the repo root after installing the package:

    python3 scripts/desk_eval.py
    python3 scripts/desk_eval.py --snrs 0 5 10 15 --num-seeds 20
"""

import argparse
import statistics
import sys
import time

from subband_nmf import (
    FrameSpec,
    MixSpec,
    NmfParams,
    enhance_dwpt,
    enhance_stft,
    evaluate,
    mix_at_snr,
    synth_pink_noise,
    synth_sweep,
    synth_white_noise,
    train_dwpt_model,
    train_stft_model,
)

RATE = 8000
LEVEL = 3
FILTER = "db8"
SPEECH_RANK = 4
NOISE_RANK = 8
STFT_FRAMES = FrameSpec(256, 80)
DWPT_FRAMES = FrameSpec(256, 32)
# each half-length noise clip must give every level-LEVEL subband one frame
MIN_TRAIN_SECONDS = 2 * 2**LEVEL * DWPT_FRAMES.frame_size / RATE


def train_models(train_seconds=30.0, train_iters=200):
    """The (stft, dwpt) models of the sweep against half white, half pink noise."""
    clean = [synth_sweep(train_seconds, RATE, 1)]
    noise = [
        synth_white_noise(train_seconds / 2, RATE, 1, 0.5),
        synth_pink_noise(train_seconds / 2, RATE, 2, 0.5),
    ]
    speech = NmfParams(rank=SPEECH_RANK, max_iters=train_iters, seed=0)
    bg = NmfParams(rank=NOISE_RANK, max_iters=train_iters, seed=0)
    stft_model = train_stft_model(
        clean, noise, STFT_FRAMES, speech_params=speech, noise_params=bg
    )
    dwpt_model = train_dwpt_model(
        clean, noise, LEVEL, FILTER, DWPT_FRAMES, speech_params=speech, noise_params=bg
    )
    return stft_model, dwpt_model


def run_condition(stft_model, dwpt_model, snr_db, seeds, enhance_iters=50):
    """One MetricReport per seed for "noisy", "stft" and "dwpt" at snr_db.

    Seed s mixes a 2 s sweep with 2 s of white (even s) or pink (odd s)
    noise.
    """
    enc = NmfParams(rank=SPEECH_RANK + NOISE_RANK, max_iters=enhance_iters, seed=0)
    rows = {"noisy": [], "stft": [], "dwpt": []}
    for seed in seeds:
        clean = synth_sweep(2.0, RATE, 50 + seed)
        synth_noise = synth_white_noise if seed % 2 == 0 else synth_pink_noise
        noisy = mix_at_snr(clean, synth_noise(2.0, RATE, 100 + seed, 0.5), MixSpec(snr_db, seed))
        rows["noisy"].append(evaluate(clean, noisy))
        rows["stft"].append(evaluate(clean, enhance_stft(noisy, stft_model, enc)))
        rows["dwpt"].append(evaluate(clean, enhance_dwpt(noisy, dwpt_model, FILTER, enc)))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--snrs", type=float, nargs="+", default=[0.0, 5.0, 10.0])
    ap.add_argument("--num-seeds", type=int, default=10)
    ap.add_argument("--train-seconds", type=float, default=30.0)
    ap.add_argument("--train-iters", type=int, default=200)
    ap.add_argument("--enhance-iters", type=int, default=50)
    args = ap.parse_args(argv)
    for flag, count in (("--num-seeds", args.num_seeds), ("--train-iters", args.train_iters),
                        ("--enhance-iters", args.enhance_iters)):
        if count < 1:
            ap.error(f"{flag} must be at least 1, got {count}")
    if not MIN_TRAIN_SECONDS <= args.train_seconds < float("inf"):
        ap.error(f"--train-seconds must be finite and at least {MIN_TRAIN_SECONDS:g}, one "
                 f"{DWPT_FRAMES.frame_size}-sample frame per level-{LEVEL} subband in each "
                 f"half-length noise clip, got {args.train_seconds:g}")

    t0 = time.perf_counter()
    stft_model, dwpt_model = train_models(args.train_seconds, args.train_iters)
    print(f"trained both models in {time.perf_counter() - t0:.2f}s")

    header = f"{'snr_db':>7} {'system':>7} {'med ssnr':>9} {'med mse':>10} {'med sdi':>8}"
    print()
    print(header)
    print("-" * len(header))
    t0 = time.perf_counter()
    for snr in args.snrs:
        rows = run_condition(stft_model, dwpt_model, snr, range(args.num_seeds),
                             args.enhance_iters)
        for name, reports in rows.items():
            med_ssnr = statistics.median(r.ssnr_db for r in reports)
            med_mse = statistics.median(r.mse for r in reports)
            med_sdi = statistics.median(r.sdi for r in reports)
            print(f"{snr:7.1f} {name:>7} {med_ssnr:9.2f} {med_mse:10.3e} {med_sdi:8.3f}")
        print()
    print(f"evaluated {len(args.snrs) * args.num_seeds * 2} enhancements "
          f"in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
