#!/usr/bin/env python3
"""Desk-scale comparison of subband vs spectral NMF enhancement.

Trains both model kinds on a synthetic corpus (a frequency-swept tone
as the "speech" class, white + pink noise as the "noise" class), then
enhances seeded mixtures at several SNRs and prints median metrics for
the noisy input and both enhancers.

Run from the repo root after installing the package:

    python3 scripts/desk_eval.py
    python3 scripts/desk_eval.py --snrs 0 5 10 15 --num-seeds 20
"""

import argparse
import statistics
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


def train_models(args):
    clean = [synth_sweep(args.train_seconds, RATE, 1)]
    noise = [
        synth_white_noise(args.train_seconds / 2, RATE, 1, 0.5),
        synth_pink_noise(args.train_seconds / 2, RATE, 2, 0.5),
    ]
    speech = NmfParams(rank=args.speech_rank, max_iters=args.train_iters, seed=0)
    bg = NmfParams(rank=args.noise_rank, max_iters=args.train_iters, seed=0)

    t0 = time.perf_counter()
    stft_model = train_stft_model(
        clean, noise, FrameSpec(256, 80), speech_params=speech, noise_params=bg
    )
    t1 = time.perf_counter()
    dwpt_model = train_dwpt_model(
        clean, noise, args.level, args.filters, FrameSpec(256, 32),
        speech_params=speech, noise_params=bg,
    )
    t2 = time.perf_counter()
    print(f"trained stft model in {t1 - t0:.2f}s, dwpt model in {t2 - t1:.2f}s")
    return stft_model, dwpt_model


def run_condition(stft_model, dwpt_model, snr_db, seeds, enc):
    rows = {"noisy": [], "stft": [], "dwpt": []}
    for seed in seeds:
        clean = synth_sweep(2.0, RATE, 50 + seed)
        if seed % 2 == 0:
            noise = synth_white_noise(3.0, RATE, 100 + seed, 0.5)
        else:
            noise = synth_pink_noise(3.0, RATE, 100 + seed, 0.5)
        noisy = mix_at_snr(clean, noise, MixSpec(snr_db=snr_db, seed=seed))
        outputs = {
            "noisy": noisy,
            "stft": enhance_stft(noisy, stft_model, params=enc),
            "dwpt": enhance_dwpt(noisy, dwpt_model, dwpt_model.filter_name, params=enc),
        }
        for name, sig in outputs.items():
            rows[name].append(evaluate(clean, sig))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--snrs", type=float, nargs="+", default=[0.0, 5.0, 10.0])
    ap.add_argument("--num-seeds", type=int, default=10)
    ap.add_argument("--level", type=int, default=3)
    ap.add_argument("--filters", default="db8")
    ap.add_argument("--speech-rank", type=int, default=4)
    ap.add_argument("--noise-rank", type=int, default=8)
    ap.add_argument("--train-seconds", type=float, default=30.0)
    ap.add_argument("--train-iters", type=int, default=200)
    ap.add_argument("--enhance-iters", type=int, default=50)
    args = ap.parse_args()

    stft_model, dwpt_model = train_models(args)
    enc = NmfParams(rank=args.speech_rank + args.noise_rank,
                    max_iters=args.enhance_iters, seed=0)
    seeds = range(args.num_seeds)

    header = f"{'snr_db':>7} {'system':>7} {'med ssnr':>9} {'med mse':>10} {'med sdi':>8}"
    print()
    print(header)
    print("-" * len(header))
    t0 = time.perf_counter()
    for snr in args.snrs:
        rows = run_condition(stft_model, dwpt_model, snr, seeds, enc)
        for name in ("noisy", "stft", "dwpt"):
            reports = rows[name]
            med_ssnr = statistics.median(r.ssnr_db for r in reports)
            med_mse = statistics.median(r.mse for r in reports)
            med_sdi = statistics.median(r.sdi for r in reports)
            print(f"{snr:7.1f} {name:>7} {med_ssnr:9.2f} {med_mse:10.3e} {med_sdi:8.3f}")
        print()
    print(f"evaluated {len(args.snrs) * args.num_seeds * 2} enhancements "
          f"in {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
