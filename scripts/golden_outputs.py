#!/usr/bin/env python3
"""Regenerate tests/golden_outputs.json, the stored enhanced outputs.

Both front ends are trained and run at acceptance criterion 9's geometry
(level 2, frame 64 and shift 16, ranks 3/4, 40 training and 30 encoding
sweeps, seed 11) on criterion 9's 0 dB sweep-in-white-noise mixture.
For each, the file stores the output rms and the SSNR against the clean
sweep, which tests/test_golden.py compares on every machine, to within
SUMMARY_TOLERANCE.  It also stores the sha256 of the PCM16 WAV that
`write_wav` makes of the output and of the float64 output samples, under
a fingerprint of the arithmetic that made them (OpenBLAS core and build,
and numpy version); the test compares those digests only under a stored
fingerprint.  Enhancement does the same arithmetic at every BLAS thread
count, so the count is not part of it.  The encoding runs in float32, so
another BLAS kernel moves a few PCM16 samples by one step: under
OpenBLAS's Haswell and Sandybridge kernels 2 to 46 of the 16,000 samples
moved, the rms by at most 3.4e-8 relative and the SSNR by at most 6.0e-8
dB.  Run from the repository root:

    PYTHONPATH=src python3 scripts/golden_outputs.py

A regenerated file replaces every stored digest, so it changes a check:
say which digests moved, and why, with the change that moved them.
"""

import ctypes
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from subband_nmf import (
    FrameSpec,
    MixSpec,
    NmfParams,
    enhance_dwpt,
    enhance_stft,
    mix_at_snr,
    ssnr,
    synth_sweep,
    synth_white_noise,
    train_dwpt_model,
    train_stft_model,
    write_wav,
)
from subband_nmf import nmf
from subband_nmf.framing import rms

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden_outputs.json"
RATE = 8000
SPEC = FrameSpec(64, 16)
TRAIN = dict(speech_params=NmfParams(3, 40, 11), noise_params=NmfParams(4, 40, 11))
ENCODE = NmfParams(rank=7, max_iters=30, seed=11)
# relative for the rms, in dB for the SSNR: about 16 times the spread
# measured between BLAS kernels
SUMMARY_TOLERANCE = 1e-6


def _openblas_strings() -> str:
    """OpenBLAS's core name and build string, from numpy's bundled library."""
    for lib in nmf._openblas_libs():
        core = getattr(lib, "scipy_openblas_get_corename64_", None)
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if core is not None and config is not None:
            core.restype = config.restype = ctypes.c_char_p
            return f"{core().decode()} | {config().decode()}"
    return "no bundled scipy-openblas found"


def fingerprint() -> str:
    """The key of the stored digests: what decides an output's last bits."""
    return f"{_openblas_strings()} | numpy {np.__version__}"


def outputs(front_end: str) -> dict:
    """One front end's digests and summaries."""
    clean = synth_sweep(2.0, RATE, 3)
    noise = synth_white_noise(2.0, RATE, 4, 0.5)
    noisy = mix_at_snr(clean, noise, MixSpec(0.0, 5))
    if front_end == "dwpt":
        model = train_dwpt_model([clean], [noise], 2, "db8", SPEC, **TRAIN)
        enhanced = enhance_dwpt(noisy, model, "db8", ENCODE)
    else:
        model = train_stft_model([clean], [noise], SPEC, **TRAIN)
        enhanced = enhance_stft(noisy, model, ENCODE)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.wav"
        write_wav(path, enhanced)
        pcm16 = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "pcm16_sha256": pcm16,
        "rms": rms(enhanced.samples),
        "ssnr_db": ssnr(clean, enhanced),
        "float64_sha256": hashlib.sha256(enhanced.samples.astype("<f8").tobytes()).hexdigest(),
    }


def summary_agrees(name: str, stored: float, got: float) -> bool:
    """Whether a new "rms" (relative) or "ssnr_db" (in dB) agrees with the stored one."""
    return abs(got - stored) <= SUMMARY_TOLERANCE * (abs(stored) if name == "rms" else 1.0)


def main() -> None:
    key = fingerprint()
    golden = {}
    for front_end in ("dwpt", "stft"):
        got = outputs(front_end)
        golden[front_end] = {
            "rms": got["rms"],
            "ssnr_db": got["ssnr_db"],
            "digests": {key: {name: got[name] for name in ("pcm16_sha256", "float64_sha256")}},
        }
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(json.dumps(golden, indent=2))


if __name__ == "__main__":
    main()
