"""Objective quality metrics: MSE, segmental SNR, distortion index."""

from dataclasses import asdict, dataclass

import numpy as np

from .framing import Signal

__all__ = ["MetricReport", "evaluate", "mse", "sdi", "ssnr"]

SSNR_SEG_MS = 32.0
SSNR_CLAMP_DB = (-10.0, 35.0)

# Reference segments at or below this fraction of the reference's largest
# segment energy are treated as silence and excluded from the segmental
# average.  Relative, so scaling both signals by a power of two leaves the
# score unchanged.
_SILENCE_FRACTION = 1e-10


def _paired(reference: Signal, test: Signal):
    if reference.sample_rate != test.sample_rate:
        raise ValueError("sample rates differ")
    if len(reference.samples) != len(test.samples):
        raise ValueError(
            f"length mismatch: {len(reference.samples)} vs {len(test.samples)}"
        )
    return reference.samples, test.samples


def mse(reference: Signal, test: Signal) -> float:
    """Mean squared sample difference."""
    ref, tst = _paired(reference, test)
    d = ref - tst
    return float(np.mean(d * d))


def ssnr(reference: Signal, test: Signal) -> float:
    """Segmental SNR in dB.

    The signals are cut into consecutive full segments of SSNR_SEG_MS;
    segments whose reference energy is at most 1e-10 of the largest
    reference segment's are skipped as silence,
    the rest contribute 10*log10(sum(ref^2)/sum((ref-test)^2)) clamped
    into SSNR_CLAMP_DB, and the mean over segments is returned.
    """
    ref, tst = _paired(reference, test)
    seg_len = int(round(reference.sample_rate * SSNR_SEG_MS / 1000.0))
    if seg_len < 1:
        raise ValueError("segment length must be at least one sample")
    n = len(ref) // seg_len * seg_len
    if n == 0:
        raise ValueError(
            f"no non-silent segments to evaluate: {len(ref)} samples are shorter than "
            f"one {SSNR_SEG_MS:g} ms segment of {seg_len} samples"
        )
    r, t = ref[:n].reshape(-1, seg_len), tst[:n].reshape(-1, seg_len)
    e_ref = np.sum(r * r, axis=1)
    e_err = np.sum((r - t) ** 2, axis=1)
    active = e_ref > _SILENCE_FRACTION * e_ref.max()
    if not active.any():
        raise ValueError("no non-silent segments to evaluate")
    # an exact segment divides by zero and clamps to the upper bound
    with np.errstate(divide="ignore", over="ignore"):
        seg_snr = 10.0 * np.log10(e_ref[active] / e_err[active])
    return float(np.mean(np.clip(seg_snr, *SSNR_CLAMP_DB)))


def sdi(reference: Signal, test: Signal) -> float:
    """Global residual-energy ratio sum((ref-test)^2)/sum(ref^2).

    This is an artifact convention for a distortion index: 0 for an
    exact match, 1 when the test signal is silence.
    """
    ref, tst = _paired(reference, test)
    e_ref = float(np.sum(ref * ref))
    if e_ref <= 0.0:
        raise ValueError("zero-energy reference")
    return float(np.sum((ref - tst) ** 2) / e_ref)


@dataclass
class MetricReport:
    mse: float
    ssnr_db: float
    sdi: float

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate(reference: Signal, test: Signal) -> MetricReport:
    """All three metrics at once; the signals must have the same length."""
    return MetricReport(
        mse=mse(reference, test), ssnr_db=ssnr(reference, test), sdi=sdi(reference, test)
    )
