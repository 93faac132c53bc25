import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subband_nmf import Signal, evaluate, mse, sdi, ssnr, synth_tone
from subband_nmf.metrics import SSNR_CLAMP_DB, SSNR_SEG_MS

from conftest import make_signal

SEG = 256  # samples per 32 ms segment at 8 kHz


def test_mse_cases():
    x = make_signal(500, seed=1)
    assert mse(x, x) == 0.0
    zeros = Signal(np.zeros(100), 8000)
    const = Signal(np.full(100, 0.3), 8000)
    assert mse(zeros, const) == pytest.approx(0.09, rel=1e-12)


def test_mse_direct_summation_oracle():
    a = make_signal(777, seed=2)
    b = make_signal(777, seed=3)
    direct = sum((float(x) - float(y)) ** 2 for x, y in zip(a.samples, b.samples)) / 777
    assert mse(a, b) == pytest.approx(direct, abs=1e-12)


def test_paired_validation():
    a = make_signal(100)
    with pytest.raises(ValueError, match="length"):
        mse(a, make_signal(101))
    with pytest.raises(ValueError, match="rates"):
        mse(a, make_signal(100, rate=16000))


def test_ssnr_identity_clamps_at_ceiling():
    x = make_signal(4 * SEG, seed=4)
    assert ssnr(x, x) == 35.0


def test_ssnr_exact_ten_db():
    # per-segment SNR pinned analytically: noise = ref / sqrt(10) per segment
    ref = make_signal(8 * SEG, seed=5)
    test = Signal(ref.samples * (1.0 + 10.0 ** (-0.5)), 8000)
    assert ssnr(ref, test) == pytest.approx(10.0, abs=0.01)


def test_ssnr_lower_clamp():
    # one clean segment (35) plus one at -40 dB SNR (clamped to -10)
    r = np.random.default_rng(6)
    seg_a = r.uniform(0.4, 1.0, SEG)
    seg_b = r.uniform(0.4, 1.0, SEG)
    ref = Signal(np.concatenate([seg_a, seg_b]), 8000)
    noise_b = seg_b * 10.0 ** (40.0 / 20.0)
    test = Signal(np.concatenate([seg_a, seg_b + noise_b]), 8000)
    assert ssnr(ref, test) == pytest.approx((35.0 - 10.0) / 2.0, abs=1e-9)


def test_ssnr_skips_silent_segments():
    r = np.random.default_rng(7)
    loud = r.uniform(0.4, 1.0, SEG)
    ref = Signal(np.concatenate([np.zeros(SEG), loud]), 8000)
    test = Signal(np.concatenate([r.uniform(-1, 1, SEG), loud]), 8000)
    # the corrupted first segment is silent in the reference: ignored
    assert ssnr(ref, test) == 35.0


def test_ssnr_ignores_partial_tail():
    ref = make_signal(2 * SEG, seed=8)
    test = Signal(ref.samples.copy(), 8000)
    longer_ref = Signal(np.concatenate([ref.samples, np.full(SEG // 2, 0.5)]), 8000)
    longer_test = Signal(np.concatenate([test.samples, np.full(SEG // 2, -0.5)]), 8000)
    # the mangled half-segment tail never enters the average
    assert ssnr(longer_ref, longer_test) == ssnr(ref, test)


def test_ssnr_shorter_than_one_segment_rejected_saying_so():
    short = make_signal(SEG - 1)
    with pytest.raises(
        ValueError, match="255 samples are shorter than one 32 ms segment of 256 samples"
    ):
        ssnr(short, short)


def test_ssnr_all_silent_rejected():
    silent = Signal(np.zeros(4 * SEG), 8000)
    with pytest.raises(ValueError, match="non-silent"):
        ssnr(silent, make_signal(4 * SEG))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31), scale=st.floats(1e-3, 1e3))
def test_ssnr_scale_invariance(seed, scale):
    ref = make_signal(6 * SEG, seed=seed)
    err = make_signal(6 * SEG, seed=seed + 1, scale=0.05)
    test = Signal(ref.samples + err.samples, 8000)
    a = ssnr(ref, test)
    b = ssnr(
        Signal(scale * ref.samples, 8000), Signal(scale * test.samples, 8000)
    )
    assert a == pytest.approx(b, abs=1e-9)


def _ssnr_per_segment(reference, test):
    """The per-segment loop `ssnr` replaced, kept as its bit-level reference."""
    ref, tst = reference.samples, test.samples
    seg_len = int(round(reference.sample_rate * SSNR_SEG_MS / 1000.0))
    lo, hi = SSNR_CLAMP_DB
    vals = []
    for start in range(0, len(ref) - seg_len + 1, seg_len):
        r = ref[start : start + seg_len]
        t = tst[start : start + seg_len]
        e_ref = float(np.sum(r * r))
        if e_ref <= 1e-10:
            continue
        e_err = float(np.sum((r - t) ** 2))
        if e_err == 0.0:
            vals.append(hi)
            continue
        vals.append(float(np.clip(10.0 * np.log10(e_ref / e_err), lo, hi)))
    if not vals:
        raise ValueError("no non-silent segments to evaluate")
    return float(np.mean(vals))


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(300, 40_000),
    rate=st.sampled_from([8000, 16000, 11025]),
    seed=st.integers(0, 2**31),
    silent_half=st.booleans(),
    exact=st.sampled_from(["none", "some", "all"]),
    noise=st.floats(1e-6, 10.0),
)
def test_ssnr_matches_per_segment_loop(n, rate, seed, silent_half, exact, noise):
    r = np.random.default_rng(seed)
    ref = r.uniform(-0.5, 0.5, n)
    if silent_half:
        ref[: n // 2] = 0.0
    test = ref + noise * r.standard_normal(n)
    if exact == "all":
        test = ref.copy()
    elif exact == "some":
        test[: n // 3] = ref[: n // 3]
    reference, tested = Signal(ref, rate), Signal(test, rate)
    try:
        want = _ssnr_per_segment(reference, tested)
    except ValueError:
        with pytest.raises(ValueError, match="non-silent"):
            ssnr(reference, tested)
        return
    assert ssnr(reference, tested) == want


def test_sdi_cases():
    x = make_signal(500, seed=9)
    assert sdi(x, x) == 0.0
    assert sdi(x, Signal(np.zeros(500), 8000)) == pytest.approx(1.0, rel=1e-12)
    assert sdi(x, Signal(0.5 * x.samples, 8000)) == pytest.approx(0.25, rel=1e-12)


def test_sdi_zero_reference_rejected():
    with pytest.raises(ValueError, match="zero-energy"):
        sdi(Signal(np.zeros(10), 8000), make_signal(10))


def test_evaluate_rejects_length_mismatch():
    # a truncated output must not score as a perfect match of its reference
    ref = synth_tone(500.0, 1.0, 8000)
    short = Signal(ref.samples[:2000], 8000)
    with pytest.raises(ValueError, match="length mismatch: 8000 vs 2000"):
        evaluate(ref, short)
    rep = evaluate(ref, ref)
    assert (rep.mse, rep.ssnr_db, rep.sdi) == (0.0, 35.0, 0.0)
    assert set(rep.as_dict()) == {"mse", "ssnr_db", "sdi"}
