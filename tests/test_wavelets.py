"""Filter-bank correctness: orthonormality, hand-computed splits, round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subband_nmf import FILTER_NAMES, Signal, WaveletFilters, dwpt, get_filters, idwpt
from subband_nmf.wavelets import analysis_split, synthesis_merge

from conftest import make_signal

# 8-tap extremal-phase scaling taps, derived independently by spectral
# factorization of the half-band polynomial at 60-digit precision and
# rounded to nearest float64.
DB8_REFERENCE = np.array([
    0.2303778133088965,
    0.7148465705529157,
    0.6308807679298589,
    -0.027983769416859854,
    -0.18703481171909309,
    0.030841381835560764,
    0.0328830116668852,
    -0.010597401785069032,
])


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_orthonormality(name):
    f = get_filters(name)
    g = f.analysis_low
    assert abs(np.sum(g * g) - 1.0) < 1e-15
    assert abs(np.sum(g) - math.sqrt(2.0)) < 1e-14
    # double shifts of the low-pass are mutually orthogonal
    for k in range(1, f.taps // 2):
        shifted = np.zeros(f.taps + 2 * k)
        shifted[2 * k:] = g
        base = np.zeros(f.taps + 2 * k)
        base[: f.taps] = g
        assert abs(np.dot(base, shifted)) < 1e-15


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_quadrature_mirror_relation(name):
    f = get_filters(name)
    expected = ((-1.0) ** np.arange(f.taps)) * f.analysis_low[::-1]
    np.testing.assert_array_equal(f.analysis_high, expected)


def test_haar_taps_exact():
    f = get_filters("haar")
    np.testing.assert_array_equal(f.analysis_low, [1 / math.sqrt(2)] * 2)


def test_db4_taps_closed_form():
    s3 = math.sqrt(3.0)
    expected = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2))
    np.testing.assert_array_equal(get_filters("db4").analysis_low, expected)


def test_db8_taps_against_reference():
    np.testing.assert_array_equal(get_filters("db8").analysis_low, DB8_REFERENCE)


def test_unknown_filter_rejected():
    with pytest.raises(ValueError, match="unknown wavelet filter"):
        get_filters("sym5")


def test_filters_carry_only_their_family_taps():
    # a model file records only the family name, so the name must fix the taps
    assert WaveletFilters("db8") == get_filters("db8")
    with pytest.raises(ValueError, match="unknown wavelet filter"):
        WaveletFilters("sym5")
    np.testing.assert_array_equal(WaveletFilters("db8").analysis_low, DB8_REFERENCE)


def _reference_split(x, f):
    """The per-band split that the model bytes were first written with."""
    ext = np.concatenate([x, np.resize(x, f.taps - 1)])
    windows = np.lib.stride_tricks.sliding_window_view(ext, f.taps)[::2]
    return windows @ f.analysis_low, windows @ f.analysis_high


@pytest.mark.parametrize("name", FILTER_NAMES)
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_dwpt_matches_per_band_reference_bit_for_bit(name, level):
    f = get_filters(name)
    x = make_signal(1001, seed=level)
    bands = [np.concatenate([x.samples, np.zeros(-len(x) % 2**level)])]
    for _ in range(level):
        bands = [half for band in bands for half in _reference_split(band, f)]
    np.testing.assert_array_equal(dwpt(x, level, f), np.array(bands))


@pytest.mark.parametrize("name", FILTER_NAMES)
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 16, 34])
def test_synthesis_is_the_transpose_of_analysis(name, n):
    # below taps - 1 samples the merge wraps a filter round the band more than once
    f = get_filters(name)
    analysis = np.column_stack([np.concatenate(analysis_split(e, f)) for e in np.eye(n)])
    coeffs = make_signal(n, seed=n).samples
    np.testing.assert_allclose(
        synthesis_merge(coeffs[: n // 2], coeffs[n // 2 :], f),
        analysis.T @ coeffs,
        rtol=0, atol=1e-14,
    )


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_split_and_merge_act_row_by_row(name):
    f = get_filters(name)
    rows = np.random.default_rng(4).standard_normal((5, 36))
    lo, hi = analysis_split(rows, f)
    for r, row in enumerate(rows):
        row_lo, row_hi = analysis_split(row, f)
        np.testing.assert_array_equal(lo[r], row_lo)
        np.testing.assert_array_equal(hi[r], row_hi)
    merged = synthesis_merge(lo, hi, f)
    for r in range(len(rows)):
        np.testing.assert_array_equal(merged[r], synthesis_merge(lo[r], hi[r], f))


def test_split_and_merge_reject_empty_bands():
    f = get_filters("db4")
    for empty in (np.zeros(0), np.zeros((3, 0))):
        with pytest.raises(ValueError, match="^cannot split or merge an empty band$"):
            analysis_split(empty, f)
        with pytest.raises(ValueError, match="^cannot split or merge an empty band$"):
            synthesis_merge(empty, empty, f)


def test_merge_rejects_unequal_shapes():
    f = get_filters("haar")
    with pytest.raises(ValueError, match="shape mismatch"):
        synthesis_merge(np.zeros(4), np.zeros(3), f)
    with pytest.raises(ValueError, match="shape mismatch"):
        synthesis_merge(np.zeros((2, 4)), np.zeros(4), f)


def test_split_energy_conservation():
    x = make_signal(64, seed=5).samples
    for name in FILTER_NAMES:
        lo, hi = analysis_split(x, get_filters(name))
        assert len(lo) == len(hi) == 32
        assert abs(np.sum(lo**2) + np.sum(hi**2) - np.sum(x**2)) < 1e-10


def test_split_annihilates_dc():
    x = np.full(32, 0.7)
    for name in FILTER_NAMES:
        lo, hi = analysis_split(x, get_filters(name))
        np.testing.assert_allclose(lo, 0.7 * math.sqrt(2.0), atol=1e-10)
        np.testing.assert_allclose(hi, 0.0, atol=1e-10)


def test_haar_impulse_split_by_hand():
    # low[n] = sum_k x[(2n+k) mod 8] g[k]: only n = 0 picks up the impulse
    x = np.zeros(8)
    x[0] = 1.0
    lo, hi = analysis_split(x, get_filters("haar"))
    r = 1 / math.sqrt(2)
    np.testing.assert_allclose(lo, [r, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(hi, [r, 0, 0, 0], atol=1e-15)


def test_haar_synthesis_piecewise_constant():
    x = np.array([1.0, -2.0, 3.0])
    out = synthesis_merge(x, np.zeros(3), get_filters("haar"))
    r = 1 / math.sqrt(2)
    np.testing.assert_allclose(out, [1 * r, 1 * r, -2 * r, -2 * r, 3 * r, 3 * r], atol=1e-15)


def test_synthesis_zeros():
    out = synthesis_merge(np.zeros(4), np.zeros(4), get_filters("db8"))
    np.testing.assert_array_equal(out, np.zeros(8))


def test_split_merge_round_trip():
    x = make_signal(128, seed=9).samples
    for name in FILTER_NAMES:
        f = get_filters(name)
        lo, hi = analysis_split(x, f)
        np.testing.assert_allclose(synthesis_merge(lo, hi, f), x, atol=1e-10)


def test_odd_length_split_rejected():
    with pytest.raises(ValueError, match="even"):
        analysis_split(np.zeros(7), get_filters("haar"))


def test_dwpt_band_bookkeeping():
    s = dwpt(make_signal(1024), 3, get_filters("db8"))
    assert s.shape == (8, 128) and s.dtype == np.float64
    # 1000 = 8 * 125: no padding needed
    s = dwpt(make_signal(1000), 3, get_filters("db8"))
    assert s.shape == (8, 125)


def test_dwpt_level_one_matches_single_split():
    x = make_signal(96, seed=2)
    f = get_filters("db4")
    s = dwpt(x, 1, f)
    lo, hi = analysis_split(x.samples, f)
    np.testing.assert_array_equal(s[0], lo)
    np.testing.assert_array_equal(s[1], hi)


def test_haar_level_one_tiny_round_trip():
    f = get_filters("haar")
    x = Signal(np.array([1.0, 2.0, 3.0, 4.0]), 8000)
    out = idwpt(dwpt(x, 1, f), f, 4)
    np.testing.assert_allclose(out, x.samples, atol=1e-12)


def test_idwpt_zero_bands():
    np.testing.assert_array_equal(idwpt(np.zeros((4, 8)), get_filters("db4"), 32), np.zeros(32))


def test_idwpt_rejects_bad_shapes():
    f = get_filters("db4")
    with pytest.raises(ValueError, match="power of two"):
        idwpt(np.zeros((3, 8)), f, 24)
    with pytest.raises(ValueError, match="2-D"):
        idwpt(np.zeros(32), f, 32)
    for length in (0, 33):
        with pytest.raises(ValueError, match="length"):
            idwpt(np.zeros((4, 8)), f, length)
    assert len(idwpt(np.zeros((4, 8)), f, 1)) == 1


def test_idwpt_length_is_a_whole_number():
    f = get_filters("db4")
    bands = dwpt(make_signal(32, seed=1), 2, f)
    np.testing.assert_array_equal(idwpt(bands, f, 30.0), idwpt(bands, f, 30))
    for length in (2.5, -1, "30"):
        with pytest.raises(ValueError, match="^length must be a positive whole number"):
            idwpt(bands, f, length)


def test_dwpt_too_deep_rejected():
    with pytest.raises(ValueError, match="too deep"):
        dwpt(make_signal(16), 3, get_filters("db8"))


def test_haar_too_deep_rejected():
    # padding to a multiple of 2^level always leaves a 2-tap span, so the
    # signal itself must reach every band
    with pytest.raises(ValueError, match="too deep"):
        dwpt(Signal(np.ones(100), 8000), 16, get_filters("haar"))
    with pytest.raises(ValueError, match="too deep"):
        dwpt(make_signal(7), 3, get_filters("haar"))
    assert dwpt(make_signal(8), 3, get_filters("haar")).shape == (8, 1)


def test_huge_level_rejected_at_once():
    # the depth is compared with the signal length's bit length before
    # 2**level is formed, which for this level would not fit in memory
    with pytest.raises(ValueError, match="level 1000000000000000000 too deep"):
        dwpt(Signal(np.ones(100), 8000), 10**18, get_filters("haar"))


def test_dc_lands_in_first_band():
    # natural ordering: the all-low path is subband 0
    s = dwpt(Signal(np.full(256, 0.5), 8000), 3, get_filters("db8"))
    energies = [float(np.sum(b * b)) for b in s]
    assert energies[0] > 0.99 * sum(energies)


@settings(deadline=None, max_examples=40)
@given(
    name=st.sampled_from(FILTER_NAMES),
    level=st.integers(1, 4),
    n=st.integers(100, 4000),
    seed=st.integers(0, 2**31),
)
def test_perfect_reconstruction_property(name, level, n, seed):
    f = get_filters(name)
    x = make_signal(n, seed=seed)
    out = idwpt(dwpt(x, level, f), f, n)
    assert len(out) == n
    assert np.max(np.abs(out - x.samples)) < 1e-10


@settings(deadline=None, max_examples=25)
@given(name=st.sampled_from(FILTER_NAMES), level=st.integers(1, 4), seed=st.integers(0, 2**31))
def test_packet_energy_conservation_property(name, level, seed):
    # orthonormal tree: sum of subband energies equals padded-signal energy
    f = get_filters(name)
    n = 512
    x = make_signal(n, seed=seed)
    s = dwpt(x, level, f)
    total = sum(float(np.sum(b * b)) for b in s)
    assert abs(total - float(np.sum(x.samples**2))) < 1e-9
