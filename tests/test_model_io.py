"""Bit-exact model serialization and the header's structural checks."""

import hashlib

import numpy as np
import pytest

from subband_nmf import (
    BandModel,
    FrameSpec,
    NmfParams,
    Signal,
    StftBasisModel,
    SubbandBasisModel,
    enhance_stft,
    get_filters,
    load_model,
    save_model,
    synth_white_noise,
    train_dwpt_model,
    train_stft_model,
)

from conftest import make_tone


def trained_stft(tmp_path):
    return train_stft_model(
        [make_tone(500.0, 1.0)],
        [synth_white_noise(1.0, 8000, 0, 0.4)],
        FrameSpec(64, 16),
        speech_params=NmfParams(rank=2, max_iters=20, seed=0),
        noise_params=NmfParams(rank=3, max_iters=20, seed=0),
    )


def trained_dwpt():
    return train_dwpt_model(
        [make_tone(500.0, 1.0)],
        [synth_white_noise(1.0, 8000, 0, 0.4)],
        2,
        get_filters("db4"),
        FrameSpec(32, 8),
        speech_params=NmfParams(rank=2, max_iters=20, seed=0),
        noise_params=NmfParams(rank=2, max_iters=20, seed=0),
    )


def build_file(path, header_lines, blobs):
    with open(path, "wb") as f:
        f.write("".join(line + "\n" for line in header_lines).encode("ascii"))
        f.write(b"\n")
        for blob in blobs:
            f.write(blob)


def test_stft_round_trip_bit_exact(tmp_path):
    model = trained_stft(tmp_path)
    p = tmp_path / "m.snm"
    save_model(model, p)
    back = load_model(p)
    assert isinstance(back, StftBasisModel)
    np.testing.assert_array_equal(back.w_speech, model.w_speech)
    np.testing.assert_array_equal(back.w_noise, model.w_noise)
    assert back.frame_spec == model.frame_spec
    assert back.sample_rate == 8000


def test_dwpt_round_trip_field_by_field(tmp_path):
    model = trained_dwpt()
    p = tmp_path / "m.snm"
    save_model(model, p)
    back = load_model(p)
    assert isinstance(back, SubbandBasisModel)
    assert back.level == 2
    assert back.filter_name == "db4"
    assert back.frame_spec == model.frame_spec
    assert back.sample_rate == 8000
    for a, b in zip(back.per_band, model.per_band):
        np.testing.assert_array_equal(a.w_speech, b.w_speech)
        np.testing.assert_array_equal(a.w_noise, b.w_noise)
        assert a.sigma_clean == b.sigma_clean


def test_save_is_deterministic(tmp_path):
    model = trained_dwpt()
    a, b = tmp_path / "a.snm", tmp_path / "b.snm"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()


def test_hand_built_minimal_stft_model(tmp_path):
    # 2 bins needs frame_size 2; rank-1 dictionaries
    w_s = np.array([[0.5], [1.5]])
    w_n = np.array([[2.0], [0.25]])
    model = StftBasisModel(w_s, w_n, FrameSpec(2, 1), sample_rate=16000)
    p = tmp_path / "tiny.snm"
    save_model(model, p)
    back = load_model(p)
    np.testing.assert_array_equal(back.w_speech, w_s)
    np.testing.assert_array_equal(back.w_noise, w_n)
    assert back.sample_rate == 16000
    header = p.read_bytes().split(b"\n\n", 1)[0].decode("ascii").splitlines()
    assert "window_name: hamming" in header and "feature_kind: power" in header


def test_header_is_readable_text(tmp_path):
    p = tmp_path / "m.snm"
    save_model(trained_dwpt(), p)
    header = p.read_bytes().split(b"\n\n", 1)[0].decode("ascii")
    assert "format_version: 1" in header
    assert "model_kind: dwpt" in header
    assert "matrix w_speech_0 32 2" in header
    assert "matrix sigma_clean 1 4" in header


def test_missing_sample_rate_rejected():
    # every model carries its sample rate, so every model can be saved
    band = BandModel(np.ones((2, 1)), np.ones((2, 1)), 1.0)
    with pytest.raises(TypeError, match="sample_rate"):
        StftBasisModel(np.ones((2, 1)), np.ones((2, 1)), FrameSpec(2, 1))
    with pytest.raises(TypeError, match="sample_rate"):
        SubbandBasisModel(1, "haar", FrameSpec(2, 1), [band, band])


def test_version_mismatch(tmp_path):
    p = tmp_path / "m.snm"
    blob = np.zeros((2, 1)).tobytes()
    build_file(
        p,
        ["format_version: 9", "model_kind: stft", "sample_rate: 8000",
         "frame_size: 2", "frame_shift: 1", "window_name: hamming",
         "feature_kind: power", "matrix w_speech 2 1", "matrix w_noise 2 1"],
        [blob, blob],
    )
    with pytest.raises(ValueError, match="format version 9"):
        load_model(p)


def test_wrong_band_count(tmp_path):
    # level 3 declares only 7 subband blocks; the model's own count check fires
    p = tmp_path / "m.snm"
    header = ["format_version: 1", "model_kind: dwpt", "sample_rate: 8000",
              "frame_size: 4", "frame_shift: 2", "level: 3", "filter_name: haar"]
    blobs = []
    blob = np.full((4, 1), 0.5).tobytes()
    for b in range(7):
        header.append(f"matrix w_speech_{b} 4 1")
        header.append(f"matrix w_noise_{b} 4 1")
        blobs.extend([blob, blob])
    header.append("matrix sigma_clean 1 7")
    blobs.append(np.ones((1, 7)).tobytes())
    build_file(p, header, blobs)
    with pytest.raises(ValueError, match=r"level 3 needs 2\*\*3 band models, got 7"):
        load_model(p)


def test_renamed_matrix_rejected(tmp_path):
    # the band count still matches, but no w_speech_0 is declared
    p = tmp_path / "m.snm"
    save_model(trained_dwpt(), p)
    p.write_bytes(p.read_bytes().replace(b"matrix w_speech_0 ", b"matrix w_speech_9 ", 1))
    with pytest.raises(ValueError, match="this file declares w_speech_9, w_noise_0"):
        load_model(p)


def test_duplicated_matrix_rejected(tmp_path):
    # a second w_noise_0 block would otherwise replace the first one
    p = tmp_path / "m.snm"
    save_model(trained_dwpt(), p)
    header, payload = p.read_bytes().split(b"\n\n", 1)
    p.write_bytes(header + b"\nmatrix w_noise_0 32 2\n\n" + payload + np.ones(64).tobytes())
    with pytest.raises(ValueError, match="a dwpt model declares the matrices"):
        load_model(p)


def test_repeated_header_field_rejected(tmp_path):
    # a second sample_rate line would otherwise replace the first one
    p = tmp_path / "m.snm"
    save_model(trained_stft(tmp_path), p)
    p.write_bytes(p.read_bytes().replace(b"sample_rate: 8000\n",
                                         b"sample_rate: 8000\nsample_rate: 16000\n", 1))
    with pytest.raises(ValueError, match="header field 'sample_rate' appears twice"):
        load_model(p)


def test_unknown_window_rejected(tmp_path):
    p = tmp_path / "m.snm"
    save_model(trained_stft(tmp_path), p)
    p.write_bytes(p.read_bytes().replace(b"window_name: hamming\n", b"window_name: hammink\n", 1))
    with pytest.raises(ValueError, match="unknown window 'hammink'"):
        load_model(p)


@pytest.mark.parametrize(
    "saved, edited, message",
    [(b"window_name: hamming", b"window_name: hann", "unknown window 'hann'"),
     (b"feature_kind: power", b"feature_kind: magnitude", "unknown feature kind 'magnitude'")],
    ids=["hann", "magnitude"],
)
def test_other_analysis_rejected(tmp_path, saved, edited, message):
    # the stft front end runs only a Hamming window over power spectra
    p = tmp_path / "m.snm"
    save_model(trained_stft(tmp_path), p)
    p.write_bytes(p.read_bytes().replace(saved + b"\n", edited + b"\n", 1))
    with pytest.raises(ValueError, match=message):
        load_model(p)


@pytest.mark.parametrize("rate", [b"0", b"-5"])
@pytest.mark.parametrize("trained", ["stft", "dwpt"])
def test_non_positive_sample_rate_rejected(tmp_path, trained, rate):
    p = tmp_path / "m.snm"
    save_model(trained_stft(tmp_path) if trained == "stft" else trained_dwpt(), p)
    raw = p.read_bytes()
    p.write_bytes(raw.replace(b"sample_rate: 8000\n", b"sample_rate: " + rate + b"\n", 1))
    with pytest.raises(
        ValueError, match=f"sample_rate must be a positive whole number, got {rate.decode()}"
    ):
        load_model(p)


def _with_rate(model, rate):
    """A copy of a trained stft or dwpt model that claims another sample rate."""
    if isinstance(model, StftBasisModel):
        return StftBasisModel(model.w_speech, model.w_noise, model.frame_spec, rate)
    return SubbandBasisModel(
        model.level, model.filter_name, model.frame_spec, model.per_band, rate
    )


@pytest.mark.parametrize("rate", [8000.5, np.float64(7999.9), np.inf, np.nan, "8000"])
def test_fractional_sample_rate_rejected(tmp_path, rate):
    # a rate that is not a whole number of Hz is refused, not truncated
    builds = [
        lambda: Signal(np.zeros(8), rate),
        lambda: _with_rate(trained_stft(tmp_path), rate),
        lambda: _with_rate(trained_dwpt(), rate),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="sample_rate must be a positive whole number"):
            build()


def test_whole_float_sample_rate_stored_as_int(tmp_path):
    stored = [
        Signal(np.zeros(8), 8000.0).sample_rate,
        _with_rate(trained_stft(tmp_path), 8000.0).sample_rate,
        _with_rate(trained_dwpt(), np.float64(8000.0)).sample_rate,
    ]
    assert stored == [8000, 8000, 8000]
    assert all(type(rate) is int for rate in stored)


@pytest.mark.parametrize("trained", ["stft", "dwpt"])
def test_numpy_int_sample_rate_saves_same_bytes(tmp_path, trained):
    model = trained_stft(tmp_path) if trained == "stft" else trained_dwpt()
    plain, numpy_rate = tmp_path / "int.snm", tmp_path / "np.snm"
    save_model(_with_rate(model, 8000), plain)
    save_model(_with_rate(model, np.int64(8000)), numpy_rate)
    assert b"sample_rate: 8000\n" in plain.read_bytes()
    assert numpy_rate.read_bytes() == plain.read_bytes()


def test_whole_float_frame_size_round_trips(tmp_path):
    # stored as 256, so the file holds "frame_size: 256" and loads back
    w = np.random.default_rng(0).uniform(0.1, 1.0, (129, 4))
    floated, plain = tmp_path / "float.snm", tmp_path / "int.snm"
    model = StftBasisModel(w[:, :2], w[:, 2:], FrameSpec(256.0, 80), 8000)
    save_model(model, floated)
    save_model(StftBasisModel(w[:, :2], w[:, 2:], FrameSpec(256, 80), 8000), plain)
    assert floated.read_bytes() == plain.read_bytes()
    assert load_model(floated).frame_spec == FrameSpec(256, 80)
    out = enhance_stft(synth_white_noise(0.5, 8000, 0, 0.4), model)
    assert np.all(np.isfinite(out.samples))


def test_unknown_filter_name_rejected(tmp_path):
    p = tmp_path / "m.snm"
    save_model(trained_dwpt(), p)
    p.write_bytes(p.read_bytes().replace(b"filter_name: db4\n", b"filter_name: db9\n", 1))
    with pytest.raises(ValueError, match="unknown wavelet filter 'db9'"):
        load_model(p)


@pytest.mark.parametrize("sigma", [np.inf, np.nan])
def test_non_finite_sigma_clean_rejected(tmp_path, sigma):
    # sigma_clean is the last matrix, 1 x 4 at level 2; set band 1's entry
    p = tmp_path / "m.snm"
    save_model(trained_dwpt(), p)
    raw = p.read_bytes()
    assert raw[-32:] == np.array([b.sigma_clean for b in load_model(p).per_band]).tobytes()
    p.write_bytes(raw[:-24] + np.array([sigma]).tobytes() + raw[-16:])
    with pytest.raises(ValueError, match="sigma_clean must be finite and nonnegative"):
        load_model(p)


def test_truncated_payload(tmp_path):
    model = trained_stft(tmp_path)
    p = tmp_path / "m.snm"
    save_model(model, p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        load_model(p)


def test_trailing_bytes(tmp_path):
    model = trained_stft(tmp_path)
    p = tmp_path / "m.snm"
    save_model(model, p)
    p.write_bytes(p.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing"):
        load_model(p)


def test_missing_terminator(tmp_path):
    p = tmp_path / "m.snm"
    p.write_bytes(b"format_version: 1\nmodel_kind: stft\n")
    with pytest.raises(ValueError, match="truncated"):
        load_model(p)


def test_bad_sigma_shape(tmp_path):
    p = tmp_path / "m.snm"
    header = ["format_version: 1", "model_kind: dwpt", "sample_rate: 8000",
              "frame_size: 4", "frame_shift: 2", "level: 1", "filter_name: haar"]
    blobs = []
    blob = np.full((4, 1), 0.5).tobytes()
    for b in range(2):
        header.append(f"matrix w_speech_{b} 4 1")
        header.append(f"matrix w_noise_{b} 4 1")
        blobs.extend([blob, blob])
    header.append("matrix sigma_clean 1 3")
    blobs.append(np.ones((1, 3)).tobytes())
    build_file(p, header, blobs)
    with pytest.raises(ValueError, match="sigma_clean must be 1 x 2"):
        load_model(p)


def test_unknown_kind(tmp_path):
    p = tmp_path / "m.snm"
    build_file(
        p,
        ["format_version: 1", "model_kind: plca", "sample_rate: 8000",
         "frame_size: 2", "frame_shift: 1"],
        [],
    )
    with pytest.raises(ValueError, match="unknown model kind"):
        load_model(p)


# sha256 of the v1 files saved from the hand-built models below; fixed
# arrays and no training, so the bytes do not depend on BLAS.
GOLDEN_STFT_SHA256 = "9f6b72137fefbf88874f0ef246b75b0bee65860b6277cea81632e7abadc4cc5c"
GOLDEN_DWPT_SHA256 = "73310b2c801ef41903d71462b9373ffec804589f8790b3c84318172acf7addbb"


def test_saved_bytes_match_golden_digest(tmp_path):
    grid = np.arange(1.0, 16.0).reshape(5, 3) / 7.0
    stft_model = StftBasisModel(
        grid[:, :1], grid[:, 1:], FrameSpec(8, 4), sample_rate=8000
    )
    bands = [
        BandModel(grid[:4, :1] * (b + 1), grid[:4, 1:] / (b + 1), sigma_clean=0.25 * b + 0.5)
        for b in range(2)
    ]
    dwpt_model = SubbandBasisModel(
        level=1, filter_name="haar", frame_spec=FrameSpec(4, 2), per_band=bands,
        sample_rate=16000,
    )
    for model, digest in ((stft_model, GOLDEN_STFT_SHA256), (dwpt_model, GOLDEN_DWPT_SHA256)):
        p = tmp_path / "golden.snm"
        save_model(model, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == digest


def test_level_zero_rejected(tmp_path):
    # one band at level 0 passes the band count, but no transform has level 0
    p = tmp_path / "m.snm"
    blob = np.full((4, 1), 0.5).tobytes()
    build_file(
        p,
        ["format_version: 1", "model_kind: dwpt", "sample_rate: 8000",
         "frame_size: 4", "frame_shift: 2", "level: 0", "filter_name: haar",
         "matrix w_speech_0 4 1", "matrix w_noise_0 4 1", "matrix sigma_clean 1 1"],
        [blob, blob, np.ones((1, 1)).tobytes()],
    )
    with pytest.raises(ValueError, match=": level must be a positive whole number, got 0"):
        load_model(p)


def test_huge_level_rejected_without_forming_its_power(tmp_path):
    # 2**(10**12) would not finish; the model's bit-length test rules the level out first
    p = tmp_path / "m.snm"
    save_model(trained_dwpt(), p)
    p.write_bytes(p.read_bytes().replace(b"level: 2\n", b"level: 1000000000000\n", 1))
    with pytest.raises(
        ValueError, match=r": level 1000000000000 needs 2\*\*1000000000000 band models, got 4"
    ):
        load_model(p)


@pytest.mark.parametrize(
    "trained, edit, message",
    [
        ("stft", lambda raw: raw.replace(b"sample_rate: 8000\n", b"sample_rate: 8000\n" * 2, 1),
         "header field 'sample_rate' appears twice"),
        ("stft", lambda raw: raw + b"\x00" * 8, "8 trailing bytes"),
        ("stft", lambda raw: raw.replace(b"window_name: hamming\n", b"window_name: hann\n", 1),
         "unknown window 'hann'"),
        ("stft", lambda raw: raw.replace(b"frame_shift: 16\n", b"frame_shift: 65\n", 1),
         r"frame_shift must be in \[1, frame_size\]"),
        ("stft", lambda raw: raw.replace(b"frame_size: 64\n", b"frame_size: 66\n", 1),
         "w_speech must have 34 rows"),
        ("stft", lambda raw: raw.replace(b"frame_size: 64\n", b"frame_size: abc\n", 1),
         "bad value for 'frame_size': 'abc'"),
        ("stft", lambda raw: raw.replace(b"matrix w_speech 33 2\n", b"matrix w_speech 33\n", 1),
         "malformed matrix declaration 'matrix w_speech 33'"),
        ("stft", lambda raw: raw.replace(b"matrix w_speech 33 2\n", b"matrix w_speech 33 2.0\n", 1),
         r"malformed matrix declaration 'matrix w_speech 33 2\.0'"),
        ("stft", lambda raw: raw.replace(b"matrix w_noise 33 3\n", b"matrix w_noise 0 3\n", 1),
         "matrix w_noise has empty shape"),
        ("dwpt", lambda raw: raw.replace(b"sample_rate: 8000\n", b"sample_rate: 0\n", 1),
         "sample_rate must be a positive whole number, got 0"),
        ("dwpt", lambda raw: raw.replace(b"filter_name: db4\n", b"filter_name: db9\n", 1),
         "unknown wavelet filter 'db9'"),
        # sigma_clean is the last matrix, 1 x 4 at level 2; band 1's entry
        ("dwpt", lambda raw: raw[:-24] + np.array([np.inf]).tobytes() + raw[-16:],
         "sigma_clean must be finite and nonnegative"),
    ],
    ids=["repeated-field", "trailing-bytes", "window", "frame-shift", "dictionary-rows",
         "header-value", "matrix-fields", "matrix-size", "matrix-empty",
         "sample-rate", "filter", "sigma"],
)
def test_every_load_error_starts_with_the_path_once(tmp_path, trained, edit, message):
    # the file format is checked by the loader and the model's rules by its
    # constructors; either way the error names the file, and only once
    p = tmp_path / "m.snm"
    save_model(trained_stft(tmp_path) if trained == "stft" else trained_dwpt(), p)
    p.write_bytes(edit(p.read_bytes()))
    with pytest.raises(ValueError, match=message) as caught:
        load_model(p)
    text = str(caught.value)
    assert text.startswith(f"{p}: ")
    assert text.count(str(p)) == 1
