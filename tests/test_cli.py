"""End-to-end command-line coverage on tiny synthetic WAV fixtures."""

import csv
from concurrent.futures import Future

import numpy as np
import pytest

from subband_nmf import FrameSpec, NmfParams, Signal, mix_at_snr, MixSpec, read_wav, ssnr
from subband_nmf import write_wav
from subband_nmf import synth_tone, synth_white_noise
from subband_nmf import cli, defaults
from subband_nmf.cli import build_parser, main

RATE = 8000

TRAIN_FLAGS = [
    "--frame-size", "64", "--frame-shift", "16", "--level", "2",
    "--speech-rank", "2", "--noise-rank", "3", "--iters-train", "25",
    "--seed", "0",
]


@pytest.fixture
def corpus(tmp_path):
    d = tmp_path
    clean = synth_tone(500.0, 1.0, RATE)
    noise = synth_white_noise(1.0, RATE, 1, 0.5)
    write_wav(d / "clean.wav", clean)
    write_wav(d / "noise.wav", noise)
    noisy = mix_at_snr(*[read_wav(d / f)[0] for f in ("clean.wav", "noise.wav")],
                       MixSpec(0.0, 2))
    write_wav(d / "noisy.wav", noisy)
    return d


def run(argv):
    return main([str(a) for a in argv])


def test_train_enhance_eval_pipeline(corpus, capsys):
    model = corpus / "model.snm"
    assert run(["train", "--method", "stft-nmf", "--clean", corpus / "clean.wav",
                "--noise", corpus / "noise.wav", "--out", model,
                *TRAIN_FLAGS]) == 0
    assert model.exists()
    out = corpus / "enhanced.wav"
    assert run(["enhance", "--model", model, "--in", corpus / "noisy.wav",
                "--out", out, "--iters-encode", "30", "--seed", "0"]) == 0
    capsys.readouterr()

    clean, _ = read_wav(corpus / "clean.wav")
    noisy, _ = read_wav(corpus / "noisy.wav")
    enhanced, _ = read_wav(out)
    assert ssnr(clean, enhanced) > ssnr(clean, noisy)

    assert run(["eval", "--reference", corpus / "clean.wav", "--test", out]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    keys = [line.split("=")[0] for line in lines]
    assert keys == ["file", "mse", "ssnr_db", "sdi"]


def test_dwpt_method_pipeline(corpus, capsys):
    model = corpus / "dw.snm"
    assert run(["train", "--method", "dwpt-nmf", "--clean", corpus / "clean.wav",
                "--noise", corpus / "noise.wav", "--out", model,
                *TRAIN_FLAGS]) == 0
    out = corpus / "dw.wav"
    assert run(["enhance", "--model", model, "--in", corpus / "noisy.wav",
                "--out", out, "--iters-encode", "30", "--seed", "0"]) == 0
    enhanced, info = read_wav(out)
    assert info.frame_count == 8000


def test_determinism_byte_identical(corpus):
    outs = []
    for tag in ("a", "b"):
        model = corpus / f"m_{tag}.snm"
        run(["train", "--method", "stft-nmf", "--clean", corpus / "clean.wav",
             "--noise", corpus / "noise.wav", "--out", model, *TRAIN_FLAGS])
        wav = corpus / f"e_{tag}.wav"
        run(["enhance", "--model", model, "--in", corpus / "noisy.wav",
             "--out", wav, "--iters-encode", "30", "--seed", "3"])
        outs.append((model.read_bytes(), wav.read_bytes()))
    assert outs[0] == outs[1]


def test_batch_enhance_and_jobs_agree(corpus):
    model = corpus / "model.snm"
    run(["train", "--method", "stft-nmf", "--clean", corpus / "clean.wav",
         "--noise", corpus / "noise.wav", "--out", model, *TRAIN_FLAGS])
    batch = corpus / "batch"
    batch.mkdir()
    for k in range(3):
        noisy = mix_at_snr(read_wav(corpus / "clean.wav")[0],
                           read_wav(corpus / "noise.wav")[0], MixSpec(5.0, k))
        write_wav(batch / f"n{k}.wav", noisy)
    serial = corpus / "out_serial"
    parallel = corpus / "out_par"
    run(["enhance", "--model", model, "--in", batch, "--out", serial,
         "--iters-encode", "20", "--seed", "0"])
    run(["enhance", "--model", model, "--in", batch, "--out", parallel,
         "--iters-encode", "20", "--seed", "0", "--jobs", "3"])
    for k in range(3):
        a = (serial / f"n{k}.wav").read_bytes()
        b = (parallel / f"n{k}.wav").read_bytes()
        assert a == b and len(a) > 44


@pytest.mark.parametrize("jobs", [1, 2])
def test_enhance_one_file_directory_is_a_batch(corpus, capsys, jobs):
    # a directory --in writes <out>/<name> even when it holds a single file
    model = corpus / "model.snm"
    run(["train", "--method", "stft-nmf", "--clean", corpus / "clean.wav",
         "--noise", corpus / "noise.wav", "--out", model, *TRAIN_FLAGS])
    one = corpus / "one"
    one.mkdir()
    write_wav(one / "x.wav", read_wav(corpus / "noisy.wav")[0])
    out = corpus / "outdir"
    capsys.readouterr()
    assert run(["enhance", "--model", model, "--in", one, "--out", out,
                "--iters-encode", "5", "--jobs", jobs]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'x.wav'}\n"
    assert out.is_dir()
    assert [p.name for p in out.iterdir()] == ["x.wav"]
    assert read_wav(out / "x.wav")[0].sample_rate == RATE


def test_enhance_starts_no_more_workers_than_files(corpus, monkeypatch):
    # the pool starts all its workers at the first submit; this fake runs
    # the tasks inline and records how many workers were asked for
    workers = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            workers.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    model = corpus / "model.snm"
    run(["train", "--method", "stft-nmf", "--clean", corpus / "clean.wav",
         "--noise", corpus / "noise.wav", "--out", model, *TRAIN_FLAGS])
    out = corpus / "out"
    assert run(["enhance", "--model", model, "--in", corpus / "clean.wav",
                corpus / "noisy.wav", "--out", out, "--iters-encode", "5", "--jobs", "8"]) == 0
    assert workers == [2]
    assert sorted(p.name for p in out.iterdir()) == ["clean.wav", "noisy.wav"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bad_file_does_not_abort_batch(corpus, capsys, jobs):
    model = corpus / "model.snm"
    run(["train", "--clean", corpus / "clean.wav", "--noise", corpus / "noise.wav",
         "--out", model, *TRAIN_FLAGS])
    good, mixed = corpus / "good", corpus / "mixed"
    good.mkdir()
    mixed.mkdir()
    noisy = read_wav(corpus / "noisy.wav")[0]
    for name in ("n0.wav", "n2.wav"):
        write_wav(good / name, noisy)
        write_wav(mixed / name, noisy)
    # 160 samples leave 40 per level-2 subband, less than one 64-sample frame
    write_wav(mixed / "n1.wav", Signal(noisy.samples[:160], RATE))
    flags = ["--iters-encode", "20", "--seed", "0", "--jobs", jobs]
    assert run(["enhance", "--model", model, "--in", good, "--out", corpus / "out_good",
                *flags]) == 0
    capsys.readouterr()
    assert run(["enhance", "--model", model, "--in", mixed, "--out", corpus / "out_mixed",
                *flags]) == 1
    err = capsys.readouterr().err
    assert "n1.wav: input too short: 160 samples" in err
    assert "1 of 3 inputs failed" in err
    assert not (corpus / "out_mixed" / "n1.wav").exists()
    for name in ("n0.wav", "n2.wav"):
        assert (corpus / "out_mixed" / name).read_bytes() == (
            corpus / "out_good" / name).read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_zero_byte_wav_does_not_abort_batch(corpus, capsys, jobs):
    # two faults, one per file: b.wav cannot be read, and the output path of
    # c.wav is taken by a directory, so it cannot be written
    model = corpus / "model.snm"
    run(["train", "--method", "stft-nmf", "--clean", corpus / "clean.wav",
         "--noise", corpus / "noise.wav", "--out", model, *TRAIN_FLAGS])
    batch = corpus / "batch"
    batch.mkdir()
    for name in ("a.wav", "c.wav", "d.wav"):
        write_wav(batch / name, read_wav(corpus / "noisy.wav")[0])
    (batch / "b.wav").write_bytes(b"")
    out = corpus / "out"
    (out / "c.wav").mkdir(parents=True)
    capsys.readouterr()
    assert run(["enhance", "--model", model, "--in", batch, "--out", out,
                "--iters-encode", "20", "--seed", "0", "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert f"error: {batch / 'b.wav'}: {batch / 'b.wav'}: not a readable WAV file (EOFError)" \
        in captured.err
    assert f"error: {batch / 'c.wav'}: [Errno 21] Is a directory: '{out / 'c.wav'}'" \
        in captured.err
    assert "2 of 4 inputs failed" in captured.err
    assert captured.out.splitlines() == [f"wrote {out / 'a.wav'}", f"wrote {out / 'd.wav'}"]
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == ["a.wav", "d.wav"]


def test_input_named_with_leading_at_sign(corpus, capsys, monkeypatch):
    # argparse reads an argument starting with "@" as a settings file, so a
    # WAV named "@take1.wav" is passed as "./@take1.wav"
    model = corpus / "model.snm"
    run(["train", "--method", "stft-nmf", "--clean", corpus / "clean.wav",
         "--noise", corpus / "noise.wav", "--out", model, *TRAIN_FLAGS])
    (corpus / "@take1.wav").write_bytes((corpus / "noisy.wav").read_bytes())
    monkeypatch.chdir(corpus)
    flags = ["--model", model, "--out", "take1_out.wav", "--iters-encode", "20", "--seed", "0"]
    with pytest.raises(SystemExit) as exc:
        run(["enhance", "--in", "@take1.wav", *flags])
    assert exc.value.code == 2
    assert run(["enhance", "--in", "./@take1.wav", *flags]) == 0
    assert read_wav(corpus / "take1_out.wav")[1].frame_count == 8000


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_enhance_rejects_inputs_sharing_an_output_name(corpus, capsys, jobs):
    model = corpus / "model.snm"
    run(["train", "--method", "stft-nmf", "--clean", corpus / "clean.wav",
         "--noise", corpus / "noise.wav", "--out", model, *TRAIN_FLAGS])
    first, second = corpus / "a", corpus / "b"
    for d in (first, second):
        d.mkdir()
        write_wav(d / "x.wav", read_wav(corpus / "noisy.wav")[0])
    (second / "x.wav").write_bytes(b"not a wav file")  # reading it would fail
    out = corpus / "out"
    assert run(["enhance", "--model", model, "--in", first, second, "--out", out,
                "--iters-encode", "20", "--seed", "0", "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert f"{first / 'x.wav'} and {second / 'x.wav'} would both be written to " \
           f"{out / 'x.wav'}" in err
    assert "not a readable WAV file" not in err and not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("form", ["directory", "file"])
def test_enhance_refuses_to_overwrite_an_input(corpus, capsys, jobs, form):
    model = corpus / "model.snm"
    run(["train", "--method", "stft-nmf", "--clean", corpus / "clean.wav",
         "--noise", corpus / "noise.wav", "--out", model, *TRAIN_FLAGS])
    noisy = corpus / "noisy"
    noisy.mkdir()
    for name in ("x.wav", "y.wav"):
        write_wav(noisy / name, read_wav(corpus / "noisy.wav")[0])
    before = {p.name: p.read_bytes() for p in noisy.iterdir()}
    target = noisy if form == "directory" else noisy / "x.wav"
    assert run(["enhance", "--model", model, "--in", target, "--out", target,
                "--iters-encode", "20", "--seed", "0", "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert f"{noisy / 'x.wav'} would be written to {noisy / 'x.wav'}, which is an input" in err
    assert {p.name: p.read_bytes() for p in noisy.iterdir()} == before


def test_subdirectory_named_like_wav_is_skipped(corpus, capsys):
    model = corpus / "model.snm"
    run(["train", "--method", "stft-nmf", "--clean", corpus / "clean.wav",
         "--noise", corpus / "noise.wav", "--out", model, *TRAIN_FLAGS])
    batch = corpus / "batch"
    batch.mkdir()
    noisy = read_wav(corpus / "noisy.wav")[0]
    write_wav(batch / "a.wav", noisy)
    (batch / "b.wav").mkdir()
    write_wav(batch / "c.wav", noisy)
    out = corpus / "out"
    assert run(["enhance", "--model", model, "--in", batch, "--out", out,
                "--iters-encode", "20", "--seed", "0"]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == ["a.wav", "c.wav"]


def test_mix_equal_power_alpha_one(tmp_path, capsys):
    # clean square wave and constant noise with exactly representable
    # samples and equal power: alpha = 1 and the sum is exact in PCM16
    clean = Signal(np.tile([0.25, -0.25], 2000), RATE)
    noise = Signal(np.full(4000, 0.25), RATE)
    write_wav(tmp_path / "c.wav", clean)
    write_wav(tmp_path / "n.wav", noise)
    out = tmp_path / "m.wav"
    assert run(["mix", "--clean", tmp_path / "c.wav", "--noise", tmp_path / "n.wav",
                "--snr", "0", "--out", out, "--seed", "4"]) == 0
    mixed, _ = read_wav(out)
    expected = clean.samples + noise.samples
    np.testing.assert_array_equal(mixed.samples, expected)


def test_mix_hits_requested_snr(corpus):
    out = corpus / "snr10.wav"
    run(["mix", "--clean", corpus / "clean.wav", "--noise", corpus / "noise.wav",
         "--snr", "10", "--out", out, "--seed", "6"])
    clean, _ = read_wav(corpus / "clean.wav")
    mixed, _ = read_wav(out)
    resid = mixed.samples - clean.samples
    got = 10 * np.log10(np.mean(clean.samples**2) / np.mean(resid**2))
    # output quantization moves the measured value slightly
    assert abs(got - 10.0) < 0.05


@pytest.mark.parametrize("snr", ["1e6", "10000", "-1e4"])
def test_mix_rejects_an_snr_past_float_range(corpus, capsys, snr):
    out = corpus / "m.wav"
    assert run(["mix", "--clean", corpus / "clean.wav", "--noise", corpus / "noise.wav",
                f"--snr={snr}", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: snr_db ") and "out of range" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_eval_csv_format(corpus):
    csv_path = corpus / "report.csv"
    run(["eval", "--reference", corpus / "clean.wav", "--test", corpus / "noisy.wav",
         "--csv", csv_path])
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["file", "mse", "ssnr_db", "sdi"]
    assert len(rows) == 2
    assert rows[1][0].endswith("noisy.wav")
    float(rows[1][1]), float(rows[1][2]), float(rows[1][3])


def test_eval_reports_tests_without_reference(corpus, capsys):
    refs, tests = corpus / "refs", corpus / "tests"
    refs.mkdir()
    tests.mkdir()
    clean, _ = read_wav(corpus / "clean.wav")
    noisy, _ = read_wav(corpus / "noisy.wav")
    for name in ("a.wav", "c.wav"):
        write_wav(refs / name, clean)
    for name in ("a.wav", "b.wav", "c.wav", "d.wav"):
        write_wav(tests / name, noisy)
    csv_path = corpus / "report.csv"
    assert run(["eval", "--reference", refs, "--test", tests, "--csv", csv_path]) == 1
    captured = capsys.readouterr()
    files = [line[len("file="):] for line in captured.out.splitlines()
             if line.startswith("file=")]
    assert files == [str(tests / "a.wav"), str(tests / "c.wav")]
    assert captured.err.splitlines() == [
        f"error: {tests / 'b.wav'}: no reference named b.wav",
        f"error: {tests / 'd.wav'}: no reference named d.wav",
        "error: 2 of 4 inputs failed",
    ]
    with open(csv_path, newline="") as f:
        assert [row[0] for row in csv.reader(f)][1:] == files


def test_eval_matches_single_file_directories_by_name(corpus, capsys):
    refs, tests = corpus / "refs", corpus / "tests"
    refs.mkdir()
    tests.mkdir()
    write_wav(refs / "a.wav", read_wav(corpus / "clean.wav")[0])
    write_wav(tests / "b.wav", read_wav(corpus / "noisy.wav")[0])
    assert run(["eval", "--reference", refs, "--test", tests]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {tests / 'b.wav'}: no reference named b.wav" in captured.err


def test_eval_reports_length_mismatch(corpus, capsys):
    refs, tests = corpus / "refs", corpus / "tests"
    refs.mkdir()
    tests.mkdir()
    clean, _ = read_wav(corpus / "clean.wav")
    for name in ("a.wav", "b.wav"):
        write_wav(refs / name, clean)
    write_wav(tests / "a.wav", Signal(clean.samples[:2000], RATE))
    write_wav(tests / "b.wav", clean)
    assert run(["eval", "--reference", refs, "--test", tests]) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines() if line.startswith("file=")] == [
        f"file={tests / 'b.wav'}"]
    assert captured.err.splitlines() == [
        f"error: {tests / 'a.wav'}: length mismatch: 8000 vs 2000",
        "error: 1 of 2 inputs failed",
    ]
    assert run(["eval", "--reference", refs / "a.wav", "--test", tests / "a.wav"]) == 1
    assert "length mismatch" in capsys.readouterr().err


def test_eval_reports_an_unreadable_file_and_goes_on(corpus, capsys, monkeypatch):
    # as in `enhance`, a file that cannot be read costs only its own row
    refs, tests = corpus / "refs", corpus / "tests"
    refs.mkdir()
    tests.mkdir()
    for name in ("a.wav", "b.wav", "c.wav"):
        write_wav(refs / name, read_wav(corpus / "clean.wav")[0])
        write_wav(tests / name, read_wav(corpus / "noisy.wav")[0])
    read = cli.read_wav

    def read_all_but_b(path):
        if path == tests / "b.wav":
            raise PermissionError("permission denied")
        return read(path)

    monkeypatch.setattr(cli, "read_wav", read_all_but_b)
    assert run(["eval", "--reference", refs, "--test", tests]) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines() if line.startswith("file=")] == [
        f"file={tests / 'a.wav'}", f"file={tests / 'c.wav'}"]
    assert captured.err.splitlines() == [
        f"error: {tests / 'b.wav'}: permission denied",
        "error: 1 of 3 inputs failed",
    ]


def test_eval_reports_every_failure_in_file_order(corpus, capsys):
    # a test file with no reference fails like an unreadable one: in file
    # order, under one summary line, and without a row
    refs, tests = corpus / "refs", corpus / "tests"
    refs.mkdir()
    tests.mkdir()
    for name in ("b.wav", "c.wav"):
        write_wav(refs / name, read_wav(corpus / "clean.wav")[0])
    write_wav(tests / "a.wav", read_wav(corpus / "noisy.wav")[0])
    (tests / "b.wav").write_bytes(b"")
    write_wav(tests / "c.wav", read_wav(corpus / "noisy.wav")[0])
    csv_path = corpus / "report.csv"
    assert run(["eval", "--reference", refs, "--test", tests, "--csv", csv_path]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {tests / 'a.wav'}: no reference named a.wav",
        f"error: {tests / 'b.wav'}: {tests / 'b.wav'}: not a readable WAV file (EOFError)",
        "error: 2 of 3 inputs failed",
    ]
    with open(csv_path, newline="") as f:
        assert [row[0] for row in csv.reader(f)][1:] == [str(tests / "c.wav")]


def test_roundtrip_command(corpus, capsys):
    assert run(["roundtrip", "--in", corpus / "clean.wav", "--transform", "dwpt",
                "--level", "3", "--filter", "db8"]) == 0
    out = capsys.readouterr().out
    assert "transform=dwpt level=3 filter=db8" in out
    mse_line = [l for l in out.splitlines() if l.startswith("mse=")][0]
    assert float(mse_line.split("=")[1]) < 1e-20

    # shift 16 covers the 8000-sample file end to end, so the windowed
    # overlap-add inverse is exact everywhere
    assert run(["roundtrip", "--in", corpus / "clean.wav", "--transform", "stft",
                "--frame-size", "256", "--frame-shift", "16"]) == 0
    out = capsys.readouterr().out
    assert "transform=stft frame=256 shift=16" in out
    mse_line = [l for l in out.splitlines() if l.startswith("mse=")][0]
    assert float(mse_line.split("=")[1]) < 1e-20


def test_roundtrip_rejects_zero_frame(corpus, capsys):
    # 0 is a value, not a request for the default
    assert run(["roundtrip", "--in", corpus / "clean.wav", "--transform", "stft",
                "--frame-size", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: frame_size must be a positive whole number, got 0\n"


def test_numeric_settings_checked_before_reading_audio(tmp_path, capsys):
    missing = tmp_path / "missing.wav"
    assert run(["train", "--clean", missing, "--noise", missing, "--out", tmp_path / "m.snm",
                "--speech-rank", "0"]) == 1
    assert capsys.readouterr().err == "error: rank must be a positive whole number, got 0\n"
    assert run(["train", "--clean", missing, "--noise", missing, "--out", tmp_path / "m.snm",
                "--frame-size", "8", "--frame-shift", "9"]) == 1
    assert capsys.readouterr().err == "error: frame_shift must be in [1, frame_size]\n"
    assert run(["enhance", "--model", tmp_path / "missing.snm", "--in", missing,
                "--out", tmp_path / "o.wav", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be a nonnegative whole number, got -1\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_enhance_rejects_jobs_below_one(corpus, tmp_path, capsys, jobs):
    # checked before the model or any audio is read
    assert run(["enhance", "--model", tmp_path / "missing.snm", "--in", tmp_path / "missing.wav",
                "--out", tmp_path / "o.wav", "--jobs", jobs]) == 1
    assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
    model = tmp_path / "m.snm"
    assert run(["train", "--method", "stft-nmf", "--clean", corpus / "clean.wav",
                "--noise", corpus / "noise.wav", "--out", model, *TRAIN_FLAGS]) == 0
    assert run(["enhance", "--model", model, "--in", corpus / "noisy.wav",
                "--out", tmp_path / "o.wav", "--jobs", jobs]) == 1
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def test_config_file_values_are_checked(tmp_path, capsys):
    # a settings file's values pass argparse's checks, then NmfParams', all
    # before any audio is read: the WAV paths here do not exist
    missing = tmp_path / "missing.wav"
    args = tmp_path / "run.args"
    train = ["train", "--clean", missing, "--noise", missing, "--out", tmp_path / "m.snm",
             f"@{args}"]
    for line, message in [("--method nmf", "argument --method: invalid choice"),
                          ("--filter db9", "argument --filter: invalid choice"),
                          ("--epsilon 1", "unrecognized arguments: --epsilon 1")]:
        args.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            run(train)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    for line, message in [("--noise-rank 0",
                           "error: rank must be a positive whole number, got 0\n"),
                          ("--iters-train 0",
                           "error: max_iters must be a positive whole number, got 0\n")]:
        args.write_text(line + "\n")
        assert run(train) == 1
        assert capsys.readouterr().err == message
    # an enhance file may hold only enhance flags
    args.write_text("--level 2\n")
    with pytest.raises(SystemExit) as exc:
        run(["enhance", "--model", tmp_path / "missing.snm", "--in", missing,
             "--out", tmp_path / "o.wav", f"@{args}"])
    assert exc.value.code == 2
    assert not (tmp_path / "m.snm").exists()


@pytest.mark.parametrize("method", ["stft-nmf", "dwpt-nmf"])
def test_args_file_matches_inline_flags(corpus, tmp_path, method):
    args = tmp_path / "run.args"
    args.write_text(
        "# experiment settings\n"
        f"--method {method}\n"
        "\n"
        "--frame-size 64 --frame-shift 16  # geometry\n"
        "--level 2\n"
        "--filter db4\n"
        "--speech-rank 2\n"
        "--noise-rank 3\n"
        "#--noise-rank 9\n"
        "--iters-train 25\n"
        "--seed 5\n"
    )
    inline = ["--method", method, "--frame-size", "64", "--frame-shift", "16", "--level", "2",
              "--filter", "db4", "--speech-rank", "2", "--noise-rank", "3",
              "--iters-train", "25", "--seed", "5"]
    base = ["train", "--clean", corpus / "clean.wav", "--noise", corpus / "noise.wav"]
    assert run([*base, "--out", tmp_path / "file.snm", f"@{args}"]) == 0
    assert run([*base, "--out", tmp_path / "flags.snm", *inline]) == 0
    assert (tmp_path / "file.snm").read_bytes() == (tmp_path / "flags.snm").read_bytes()


def test_config_file_and_flag_precedence(corpus, tmp_path):
    # the command line reads as if the file's tokens stood in its place,
    # so the last of two values wins
    args = tmp_path / "run.args"
    args.write_text("--method stft-nmf\n"
                    + " ".join(TRAIN_FLAGS).replace("--seed 0", "--seed 5") + "\n")
    base = ["train", "--clean", corpus / "clean.wav", "--noise", corpus / "noise.wav"]
    models = {}
    for tag, tail in [("file", [f"@{args}"]), ("after", [f"@{args}", "--seed", "9"]),
                      ("before", ["--seed", "9", f"@{args}"])]:
        models[tag] = tmp_path / f"{tag}.snm"
        assert run([*base, "--out", models[tag], *tail]) == 0
    assert models["before"].read_bytes() == models["file"].read_bytes()
    assert models["after"].read_bytes() != models["file"].read_bytes()


@pytest.mark.parametrize("method", ["stft-nmf", "dwpt-nmf"])
def test_train_and_enhance_defaults(corpus, monkeypatch, method):
    args = build_parser().parse_args(["enhance", "--model", "m", "--in", "x", "--out", "y"])
    assert (args.jobs, args.iters_encode, args.normalize, args.seed) == (
        1, defaults.ENCODE_ITERS, True, defaults.DEFAULT_SEED)
    argv = ["train", "--clean", str(corpus / "clean.wav"), "--noise", str(corpus / "noise.wav"),
            "--out", str(corpus / "m.snm")]
    args = build_parser().parse_args(argv)
    assert (args.method, args.level, args.filter_name, args.speech_rank, args.noise_rank,
            args.iters_train, args.seed) == (
        "dwpt-nmf", defaults.DWPT_LEVEL, defaults.DEFAULT_FILTER, defaults.SPEECH_RANK,
        defaults.NOISE_RANK, defaults.TRAIN_ITERS, defaults.DEFAULT_SEED)
    # the frame geometry follows the method; stop at the trainer
    seen = {}

    def trainer(clean, noise, *rest, speech_params, noise_params):
        seen.update(spec=rest[-1], speech=speech_params, noise=noise_params, rest=rest[:-1])
        raise ValueError("stop")

    monkeypatch.setattr(cli, "train_stft_model", trainer)
    monkeypatch.setattr(cli, "train_dwpt_model", trainer)
    assert main([*argv, "--method", method]) == 1
    if method == "stft-nmf":
        assert seen["spec"] == FrameSpec(defaults.STFT_FRAME_SIZE, defaults.STFT_FRAME_SHIFT)
        assert seen["rest"] == ()
    else:
        assert seen["spec"] == FrameSpec(defaults.DWPT_FRAME_SIZE, defaults.DWPT_FRAME_SHIFT)
        assert seen["rest"] == (defaults.DWPT_LEVEL, defaults.DEFAULT_FILTER)
    assert seen["speech"] == NmfParams(defaults.SPEECH_RANK, defaults.TRAIN_ITERS,
                                       defaults.DEFAULT_SEED)
    assert seen["noise"] == NmfParams(defaults.NOISE_RANK, defaults.TRAIN_ITERS,
                                      defaults.DEFAULT_SEED)


def test_seed_environment_variable_is_ignored(corpus, monkeypatch):
    # a run is set by its command line alone: the seed comes from --seed or
    # its default, never from the environment
    base = ["train", "--clean", corpus / "clean.wav", "--noise", corpus / "noise.wav",
            "--method", "stft-nmf", "--frame-size", "64", "--frame-shift", "16",
            "--speech-rank", "2", "--noise-rank", "3", "--iters-train", "25"]
    a = corpus / "env.snm"
    b = corpus / "plain.snm"
    monkeypatch.setenv("SUBBAND_NMF_SEED", "123")
    assert run([*base, "--out", a]) == 0
    monkeypatch.delenv("SUBBAND_NMF_SEED")
    assert run([*base, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_errors_exit_one(tmp_path, capsys):
    assert run(["enhance", "--model", tmp_path / "missing.snm",
                "--in", tmp_path / "missing.wav", "--out", tmp_path / "o.wav"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_enhance_rejects_an_empty_directory_and_a_missing_path(corpus, capsys):
    model = corpus / "model.snm"
    run(["train", "--method", "stft-nmf", "--clean", corpus / "clean.wav",
         "--noise", corpus / "noise.wav", "--out", model, *TRAIN_FLAGS])
    (corpus / "empty").mkdir()
    for path, message in ((corpus / "empty", "directory contains no .wav files"),
                          (corpus / "missing.wav", "no such file")):
        capsys.readouterr()
        assert run(["enhance", "--model", model, "--in", path, "--out", corpus / "o"]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (corpus / "o").exists()


def test_cli_bad_snr_input(tmp_path, capsys):
    write_wav(tmp_path / "z.wav", Signal(np.zeros(100), RATE))
    write_wav(tmp_path / "n.wav", Signal(np.ones(100) * 0.5, RATE))
    assert run(["mix", "--clean", tmp_path / "z.wav", "--noise", tmp_path / "n.wav",
                "--snr", "0", "--out", tmp_path / "m.wav"]) == 1
    assert "silent" in capsys.readouterr().err
