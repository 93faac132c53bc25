"""Batch command-line front end.

Subcommands: train, enhance, mix, eval, roundtrip.  Flags can also come
from a settings file named as `@file`: its tokens stand in its place on
the command line, so a flag after it overrides the file, and each value
passes the same type and choice checks as a flag.  In the file, `#`
starts a comment.  `--seed` defaults to defaults.DEFAULT_SEED, so a
run is set by its command line alone; an `@file` holding `--seed N`
re-seeds every call that names it.  A directory given to `enhance --in`
always makes a batch: each output goes to `<out>/<name>`.
"""

import argparse
import csv
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from . import defaults
from .framing import FrameSpec
from .metrics import MetricReport, evaluate
from .mixing import MixSpec, mix_at_snr
from .model_io import load_model, save_model
from .nmf import NmfParams, _blas_threads_api
from .spectral import StftBasisModel, enhance_stft, istft, stft, train_stft_model
from .subband import enhance_dwpt, train_dwpt_model
from .wav_io import read_wav, write_wav
from .wavelets import FILTER_NAMES, dwpt, idwpt

# each method's default frame geometry, (frame_size, frame_shift)
METHOD_FRAMES = {
    "stft-nmf": (defaults.STFT_FRAME_SIZE, defaults.STFT_FRAME_SHIFT),
    "dwpt-nmf": (defaults.DWPT_FRAME_SIZE, defaults.DWPT_FRAME_SHIFT),
}


def _expand_audio(paths) -> list:
    """Expand directories to their .wav files in lexicographic order.

    Only regular files are taken from a directory, so a subdirectory
    named like a WAV file is skipped.
    """
    out = []
    for p in map(Path, paths):
        if p.is_dir():
            members = sorted(q for q in p.iterdir()
                             if q.suffix.lower() == ".wav" and q.is_file())
            if not members:
                raise ValueError(f"{p}: directory contains no .wav files")
            out.extend(members)
        elif p.exists():
            out.append(p)
        else:
            raise ValueError(f"{p}: no such file")
    return out


def cmd_train(args) -> int:
    size, shift = METHOD_FRAMES[args.method]
    spec = FrameSpec(size if args.frame_size is None else args.frame_size,
                     shift if args.frame_shift is None else args.frame_shift)
    speech_params = NmfParams(args.speech_rank, args.iters_train, args.seed)
    noise_params = NmfParams(args.noise_rank, args.iters_train, args.seed)
    clean = [read_wav(p)[0] for p in _expand_audio(args.clean)]
    noise = [read_wav(p)[0] for p in _expand_audio(args.noise)]
    if args.method == "stft-nmf":
        model = train_stft_model(
            clean, noise, spec, speech_params=speech_params, noise_params=noise_params
        )
    else:
        model = train_dwpt_model(
            clean, noise, args.level, args.filter_name, spec,
            speech_params=speech_params, noise_params=noise_params,
        )
    save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


# The function every `_enhance_one` call applies to a noisy signal, set once
# per process by `_start_worker`: in each pool worker through the pool
# initializer, so that a task carries only its two paths.
_enhancer = None


def _start_worker(enhance, workers):
    """Set up a process that runs `_enhance_one`: install `enhance`, and take its share of BLAS.

    Each of a pool's `workers` runs this as its initializer, and an
    in-process batch runs it with workers=1.  A worker starts with the
    BLAS thread count of the parent, which is the budget of the whole
    batch, so each of `workers` takes count // workers of it, at least
    one, as `nmf._nmf_call` spreads a call over the count it finds.  With
    one worker nothing is set, and without a thread-count setter the set
    does nothing (`nmf._NO_SETTER`).
    """
    global _enhancer
    get, set_ = _blas_threads_api()
    if workers > 1:
        set_(max(1, get() // workers))
    _enhancer = enhance


def _enhance_one(task):
    in_path, out_path = task
    write_wav(out_path, _enhancer(read_wav(in_path)[0]))
    return f"wrote {out_path}"


def _each_file(calls) -> int:
    """Run each (path, call) pair's call in order, print what it returns, and count failures.

    This is the batch rule of `enhance` and `eval`: a ValueError or
    OSError costs only its own file.  It is printed as
    `error: <path>: <message>`, and the batch goes on.
    """
    failed = 0
    for path, call in calls:
        try:
            print(call())
        except (ValueError, OSError) as e:
            failed += 1
            print(f"error: {path}: {e}", file=sys.stderr)
    return failed


def _batch_status(failed, total) -> int:
    """The exit status of a batch of `total` inputs, after its summary line if any failed."""
    if failed:
        print(f"error: {failed} of {total} inputs failed", file=sys.stderr)
        return 1
    return 0


def cmd_enhance(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    # encode takes the rank from the model's dictionaries, not from params
    params = NmfParams(rank=1, max_iters=args.iters_encode, seed=args.seed)
    model = load_model(args.model)
    if isinstance(model, StftBasisModel):
        enhance = partial(enhance_stft, model=model, params=params)
    else:
        enhance = partial(enhance_dwpt, model=model, filter_name=model.filter_name,
                          params=params, normalize=args.normalize)
    inputs = _expand_audio(args.in_paths)
    out = Path(args.out)
    # a directory input makes a batch even when it holds one file
    batch = len(inputs) > 1 or out.is_dir() or any(Path(p).is_dir() for p in args.in_paths)
    tasks = [(p, out / p.name) for p in inputs] if batch else [(inputs[0], out)]
    # one output per input, and no output over an input: a second input of the
    # same name would replace the first output, and an output at an input's
    # path would replace that input
    sources = {p.resolve() for p in inputs}
    writers = {}
    for src, dst in tasks:
        if dst.resolve() in sources:
            raise ValueError(f"{src} would be written to {dst}, which is an input")
        if dst in writers:
            raise ValueError(f"{writers[dst]} and {src} would both be written to {dst}")
        writers[dst] = src
    if batch:
        out.mkdir(parents=True, exist_ok=True)
    # the pool starts all its workers at the first submit, so start no more
    # than there are files
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        pool = ProcessPoolExecutor(max_workers=workers,
                                   initializer=_start_worker, initargs=(enhance, workers))
    else:
        _start_worker(enhance, 1)
        pool = nullcontext()
    with pool:
        # every file is submitted before the first result is read
        calls = [pool.submit(_enhance_one, t).result if workers > 1 else partial(_enhance_one, t)
                 for t in tasks]
        failed = _each_file(zip(inputs, calls))
    return _batch_status(failed, len(tasks))


def cmd_mix(args) -> int:
    spec = MixSpec(args.snr, args.seed)
    clean, _ = read_wav(args.clean)
    noise, _ = read_wav(args.noise)
    write_wav(args.out, mix_at_snr(clean, noise, spec))
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    refs = _expand_audio([args.reference])
    tests = _expand_audio([args.test])
    if not Path(args.reference).is_dir() and not Path(args.test).is_dir():
        by_name = {tests[0].name: refs[0]}
    else:
        by_name = {p.name: p for p in refs}
    rows = []

    def score(test_path):
        if test_path.name not in by_name:
            raise ValueError(f"no reference named {test_path.name}")
        report = evaluate(read_wav(by_name[test_path.name])[0], read_wav(test_path)[0])
        rows.append((str(test_path), report))
        return "\n".join([f"file={test_path}"]
                         + [f"{key}={val:.6f}" for key, val in report.as_dict().items()])

    failed = _each_file((t, partial(score, t)) for t in tests)
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["file"] + [field.name for field in fields(MetricReport)])
            for name, report in rows:
                w.writerow([name] + [f"{v:.12g}" for v in report.as_dict().values()])
        print(f"wrote {args.csv}")
    return _batch_status(failed, len(tests))


def cmd_roundtrip(args) -> int:
    signal, _ = read_wav(args.in_path)
    x = signal.samples
    if args.transform == "dwpt":
        y = idwpt(dwpt(signal, args.level, args.filter_name), args.filter_name, len(x))
        label = f"dwpt level={args.level} filter={args.filter_name}"
    else:
        spec = FrameSpec(args.frame_size, args.frame_shift)
        y = istft(stft(signal, spec), spec, len(x))
        label = f"stft frame={spec.frame_size} shift={spec.frame_shift}"
    err = float(np.mean((x - y) ** 2))
    print(f"transform={label}")
    print(f"mse={err:.6e}")
    return 0


class _Parser(argparse.ArgumentParser):
    def convert_arg_line_to_args(self, arg_line):
        # a settings-file line holds any number of tokens; '#' starts a comment
        return arg_line.split("#", 1)[0].split()


def _add_seed(p: argparse.ArgumentParser, what: str):
    p.add_argument("--seed", type=int, default=defaults.DEFAULT_SEED,
                   help=f"{what} seed (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="subband-nmf",
        description="Supervised subband/spectral NMF speech enhancement toolkit. "
                    "An @FILE argument stands for the flags written in FILE.",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="learn per-class dictionaries from WAV files")
    p.add_argument("--clean", nargs="+", required=True, help="clean WAV files or directories")
    p.add_argument("--noise", nargs="+", required=True, help="noise WAV files or directories")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--method", choices=METHOD_FRAMES, default="dwpt-nmf",
                   help="enhancement method (default %(default)s)")
    p.add_argument("--frame-size", dest="frame_size", type=int, default=None,
                   help=f"analysis frame length (default {defaults.STFT_FRAME_SIZE} stft, "
                        f"{defaults.DWPT_FRAME_SIZE} dwpt)")
    p.add_argument("--frame-shift", dest="frame_shift", type=int, default=None,
                   help=f"frame hop (default {defaults.STFT_FRAME_SHIFT} stft, "
                        f"{defaults.DWPT_FRAME_SHIFT} dwpt)")
    p.add_argument("--level", type=int, default=defaults.DWPT_LEVEL,
                   help="wavelet tree depth (default %(default)s)")
    p.add_argument("--filter", dest="filter_name", choices=FILTER_NAMES,
                   default=defaults.DEFAULT_FILTER, help="wavelet family (default %(default)s)")
    p.add_argument("--speech-rank", dest="speech_rank", type=int, default=defaults.SPEECH_RANK,
                   help="speech dictionary columns (default %(default)s)")
    p.add_argument("--noise-rank", dest="noise_rank", type=int, default=defaults.NOISE_RANK,
                   help="noise dictionary columns (default %(default)s)")
    p.add_argument("--iters-train", dest="iters_train", type=int, default=defaults.TRAIN_ITERS,
                   help="training update sweeps (default %(default)s)")
    _add_seed(p, "RNG")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="suppress noise in WAV files with a trained model")
    p.add_argument("--model", required=True, help="model file from `train`")
    p.add_argument("--in", dest="in_paths", nargs="+", required=True,
                   help="noisy WAV files or directories")
    p.add_argument("--out", required=True, help="output WAV file, or directory for batches")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (default %(default)s)")
    p.add_argument("--iters-encode", dest="iters_encode", type=int, default=defaults.ENCODE_ITERS,
                   help="cap on the encoding update sweeps, which stop earlier once "
                        "the encoding converges (default %(default)s)")
    p.add_argument("--no-normalize", dest="normalize", action="store_false",
                   help="skip subband power normalization")
    _add_seed(p, "RNG")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("mix", help="add noise to a clean WAV at a target SNR")
    p.add_argument("--clean", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--snr", type=float, required=True, help="target SNR in dB")
    _add_seed(p, "noise offset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("eval", help="objective metrics of test WAVs against references")
    p.add_argument("--reference", required=True, help="clean WAV file or directory")
    p.add_argument("--test", required=True, help="processed WAV file or directory")
    p.add_argument("--csv", default=None, help="also write rows to this CSV file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("roundtrip", help="analysis/synthesis round-trip error of a WAV")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--transform", choices=("dwpt", "stft"), required=True)
    p.add_argument("--level", type=int, default=defaults.DWPT_LEVEL,
                   help="dwpt tree depth (default %(default)s)")
    p.add_argument("--filter", dest="filter_name", choices=FILTER_NAMES,
                   default=defaults.DEFAULT_FILTER, help="dwpt family (default %(default)s)")
    p.add_argument("--frame-size", dest="frame_size", type=int,
                   default=defaults.STFT_FRAME_SIZE, help="stft frame (default %(default)s)")
    p.add_argument("--frame-shift", dest="frame_shift", type=int,
                   default=defaults.STFT_FRAME_SHIFT, help="stft hop (default %(default)s)")
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
