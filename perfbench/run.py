#!/usr/bin/env python3
"""subband-nmf benchmark: one seeded workload per run.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload enhance-long --seed 1 --seconds 12 --trace 0

Workloads, metrics and their bounds are listed in BENCHMARK.json and
explained in perfbench/NOTES.md.  With --trace 0 the run measures the
end-to-end metrics with no tracing installed; with --trace 1 it installs
the span tracer and reports the per-layer metrics instead.

Standard output ends with a readable table, one JSON line of run
environment and extended statistics, and, as the last line, the result
object {"correct", "attempted", "failed", "metrics"}.  The exit code is 1
when a correctness check failed and 2 when the program's sources are not
in the checkout.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("enhance-long", "cli-batch", "train-paper")
# Set-up is repeated and its median reported, so one slow start does not
# decide setup_s; every repeat trains both models from scratch.
SETUP_REPEATS = 3
# A timing tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True, help="workload seed; same seed, same inputs")
    ap.add_argument("--seconds", type=float, required=True, help="time to spend in timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 for the traced run that reports per-layer metrics")
    return ap.parse_args(argv)


def tail(samples):
    """(percentile, value) of the highest whole percentile with at least
    TAIL_BEYOND samples beyond it, by nearest rank; None when too few."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None


def timing_stats(record):
    """Per front end: sample count, median and tail of the real-time factor."""
    out = {}
    for kind, entries in sorted(record.times.items()):
        rtf = [wall / audio for audio, wall in entries]
        stats = {"count": len(rtf), "rtf_p50": statistics.median(rtf)}
        found = tail(rtf)
        if found:
            stats["rtf_tail_percentile"], stats["rtf_tail"] = found
        out[kind] = stats
    return out


def _openblas_threads():
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def _cache_sizes():
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(workloads):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "caches": _cache_sizes(),
        "git_sha": _git_sha(),
        "env_set_for_program": {
            "cli-batch": dict(
                workloads.CLI_PIN, PYTHONPATH="src",
                reason="one BLAS thread per --jobs worker so jobs x BLAS threads <= nproc; "
                       "see NOTES.md, --jobs 2 oversubscription",
            ),
        },
    }


def run_setups(workload_cls, seed, work, record):
    """Set the workload up SETUP_REPEATS times; keep the last, time them all."""
    durations, trainings, fingerprints = [], defaultdict(list), []
    for _ in range(SETUP_REPEATS):
        workload = workload_cls(seed, work)
        start = time.perf_counter()
        train_s = workload.setup()
        durations.append(time.perf_counter() - start)
        for key, value in train_s.items():
            trainings[key].append(value)
        fingerprints.append(workload.fingerprint())
    if len(set(fingerprints)) != 1:
        record.fail("set-up is not repeatable: models or inputs differ between repeats")
    return workload, durations, trainings


def run_passes(workload, record, seconds):
    """Whole passes, at least one, until `seconds` have elapsed; returns each pass's wall time."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        pass_start = time.perf_counter()
        workload.run_pass(record)
        walls.append(time.perf_counter() - pass_start)
    return walls


def training_medians(workload, record, trainings):
    """Median wall time of each training: the timed calls on train-paper,
    the set-ups elsewhere."""
    if workload.name == "train-paper":
        return {f"{kind}_train_s": statistics.median(w for _, w in record.times[kind])
                for kind in ("dwpt", "stft")}
    return {key: statistics.median(values) for key, values in trainings.items()}


def end_to_end(record, import_s, setup_durations):
    def x_realtime(kind):
        entries = record.times[kind]
        return sum(a for a, _ in entries) / sum(w for _, w in entries)

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": import_s + statistics.median(setup_durations),
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        "ok_frac": 1.0 - len(record.failures) / max(record.attempted, 1),
        "dwpt_x_realtime": x_realtime("dwpt"),
        "dwpt_rtf_p50": statistics.median(w / a for a, w in record.times["dwpt"]),
        "stft_x_realtime": x_realtime("stft"),
        "dwpt_ssnr_gain_db": statistics.fmean(record.gains["dwpt"]),
        "stft_ssnr_gain_db": statistics.fmean(record.gains["stft"]),
    }


def traced(workload_cls, seed, seconds, work, record):
    """Per-layer metrics: a traced set-up, then untraced and traced passes in
    turn until `seconds` have elapsed, then traced final checks."""
    import workloads
    from tracer import Tracer, combine_passes, read_flushed, summarize

    tracer = Tracer()
    workload = workload_cls(seed, work)
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    outside = [tracer.take()]

    span_root = work / "spans"
    cli = isinstance(workload, workloads.CliBatch)
    walls = {False: [], True: []}
    passes = []

    def traced_pass():
        # spans of the pass: this process's, and those of every traced CLI
        # batch it ran, whose directories are consumed here
        workload.span_root = span_root if cli else None
        tracer.install()
        try:
            walls[True] += run_passes(workload, record, 0.0)
        finally:
            tracer.uninstall()
            workload.span_root = None
        batches = [tracer.take()]
        metrics = defaultdict(float)
        for span_dir in sorted(span_root.glob("*")) if cli else []:
            flushed = read_flushed(span_dir)
            batches += [(b["spans"], b["counts"]) for b in flushed]
            worker_s = sum(end - start for b in flushed for name, start, end, _, _ in b["spans"]
                           if name == "cli._enhance_one")
            batch_wall = record.times[span_dir.name.split("-", 1)[1]][-1][1]
            metrics["cli.pool_overhead_s"] += batch_wall - worker_s / workloads.JOBS
            shutil.rmtree(span_dir)
        metrics.update(summarize(batches))
        metrics["trace.wall_s"] = walls[True][-1]
        passes.append(metrics)

    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        walls[False] += run_passes(workload, record, 0.0)
        traced_pass()
    tracer.install()
    try:
        workload.finish(record)
    finally:
        tracer.uninstall()
    outside.append(tracer.take())

    values = combine_passes(summarize(outside), passes)
    untraced_s, traced_s = statistics.median(walls[False]), statistics.median(walls[True])
    values["trace.passes"] = len(passes)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    if cli:
        values["cli.jobs2_unpinned_s"] = workload.unpinned_batch_s()
    return values


def emit(spec_metrics, values, record, info):
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec_metrics}
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:>14.6g} {entry['unit']}")
    info["not_observed"] = missing
    print(json.dumps({"info": info}))
    result = {
        "correct": not record.failures,
        "attempted": record.attempted,
        "failed": len(record.failures),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "subband_nmf" / "__init__.py").is_file():
        print(f"error: {SRC / 'subband_nmf'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import subband_nmf  # noqa: F401  (timed as part of set-up)

    import_s = time.perf_counter() - _PROCESS_START
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    record = workloads.Record()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            values = traced(workload_cls, args.seed, args.seconds, work, record)
            spec_metrics, extra = spec["per_layer"], {}
        else:
            workload, setup_durations, trainings = run_setups(
                workload_cls, args.seed, work, record)
            walls = run_passes(workload, record, args.seconds)
            workload.finish(record)
            values = end_to_end(record, import_s, setup_durations)
            spec_metrics = spec["end_to_end"]
            extra = {"import_s": import_s, "setup_samples_s": setup_durations,
                     "train_s": training_medians(workload, record, trainings),
                     "train_samples_s": trainings, "passes": len(walls),
                     "pass_walls_s": walls}
            if isinstance(workload, workloads.CliBatch):
                extra["batch_files_per_s"] = {
                    kind: workload.clips * len(e) / sum(w for _, w in e)
                    for kind, e in record.times.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(workloads),
            "timings": timing_stats(record), **extra, "failures": record.failures[:20]}
    emit(spec_metrics, values, record, info)
    for failure in record.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if record.failures else 0


if __name__ == "__main__":
    sys.exit(main())
