"""In-memory span tracer used only by the benchmark's traced runs.

`Tracer.install()` replaces every public function of the subband_nmf
modules, at each module attribute a caller looks it up by (for example
`subband_nmf.subband.encode` and `subband_nmf.nmf.check_nonneg_matrix`),
with one wrapper per function that records a span: name, start, end,
parent and whether it raised.  A span is named after the module that
defines the function, so `subband.encode` and `nmf.encode` both record
`nmf.encode`.  `uninstall()` puts the original functions back, so an
untraced run pays nothing.

For `nmf.encode` and `nmf.factorize` the wrapper also adds FLOP and
byte counts computed from the argument shapes (see NOTES.md).

In a process started to trace the CLI (`flush_dir` set), spans are
appended to `<flush_dir>/spans-<pid>.jsonl` each time the outermost span
ends, because pool workers leave through `os._exit` and never run exit
handlers.  Forked children start with an empty span list.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pickle
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "nmf",
    "framing",
    "wavelets",
    "spectral",
    "subband",
    "mixing",
    "metrics",
    "wav_io",
    "model_io",
    "cli",
)

# Private functions that still mark a layer boundary: the worker-side unit
# of one `enhance` file.
_PRIVATE_TRACED = {("cli", "_enhance_one")}

_GIGA = 1e9
_WORD = 8  # bytes per float64


def _encode_counts(v, w_fixed, params, objective_trace=None):
    m, n = np.shape(v)
    r = np.shape(w_fixed)[1]
    sweeps = params.max_iters
    flop = 2 * m * r * r + 2 * m * r * n + sweeps * (2 * r * r * n + 4 * r * n)
    words = (2 * m * r + r * r) + (m * r + m * n + r * n) + sweeps * (r * r + 11 * r * n)
    if objective_trace is not None:
        flop += sweeps * (2 * m * r * n + 3 * m * n)
        words += sweeps * (m * r + r * n + 7 * m * n)
    return {"nmf.encode.gflop": flop / _GIGA, "nmf.encode.gbytes": _WORD * words / _GIGA}


def _factorize_counts(v, params):
    m, n = np.shape(v)
    r = params.rank
    sweeps = params.max_iters
    update_h = 2 * m * n * r + 2 * m * r * r + 2 * r * r * n + 4 * r * n
    update_w = 2 * m * n * r + 2 * r * r * n + 2 * m * r * r + 4 * m * r
    objective = 2 * m * r * n + 3 * m * n
    words_h = (m * r + m * n + r * n) + (2 * m * r + r * r) + (r * r + 2 * r * n) + 9 * r * n
    words_w = (m * n + r * n + m * r) + (2 * r * n + r * r) + (2 * m * r + r * r) + 9 * m * r
    words_objective = (m * r + r * n + m * n) + 7 * m * n
    return {
        "nmf.factorize.sweeps": sweeps,
        "nmf.factorize.gflop": sweeps * (update_h + update_w + objective) / _GIGA,
        "nmf.factorize.objective_gflop": sweeps * objective / _GIGA,
        "nmf.factorize.gbytes": _WORD * sweeps * (words_h + words_w + words_objective) / _GIGA,
    }


def _factorize_fit(result, v, params):
    # final objective / ||V||^2, from the returned factors so that it does
    # not depend on the objective trace being kept
    v = np.asarray(v, dtype=np.float64)
    residual = v - result.w @ result.h
    return {"nmf.factorize.fit": float(np.sum(residual * residual) / np.sum(v * v))}


def _task_bytes(result, task):
    return {"cli.task_pickle_bytes": len(pickle.dumps(task))}


def _saved_bytes(result, model, path):
    return {"model_io.model_bytes": os.path.getsize(path)}


# Counts computed from a call's bound arguments, after it returns.
_ARG_COUNTERS = {"nmf.encode": _encode_counts, "nmf.factorize": _factorize_counts}
# Counts computed from the result as well; the bool limits one to the
# first call per process (one task's pickle size stands for all of them).
# Sizes combine by maximum, everything else by sum.
_RESULT_COUNTERS = {
    "nmf.factorize": (_factorize_fit, False),
    "cli._enhance_one": (_task_bytes, True),
    "model_io.save_model": (_saved_bytes, False),
}
_MAX_COUNTS = {"cli.task_pickle_bytes", "model_io.model_bytes"}


def _merge(totals, counts):
    for key, value in counts.items():
        totals[key] = max(totals[key], value) if key in _MAX_COUNTS else totals[key] + value


class Tracer:
    """Records spans and computed counts for calls into subband_nmf."""

    def __init__(self, flush_dir: str | None = None):
        self.flush_dir = flush_dir
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._patched: list = []
        self._once: set = set()
        if flush_dir is not None:
            os.register_at_fork(after_in_child=self._forget)

    def _forget(self):
        self.spans, self._stack, self._once = [], [], set()
        self.counts = defaultdict(float)

    def install(self) -> None:
        modules = [importlib.import_module("subband_nmf")] + [
            importlib.import_module(f"subband_nmf.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or not fn.__module__.startswith("subband_nmf."):
                    continue
                layer = fn.__module__.rsplit(".", 1)[1]
                if attr.startswith("_") and (layer, attr) not in _PRIVATE_TRACED:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{fn.__name__}")
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched = []

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts

    def _wrap(self, fn, name):
        tracer = self
        signature = inspect.signature(fn)
        count_args = _ARG_COUNTERS.get(name)
        count_result, once = _RESULT_COUNTERS.get(name, (None, False))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, ok)
                if ok and (count_args or count_result):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    if count_args:
                        tracer._add(count_args(**bound.arguments))
                    if count_result and not (once and name in tracer._once):
                        if once:
                            tracer._once.add(name)
                        tracer._add(count_result(result, **bound.arguments))
                if tracer.flush_dir is not None and not tracer._stack:
                    tracer.flush()

        return traced

    def _add(self, counts):
        _merge(self.counts, counts)

    def flush(self) -> None:
        spans, counts = self.take()
        path = Path(self.flush_dir) / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as f:
            f.write(json.dumps({"pid": os.getpid(), "spans": spans, "counts": counts}) + "\n")


def read_flushed(directory) -> list:
    """Span batches written by `Tracer.flush` in every traced CLI process."""
    batches = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            batches.append(json.loads(line))
    return batches


def summarize(batches) -> dict:
    """Per-function self time and calls, per-layer errors and summed counts.

    `batches` is a list of (spans, counts) pairs whose parent indices are
    local to the batch.  Self time is a span's duration minus the
    durations of its direct children.  An error is counted once, at the
    innermost span it left.
    """
    out: dict = defaultdict(float)
    for layer in LAYERS:
        out[f"{layer}.errors"] = 0.0
    for spans, counts in batches:
        child_time = [0.0] * len(spans)
        child_failed = [False] * len(spans)
        for name, start, end, parent, ok in spans:
            if parent >= 0:
                child_time[parent] += end - start
                child_failed[parent] |= not ok
        for i, (name, start, end, parent, ok) in enumerate(spans):
            self_s = end - start - child_time[i]
            out[f"{name}.self_s"] += self_s
            out[f"{name}.calls"] += 1
            out["trace.self_s_sum"] += self_s
            if not ok and not child_failed[i]:
                out[f"{name.split('.', 1)[0]}.errors"] += 1
        _merge(out, counts)
    return out


def combine_passes(outside: dict, passes: list) -> dict:
    """One value per metric: the median over timed passes where the function
    ran in them, else the total outside the passes (set-up and final checks).

    Errors are totals over the whole traced run.
    """
    keys = set(outside).union(*passes) if passes else set(outside)
    out = {}
    for key in keys:
        if key.endswith(".errors"):
            out[key] = outside.get(key, 0.0) + sum(p.get(key, 0.0) for p in passes)
        elif any(p.get(key, 0.0) for p in passes):
            out[key] = statistics.median(p.get(key, 0.0) for p in passes)
        else:
            out[key] = outside.get(key, 0.0)
    return out
