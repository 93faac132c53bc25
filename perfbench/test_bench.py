"""Tests of the benchmark itself; the repository's test suite does not collect them.

    python3 -m pytest -q perfbench/test_bench.py

Each workload runs once untraced and once traced with a one-second
budget, which takes a few minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(cwd, workload, trace, seed=3, seconds=1):
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(ROOT, workload, trace)
            out[workload, trace] = (proc, json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def test_spec_names_the_workloads_and_setup_metric():
    assert WORKLOADS == ["enhance-long", "cli-batch", "train-paper"]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(results, workload, trace):
    proc, result = results[workload, trace]
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, m["name"]


def test_every_layer_metric_is_observed_on_some_workload(results):
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name.endswith(".errors") or name.startswith("trace.overhead"):
            continue
        assert any(results[w, 1][1]["metrics"][name]["value"] for w in WORKLOADS), name


def test_layer_self_times_fit_in_the_run(results):
    for workload in WORKLOADS:
        metrics = {k: v["value"] for k, v in results[workload, 1][1]["metrics"].items()}
        # the CLI's main process and each pool worker run at the same time
        processes = 1 + workloads.JOBS if workload == "cli-batch" else 1
        assert 0 < metrics["trace.self_s_sum"] <= processes * metrics["trace.wall_s"]


def test_seed_changes_the_inputs():
    def samples(pairs):
        return [s.samples for pair in pairs for s in pair]

    one, again, two = (workloads.mixtures(seed, 1, 6, 1.0, 2.0) for seed in (1, 1, 2))
    assert all(np.array_equal(a, b) for a, b in zip(samples(one), samples(again)))
    assert not any(np.array_equal(a, b) for a, b in zip(samples(one), samples(two)))
    corpus_one, corpus_two = workloads.training_corpus(1), workloads.training_corpus(2)
    assert not np.array_equal(corpus_one[0][0].samples, corpus_two[0][0].samples)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_needs_ten_samples_beyond():
    assert run.tail(range(1, 10)) is None
    assert run.tail(range(1, 21)) == (50, 10)
    assert run.tail(range(1, 101)) == (90, 90)


def test_self_time_and_errors():
    spans = [
        ("subband.subband_gain", 0.0, 10.0, -1, False),
        ("nmf.encode", 1.0, 5.0, 0, False),
        ("framing.frame_signal", 6.0, 7.0, 0, True),
    ]
    out = tracer.summarize([(spans, {"nmf.encode.gflop": 2.0})])
    assert out["subband.subband_gain.self_s"] == pytest.approx(5.0)
    assert out["nmf.encode.self_s"] == pytest.approx(4.0)
    assert out["trace.self_s_sum"] == pytest.approx(10.0)
    assert out["nmf.errors"] == 1 and out["subband.errors"] == 0
    assert out["nmf.encode.gflop"] == 2.0
