"""The names the benchmark's traced runs rely on still exist in the library.

The traced runs report per-layer metrics named `<module>.<function>.*`
(BENCHMARK.json) and compute counts from a traced call's bound arguments
(perfbench/tracer.py).  A renamed function or parameter breaks every
traced run; these checks catch it without running the benchmark.  The
workloads' two trainer calls run on a small corpus, so that a changed
trainer signature fails here too, not only in perfbench/test_bench.py.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import subband_nmf as snm

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_perfbench("tracer")
WORKLOADS = _load_perfbench("workloads")


def _function(qualified):
    layer, name = qualified.split(".")
    return getattr(importlib.import_module(f"subband_nmf.{layer}"), name, None)


FUNCTION_METRICS = sorted(
    m["name"].rsplit(".", 1)[0]
    for m in SPEC["per_layer"]
    if m["name"].endswith((".self_s", ".calls"))
)


@pytest.mark.parametrize("qualified", FUNCTION_METRICS)
def test_per_layer_metric_names_a_public_library_function(qualified):
    layer, name = qualified.split(".")
    fn = _function(qualified)
    assert inspect.isfunction(fn), qualified
    assert not name.startswith("_")
    assert fn.__module__ == f"subband_nmf.{layer}" and fn.__name__ == name


COUNTERS = list(TRACER._ARG_COUNTERS.items()) + [
    (name, counter) for name, (counter, _) in TRACER._RESULT_COUNTERS.items()
]


@pytest.mark.parametrize(
    "qualified, counter", COUNTERS, ids=[counter.__name__ for _, counter in COUNTERS]
)
def test_tracer_counter_takes_the_counted_functions_parameters(qualified, counter):
    fn = _function(qualified)
    assert inspect.isfunction(fn), qualified
    wanted = list(inspect.signature(fn).parameters)
    taken = [p for p in inspect.signature(counter).parameters if p != "result"]
    assert taken == wanted, qualified


@pytest.mark.parametrize("front_end", ["stft", "dwpt"])
def test_workload_trainers_run(front_end):
    # 1.5 s per class, at the workloads' paper geometry and sweep count
    clean = [WORKLOADS.swept_tone(1.5, seed=1)]
    noises = [WORKLOADS.noise("pink", 1.5, 2)]
    model = getattr(WORKLOADS, f"train_{front_end}")(clean, noises)
    assert model.sample_rate == WORKLOADS.RATE
    expected = {"stft": snm.StftBasisModel, "dwpt": snm.SubbandBasisModel}[front_end]
    assert isinstance(model, expected)
