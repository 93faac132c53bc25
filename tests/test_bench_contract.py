"""The names the benchmark's traced runs rely on still exist in the library.

The traced runs report per-layer metrics named `<module>.<function>.*`
(BENCHMARK.json) and compute counts from a traced call's bound arguments
(perfbench/tracer.py).  A renamed function or parameter breaks every
traced run; these checks catch it without running the benchmark.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


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
