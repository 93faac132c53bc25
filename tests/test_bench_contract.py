"""The names the benchmark's traced runs rely on still exist in the library.

The traced runs report per-layer metrics named `<module>.<function>.*`
(BENCHMARK.json) and compute counts from a traced call's bound arguments
(perfbench/tracer.py).  A renamed function or parameter breaks every
traced run; these checks catch it without running the benchmark.  The
workloads' two trainer calls run on a small corpus, so that a changed
trainer signature fails here too, not only in perfbench/test_bench.py.
A tiny traced run through every layer must observe every function the
metrics name, so that a refactor which takes one off every call path
fails here in seconds rather than in the benchmark's own tests.
"""

import importlib
import inspect
import json

import pytest

import subband_nmf as snm

from conftest import ROOT, load_module

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACER = load_module("perfbench/tracer.py")
WORKLOADS = load_module("perfbench/workloads.py")


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


def test_every_function_metric_is_observed_on_a_tiny_run(tmp_path):
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        clean = [snm.synth_sweep(0.5, 8000)]
        noise = [snm.synth_white_noise(0.5, 8000)]
        train = dict(speech_params=snm.NmfParams(2, 2), noise_params=snm.NmfParams(2, 2))
        models = {
            "dwpt": snm.train_dwpt_model(clean, noise, 2, "db4", snm.FrameSpec(32, 8), **train),
            "stft": snm.train_stft_model(clean, noise, snm.FrameSpec(64, 16), **train),
        }
        snm.write_wav(tmp_path / "noisy.wav", snm.mix_at_snr(clean[0], noise[0], snm.MixSpec(5.0)))
        noisy = snm.read_wav(tmp_path / "noisy.wav")[0]
        for kind, model in models.items():
            snm.save_model(model, tmp_path / f"{kind}.snm")
            model = snm.load_model(tmp_path / f"{kind}.snm")
            if kind == "dwpt":
                out = snm.enhance_dwpt(noisy, model, "db4", snm.NmfParams(4, 2))
            else:
                out = snm.enhance_stft(noisy, model, snm.NmfParams(4, 2))
            snm.evaluate(clean[0], out)
    finally:
        tracer.uninstall()
    observed = {span[0] for span in tracer.spans}
    assert [name for name in FUNCTION_METRICS if name not in observed] == []
