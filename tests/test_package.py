"""The package namespace: what `from subband_nmf import *` exports."""

import importlib
import types

import pytest

import subband_nmf

# the library modules whose `__all__` the package republishes
MODULES = ("framing", "metrics", "mixing", "model_io", "nmf", "spectral", "subband", "wav_io",
           "wavelets")


def test_all_lists_every_public_name_once():
    public = {
        name
        for name, value in vars(subband_nmf).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(subband_nmf.__all__) == len(set(subband_nmf.__all__))
    assert set(subband_nmf.__all__) == public


@pytest.mark.parametrize("name", MODULES)
def test_each_module_defines_what_its_all_lists(name):
    module = importlib.import_module(f"subband_nmf.{name}")
    assert module.__all__
    assert [entry for entry in module.__all__ if entry not in vars(module)] == []


def test_package_all_is_the_union_of_the_module_lists():
    listed = [entry for name in MODULES
              for entry in importlib.import_module(f"subband_nmf.{name}").__all__]
    assert sorted(subband_nmf.__all__) == sorted(listed)


@pytest.mark.parametrize("name", ("framing", "wavelets"))
def test_star_import_binds_only_the_listed_names(name):
    namespace = {}
    exec(f"from subband_nmf.{name} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(importlib.import_module(f"subband_nmf.{name}").__all__)
