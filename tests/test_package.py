"""The package namespace: what `from subband_nmf import *` exports."""

import types

import subband_nmf


def test_all_lists_every_public_name_once():
    public = {
        name
        for name, value in vars(subband_nmf).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(subband_nmf.__all__) == len(set(subband_nmf.__all__))
    assert set(subband_nmf.__all__) == public
