"""The enhanced outputs of both front ends, against stored values.

Criterion 9 checks that two runs agree with each other; these tests
check that they agree with tests/golden_outputs.json, which
scripts/golden_outputs.py writes.  The output rms and the SSNR are
compared on every machine.  The PCM16 and float64 digests depend on the
BLAS kernel and numpy, not on the BLAS thread count, so they are compared
at any count, but only where the stored file holds this machine's
fingerprint.
"""

import json

import pytest

from conftest import load_module

golden_outputs = load_module("scripts/golden_outputs.py")

STORED = json.loads(golden_outputs.GOLDEN.read_text())
FRONT_ENDS = ("dwpt", "stft")


@pytest.fixture(scope="module")
def outputs():
    return {front_end: golden_outputs.outputs(front_end) for front_end in FRONT_ENDS}


@pytest.mark.parametrize("front_end", FRONT_ENDS)
@pytest.mark.parametrize("name", ["rms", "ssnr_db"])
def test_rms_and_ssnr_match_the_stored_values(outputs, front_end, name):
    stored, got = STORED[front_end][name], outputs[front_end][name]
    assert golden_outputs.summary_agrees(name, stored, got), f"{name}: {got!r} != {stored!r}"


@pytest.mark.parametrize("front_end", FRONT_ENDS)
def test_digests_match_under_this_fingerprint(outputs, front_end):
    key = golden_outputs.fingerprint()
    stored = STORED[front_end]["digests"]
    if key not in stored:
        pytest.skip(f"no stored {front_end} digests for fingerprint '{key}'")
    got = outputs[front_end]
    assert {name: got[name] for name in stored[key]} == stored[key]
