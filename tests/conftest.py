import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from subband_nmf import BandModel, Signal, SubbandBasisModel

ROOT = Path(__file__).resolve().parent.parent


def load_module(relative_path):
    """The file at relative_path under the repository root, run as a module.

    The module is not registered in sys.modules, so each call runs the
    file afresh.
    """
    path = ROOT / relative_path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_signal(n, rate=8000, seed=0, scale=0.5):
    r = np.random.default_rng(seed)
    return Signal(scale * r.uniform(-1.0, 1.0, n), rate)


def make_tone(freq, dur, rate=8000, amp=0.5, phase=0.0):
    t = np.arange(int(dur * rate)) / rate
    return Signal(amp * np.sin(2 * np.pi * freq * t + phase), rate)


def unit_gain_model(level, spec, sigma_clean=1.0):
    """A db8, 8 kHz dwpt model whose band gains are all exactly 1.0 on any input.

    Speech dictionaries of ones and noise dictionaries of zeros leave the
    whole encoding in the speech class, so the ratio gain is 1 wherever
    the speech part clears EPSILON; where it does not, the band is
    silent and its product with the gain is still the band.  Enhancing
    with it takes the real gain path: encode, split, ratio gain, root,
    overlap-add and the tail fill.
    """
    band = BandModel(
        np.ones((spec.frame_size, 4)), np.zeros((spec.frame_size, 8)), sigma_clean
    )
    return SubbandBasisModel(level, "db8", spec, [band] * 2**level, sample_rate=8000)


def planted_instance(m, n, rank, seed, weak=0.008):
    """Well-conditioned v = W0 H0 with a known factorization.

    Each dictionary column owns a strong block of rows and each
    activation row a strong block of columns, over a weak uniform
    background.  The near-disjoint supports keep the columns incoherent
    enough that multiplicative updates recover the planted product; the
    faint background (weak > 0) smooths away the column-merging local
    minima that exactly-disjoint supports admit.
    """
    r = np.random.default_rng(seed)
    w0 = r.uniform(0.0, weak, (m, rank))
    h0 = r.uniform(0.0, weak, (rank, n))
    rows = np.array_split(r.permutation(m), rank)
    cols = np.array_split(r.permutation(n), rank)
    for k in range(rank):
        w0[rows[k], k] = r.uniform(0.5, 1.0, len(rows[k]))
        h0[k, cols[k]] = r.uniform(0.5, 1.0, len(cols[k]))
    return w0, h0, w0 @ h0
