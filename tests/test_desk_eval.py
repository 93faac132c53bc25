"""scripts/desk_eval.py run as a program: its table, and the values it refuses.

Criterion 7 gates the numbers of `train_models` and `run_condition`;
these tests check the command line around them.
"""

import pytest

from conftest import load_module

desk_eval = load_module("scripts/desk_eval.py")

# the arguments of CI's smoke run
SMOKE = ["--snrs", "5", "--num-seeds", "1", "--train-seconds", "4",
         "--train-iters", "5", "--enhance-iters", "5"]


def test_smoke_run_prints_one_row_per_system(capsys):
    assert desk_eval.main(SMOKE) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[1] for row in rows if row[:1] == ["5.0"]] == ["noisy", "stft", "dwpt"]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_a_seed_count_below_one_is_refused(count, capsys):
    with pytest.raises(SystemExit) as exc:
        desk_eval.main(["--num-seeds", count])
    assert exc.value.code == 2
    assert "--num-seeds" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--train-iters", "0"), ("--enhance-iters", "0"),
    # too short for pink noise, and for one frame per subband
    ("--train-seconds", "0"), ("--train-seconds", "0.3"),
    ("--train-seconds", "nan"), ("--train-seconds", "inf"),
])
def test_a_sweep_count_or_training_length_the_run_cannot_use_is_refused(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        desk_eval.main([flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_the_shortest_training_accepted_trains_both_models():
    # 2 * 2**3 * 256 samples at 8 kHz: each noise clip's subbands hold one frame
    assert desk_eval.MIN_TRAIN_SECONDS == 0.512
    desk_eval.train_models(desk_eval.MIN_TRAIN_SECONDS, 2)
