"""Unit tests of the ``--check`` regression guard in ``run_benchmarks.py``."""

import pytest

from run_benchmarks import CHECK_STAGES, CHECK_TOLERANCE, check_regression

COMMITTED = {stage: 100_000 for stage in CHECK_STAGES}


def _results(stages):
    return {"stages": dict(stages)}


def test_check_passes_at_or_above_the_floor(capsys):
    measured = {stage: round(100_000 * CHECK_TOLERANCE) for stage in CHECK_STAGES}
    assert check_regression(_results(measured), COMMITTED) == 0
    assert "benchmark check passed" in capsys.readouterr().out


def test_check_fails_below_the_floor(capsys):
    measured = dict(COMMITTED)
    measured[CHECK_STAGES[0]] = round(100_000 * CHECK_TOLERANCE) - 1
    assert check_regression(_results(measured), COMMITTED) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert f"FAILED: {CHECK_STAGES[0]} " in out


@pytest.mark.parametrize("side", ["measured", "committed"])
def test_check_fails_on_a_missing_stage(capsys, side):
    stage = CHECK_STAGES[-1]
    measured = dict(COMMITTED)
    committed = dict(COMMITTED)
    (measured if side == "measured" else committed).pop(stage)
    assert check_regression(_results(measured), committed) == 1
    out = capsys.readouterr().out
    assert f"check {stage}: MISSING" in out
    assert f"FAILED: {stage} " in out
