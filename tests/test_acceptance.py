"""The acceptance gate: every criterion runs at its stated size and
tolerance (exact, except for the few runtime ceilings that are part of the
criteria).  One pass/fail line is printed per criterion."""

import pytest

from bvdesk.acceptance import (ALL_CRITERIA, DEFAULT_SEED, CriterionResult,
                               seconds_text)


@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=[c.__name__ for c in ALL_CRITERIA])
def test_acceptance_criterion(criterion):
    result = criterion(DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.detail


def test_timings_render_from_integer_nanoseconds():
    assert seconds_text(1_234_567_890, 2) == "1.23s"
    assert seconds_text(1_995_000_000, 2) == "2.00s"
    assert seconds_text(49_999_999, 1) == "0.0s"
    assert seconds_text(12_050_000_000, 1) == "12.1s"
    result = CriterionResult(4, "arrow cancellation", True, "ok", 5_000_000)
    assert result.line() == "[PASS] criterion  4 arrow cancellation: ok (0.01s)"
    assert result.to_json()["elapsed_ns"] == 5_000_000
