"""The acceptance gate: every criterion runs at its stated size and
tolerance (exact, except for the few runtime ceilings that are part of the
criteria).  One pass/fail line is printed per criterion."""

import hashlib
import random
import re

import pytest

from bvdesk import acceptance
from bvdesk.acceptance import (ALL_CRITERIA, DEFAULT_SEED, CriterionResult,
                               seconds_text)


def number_in_name(criterion) -> int:
    # perfbench/tracing.py names each criterion's span from this number
    return int(re.match(r"criterion_(\d+)_", criterion.__name__).group(1))


@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=[c.__name__ for c in ALL_CRITERIA])
def test_acceptance_criterion(criterion):
    result = criterion(DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.detail
    assert result.number == number_in_name(criterion)


def test_criteria_are_named_by_their_numbers_in_order():
    assert [number_in_name(c) for c in ALL_CRITERIA] == list(range(1, 14))


def test_runner_seeds_times_and_enforces_the_ceiling(monkeypatch):
    now = [0]
    monkeypatch.setattr(acceptance.time, "monotonic_ns", lambda: now[0])

    def criterion(number, takes_ns, passed, detail, ceiling_s=None):
        def check(rng):
            assert rng.random() == random.Random(5 + 7919 * number).random()
            now[0] += takes_ns
            return passed, detail
        return acceptance._criterion(number, "fake", ceiling_s)(check)

    second = 10 ** 9
    over = criterion(9, 30 * second, True, "ok", ceiling_s=30)
    assert over.__name__ == "check"
    assert over(5) == CriterionResult(9, "fake", False,
                                      "ok; runtime ceiling 30s exceeded", 30 * second)
    under = criterion(3, 30 * second - 1, True, "ok", ceiling_s=30)
    assert under(5) == CriterionResult(3, "fake", True, "ok", 30 * second - 1)
    failed = criterion(4, 40 * second, False, "broke", ceiling_s=30)
    assert failed(5) == CriterionResult(4, "fake", False, "broke", 40 * second)
    unbounded = criterion(5, 10 ** 6 * second, True, "ok")
    assert unbounded(5) == CriterionResult(5, "fake", True, "ok", 10 ** 6 * second)


def test_timings_render_from_integer_nanoseconds():
    assert seconds_text(1_234_567_890, 2) == "1.23s"
    assert seconds_text(1_995_000_000, 2) == "2.00s"
    assert seconds_text(49_999_999, 1) == "0.0s"
    assert seconds_text(12_050_000_000, 1) == "12.1s"
    result = CriterionResult(4, "arrow cancellation", True, "ok", 5_000_000)
    assert result.line() == "[PASS] criterion  4 arrow cancellation: ok (0.01s)"
    assert result.to_json()["elapsed_ns"] == 5_000_000


def test_randint_draws_as_the_generator_does():
    """``_randint`` returns ``rng.randint``'s value and leaves the generator in
    the same state, over ranges of every width the criteria draw and wider."""
    ranges = [(0, 0), (1, 1), (-9, 9), (1, 9), (0, 1), (2, 10_000), (0, 2 ** 12 - 1),
              (1, 2 ** 12 - 1), (-3, 3), (5, 6), (0, 2 ** 64), (-(2 ** 70), 3)]
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(20):
            for lo, hi in ranges:
                assert acceptance._randint(ours, lo, hi) == theirs.randint(lo, hi)
        assert ours.getstate() == theirs.getstate()
    for lo, hi in ((3, 2), (0, -5)):
        with pytest.raises(ValueError, match=f"^no integer in \\[{lo}, {hi}\\]$"):
            acceptance._randint(random.Random(0), lo, hi)
        with pytest.raises(ValueError):
            random.Random(0).randint(lo, hi)


def test_criteria_draw_what_randint_drew():
    """Each criterion leaves its generator in the state pinned when the
    criteria drew with ``rng.randint`` and ``rng.randrange``: the same words,
    drawn in the same order."""
    digest = hashlib.sha256()
    for criterion in ALL_CRITERIA:
        rng = random.Random(DEFAULT_SEED + 7919 * number_in_name(criterion))
        criterion.__wrapped__(rng)
        digest.update(repr(rng.getstate()).encode())
    assert digest.hexdigest() == (
        "a10bc27caa3f71ea869a89b6c561609b2bc8f62147f95e937704fb188524d2c1")
