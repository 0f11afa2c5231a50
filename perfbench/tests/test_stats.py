import pytest

from stats import TAIL_BEYOND, median, tail


def test_median_odd_and_even():
    assert median([5, 1, 3]) == 3
    assert median([4, 1, 3, 2]) == 2.5


def test_empty_samples_are_refused():
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        tail([])


@pytest.mark.parametrize("n", [1, 2, 5, 11, 19, 20])
def test_small_samples_fall_back_to_the_median(n):
    values = list(range(1, n + 1))
    value, percentile, beyond = tail(values)
    assert value == median(values)
    assert percentile == 50.0
    assert beyond == sum(1 for v in values if v > value)


def test_first_sample_count_with_a_proper_tail():
    values = list(range(21))  # 21 samples: index 10 has exactly 10 above it
    value, percentile, beyond = tail(values[::-1])
    assert (value, beyond) == (10, TAIL_BEYOND)
    assert percentile == pytest.approx(100 * 11 / 21)


def test_large_sample_tail_has_ten_beyond():
    values = list(range(1000, 0, -1))
    value, percentile, beyond = tail(values)
    assert value == 990
    assert beyond == TAIL_BEYOND == sum(1 for v in values if v > value)
    assert percentile == 99.0


def test_tail_never_below_median():
    for n in range(1, 60):
        values = [(7 * i) % 13 + i for i in range(n)]
        assert tail(values)[0] >= median(values)
