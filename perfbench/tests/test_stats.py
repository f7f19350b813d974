import pytest

from stats import MIN_ITEMS, nearest_rank, samples_beyond, supported_percentile


def test_nearest_rank_picks_the_smallest_value_covering_q():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert nearest_rank([7.0], 90) == 7.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(MIN_ITEMS, 90) == 10
    assert samples_beyond(MIN_ITEMS - 1, 90) == 9
    assert supported_percentile(list(range(MIN_ITEMS)), 90) == 89
    with pytest.raises(ValueError, match="need at least 10"):
        supported_percentile(list(range(MIN_ITEMS - 1)), 90)
