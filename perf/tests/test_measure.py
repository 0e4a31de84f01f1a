import pytest

from iqbench.measure import tail, tail_level


@pytest.mark.parametrize(
    "count, level",
    [(10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0),
     (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0)],
)
def test_tail_level_is_the_highest_with_ten_samples_beyond(count, level):
    assert tail_level(count) == level


def test_tail_level_refuses_too_few_samples():
    with pytest.raises(ValueError, match="no tail level"):
        tail_level(19)


def test_tail_is_the_median_over_blocks_of_forty_of_each_blocks_tail():
    samples = [float(i) for i in range(1, 40)]
    assert tail(samples) == (50.0, pytest.approx(20.0))
    samples = [float(i) for i in range(1, 81)]
    # Two blocks of 40: p75 of each, then the median.
    assert tail(samples) == (75.0, pytest.approx((30.25 + 70.25) / 2))


def test_a_burst_in_one_block_does_not_move_the_tail():
    samples = [1.0] * 200
    samples[80:120] = [10.0] * 40
    assert tail(samples) == (75.0, 1.0)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError, match="no tail level"):
        tail([1.0] * 19)
