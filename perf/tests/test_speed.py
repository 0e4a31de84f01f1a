import os

import numpy as np
import pytest

from iqbench.speed import NEAREST, HostSpeed


def _stepped(cpu=None, speed=None, slow_from=10.0):
    """A sample every 0.05 s over [0, 20): factor 1 before ``slow_from``, 2 after."""
    speed = speed or HostSpeed()
    for when in np.arange(0.0, 20.0, 0.05):
        speed.record(cpu, float(when), 1.0 if when < slow_from else 2.0)
    return speed


def test_factor_at_is_the_median_of_the_nearest_samples():
    speed = _stepped()
    assert list(speed.factor_at([1.0, 9.0, 11.0, 19.9])) == [1.0, 1.0, 2.0, 2.0]
    speed.record(None, 5.0, 50.0)  # one outlier among the nearest does not move it
    assert speed.factor_at([5.0])[0] == 1.0
    assert NEAREST >= 3


def test_factor_at_averages_the_cpus():
    speed = _stepped(cpu=0)
    _stepped(cpu=1, speed=speed, slow_from=30.0)  # CPU 1 never slow
    assert list(speed.factor_at([1.0, 15.0])) == [1.0, 1.5]


def test_restate_divides_each_latency_by_the_factor_at_its_midpoint():
    speed = _stepped()
    assert list(speed.restate([1.0, 15.0], [0.01, 0.01])) == pytest.approx([0.01, 0.005])
    assert speed.restate([], []).size == 0


def test_nominal_counts_slow_seconds_at_their_speed():
    speed = _stepped()
    assert speed.nominal(5.0, 15.0) == pytest.approx(5.0 + 2.5, rel=0.01)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError, match="no host speed"):
        HostSpeed().factor_at([0.0])


def test_pinned_samples_cover_every_cpu_and_restore_affinity():
    home = os.sched_getaffinity(0)
    speed = HostSpeed(cpus=sorted(home))
    speed.burst(2)
    assert os.sched_getaffinity(0) == home
    assert speed.summary()["samples"] == 2 * len(home)
    assert speed.factor_at([0.0])[0] > 0
