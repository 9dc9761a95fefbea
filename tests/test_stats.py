"""Statistics helper tests."""

from __future__ import annotations

import math
import random

import pytest

from pathtrace import stats


def test_wilson_contains_point_estimate():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(10, 5000)
        k = rng.randrange(0, n + 1)
        lo, hi = stats.wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_wilson_narrows_with_trials():
    lo1, hi1 = stats.wilson_interval(50, 100)
    lo2, hi2 = stats.wilson_interval(5000, 10000)
    assert (hi2 - lo2) < (hi1 - lo1)


def test_binomial_acceptance_covers_mean():
    lo, hi = stats.binomial_acceptance(100_000, 1 / 251)
    mean = 100_000 / 251
    assert lo < mean < hi
    # +/- roughly 2 sd around the mean
    sd = math.sqrt(100_000 * (1 / 251) * (250 / 251))
    assert hi - lo < 6 * sd


def test_binomial_acceptance_refuses_no_trials():
    with pytest.raises(ValueError, match="^trials must be positive$"):
        stats.binomial_acceptance(0, 0.5)


def test_binomial_acceptance_simulation_coverage():
    # the interval should cover ~95% of sampled counts
    rng = random.Random(2)
    n, p = 2000, 0.1
    lo, hi = stats.binomial_acceptance(n, p)
    inside = 0
    for _ in range(400):
        count = sum(1 for _ in range(n) if rng.random() < p)
        inside += lo <= count <= hi
    assert inside >= 370  # ~92.5% floor leaves slack for sampling noise


def test_advantage():
    assert stats.advantage(50, 100) == 0.0
    assert stats.advantage(100, 100) == 1.0
    assert stats.advantage(0, 100) == 1.0
    assert abs(stats.advantage(60, 100) - 0.2) < 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        stats.wilson_interval(5, 0)
    with pytest.raises(ValueError):
        stats.wilson_interval(11, 10)
    with pytest.raises(ValueError):
        stats.binomial_acceptance(100, 0.0)
    with pytest.raises(ValueError):
        stats.advantage(1, 0)