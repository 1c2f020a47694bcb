"""Nearest-rank percentiles, speed scaling, phase medians and the compare
verdicts."""

import time

import pytest

import speed
from compare import quartiles, spread, verdict
from layers import nearest_rank
from run import phase_medians


@pytest.mark.parametrize(
    "values, q, expected",
    [
        ([5.0], 0.99, 5.0),
        ([1.0, 2.0], 0.50, 1.0),
        ([1.0, 2.0, 3.0, 4.0], 0.50, 2.0),
        (list(range(1, 101)), 0.99, 99),
        (list(range(1, 101)), 1.00, 100),
        (list(range(100, 0, -1)), 0.50, 50),
        ([], 0.5, 0.0),
    ],
)
def test_nearest_rank(values, q, expected):
    assert nearest_rank(values, q) == expected


def test_quartiles_match_statistics_exclusive_method():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert spread([10.0, 10.0, 10.0, 10.0]) == 0.0


BASE = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_unchanged_within_noise_is_same():
    assert verdict(BASE, [100.2, 99.8, 100.1, 100.4, 99.9], "lower", 0.1) == "same"


def test_move_beyond_bound_is_worse():
    assert verdict(BASE, [x * 1.2 for x in BASE], "lower", 0.1) == "worse"
    assert verdict(BASE, [x * 0.8 for x in BASE], "higher", 0.1) == "worse"


def test_move_beyond_base_spread_the_right_way_is_better():
    assert verdict(BASE, [x * 0.9 for x in BASE], "lower", 0.1) == "better"


def test_spread_wider_than_bound_is_unresolved_unless_every_run_wins():
    noisy = [50.0, 150.0, 100.0, 70.0, 130.0]
    assert verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.1) == "unresolved"
    assert verdict(noisy, [10.0, 11.0, 12.0], "lower", 0.1) == "better"


def test_speed_factor_is_the_mean_speed_of_the_slices():
    nominal = speed.NOMINAL_S
    assert speed.factor([nominal, nominal]) == pytest.approx(1.0)
    # One slice at full speed, one at half: the mean speed is 0.75.
    assert speed.factor([nominal, 2.0 * nominal]) == pytest.approx(0.75)


def test_sampler_takes_slices_in_proportion_to_cpu_and_accounts_for_them():
    sampler = speed.Sampler()
    sampler.start()
    try:
        started = time.process_time()
        while time.process_time() - started < 0.1:
            pass
        mark = sampler.mark()
        while time.process_time() - started < 0.4:
            pass
    finally:
        sampler.stop()
    since = sampler.since(mark)
    assert 0 < len(since["timings"]) < len(sampler.timings)
    assert since["cpu_s"] == pytest.approx(sum(since["timings"]), rel=0.2)
    assert 0.0 < since["cpu_s"] <= since["wall_s"] + 1e-3
    assert all(timing > 0.0 for timing in sampler.timings)


def test_phase_medians():
    ops = [
        {"phase": "plan", "cpu_s": 3.0},
        {"phase": "sweep", "cpu_s": 5.0},
        {"phase": "plan", "cpu_s": 1.0},
        {"phase": "plan", "cpu_s": 2.0},
    ]
    assert phase_medians(ops, "cpu_s") == {"plan": 2.0, "sweep": 5.0}
