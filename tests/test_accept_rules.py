import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yoasovi.acceptance import TemperatureSchedule, accept_probability, decide, temperature
from yoasovi.errors import DegenerateReferenceError


# ---------------------------------------------------------------------------
# acceptance probabilities

def test_worked_example_naive_hits_exact_zero():
    # g = 1.5 * (-2500 + 1500) / 1500 = -1, so 1 + g is exactly zero
    assert accept_probability("naive", 1.5, -2500.0, -1500.0) == 0.0


def test_worked_example_metropolis():
    assert accept_probability("metropolis", 1.5, -2500.0, -1500.0) == pytest.approx(
        math.exp(-1.0), abs=1e-12)


@pytest.mark.parametrize("rule", ["naive", "metropolis"])
def test_improvement_always_certain(rule):
    rng = np.random.default_rng(17)
    for _ in range(500):
        L_prev = float(rng.uniform(-5000, -1))
        gain = float(rng.uniform(0, 3000))
        M = float(rng.uniform(0, 10))
        assert accept_probability(rule, M, L_prev + gain, L_prev) == 1.0
    # equality is an improvement of zero, still certain
    assert accept_probability(rule, 2.0, -100.0, -100.0) == 1.0


def test_fresh_start_sentinel_accepts_anything():
    for rule in ("naive", "metropolis"):
        assert accept_probability(rule, 5.0, -1e9, -math.inf) == 1.0


def test_metropolis_dominates_naive_on_regressions():
    """exp(g) > 1 + g strictly for g < 0.  10^4 random triples with the
    relative gap bounded away from zero, where the strict inequality is
    resolvable in floating point."""
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        L_prev = float(rng.uniform(-1e4, -1e-2))
        rel_gap = float(rng.uniform(1e-4, 3.0))
        L_new = L_prev - rel_gap * abs(L_prev)
        M = float(rng.uniform(0.05, 5.0))
        p_naive = accept_probability("naive", M, L_new, L_prev)
        p_metro = accept_probability("metropolis", M, L_new, L_prev)
        assert p_metro > p_naive
    # and the rules agree exactly when the gap is zero
    for L in (-1.0, -2500.0):
        assert accept_probability("naive", 1.0, L, L) == \
            accept_probability("metropolis", 1.0, L, L) == 1.0


def test_naive_is_piecewise_linear_in_the_gap():
    L_prev = -1000.0
    for rel in (0.1, 0.25, 0.5):
        p = accept_probability("naive", 2.0, L_prev - rel * 1000.0, L_prev)
        assert p == pytest.approx(1.0 - 2.0 * rel, abs=1e-12)
    # clamped at zero past the kink
    assert accept_probability("naive", 2.0, L_prev - 800.0, L_prev) == 0.0


def test_probabilities_live_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        L_prev = float(rng.uniform(-1e4, -1e-3))
        L_new = L_prev + float(rng.uniform(-1e4, 1e4))
        M = float(rng.uniform(0, 20))
        for rule in ("naive", "metropolis"):
            p = accept_probability(rule, M, L_new, L_prev)
            assert 0.0 <= p <= 1.0


def test_unknown_rule_kind_rejected():
    with pytest.raises(ValueError, match="greedy"):
        accept_probability("greedy", 1.0, -5.0, -4.0)
    with pytest.raises(ValueError, match="greedy"):
        decide("greedy", 1.0, -5.0, -4.0, u=0.5)


def test_zero_reference_is_degenerate():
    with pytest.raises(DegenerateReferenceError):
        accept_probability("naive", 1.0, -5.0, 0.0)


def test_reference_validation():
    with pytest.raises(ValueError):
        accept_probability("naive", 1.0, -5.0, math.inf)
    with pytest.raises(ValueError):
        accept_probability("naive", 1.0, -5.0, math.nan)
    with pytest.raises(ValueError):
        accept_probability("naive", 1.0, math.nan, -5.0)
    with pytest.raises(ValueError):
        accept_probability("naive", -0.5, -5.0, -4.0)
    with pytest.raises(ValueError):
        accept_probability("annealed", 1.0, -5.0, -4.0)


# ---------------------------------------------------------------------------
# temperature schedules

def test_schedule_values():
    assert temperature(TemperatureSchedule("constant", 1.5), 999) == 1.5
    assert temperature(TemperatureSchedule("log", 2.0), 1) == 0.0
    assert temperature(TemperatureSchedule("log", 2.0), math.e) == pytest.approx(2.0)
    assert temperature(TemperatureSchedule("linear", 0.5), 8) == 4.0


def test_schedule_defaults_by_kind():
    assert TemperatureSchedule("constant").k == 1.5
    assert TemperatureSchedule("log").k == 1.0
    assert TemperatureSchedule().kind == "log"


def test_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError):
        temperature(TemperatureSchedule("log", 1.0), 0)
    with pytest.raises(ValueError):
        temperature(TemperatureSchedule("linear", 1.0), -3)
    with pytest.raises(ValueError):
        TemperatureSchedule("geometric", 1.0)
    with pytest.raises(ValueError):
        TemperatureSchedule("log", -1.0)


@pytest.mark.parametrize("k", ["1e-1", "0.1", [1.0], False])
def test_schedule_rejects_a_non_numeric_coefficient_by_name(k):
    with pytest.raises(TypeError, match=rf"^k must be a number, got {re.escape(repr(k))}$"):
        TemperatureSchedule("linear", k)


def test_log_schedule_drives_acceptance_to_zero():
    """Fixed relative regression, growing temperature: the acceptance
    probability is nonincreasing over t = 1..10^4 and ends at zero (naive)
    or negligibly above it (metropolis)."""
    sched = TemperatureSchedule("log", 1.0)
    L_prev, L_new = -1000.0, -3000.0  # relative gap of 2
    for rule, floor in (("naive", 0.0), ("metropolis", 1e-6)):
        last = 1.0
        for t in range(1, 10_001):
            p = accept_probability(rule, temperature(sched, t), L_new, L_prev)
            assert p <= last + 1e-15
            last = p
        assert last <= floor


@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=1, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_growing_schedules_are_monotone(t1, t2):
    if t1 > t2:
        t1, t2 = t2, t1
    for kind in ("log", "linear"):
        s = TemperatureSchedule(kind, 1.3)
        assert temperature(s, t1) <= temperature(s, t2)


# ---------------------------------------------------------------------------
# decisions

def test_decide_boundary_is_inclusive():
    # p = 0.5 exactly when 1 + g = 0.5
    args = ("naive", 1.0, -1500.0, -1000.0)
    assert accept_probability(*args) == 0.5
    assert decide(*args, u=0.5) is True
    assert decide(*args, u=0.5000001) is False
    with pytest.raises(ValueError):
        decide(*args, u=1.5)
