"""Trace generation: budget projection, feasibility, burst shape."""

import pytest
from hypothesis import given, settings, strategies as st

from ccprobe.tracegen import (SmoothnessBudget, avg_abs_slope, check_feasible,
                              gen_burst_trace, gen_random_trace,
                              gen_unconstrained, project_next)


def test_budget_validation():
    with pytest.raises(ValueError):
        SmoothnessBudget(delta=0.0)
    with pytest.raises(ValueError):
        SmoothnessBudget(bw_min=10.0, bw_max=5.0)
    with pytest.raises(ValueError):
        SmoothnessBudget(window_k=0)


def test_project_identity_when_feasible():
    b = SmoothnessBudget(delta=48.0)
    assert project_next([50.0], 60.0, b) == 60.0
    assert project_next([50.0], 2.0, b) == 2.0


def test_project_clips_to_budget():
    b = SmoothnessBudget(delta=10.0)
    assert project_next([50.0], 90.0, b) == 60.0
    assert project_next([50.0], 1.0, b) == 40.0


def test_project_windowed_slack():
    # k=2: previous step of 8 leaves 2*10-8=12 of slack for this step
    b = SmoothnessBudget(delta=10.0, window_k=2)
    assert project_next([40.0, 48.0], 96.0, b) == 60.0
    # previous step consumed everything and more: only a zero step remains
    b1 = SmoothnessBudget(delta=4.0, window_k=2)
    assert project_next([40.0, 48.0], 96.0, b1) == 48.0


def test_random_traces_feasible():
    b = SmoothnessBudget()
    for seed in range(20):
        tr = gen_random_trace(200, b, seed=seed)
        assert check_feasible(tr.values, b)


def test_random_trace_deterministic():
    b = SmoothnessBudget()
    a = gen_random_trace(100, b, seed=5)
    c = gen_random_trace(100, b, seed=5)
    assert a.values == c.values
    assert a.values != gen_random_trace(100, b, seed=6).values


def test_unconstrained_can_violate_budget():
    tight = SmoothnessBudget(delta=1.0)
    tr = gen_unconstrained(200, 1.0, 96.0, seed=0)
    assert not check_feasible(tr.values, tight)


def test_check_feasible_catches_range_violation():
    b = SmoothnessBudget()
    assert not check_feasible([50.0, 100.0], b)   # above bw_max
    assert not check_feasible([0.5, 2.0], b)      # below bw_min
    assert check_feasible([50.0, 60.0], b)


def test_burst_trace_shape():
    tr = gen_burst_trace(160, peak=80.0, trough=4.0, rise_intervals=20,
                         fall_intervals=60)
    v = tr.values
    assert max(v) == pytest.approx(80.0)
    assert min(v) == pytest.approx(4.0)
    # peak reached at the end of the rise phase, then decline
    assert v[19] == pytest.approx(80.0)
    assert all(v[i] > v[i + 1] for i in range(20, 79))
    # pattern repeats with the period
    assert v[0:80] == pytest.approx(v[80:160])


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=1.0, max_value=96.0),
       st.integers(min_value=1, max_value=3))
def test_projection_always_feasible(seed, delta, k):
    b = SmoothnessBudget(delta=delta, window_k=k)
    tr = gen_random_trace(60, b, seed=seed)
    assert check_feasible(tr.values, b)


@given(st.lists(st.floats(min_value=1.0, max_value=96.0),
                min_size=1, max_size=10),
       st.floats(min_value=-50.0, max_value=150.0))
def test_projection_respects_range(history, proposed):
    b = SmoothnessBudget()
    out = project_next(history, proposed, b)
    assert b.bw_min <= out <= b.bw_max
    assert abs(out - history[-1]) <= b.delta + 1e-9


def _python_project_next(history, proposed, budget):
    """`project_next` as written in Python before it moved to C."""
    prev = history[-1]
    k = budget.window_k
    tail = 0.0
    for i in range(max(1, len(history) - (k - 1)), len(history)):
        tail += abs(history[i] - history[i - 1])
    slack = max(0.0, k * budget.delta - tail)
    lo = max(budget.bw_min, prev - slack)
    hi = min(budget.bw_max, prev + slack)
    return min(hi, max(lo, proposed))


@settings(max_examples=300)
@given(st.lists(st.floats(min_value=0.0, max_value=120.0), min_size=1, max_size=8),
       st.floats(min_value=-50.0, max_value=150.0),
       st.floats(min_value=0.5, max_value=60.0),
       st.integers(min_value=1, max_value=4))
def test_c_projection_is_pythons(history, proposed, delta, k):
    b = SmoothnessBudget(delta=delta, window_k=k, bw_min=2.0, bw_max=96.0)
    assert project_next(history, proposed, b).hex() == \
        float(_python_project_next(history, proposed, b)).hex()
