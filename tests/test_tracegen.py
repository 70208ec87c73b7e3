"""Trace generation: budget projection, feasibility, burst shape."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from ccprobe.tracegen import (SmoothnessBudget, avg_abs_slope, check_feasible,
                              gen_burst_trace, gen_random_trace,
                              gen_unconstrained, project_next)


def test_budget_validation():
    # each field's own domain is the config table's (test_cli's exit-2 cases)
    for bw_min, bw_max in ((10.0, 5.0), (5.0, 5.0)):
        with pytest.raises(ValueError, match="bw_min < bw_max"):
            SmoothnessBudget(bw_min=bw_min, bw_max=bw_max)


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


def _generation_cases():
    tight = SmoothnessBudget(delta=2.5, window_k=3)
    from_zero = SmoothnessBudget(bw_min=0.0, bw_max=12.0)
    return ([gen_random_trace(600, SmoothnessBudget(), seed=s) for s in range(3)]
            + [gen_random_trace(600, tight, seed=4),
               gen_random_trace(600, from_zero, seed=5)]
            + [gen_random_trace(n, tight, seed=n) for n in (1, 2, 700)]
            + [gen_unconstrained(600, 1.0, 96.0, seed=6),
               gen_unconstrained(3, 20.0, 21.0, seed=7)])


def test_golden_random_trace_digest():
    # Pins every value gen_random_trace and gen_unconstrained return: the
    # default budget, a tight window of 3, bw_min 0, lengths 1, 2 and 700
    h = hashlib.sha256()
    for trace in _generation_cases():
        h.update(" ".join(v.hex() for v in trace.values).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_RANDOM_TRACE_SHA256


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       length=st.integers(1, 700),
       k=st.integers(1, 8),
       delta=st.floats(0.01, 120.0),
       bw_min=st.floats(0.0, 50.0),
       width=st.floats(0.01, 100.0))
def test_generation_is_the_per_step_loop(seed, length, k, delta, bw_min, width):
    b = SmoothnessBudget(delta=delta, window_k=k, bw_min=bw_min, bw_max=bw_min + width)
    got = gen_random_trace(length, b, seed=seed).values
    want = oracles.gen_random_trace_values(length, b, seed)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    got = gen_unconstrained(length, b.bw_min, b.bw_max, seed=seed).values
    want = oracles.gen_unconstrained_values(length, b.bw_min, b.bw_max, seed)
    assert [v.hex() for v in got] == [v.hex() for v in want]


GOLDEN_RANDOM_TRACE_SHA256 = (
    "a69ce9dfc8eb093e1f9b0b55ec61867ed6d9350b59fc693abebe19346214322c")
