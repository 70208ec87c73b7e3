"""Metrics: utilization accounting, nearest-rank P95, cwnd smoothness."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from ccprobe.metrics import (DomainError, cwnd_smoothness, delay_stats,
                             nearest_rank_p95)
from ccprobe.netsim import EmptyLog, run_episode
from tests.test_netsim import Pinned


def test_nearest_rank_p95_oracle():
    rnd = random.Random(0)
    for _ in range(20):
        n = rnd.randint(1, 200)
        values = [rnd.uniform(0, 100) for _ in range(n)]
        ordered = sorted(values)
        rank = math.ceil(0.95 * n)          # nearest-rank definition
        assert nearest_rank_p95(values) == ordered[rank - 1]


def test_p95_small_samples():
    assert nearest_rank_p95([5.0]) == 5.0
    assert nearest_rank_p95([1.0, 2.0]) == 2.0      # ceil(1.9) = 2
    assert nearest_rank_p95(list(range(1, 101))) == 95


def test_utilization_against_trace_integral(short_sim, const_trace):
    log = run_episode(short_sim, const_trace, Pinned(80.0))
    u = log.mean_utilization()
    # byte-level oracle
    cap_bytes = 48e6 / 8.0 * 5.0
    assert u == pytest.approx(log.delivered * 1500 / cap_bytes, rel=1e-12) \
        or u == 1.0


def test_delay_stats_requires_acks(short_sim, const_trace):
    log = run_episode(short_sim, const_trace, Pinned(80.0), record_acks=False)
    with pytest.raises(EmptyLog):
        delay_stats(log)


def test_delay_stats_oracle(short_sim, const_trace):
    log = run_episode(short_sim, const_trace, Pinned(80.0))
    mean_d, p95_d = delay_stats(log)
    delays = [r - 20.0 for r in log.ack_rtts_ms]
    assert mean_d == pytest.approx(sum(delays) / len(delays), rel=1e-12)
    assert p95_d == nearest_rank_p95(delays)


def oracle_smoothness(series, k):
    times = [t for t, _ in series]
    vals = [c for _, c in series]
    n = len(series)
    lin = []
    for t in range(k, n):
        lin.append(sum(abs(vals[i] - vals[i - 1])
                       for i in range(t - k + 1, t + 1)) / k)
    logr = [abs(math.log(vals[i]) - math.log(vals[i - 1])) / (times[i] - times[i - 1])
            for i in range(1, n)]
    logw = [sum(logr[i] for i in range(t - k, t)) / k for t in range(k, n)]
    return sum(lin) / len(lin), sum(logw) / len(logw)


def test_cwnd_smoothness_randomized_oracle():
    rnd = random.Random(9)
    for _ in range(25):
        n = rnd.randint(3, 40)
        k = rnd.randint(1, n - 1)
        series = [(float(i) + rnd.uniform(0, 0.4), rnd.uniform(1.0, 500.0))
                  for i in range(n)]
        lin, log_s = cwnd_smoothness(series, k)
        olin, olog = oracle_smoothness(series, k)
        assert lin == pytest.approx(olin, rel=1e-9)
        assert log_s == pytest.approx(olog, rel=1e-9)


def test_log_smoothness_rescale_invariant():
    rnd = random.Random(4)
    series = [(float(i), rnd.uniform(1.0, 300.0)) for i in range(30)]
    scaled = [(t, 10.0 * c) for t, c in series]
    _, log_a = cwnd_smoothness(series)
    _, log_b = cwnd_smoothness(scaled)
    assert log_a == pytest.approx(log_b, rel=1e-9)
    # the linear metric is NOT invariant: it scales with cwnd
    lin_a, _ = cwnd_smoothness(series)
    lin_b, _ = cwnd_smoothness(scaled)
    assert lin_b == pytest.approx(10.0 * lin_a, rel=1e-9)


def test_one_domain_error_class():
    from ccprobe import learned, metrics
    assert metrics.DomainError is learned.DomainError


def test_smoothness_domain_checks():
    with pytest.raises(DomainError):
        cwnd_smoothness([(0.0, 1.0), (1.0, -2.0)])
    with pytest.raises(DomainError):
        cwnd_smoothness([(1.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError):
        cwnd_smoothness([(0.0, 1.0)], k=1)


@given(st.lists(st.floats(min_value=0.1, max_value=1000.0),
                min_size=2, max_size=30))
def test_smoothness_zero_iff_constant(values):
    series = [(float(i), v) for i, v in enumerate(values)]
    lin, log_s = cwnd_smoothness(series)
    if len(set(values)) == 1:
        assert lin == 0.0 and log_s == 0.0
    else:
        assert lin > 0.0
