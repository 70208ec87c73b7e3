"""Metrics: utilization accounting, nearest-rank P95, cwnd smoothness."""

import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ccprobe.cc import Pinned
from ccprobe.metrics import build_report, delay_stats
from ccprobe.netsim import (BandwidthTrace, DomainError, EmptyLog, EpisodeLog,
                            SimConfig, run_episode)
from oracles import cwnd_smoothness


def sample_delays(log):
    """The per-ACK delay list the histogram stands for, one entry per ACK."""
    tick, base = log.config.tick_ms, log.config.base_rtt_ms
    return [k * tick - base for k, c in log.ack_rtt_ticks.items()
            for _ in range(c)]


def check_against_samples(log):
    """delay_stats against the sorted-list definitions over the same samples."""
    mean_d, p95_d = delay_stats(log)
    delays = sorted(sample_delays(log))
    assert mean_d == pytest.approx(sum(delays) / len(delays), rel=1e-12)
    assert p95_d == delays[math.ceil(0.95 * len(delays)) - 1]  # nearest rank
    return mean_d


def p95_of(*rtt_ticks):
    """delay_stats' P95 over one ACK per given RTT (base RTT 20 ticks)."""
    return delay_stats(EpisodeLog(SimConfig(), ack_rtt_ticks=Counter(rtt_ticks)))[1]


def test_nearest_rank_p95_oracle():
    rnd = random.Random(0)
    for _ in range(20):
        hist = {rnd.randint(20, 200): rnd.randint(1, 30)
                for _ in range(rnd.randint(1, 40))}
        check_against_samples(EpisodeLog(SimConfig(), ack_rtt_ticks=hist))


def test_p95_small_samples():
    assert p95_of(25) == 5.0
    assert p95_of(21, 22) == 2.0      # ceil(1.9) = 2
    assert p95_of(*range(21, 121)) == 95


def test_utilization_against_trace_integral(short_sim, const_trace):
    log = run_episode(short_sim, const_trace, Pinned(80.0))
    u = build_report(log).utilization
    # byte-level oracle
    cap_bytes = 48e6 / 8.0 * 5.0
    assert u == pytest.approx(log.delivered * 1500 / cap_bytes, rel=1e-12) \
        or u == 1.0


def test_delay_stats_requires_acks(short_sim):
    # a link that never delivers produces no ACK at all
    log = run_episode(short_sim, BandwidthTrace(100.0, [0.0] * 50), Pinned(80.0))
    assert log.acked == 0
    with pytest.raises(EmptyLog):
        delay_stats(log)


def test_delay_stats_oracle(const_trace):
    # 0.1 ms has no exact binary form: a float sum over the samples drifts
    # (about 1e-15 relative here), while the histogram sums integer ticks and
    # scales by tick_ms once
    for tick_ms, cwnd in ((1.0, 80.0), (0.1, 240.0)):
        sim = SimConfig(tick_ms=tick_ms, episode_duration_s=5.0)
        log = run_episode(sim, const_trace, Pinned(cwnd))
        mean_d = check_against_samples(log)
        n = log.acked
        exact = (sum(k * c for k, c in log.ack_rtt_ticks.items())
                 * Fraction(tick_ms) - n * Fraction(sim.base_rtt_ms)) / n
        assert mean_d == pytest.approx(float(exact), rel=1e-15), tick_ms


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
    import ccprobe.cli  # noqa: F401  (imports every module)
    from ccprobe import netsim
    mods = [m for name, m in sys.modules.items() if name.startswith("ccprobe.")]
    assert all(getattr(m, "DomainError", netsim.DomainError) is netsim.DomainError
               for m in mods)


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
