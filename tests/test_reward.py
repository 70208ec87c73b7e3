"""Reward arithmetic against independent brute-force oracles (1e-9 relative):
the C controller reward and delay factor, and the adversarial reward's
Python formulas that `tests/oracles.py` keeps as references."""

import random

import pytest
from hypothesis import given, strategies as st

from ccprobe.adversary import AdversaryConfig
from ccprobe.learned import RewardParams
from ccprobe.netsim import DomainError, _lib
from ccprobe.tracegen import avg_abs_slope
from drivers import c_double, obs_row
from oracles import Obs, delay_penalty, env_reward, naive_reward, queuing_delay


def make_obs(thr=40.0, loss=0.0, srtt=25.0, min_rtt=20.0, util=0.8,
             loss_rate=0.0):
    return Obs(interval_idx=0, now_ms=100.0, capacity_mbps=48.0,
               throughput_mbps=thr, loss_mbps=loss, loss_rate=loss_rate,
               srtt_ms=srtt, min_rtt_ms=min_rtt,
               visible_min_rtt_ms=min_rtt, utilization=util, cwnd=10.0)


def oracle_reward(thr, loss, srtt, min_rtt, lam, gamma, b_max):
    # written independently from the implementation, straight off the formula
    if gamma * min_rtt < srtt:
        d = (gamma * min_rtt) / srtt
    else:
        d = 1.0
    return ((thr - lam * loss) / b_max) * d


def test_controller_reward_randomized_oracle():
    rnd = random.Random(42)
    params = RewardParams()
    for _ in range(50):
        thr = rnd.uniform(0.0, 96.0)
        loss = rnd.uniform(0.0, 10.0)
        min_rtt = rnd.uniform(1.0, 100.0)
        srtt = min_rtt * rnd.uniform(1.0, 5.0)
        obs = make_obs(thr=thr, loss=loss, srtt=srtt, min_rtt=min_rtt)
        expect = oracle_reward(thr, loss, srtt, min_rtt,
                               params.lam, params.gamma, params.b_max)
        got = c_double(_lib.tl_controller_reward, obs_row(obs), params.c_struct())
        assert got == pytest.approx(expect, rel=1e-9)


def test_delay_factor_branch_boundary():
    # at srtt exactly gamma * min_rtt the factor is 1 (strict inequality)
    assert c_double(_lib.tl_delay_factor, 24.0, 20.0, 1.2) == 1.0
    assert c_double(_lib.tl_delay_factor, 24.0 + 1e-9, 20.0, 1.2) < 1.0
    assert c_double(_lib.tl_delay_factor, 10.0, 20.0, 1.2) == 1.0


def test_delay_factor_domain():
    with pytest.raises(DomainError):
        c_double(_lib.tl_delay_factor, 20.0, 0.0, 1.2)


def test_naive_reward_is_negation():
    rnd = random.Random(7)
    for _ in range(20):
        r = rnd.uniform(-5.0, 5.0)
        assert naive_reward(r) == -r


def test_queuing_delay_oracle():
    assert queuing_delay(make_obs(srtt=33.5, min_rtt=20.0)) == pytest.approx(13.5)
    with pytest.raises(DomainError):
        queuing_delay(make_obs(srtt=15.0, min_rtt=20.0))


def oracle_penalty(history, tau, alpha, h, k):
    recent = history[-h:]
    mean_h = sum(recent) / h
    mean_k = sum(recent[-k:]) / k
    return -alpha if (mean_h < tau and mean_k < tau) else 0.0


def test_delay_penalty_randomized_oracle():
    rnd = random.Random(1)
    for _ in range(50):
        h = rnd.randint(1, 8)
        k = rnd.randint(1, h)
        tau = rnd.uniform(0.5, 30.0)
        alpha = rnd.uniform(0.1, 3.0)
        c = AdversaryConfig(tau_ms=tau, alpha=alpha, window_h=h, window_k=k)
        hist = [rnd.uniform(0.0, 40.0) for _ in range(h + rnd.randint(0, 5))]
        assert delay_penalty(hist, c) == pytest.approx(
            oracle_penalty(hist, tau, alpha, h, k), rel=1e-9, abs=1e-12)


def test_delay_penalty_strictness():
    # both means exactly at tau -> no penalty (strict <)
    c = AdversaryConfig(tau_ms=10.0, alpha=1.0, window_h=3, window_k=1)
    assert delay_penalty([10.0, 10.0, 10.0], c) == 0.0
    assert delay_penalty([9.99, 9.99, 9.99], c) == -1.0


def test_delay_penalty_needs_full_window():
    c = AdversaryConfig(tau_ms=10.0, window_h=5, window_k=1)
    with pytest.raises(ValueError):
        delay_penalty([1.0, 2.0], c)


def test_env_reward_composition():
    c = AdversaryConfig(tau_ms=10.0, alpha=2.0, window_h=2, window_k=1)
    obs = make_obs(util=0.7)
    # below tau on both windows: -U - alpha
    assert env_reward(obs, [1.0, 1.0], c) == pytest.approx(-0.7 - 2.0)
    # above tau: just -U
    assert env_reward(obs, [20.0, 20.0], c) == pytest.approx(-0.7)


def oracle_slope(values, t, k):
    diffs = [abs(values[i] - values[i - 1]) for i in range(t - k + 1, t + 1)]
    return sum(diffs) / k


def test_avg_abs_slope_randomized_oracle():
    rnd = random.Random(3)
    for _ in range(50):
        n = rnd.randint(3, 30)
        values = [rnd.uniform(1.0, 96.0) for _ in range(n)]
        k = rnd.randint(1, n - 1)
        t = rnd.randint(k, n - 1)
        assert avg_abs_slope(values, t, k) == pytest.approx(
            oracle_slope(values, t, k), rel=1e-9)


def test_avg_abs_slope_needs_k_history():
    with pytest.raises(IndexError):
        avg_abs_slope([1.0, 2.0, 3.0], 1, 2)


@given(st.lists(st.floats(min_value=1.0, max_value=96.0),
                min_size=2, max_size=20))
def test_avg_abs_slope_nonnegative_and_bounded(values):
    t = len(values) - 1
    s = avg_abs_slope(values, t, 1)
    assert s >= 0.0
    assert s <= 95.0 + 1e-9
