"""Adversary: perturbation bounds, intercepts, env driver, calibration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccprobe.adversary import (AdversarySpec, DelayConstraint, EnvBandwidthDriver,
                               FeatureBound, FeatureIntercept, PerturbMode,
                               RewardMode, SurfaceMode, adversarial_episode,
                               calibrate_tau, make_adversary_policy,
                               perturb_min_rtt, random_baseline_traces,
                               select_worst_trace, train_adversary)
from ccprobe.cc import make_controller
from ccprobe.cem import CemConfig
from ccprobe.learned import RewardParams
from ccprobe.netsim import Observation, run_episode
from ccprobe.tracegen import SmoothnessBudget, check_feasible


def obs(srtt=25.0, min_rtt=20.0, cap=48.0, util=0.8):
    return Observation(interval_idx=0, now_ms=100.0, capacity_mbps=cap,
                       throughput_mbps=util * cap, loss_mbps=0.0, loss_rate=0.0,
                       srtt_ms=srtt, min_rtt_ms=min_rtt, visible_min_rtt_ms=min_rtt,
                       utilization=util, cwnd=10.0)


@settings(max_examples=60)
@given(st.floats(min_value=0.1, max_value=500.0),
       st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=0.9))
def test_perturbation_stays_within_x(true_rtt, action, x):
    rng = np.random.default_rng(0)
    bound = FeatureBound(x_fraction=x)
    out = perturb_min_rtt(true_rtt, action, bound, rng)
    assert true_rtt * (1 - x) - 1e-9 <= out <= true_rtt * (1 + x) + 1e-9


def test_perturbation_modes():
    rng = np.random.default_rng(0)
    clean = FeatureBound(0.5, PerturbMode.CLEAN)
    assert perturb_min_rtt(20.0, 0.9, clean, rng) == 20.0
    noise = FeatureBound(0.5, PerturbMode.RANDOM_NOISE)
    vals = {perturb_min_rtt(20.0, 0.0, noise, rng) for _ in range(10)}
    assert len(vals) > 1
    assert all(10.0 <= v <= 30.0 for v in vals)


def test_perturbation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        perturb_min_rtt(0.0, 0.0, FeatureBound(0.1), np.random.default_rng(0))
    with pytest.raises(ValueError):
        FeatureBound(x_fraction=1.0)


def test_spec_surface_requirements():
    with pytest.raises(ValueError):
        AdversarySpec(surface=SurfaceMode.FEATURE_MIN_RTT)
    with pytest.raises(ValueError):
        AdversarySpec(surface=SurfaceMode.ENV_BANDWIDTH)
    AdversarySpec(surface=SurfaceMode.ENV_BANDWIDTH, budget=SmoothnessBudget())


def test_feature_intercept_episode_reset():
    bound = FeatureBound(0.5, PerturbMode.RANDOM_NOISE)
    it = FeatureIntercept(bound, seed=3)
    it.begin_episode()
    it.begin_interval(obs())
    first = it.scale()
    it.begin_episode()
    it.begin_interval(obs())
    assert it.scale() == first      # reseeded -> same draw


def test_env_driver_traces_always_feasible():
    budget = SmoothnessBudget(delta=10.0)
    policy = make_adversary_policy(SurfaceMode.ENV_BANDWIDTH)
    rng = np.random.default_rng(0)
    policy = policy.with_params(rng.normal(size=policy.n_params))
    drv = EnvBandwidthDriver(budget, policy, seed=0)
    values = [drv.first_capacity()]
    for i in range(100):
        values.append(drv.next_capacity(obs(cap=values[-1])))
    assert check_feasible(values, budget)


def test_env_driver_random_when_no_policy():
    budget = SmoothnessBudget()
    drv = EnvBandwidthDriver(budget, policy=None, seed=1)
    values = [drv.first_capacity()]
    for _ in range(50):
        values.append(drv.next_capacity(obs()))
    assert check_feasible(values, budget)
    assert len(set(values)) > 10


def test_calibrate_tau_is_mean_of_means(short_sim):
    budget = SmoothnessBudget()
    traces = random_baseline_traces(budget, 2, 50, 100.0, seed=0)
    factory = lambda: make_controller("reno")
    tau = calibrate_tau(factory, traces, short_sim)
    # oracle: same runs, averaged by hand
    delays = [run_episode(short_sim, tr, factory()).mean_queuing_delay_ms()
              for tr in traces]
    assert tau == pytest.approx(sum(delays) / len(delays), rel=1e-12)
    assert tau > 0.0


def test_calibrate_tau_needs_traces(short_sim):
    with pytest.raises(ValueError):
        calibrate_tau(lambda: make_controller("reno"), [], short_sim)


def test_adversarial_episode_clean_mode_matches_unperturbed(short_sim, const_trace):
    spec = AdversarySpec(surface=SurfaceMode.FEATURE_MIN_RTT,
                         reward_mode=RewardMode.NAIVE,
                         feature_bound=FeatureBound(0.5, PerturbMode.CLEAN))
    factory = lambda: make_controller("vegas")
    ev = adversarial_episode(spec, None, factory, short_sim, RewardParams(),
                             seed=0, clean_traces=[const_trace])
    ref = run_episode(short_sim, const_trace, factory())
    assert ev.utilization == pytest.approx(ref.mean_utilization(), rel=1e-12)


def test_reno_ignores_min_rtt_perturbation(short_sim, const_trace):
    # loss-only controller: scaling its min-RTT estimate changes nothing
    spec = AdversarySpec(surface=SurfaceMode.FEATURE_MIN_RTT,
                         reward_mode=RewardMode.NAIVE,
                         feature_bound=FeatureBound(0.5, PerturbMode.RANDOM_NOISE))
    factory = lambda: make_controller("reno")
    ev = adversarial_episode(spec, None, factory, short_sim, RewardParams(),
                             seed=0, clean_traces=[const_trace])
    ref = run_episode(short_sim, const_trace, factory())
    assert ev.utilization == pytest.approx(ref.mean_utilization(), rel=1e-12)
    assert ev.mean_delay_ms == pytest.approx(ref.mean_queuing_delay_ms(), rel=1e-12)


def test_train_adversary_zero_budget(short_sim):
    spec = AdversarySpec(surface=SurfaceMode.ENV_BANDWIDTH,
                         budget=SmoothnessBudget())
    policy, hist = train_adversary(spec, lambda: make_controller("reno"),
                                   short_sim, episodes=0, reward=RewardParams())
    assert hist == []
    assert policy is not None


def test_select_worst_trace_respects_constraint(short_sim):
    budget = SmoothnessBudget()
    spec = AdversarySpec(surface=SurfaceMode.ENV_BANDWIDTH, budget=budget,
                         constraint=DelayConstraint(tau_ms=5.0))
    policy = make_adversary_policy(SurfaceMode.ENV_BANDWIDTH)
    worst = select_worst_trace(spec, policy, lambda: make_controller("reno"),
                               short_sim, RewardParams(), n_rollouts=4, seed=0)
    if worst is not None:
        assert worst.mean_delay_ms >= 5.0
        assert check_feasible(worst.trace_values, budget)


def test_select_worst_trace_infeasible_returns_none(short_sim):
    budget = SmoothnessBudget()
    spec = AdversarySpec(surface=SurfaceMode.ENV_BANDWIDTH, budget=budget,
                         constraint=DelayConstraint(tau_ms=1e6))
    policy = make_adversary_policy(SurfaceMode.ENV_BANDWIDTH)
    assert select_worst_trace(spec, policy, lambda: make_controller("reno"),
                              short_sim, RewardParams(), n_rollouts=2,
                              seed=0) is None
