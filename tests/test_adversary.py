"""Adversary: perturbation bounds, intercepts, env driver, calibration."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ccprobe import netsim
from ccprobe.adversary import (AdversaryConfig, EnvBandwidthDriver, SETTINGS,
                               FeatureIntercept, adversarial_episode,
                               adversarial_episodes, calibrate_tau,
                               make_adversary_policy, select_worst_trace,
                               train_adversary)
from ccprobe.cc import make_controller
from ccprobe.cem import CemConfig
from ccprobe.learned import RewardParams
from ccprobe.netsim import (DomainError, Observation, Rng, _lib, obs_row,
                            replace, run_episode, run_episodes)
from ccprobe.tracegen import (SmoothnessBudget, check_feasible, gen_random_trace,
                              project_next)
from drivers import adv_step
from oracles import env_reward, naive_reward, perturb_min_rtt, queuing_delay


def obs(srtt=25.0, min_rtt=20.0, cap=48.0, util=0.8):
    return Observation(interval_idx=0, now_ms=100.0, capacity_mbps=cap,
                       throughput_mbps=util * cap, loss_mbps=0.0, loss_rate=0.0,
                       srtt_ms=srtt, min_rtt_ms=min_rtt, visible_min_rtt_ms=min_rtt,
                       utilization=util, cwnd=10.0)


@settings(max_examples=60)
@given(st.floats(min_value=0.1, max_value=500.0),
       st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=0.9),
       st.integers(min_value=0, max_value=2**32))
def test_perturbation_stays_within_x(true_rtt, action, x, seed):
    # the adversarial scale of any action, and a random-noise draw
    noise = FeatureIntercept(AdversaryConfig(x, "random_noise"), seed=seed)
    for scale in (_lib.tl_feature_scale(action, x), adv_step(noise, obs())):
        out = true_rtt * scale
        assert true_rtt * (1 - x) - 1e-9 <= out <= true_rtt * (1 + x) + 1e-9


def test_perturbation_modes():
    # clean keeps the scale 1 even with a policy; random noise draws
    policy = make_adversary_policy("feature")
    policy = policy.with_params(np.full(policy.n_params, 0.5))
    clean = FeatureIntercept(AdversaryConfig(0.5, "clean"), policy)
    assert not clean.adv_state.has_policy and adv_step(clean, obs()) == 1.0
    noise = FeatureIntercept(AdversaryConfig(0.5, "random_noise"), policy)
    vals = {adv_step(noise, obs()) for _ in range(10)}
    assert len(vals) > 1
    assert all(0.5 <= v <= 1.5 for v in vals)


def test_perturbation_rejects_bad_inputs():
    # x_fraction's domain is the config table's (test_cli's exit-2 cases); a
    # draw range wider than a double raises Rng.uniform's OverflowError when
    # the adversary is built, as the loop's draws have no error path
    wide = SmoothnessBudget(bw_min=-1e308, bw_max=1e308)
    for build in (lambda: FeatureIntercept(AdversaryConfig(1e308, "random_noise")),
                  lambda: EnvBandwidthDriver(wide)):
        with pytest.raises(OverflowError, match="high - low range"):
            build()
    # with a policy an env driver draws nothing, and builds
    EnvBandwidthDriver(wide, make_adversary_policy("env"))


def test_feature_intercept_episode_reset():
    it = FeatureIntercept(AdversaryConfig(0.5, "random_noise"), seed=3)
    it.begin_episode()
    first = adv_step(it, obs())
    it.begin_episode()
    assert adv_step(it, obs()) == first      # reseeded -> same draw


def test_env_driver_traces_always_feasible():
    budget = SmoothnessBudget(delta=10.0)
    policy = make_adversary_policy("env")
    rng = np.random.default_rng(0)
    policy = policy.with_params(rng.normal(size=policy.n_params))
    drv = EnvBandwidthDriver(budget, policy, seed=0)
    values = [drv.first_capacity()]
    for i in range(100):
        values.append(adv_step(drv, obs(cap=values[-1])))
    assert check_feasible(values, budget)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**64),
       st.floats(min_value=0.0, max_value=0.9),
       st.floats(min_value=0.5, max_value=48.0),
       st.floats(min_value=0.5, max_value=24.0),
       st.floats(min_value=1.0, max_value=96.0),
       st.integers(min_value=1, max_value=4))
def test_c_draws_are_rngs(seed, x, delta, bw_min, span, window_k):
    # a policy-less adversary's draws in C are its seed's Rng.uniform, bit
    # for bit: on the feature surface the oracle's random-noise scale, on
    # the env surface the proposal the budget projects
    adv = AdversaryConfig(x, "random_noise")
    it, rng = FeatureIntercept(adv, seed=seed), Rng(seed)
    got = [adv_step(it, obs()) for _ in range(20)]
    want = [perturb_min_rtt(1.0, 0.0, adv, rng) for _ in range(20)]
    assert [v.hex() for v in got] == [v.hex() for v in want]
    budget = SmoothnessBudget(delta=delta, window_k=window_k, bw_min=bw_min,
                              bw_max=bw_min + span)
    drv, rng = EnvBandwidthDriver(budget, seed=seed), Rng(seed)
    got, want = [drv.first_capacity()], [budget.clamp(drv.initial)]
    for _ in range(20):
        got.append(adv_step(drv, obs()))
        want.append(project_next(want, rng.uniform(budget.bw_min, budget.bw_max),
                                 budget))
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_reused_env_driver_repeats_its_capacities(short_sim):
    # each episode reseeds a policy-less driver's stream, as it does an
    # intercept's: one driver run twice gives one capacity sequence
    drv = EnvBandwidthDriver(SmoothnessBudget(), seed=1)
    a, b = (run_episodes(short_sim, [None], [make_controller("reno")], [drv])[0]
            for _ in range(2))
    assert np.array_equal(a.column("capacity_mbps"), b.column("capacity_mbps"))


def test_env_driver_random_when_no_policy():
    budget = SmoothnessBudget()
    drv = EnvBandwidthDriver(budget, policy=None, seed=1)
    values = [drv.first_capacity()]
    for _ in range(50):
        values.append(adv_step(drv, obs()))
    assert check_feasible(values, budget)
    assert len(set(values)) > 10


def test_calibrate_tau_is_mean_of_means(short_sim):
    budget = SmoothnessBudget()
    traces = [gen_random_trace(50, budget, seed=i) for i in range(2)]
    factory = lambda: make_controller("reno")
    tau, reports = calibrate_tau(factory, traces, short_sim, workers=2)
    # oracle: same runs, averaged by hand
    delays = [run_episode(short_sim, tr, factory()).mean_queuing_delay_ms()
              for tr in traces]
    assert tau == pytest.approx(sum(delays) / len(delays), rel=1e-12)
    assert [r.interval_delay_ms for r in reports] == pytest.approx(delays, rel=1e-12)
    assert tau > 0.0


def test_calibrate_tau_needs_traces(short_sim):
    with pytest.raises(ValueError):
        calibrate_tau(lambda: make_controller("reno"), [], short_sim)


def test_adversarial_episode_clean_mode_matches_unperturbed(short_sim, const_trace):
    adv = AdversaryConfig(0.5, "clean", surface="feature", reward_mode="naive",
                          tau_ms=0.0)
    factory = lambda: make_controller("vegas")
    ev = adversarial_episode(adv, SmoothnessBudget(), None, None, factory,
                             short_sim, RewardParams(), seed=0,
                             clean_traces=[const_trace])
    ref = run_episode(short_sim, const_trace, factory())
    assert ev.utilization == pytest.approx(ref.mean_utilization(), rel=1e-12)


def test_reno_ignores_min_rtt_perturbation(short_sim, const_trace):
    # loss-only controller: scaling its min-RTT estimate changes nothing
    adv = AdversaryConfig(0.5, "random_noise", surface="feature",
                          reward_mode="naive", tau_ms=0.0)
    factory = lambda: make_controller("reno")
    ev = adversarial_episode(adv, SmoothnessBudget(), None, None, factory,
                             short_sim, RewardParams(), seed=0,
                             clean_traces=[const_trace])
    ref = run_episode(short_sim, const_trace, factory())
    assert ev.utilization == pytest.approx(ref.mean_utilization(), rel=1e-12)
    assert ev.interval_delay_ms == pytest.approx(ref.mean_queuing_delay_ms(),
                                                 rel=1e-12)


def test_train_adversary_zero_budget(short_sim):
    adv = AdversaryConfig(surface="env", episodes=0)
    policy, hist = train_adversary(adv, SmoothnessBudget(), None,
                                   lambda: make_controller("reno"), short_sim,
                                   reward=RewardParams())
    assert hist == []
    assert policy is not None


def test_train_adversary_leaves_the_callers_section_as_it_was(short_sim):
    # with no policy a fresh one trains, and the section is not written to
    adv = AdversaryConfig(surface="env", tau_ms=0.0, episodes=4)
    before = dict(vars(adv))
    policy, hist = train_adversary(adv, SmoothnessBudget(), None,
                                   lambda: make_controller("reno"), short_sim,
                                   reward=RewardParams(),
                                   cem=CemConfig(population=4))
    assert len(hist) == 1 and policy.n_features == 6
    assert vars(adv) == before


def test_select_worst_trace_respects_constraint(short_sim):
    budget = SmoothnessBudget()
    adv = AdversaryConfig(surface="env", tau_ms=5.0, rollouts=4)
    policy = make_adversary_policy("env")
    worst = select_worst_trace(adv, budget, policy, lambda: make_controller("reno"),
                               short_sim, RewardParams(), seed=0)
    if worst is not None:
        assert worst.interval_delay_ms >= 5.0
        assert check_feasible(worst.capacities, budget)


def test_select_worst_trace_infeasible_returns_none(short_sim):
    budget = SmoothnessBudget()
    adv = AdversaryConfig(surface="env", tau_ms=1e6, rollouts=2)
    policy = make_adversary_policy("env")
    assert select_worst_trace(adv, budget, policy, lambda: make_controller("reno"),
                              short_sim, RewardParams(), seed=0) is None


# --- lock-step slices and the reward scored in C ------------------------------

def _python_scores(adv, reward, log):
    """`adversarial_episode`'s scoring loop as written in Python before it
    moved into the tick loop: (return, constraint rate)."""
    delays = deque(maxlen=adv.window_h)
    total, ok = 0.0, 0
    for o in log.observations:
        delays.append(queuing_delay(o))
        if adv.reward_mode == "naive":
            r = naive_reward(oracles.controller_reward(o, reward))
        elif len(delays) < adv.window_h:
            r = -o.utilization
        else:
            r = env_reward(o, delays, adv)
        total += r
        ok += o.srtt_ms - o.min_rtt_ms >= adv.tau_ms
    n = len(log.observations)
    return total / n, ok / n


def _slice_cases():
    """(section, budget, policy, clean traces) of each slice to run."""
    traces = [gen_random_trace(50, SmoothnessBudget(), seed=4 + i) for i in range(3)]
    for window_k in (1, 3):
        for mode in SETTINGS["reward_mode"]:
            budget = SmoothnessBudget(delta=20.0, window_k=window_k)
            env = AdversaryConfig(surface="env", reward_mode=mode, tau_ms=15.0,
                                  alpha=0.7, window_h=5, window_k=window_k)
            for policy in (make_adversary_policy("env"), None):
                yield env, budget, policy, None
            for perturb in SETTINGS["perturb_mode"]:
                yield (replace(env, x_fraction=0.4, perturb_mode=perturb,
                               surface="feature"),
                       budget, make_adversary_policy("feature"), traces)


def _fields(ev):
    return (ev.utilization, ev.interval_delay_ms, ev.mean_delay_ms, ev.adv_return,
            ev.ok_rate, ev.capacities)


def test_slice_of_episodes_equals_single_episodes(short_sim):
    # both surfaces, both reward modes, every perturb mode, window_k 1 and 3,
    # with and without a policy: row j of a slice of k is the single episode,
    # field for field, and its return and constraint rate are the Python
    # scoring loop's, bit for bit
    rng = np.random.default_rng(9)
    reward = RewardParams()
    factory = lambda: make_controller("vegas")
    for adv, budget, policy, traces in _slice_cases():
        case = (vars(adv), policy)
        for k in (1, 2, 3, 5):
            params = (None if policy is None
                      else rng.normal(0.0, 0.5, (k, policy.n_params)))
            seeds = [int(s) for s in rng.integers(0, 1000, k)]
            inits = [None] + [float(v) for v in rng.uniform(1.0, 96.0, k - 1)]
            evs = adversarial_episodes(adv, budget, policy, params, factory,
                                       short_sim, reward, seeds, inits,
                                       clean_traces=traces)
            assert len(evs) == k
            for j, ev in enumerate(evs):
                p = None if params is None else params[j]
                one = adversarial_episode(adv, budget, policy, p, factory,
                                          short_sim, reward, seeds[j], inits[j],
                                          clean_traces=traces)
                assert _fields(ev) == _fields(one), case
            row_policy = policy if p is None else policy.with_params(p)
            if adv.surface == "env":
                trace, row = None, EnvBandwidthDriver(
                    budget, row_policy, b_max=reward.b_max, seed=seeds[-1],
                    initial_capacity=inits[-1])
            else:
                trace, row = traces[seeds[-1] % len(traces)], FeatureIntercept(
                    adv, row_policy, b_max=reward.b_max, seed=seeds[-1])
            [log] = run_episodes(short_sim, [trace], [factory()], [row])
            want = _python_scores(adv, reward, log)
            assert [x.hex() for x in (ev.adv_return, ev.ok_rate)] == \
                [x.hex() for x in want], case
            assert ev.capacities == [o.capacity_mbps for o in log.observations]


def test_reward_domain_errors_raise_through_the_c_code():
    # each check of the Python reward pieces is a TL_DOMAIN_* code of the
    # tick loop's scoring, raised as the same DomainError
    reward = RewardParams()
    adv = AdversaryConfig(surface="env", tau_ms=1.0, window_h=5)
    cases = [("delay_constrained", obs(srtt=15.0, min_rtt=20.0), 0,
              lambda o: queuing_delay(o)),
             ("naive", obs(srtt=5.0, min_rtt=0.0), 0,
              lambda o: oracles.controller_reward(o, reward)),
             ("delay_constrained", obs(util=1.5), 4,
              lambda o: env_reward(o, [1.0] * 5, adv))]
    for mode, bad, warmup, python in cases:
        driver = EnvBandwidthDriver(SmoothnessBudget())
        driver.score_by(replace(adv, reward_mode=mode), reward)
        for _ in range(warmup):
            assert _lib.tl_adv_reward(driver.adv_state, obs_row(obs())) == 0
        code = _lib.tl_adv_reward(driver.adv_state, obs_row(bad))
        with pytest.raises(DomainError) as want:
            python(bad)
        err = netsim._tick_loop_error(code, None)
        assert type(err) is DomainError and str(err) == str(want.value)


@settings(max_examples=200)
@given(st.floats(min_value=0.1, max_value=500.0),
       st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=0.9))
def test_c_feature_scale_is_pythons(true_rtt, action, x):
    # the adversarial branch as written in Python before it moved to C
    want = perturb_min_rtt(true_rtt, action, AdversaryConfig(x), None)
    got = true_rtt * _lib.tl_feature_scale(action, x)
    assert got.hex() == want.hex()
