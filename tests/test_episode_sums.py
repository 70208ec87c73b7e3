"""An episode's summary, reduced in C from its rows: bit for bit the Python
formulas of `oracles`, and no Observation built where nothing reads one."""

import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ccprobe import metrics, netsim
from ccprobe.adversary import (AdversaryConfig, EnvBandwidthDriver, SETTINGS,
                               FeatureIntercept, adversarial_episodes,
                               make_adversary_policy)
from ccprobe.cc import RULE_BASED, make_controller
from ccprobe.learned import LearnedController, PolicyNet, RewardParams
from ccprobe.metrics import clean_episode
from ccprobe.netsim import DomainError, EpisodeLog, SimConfig, run_episode, run_episodes
from ccprobe.tracegen import SmoothnessBudget, gen_random_trace

SIM = SimConfig(episode_duration_s=2.0)
CONTROLLERS = list(RULE_BASED) + ["learned_linear", "learned_hidden"]


def _hex(*xs):
    return [float(x).hex() for x in xs]


def _trace(seed, delta, bw_min, span):
    budget = SmoothnessBudget(delta=delta, bw_min=bw_min, bw_max=bw_min + span)
    return gen_random_trace(SIM.n_intervals, budget, seed)


def _policy(hidden, n_features, seed):
    p = PolicyNet(n_features=n_features, hidden=hidden)
    return p.with_params(np.random.default_rng(seed).normal(0.0, 0.5, p.n_params))


traces = st.builds(_trace, st.integers(0, 10_000), st.floats(0.5, 48.0),
                   st.floats(0.5, 24.0), st.floats(1.0, 96.0))
rewards = st.builds(RewardParams, st.floats(0.0, 20.0), st.floats(1.0, 3.0),
                    st.floats(1.0, 200.0))


@settings(max_examples=30, deadline=None)
@given(traces, st.sampled_from(CONTROLLERS), st.integers(0, 1000), rewards)
def test_c_sums_are_the_python_formulas(trace, name, seed, reward):
    if name.startswith("learned"):
        policy = _policy(16 if name == "learned_hidden" else 0, 5, seed)
        factory = partial(LearnedController, policy, b_max=reward.b_max)
    else:
        factory = partial(make_controller, name)
    log = run_episode(SIM, trace, factory())
    assert _hex(log.mean_queuing_delay_ms(), log.mean_utilization()) == \
        _hex(oracles.mean_queuing_delay_ms(log), oracles.mean_utilization(log))
    n = len(log.rows)
    assert _hex(log.sums(reward).reward / n) == _hex(oracles.episode_return(log, reward))
    report = clean_episode(SIM, trace, factory, reward)
    assert _hex(report.interval_delay_ms, report.utilization, report.reward) == \
        _hex(oracles.mean_queuing_delay_ms(log), oracles.mean_utilization(log),
             oracles.episode_return(log, reward))


@settings(max_examples=12, deadline=None)
@given(traces, st.sampled_from(SETTINGS["surface"]),
       st.sampled_from(SETTINGS["reward_mode"]),
       st.sampled_from(["cubic", "vegas", "bbrlite"]), st.integers(0, 1000), rewards)
def test_c_sums_of_adversarial_episodes_are_the_python_formulas(
        trace, surface, mode, name, seed, reward):
    policy = make_adversary_policy(surface)
    params = np.random.default_rng(seed).normal(0.0, 0.5, (2, policy.n_params))
    adv = AdversaryConfig(0.4, surface=surface, reward_mode=mode, tau_ms=5.0)
    budget = SmoothnessBudget()
    factory = partial(make_controller, name)
    seeds = [seed, seed + 1]
    evs = adversarial_episodes(adv, budget, policy, params, factory, SIM, reward,
                               seeds, clean_traces=[trace])
    for ev, p, s in zip(evs, params, seeds):
        # the row's episode again, alone, for its Observations
        if surface == "env":
            row, intercept = None, EnvBandwidthDriver(
                budget, policy.with_params(p), b_max=reward.b_max, seed=s)
        else:
            row, intercept = trace, FeatureIntercept(
                adv, policy.with_params(p), b_max=reward.b_max, seed=s)
        [log] = run_episodes(SIM, [row], [factory()], [intercept])
        assert _hex(ev.utilization, ev.interval_delay_ms) == \
            _hex(oracles.mean_utilization(log), oracles.mean_queuing_delay_ms(log))
        assert ev.capacities == [o.capacity_mbps for o in log.observations]


values = st.floats(-1e3, 1e3)
# srtt below the base RTT, which no simulated interval has, meets the floor
rows = st.lists(st.tuples(*[values] * 6, st.floats(1e-3, 1e3), *[values] * 3),
                max_size=40)


@settings(max_examples=200)
@given(rows, rewards)
def test_c_sums_of_any_rows_are_the_python_formulas(rows, reward):
    log = EpisodeLog(SimConfig(), rows=np.array(rows, dtype=np.float64).reshape(-1, 10))
    assert _hex(log.mean_queuing_delay_ms(), log.mean_utilization()) == \
        _hex(oracles.mean_queuing_delay_ms(log), oracles.mean_utilization(log))
    n = len(rows)
    assert _hex(log.sums(reward).reward / n if n else 0.0) == \
        _hex(oracles.episode_return(log, reward))


def _zero_min_rtt_at(k, log):
    log.rows[k, netsim.OBS_COLUMNS.index("min_rtt_ms")] = 0.0
    return log


def test_episode_return_raises_domain_error_on_zero_min_rtt(monkeypatch, const_trace):
    sim, reward = SimConfig(episode_duration_s=5.0), RewardParams()
    log = _zero_min_rtt_at(7, run_episode(sim, const_trace, LearnedController(
        PolicyNet(n_features=5, hidden=0))))
    with pytest.raises(DomainError, match="min_rtt must be > 0"):
        oracles.episode_return(log, reward)
    with pytest.raises(DomainError, match="min_rtt must be > 0"):
        log.sums(reward)
    real = metrics.run_episode
    monkeypatch.setattr(metrics, "run_episode",
                        lambda *args: _zero_min_rtt_at(0, real(*args)))
    with pytest.raises(DomainError, match="min_rtt must be > 0"):
        clean_episode(sim, const_trace, partial(
            LearnedController, PolicyNet(n_features=5, hidden=0)), reward)
    # the means take no reward, so no reward domain
    assert log.mean_utilization() == oracles.mean_utilization(log)


def test_pickled_log_round_trips(short_sim, const_trace):
    log = run_episode(short_sim, const_trace, make_controller("cubic"))
    back = pickle.loads(pickle.dumps(log))
    assert back.observations == log.observations
    assert back.rows.dtype == np.float64 and back.rows.shape == (50, 10)
    assert _hex(back.mean_queuing_delay_ms(), back.mean_utilization()) == \
        _hex(log.mean_queuing_delay_ms(), log.mean_utilization())
    assert back.ack_rtt_ticks == log.ack_rtt_ticks


def test_sums_reject_rows_of_another_layout():
    for rows in (np.zeros((3, 9)), np.zeros((3, 10), np.float32),
                 np.zeros((10, 3)).T):
        with pytest.raises(ValueError, match="rows"):
            EpisodeLog(SimConfig(), rows=rows).mean_utilization()


def test_summaries_build_no_observation(monkeypatch, short_sim, const_trace):
    built, real = [], netsim.Observation

    def spy(*args):
        built.append(args[0])
        return real(*args)

    monkeypatch.setattr(netsim, "Observation", spy)
    clean_episode(short_sim, const_trace, partial(make_controller, "reno"))
    for hidden in (0, 16):
        # nor does a learned one's with its reward, a hidden-layer policy's
        # included, whose features the loop writes
        clean_episode(short_sim, const_trace, partial(
            LearnedController, PolicyNet(n_features=5, hidden=hidden)),
            RewardParams())
    assert built == []
