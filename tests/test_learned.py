"""Learned controller: policy math, checkpoints, training contract."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccprobe.cem import CemConfig
from ccprobe.learned import (FEATURE_NAMES, LearnedController, PolicyNet,
                             RewardParams, episode_return, load_policy,
                             observation_features, save_policy,
                             train_controller)
from ccprobe.netsim import BandwidthTrace, ConfigError, Observation, run_episode


def obs(srtt=25.0, min_rtt=20.0, thr=40.0, loss_rate=0.0):
    return Observation(interval_idx=0, now_ms=100.0, capacity_mbps=48.0,
                       throughput_mbps=thr, loss_mbps=0.0, loss_rate=loss_rate,
                       srtt_ms=srtt, min_rtt_ms=min_rtt, visible_min_rtt_ms=min_rtt,
                       utilization=0.8, cwnd=10.0)


def test_feature_vector_layout():
    f = observation_features(obs(), b_max=96.0, prev_action=0.5)
    assert len(f) == len(FEATURE_NAMES) == 5
    assert f[0] == pytest.approx(25.0 / 20.0)
    assert f[1] == pytest.approx(40.0 / 96.0)
    assert f[3] == pytest.approx(5.0 / 20.0)
    assert f[4] == 0.5


def test_param_count_linear_and_hidden():
    assert PolicyNet(n_features=5, hidden=0).n_params == 6
    assert PolicyNet(n_features=5, hidden=16).n_params == 16 * 6 + 17


def test_param_shape_rejected():
    with pytest.raises(ValueError):
        PolicyNet(n_features=5, hidden=0, params=np.zeros(3))


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=-100.0, max_value=100.0),
                min_size=5, max_size=5),
       st.integers(min_value=0, max_value=10_000))
def test_action_always_bounded(feats, seed):
    rng = np.random.default_rng(seed)
    for hidden in (0, 16):
        p = PolicyNet(n_features=5, hidden=hidden,
                      params=rng.normal(size=PolicyNet(5, hidden).n_params) * 10)
        a = p.act(np.array(feats))
        assert -p.a_max <= a <= p.a_max


def test_zero_params_zero_action():
    p = PolicyNet(n_features=5, hidden=0)
    assert p.act(np.ones(5)) == 0.0


def test_checkpoint_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    p = PolicyNet(n_features=5, hidden=16,
                  params=rng.normal(size=PolicyNet(5, 16).n_params))
    path = tmp_path / "p.ckpt"
    save_policy(p, str(path))
    q = load_policy(str(path))
    assert q.hidden == p.hidden
    assert q.a_max == p.a_max
    # repr-based serialization: bit-exact floats
    assert np.array_equal(q.params, p.params)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk"
    for body in ("not a checkpoint\n", "ccprobe-policy v1\n",
                 "ccprobe-policy v1\nfeatures a\nhidden x\na_max 2\n"):
        path.write_text(body)
        with pytest.raises(ConfigError, match="junk"):
            load_policy(str(path))


def test_controller_cwnd_update_rule():
    p = PolicyNet(n_features=5, hidden=0)
    ctl = LearnedController(p)
    ctl.cwnd = 100.0
    ctl.policy = p.with_params(np.zeros(6))
    ctl.on_interval(obs())
    assert ctl.cwnd == 100.0            # a=0 -> 2^0
    # a = +a_max doubles at most 2^a_max per interval; floor at 1
    strong = PolicyNet(n_features=5, hidden=0, params=np.array([0, 0, 0, 0, 0, 99.0]))
    ctl = LearnedController(strong)
    ctl.cwnd = 1.0
    ctl.on_interval(obs())
    assert ctl.cwnd == pytest.approx(2.0 ** strong.a_max)


def test_controller_cwnd_capped():
    strong = PolicyNet(n_features=5, hidden=0, params=np.array([0, 0, 0, 0, 0, 99.0]))
    ctl = LearnedController(strong, cwnd_max=500.0)
    ctl.cwnd = 499.0
    for _ in range(5):
        ctl.on_interval(obs())
    assert ctl.cwnd == 500.0


def test_reward_params_invariants():
    with pytest.raises(ValueError):
        RewardParams(gamma=0.5)
    with pytest.raises(ValueError):
        RewardParams(lam=-1.0)
    with pytest.raises(ValueError):
        RewardParams(b_max=0.0)


def test_train_zero_budget_noop(short_sim, const_trace):
    p = PolicyNet(n_features=5, hidden=0)
    out, rows = train_controller(p, [const_trace], 0, short_sim, RewardParams())
    assert out is p
    assert rows == []


def test_train_never_regresses_on_holdout(short_sim, const_trace):
    p = PolicyNet(n_features=5, hidden=0)
    reward = RewardParams()
    cem = CemConfig(population=8, seed=0)
    out, rows = train_controller(p, [const_trace], 24, short_sim, reward,
                                 cem, holdout=const_trace)
    assert episode_return(out, const_trace, short_sim, reward) >= \
        episode_return(p, const_trace, short_sim, reward)
    assert len(rows) == 3


def test_train_requires_traces(short_sim):
    with pytest.raises(ValueError):
        train_controller(PolicyNet(5, 0), [], 32, short_sim, RewardParams())
