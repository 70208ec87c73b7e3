"""Learned controller: policy math, checkpoints, training contract."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ccprobe.cem import CemConfig
from ccprobe.learned import (FEATURE_NAMES, LearnedController, PolicyNet,
                             RewardParams, load_policy, observation_features,
                             policy_outputs, save_policy, train_controller)
from ccprobe.metrics import clean_episode
from ccprobe.netsim import ConfigError, _lib, run_episode
from drivers import learned_step, obs_row
from oracles import Obs


def obs(srtt=25.0, min_rtt=20.0, thr=40.0, loss_rate=0.0):
    return Obs(interval_idx=0, now_ms=100.0, capacity_mbps=48.0,
               throughput_mbps=thr, loss_mbps=0.0, loss_rate=loss_rate,
               srtt_ms=srtt, min_rtt_ms=min_rtt, visible_min_rtt_ms=min_rtt,
               utilization=0.8, cwnd=10.0)


def act(policy, features):
    """The policy's bounded action: the C head on its output."""
    return _lib.tl_action(policy.output(features), policy.a_max)


def test_feature_vector_layout():
    f = observation_features(obs_row(obs()), b_max=96.0, prev_action=0.5)
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


def test_controller_rejects_a_policy_of_other_features():
    # a learned controller's policy reads FEATURE_NAMES; another one is
    # refused when set, not deep in an episode
    for hidden in (0, 16):
        with pytest.raises(ValueError, match="reads the 5 features"):
            LearnedController(PolicyNet(n_features=6, hidden=hidden))
    ctl = LearnedController(PolicyNet(n_features=5, hidden=16))
    with pytest.raises(ValueError, match="not 6"):
        ctl.policy = PolicyNet(n_features=6, hidden=0)
    assert ctl.policy.n_features == 5 and ctl.cc_state.kind == _lib.TL_HIDDEN


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=-100.0, max_value=100.0),
                min_size=5, max_size=5),
       st.integers(min_value=0, max_value=10_000))
def test_action_always_bounded(feats, seed):
    rng = np.random.default_rng(seed)
    for hidden in (0, 16):
        p = PolicyNet(n_features=5, hidden=hidden,
                      params=rng.normal(size=PolicyNet(5, hidden).n_params) * 10)
        a = act(p, np.array(feats))
        assert -p.a_max <= a <= p.a_max


def test_zero_params_zero_action():
    p = PolicyNet(n_features=5, hidden=0)
    assert act(p, np.ones(5)) == 0.0


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
    learned_step(ctl, obs())
    assert ctl.cwnd == 100.0            # a=0 -> 2^0
    # a = +a_max doubles at most 2^a_max per interval; floor at 1
    strong = PolicyNet(n_features=5, hidden=0, params=np.array([0, 0, 0, 0, 0, 99.0]))
    ctl = LearnedController(strong)
    ctl.cwnd = 1.0
    learned_step(ctl, obs())
    assert ctl.cwnd == pytest.approx(2.0 ** strong.a_max)


def test_controller_cwnd_capped():
    strong = PolicyNet(n_features=5, hidden=0, params=np.array([0, 0, 0, 0, 0, 99.0]))
    ctl = LearnedController(strong, cwnd_max=500.0)
    ctl.cwnd = 499.0
    for _ in range(5):
        learned_step(ctl, obs())
    assert ctl.cwnd == 500.0


def _python_interval(policy, b_max, cwnd_max, cwnd, prev_action, o):
    """The learned controller's interval step in numpy, as it was written
    before the linear policy moved into the tick loop: (cwnd, action)."""
    a = act(policy, observation_features(obs_row(o), b_max, prev_action))
    return min(cwnd_max, max(1.0, cwnd * 2.0 ** a)), a


def _assert_c_step_is_pythons(params, a_max, b_max, cwnd_max, cwnd, prev, o):
    policy = PolicyNet(n_features=5, hidden=0, a_max=a_max, params=params)
    ctl = LearnedController(policy, b_max=b_max, cwnd_max=cwnd_max)
    assert ctl.cc_state.kind == _lib.TL_LINEAR
    ctl.cwnd, ctl.prev_action = cwnd, prev
    learned_step(ctl, o)
    want = _python_interval(policy, b_max, cwnd_max, cwnd, prev, o)
    # bitwise: hex tells -0.0 from 0.0 and shows every bit
    assert (ctl.cwnd.hex(), ctl.prev_action.hex()) == tuple(
        float(x).hex() for x in want), (params, o)


_param = st.one_of(st.just(0.0), st.just(-0.0),
                   st.floats(min_value=-20.0, max_value=20.0))
_ms = st.floats(min_value=1.0, max_value=2000.0)


@settings(max_examples=400)
@given(params=st.lists(_param, min_size=6, max_size=6),
       a_max=st.sampled_from([1.0, 2.0, 0.5, 3.7]),
       b_max=st.sampled_from([96.0, 32.0, 1.5]),
       cwnd=st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=5000.0)),
       prev=st.floats(min_value=-3.7, max_value=3.7),
       srtt=_ms,
       visible=st.one_of(_ms, st.just(0.0), st.floats(min_value=0.0, max_value=1e-6)),
       same_rtt=st.booleans(),
       thr=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=200.0)),
       loss_rate=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)))
def test_c_linear_interval_step_is_numpys(params, a_max, b_max, cwnd, prev, srtt,
                                         visible, same_rtt, thr, loss_rate):
    # C's TL_LINEAR step against the policy's action plus the Python cwnd update,
    # including srtt == visible min-RTT and a visible min-RTT below the
    # features' 1e-6 floor
    if same_rtt:
        srtt = visible
    o = Obs(interval_idx=3, now_ms=400.0, capacity_mbps=48.0,
            throughput_mbps=thr, loss_mbps=0.0, loss_rate=loss_rate,
            srtt_ms=srtt, min_rtt_ms=srtt, visible_min_rtt_ms=visible,
            utilization=0.5, cwnd=cwnd)
    _assert_c_step_is_pythons(params, a_max, b_max, 4096.0, cwnd, prev, o)


def test_c_linear_interval_step_over_random_policies():
    # many random policies and observations of the scale episodes produce
    rng = np.random.default_rng(20)
    for _ in range(3000):
        params = rng.normal(0.0, rng.choice([0.1, 1.0, 10.0]), 6)
        params[rng.random(6) < 0.2] = 0.0
        visible = rng.uniform(1.0, 200.0)
        o = Obs(0, 100.0, 48.0, rng.uniform(0.0, 100.0), 0.0,
                rng.choice([0.0, rng.uniform(0.0, 0.5)]),
                visible + rng.uniform(0.0, 300.0), visible, visible,
                0.5, 10.0)
        _assert_c_step_is_pythons(params, 2.0, 96.0, 4096.0,
                                  rng.uniform(1.0, 4096.0),
                                  rng.uniform(-2.0, 2.0), o)


def test_hidden_policy_stays_in_python():
    hidden = PolicyNet(n_features=5, hidden=16)
    ctl = LearnedController(hidden)
    assert ctl.cc_state.kind == _lib.TL_HIDDEN
    # a linear policy set later moves the controller into the tick loop
    ctl.policy = PolicyNet(n_features=5, hidden=0, params=np.arange(6.0))
    assert ctl.cc_state.kind == _lib.TL_LINEAR
    assert list(ctl.cc_state.params) == list(np.arange(6.0))


def test_train_zero_budget_noop(short_sim, const_trace):
    p = PolicyNet(n_features=5, hidden=0)
    out, rows = train_controller(p, [const_trace], 0, short_sim, RewardParams())
    assert out is p
    assert rows == []


def test_train_never_regresses_on_holdout(short_sim, const_trace):
    # the check that keeps the incoming policy runs on the pool's first trace
    p = PolicyNet(n_features=5, hidden=0)
    reward = RewardParams()
    cem = CemConfig(population=8, seed=0)
    out, rows = train_controller(p, [const_trace], 24, short_sim, reward, cem)
    new, old = (clean_episode(short_sim, const_trace, partial(
        LearnedController, x, b_max=reward.b_max), reward).reward for x in (out, p))
    assert new >= old
    # each is the oracle's mean reward over its episode, bit for bit
    for x, got in ((out, new), (p, old)):
        log = run_episode(short_sim, const_trace,
                          LearnedController(x, b_max=reward.b_max))
        assert got.hex() == oracles.episode_return(log, reward).hex()
    assert len(rows) == 3


def test_train_requires_traces(short_sim):
    with pytest.raises(ValueError):
        train_controller(PolicyNet(5, 0), [], 32, short_sim, RewardParams())


# --- the C feature row and action head, and the batched policy ----------------

def _python_features(o, b_max, prev_action):
    """`observation_features` as written in numpy before it moved to C."""
    min_rtt = max(o.visible_min_rtt_ms, 1e-6)
    return np.array([o.srtt_ms / min_rtt, o.throughput_mbps / b_max, o.loss_rate,
                     (o.srtt_ms - o.visible_min_rtt_ms) / min_rtt, prev_action])


def _python_act(policy, x):
    """`PolicyNet.act` as written in numpy before its head moved to C."""
    p, nf, nh = policy.params, policy.n_features, policy.hidden
    if nh == 0:
        out = float(p[:nf] @ x + p[nf])
    else:
        w1, b1 = p[:nh * nf].reshape(nh, nf), p[nh * nf:nh * nf + nh]
        out = float(p[nh * nf + nh:nh * nf + 2 * nh] @ np.tanh(w1 @ x + b1) + p[-1])
    a = policy.a_max * math.tanh(out)
    return min(policy.a_max, max(-policy.a_max, a))


@settings(max_examples=300)
@given(srtt=_ms, visible=st.one_of(_ms, st.just(0.0), st.floats(0.0, 1e-6)),
       thr=st.floats(0.0, 200.0), loss_rate=st.floats(0.0, 1.0),
       b_max=st.sampled_from([96.0, 32.0, 1.5]), prev=st.floats(-3.7, 3.7))
def test_c_features_are_pythons(srtt, visible, thr, loss_rate, b_max, prev):
    o = Obs(0, 100.0, 48.0, thr, 0.0, loss_rate, srtt, srtt, visible, 0.5, 10.0)
    assert ([x.hex() for x in observation_features(obs_row(o), b_max, prev)]
            == [x.hex() for x in _python_features(o, b_max, prev)])


def _spread(rng, shape):
    """Signed values whose magnitudes span 1e-3 to 30, log-uniformly."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, math.log10(30.0), shape)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 33), nf=st.sampled_from([5, 6]),
       hidden=st.sampled_from([16, 16, 16, 0]), seed=st.integers(0, 2**32 - 1))
def test_batched_policy_outputs_are_act_bit_for_bit(k, nf, hidden, seed):
    # the lock-step adversary's one evaluation per interval for a slice of k
    # policies, then the C head, against each row's own `act` and the
    # numpy code it replaced; the equality is this numpy's and its BLAS's
    rng = np.random.default_rng(seed)
    shape = PolicyNet(nf, hidden=hidden)
    policies = [shape.with_params(_spread(rng, shape.n_params)) for _ in range(k)]
    x, out = _spread(rng, (k, nf)), np.empty(k)
    policy_outputs(policies, x, out)()
    for j, policy in enumerate(policies):
        got = _lib.tl_action(out[j], policy.a_max).hex()
        assert got == act(policy, x[j]).hex() == _python_act(policy, x[j]).hex()


def test_hidden_learned_step_is_pythons():
    # the hidden-layer controller's step, its policy's output and the C
    # cwnd update, against the numpy cwnd update it replaced
    rng = np.random.default_rng(21)
    for _ in range(500):
        policy = PolicyNet(5, hidden=16, a_max=rng.choice([1.0, 2.0]))
        policy = policy.with_params(rng.normal(0.0, rng.choice([0.3, 3.0]),
                                               policy.n_params))
        visible = rng.uniform(1.0, 200.0)
        o = Obs(0, 100.0, 48.0, rng.uniform(0.0, 100.0), 0.0,
                rng.uniform(0.0, 0.5), visible + rng.uniform(0.0, 300.0),
                visible, visible, 0.5, 10.0)
        ctl = LearnedController(policy, cwnd_max=4096.0)
        ctl.cwnd, ctl.prev_action = rng.uniform(1.0, 4096.0), rng.uniform(-2.0, 2.0)
        a = _python_act(policy, _python_features(o, ctl.b_max, ctl.prev_action))
        want = min(4096.0, max(1.0, ctl.cwnd * 2.0 ** a))
        learned_step(ctl, o)
        assert (ctl.cwnd.hex(), ctl.prev_action.hex()) == (want.hex(), a.hex())
