"""Parametric learned congestion controller and its reward.

The controller acts once per monitoring interval: a bounded action a in
[-a_max, a_max] scales cwnd by 2^a. The function approximator is a linear
map over a fixed normalized feature vector, optionally with one tanh hidden
layer (width 16), small enough for the shared CEM optimizer.

Defaults gamma=1.2, lambda=10, B_max = max capacity of the active trace set
are config keys; see the README for the caveats around them.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .cc import Controller, _Field
from .cem import CemConfig, GenerationStats, train_policy
from .metrics import clean_episode
from .netsim import ConfigError, SimConfig, _ffi, _lib, map_jobs


class RewardParams:
    def __init__(self, lam: float = 10.0, gamma: float = 1.2, b_max: float = 96.0):
        self.lam = lam       # loss-penalty coefficient
        self.gamma = gamma   # delay margin coefficient, >= 1
        self.b_max = b_max   # normalizing bandwidth, Mbps

    def c_struct(self):
        """These parameters as a C `tl_reward`."""
        return _ffi.new("tl_reward *", (self.lam, self.gamma, self.b_max))


FEATURE_NAMES = ("rtt_ratio", "throughput_norm", "loss_rate", "qdelay_norm", "prev_action")


# no command calls it; perfbench's tracer looks it up by name
def observation_features(row, b_max: float, prev_action: float) -> np.ndarray:
    """Normalized feature vector of `row`, a C `tl_obs *`, shared by the learned
    controller and adversary; the tick loop's C function computes it."""
    f = np.empty(len(FEATURE_NAMES))
    _lib.tl_obs_features(row, b_max, prev_action, _ffi.from_buffer("double[]", f))
    return f


class PolicyNet:
    """Flat-vector parametric policy: linear head, optional tanh hidden layer.
    The bounded action, a_max * tanh(output) with a hard clamp, is taken in
    C (`tl_action`)."""

    def __init__(self, n_features: int, hidden: int = 16, a_max: float = 2.0,
                 params: np.ndarray | None = None):
        self.n_features = n_features
        self.hidden = hidden
        self.a_max = a_max
        if not self.hidden >= 0:
            raise ValueError(f"hidden must be >= 0, got {self.hidden!r}")
        if not self.a_max > 0:
            raise ValueError(f"a_max must be > 0, got {self.a_max!r}")
        if params is None:
            self.params = np.zeros(self.n_params)
        else:
            self.params = np.asarray(params, dtype=float)
            if self.params.shape != (self.n_params,):
                raise ValueError(f"expected {self.n_params} parameters, got {self.params.shape}")

    @property
    def n_params(self) -> int:
        if self.hidden == 0:
            return self.n_features + 1
        return self.hidden * (self.n_features + 1) + self.hidden + 1

    def output(self, features: np.ndarray) -> float:
        """The head's input: the linear map, after the hidden layer if any."""
        x = np.asarray(features, dtype=float)
        p = self.params
        if self.hidden == 0:
            return float(p[:self.n_features] @ x + p[self.n_features])
        nf, nh = self.n_features, self.hidden
        w1 = p[:nh * nf].reshape(nh, nf)
        b1 = p[nh * nf:nh * nf + nh]
        w2 = p[nh * nf + nh:nh * nf + nh + nh]
        b2 = p[-1]
        return float(w2 @ np.tanh(w1 @ x + b1) + b2)

    def with_params(self, params: np.ndarray) -> "PolicyNet":
        return PolicyNet(n_features=self.n_features, hidden=self.hidden,
                         a_max=self.a_max, params=np.asarray(params, dtype=float))


def policy_outputs(policies: list[PolicyNet], x: np.ndarray, out: np.ndarray):
    """A function setting out[j] = policies[j].output(x[j]), bit for bit, for
    the rows of `x`. Hidden-layer policies of one shape run as one stack:
    numpy's stacked matmul and tanh round as its one-row ones do (a test pins
    this for this numpy and BLAS)."""
    p0 = policies[0]
    if p0.hidden == 0:
        def row_by_row():
            for j, policy in enumerate(policies):
                out[j] = policy.output(x[j])
        return row_by_row
    k, nf, nh = len(policies), p0.n_features, p0.hidden
    p, i, j = np.stack([policy.params for policy in policies]), nh * nf, nh * nf + nh
    w1, b1 = p[:, :i].reshape(k, nh, nf).copy(), p[:, i:j].copy()
    w2, b2 = p[:, j:j + nh].reshape(k, 1, nh).copy(), p[:, -1:].reshape(k, 1, 1).copy()
    x3, t, o = x[:, :, None], np.empty((k, nh, 1)), out.reshape(k, 1, 1)
    h = t[:, :, 0]

    def batched():
        np.matmul(w1, x3, out=t)
        np.add(h, b1, out=h)
        np.tanh(h, out=h)
        np.matmul(w2, t, out=o)
        np.add(o, b2, out=o)
    return batched


CHECKPOINT_MAGIC = "ccprobe-policy v1"


def save_policy(policy: PolicyNet, path: str, feature_names=FEATURE_NAMES) -> None:
    with open(path, "w") as f:
        f.write(CHECKPOINT_MAGIC + "\n")
        f.write("features " + " ".join(feature_names) + "\n")
        f.write(f"hidden {policy.hidden}\n")
        f.write(f"a_max {float(policy.a_max)!r}\n")
        for v in policy.params:
            f.write(f"{float(v)!r}\n")


def load_policy(path: str) -> PolicyNet:
    """Read a `save_policy` file; any malformed one is a `ConfigError`."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f]
    try:
        if len(lines) < 4 or lines[0] != CHECKPOINT_MAGIC:
            raise ValueError(f"not a {CHECKPOINT_MAGIC} checkpoint")
        features = lines[1].split()[1:]
        hidden = int(lines[2].split()[1])
        a_max = float(lines[3].split()[1])
        params = np.array([float(x) for x in lines[4:] if x])
        return PolicyNet(n_features=len(features), hidden=hidden, a_max=a_max,
                         params=params)
    except (ValueError, IndexError) as e:
        raise ConfigError(f"{path}: {e}") from e


class LearnedController(Controller):
    """Interval-driven controller: cwnd <- max(1, cwnd * 2^a) per interval.

    Its cwnd, previous action and scales live in a C `tl_cc`, `cc_state`,
    like a `RuleController`'s. Its policy reads FEATURE_NAMES. A linear one
    is copied into `cc_state` when `policy` is set: a TL_LINEAR controller,
    which the tick loop steps at each interval boundary. One with a hidden
    layer (TL_HIDDEN) stays in numpy, whose `policy_outputs` runs at each
    boundary.
    """

    name = "learned"
    KIND = _lib.TL_LINEAR   # until `policy` is set
    n_features = len(FEATURE_NAMES)
    prev_action = _Field("cc_state.prev_action")
    b_max = _Field("cc_state.b_max")

    def __init__(self, policy: PolicyNet, b_max: float = 96.0,
                 cwnd_max: float = 4096.0):
        # cwnd_max: far above any feasible BDP + buffer
        super().__init__(b_max=b_max, cwnd_max=cwnd_max)
        self.policy = policy

    @property
    def policy(self) -> PolicyNet:
        return self._policy

    @policy.setter
    def policy(self, policy: PolicyNet) -> None:
        if policy.n_features != self.n_features:
            raise ValueError(f"a learned controller's policy reads the {self.n_features}"
                             f" features {FEATURE_NAMES}, not {policy.n_features}")
        self._policy = policy
        c = self.cc_state
        c.a_max = policy.a_max
        if policy.hidden == 0:
            c.kind = _lib.TL_LINEAR
            c.params = policy.params.tolist()
        else:
            c.kind = _lib.TL_HIDDEN


def candidate_returns(policy: PolicyNet, trace_of, sim: SimConfig,
                      reward: RewardParams, workers: int, params, seeds) -> list[float]:
    """A learned controller's CEM objective: each row's mean controller
    reward, its episode on `workers` threads, on the trace `trace_of(seed)`
    gives for its seed."""
    jobs = [(sim, trace_of(s),
             partial(LearnedController, policy.with_params(p), b_max=reward.b_max),
             reward) for p, s in zip(params, seeds)]
    return [r.reward for r in map_jobs(clean_episode, jobs, workers)]


def train_controller(policy: PolicyNet, traces, episodes: int,
                     sim: SimConfig, reward: RewardParams,
                     cem: CemConfig | None = None,
                     workers: int = 1) -> tuple[PolicyNet, list[GenerationStats]]:
    """CEM training over a trace pool, each row's seed picking its trace;
    returns (policy, per-generation log), from `cem.train_policy`. Each batch
    of episodes runs on `workers` threads.
    """
    if not traces:
        raise ValueError("trace pool must be non-empty")
    candidate, history = train_policy(
        policy, partial(candidate_returns, policy, lambda s: traces[s % len(traces)],
                        sim, reward, workers),
        episodes, cem or CemConfig())
    if not history:
        return policy, history
    # monotone-improvement contract, checked on the pool's first trace
    new, old = candidate_returns(policy, lambda _: traces[0], sim, reward, workers,
                                 [candidate.params, policy.params], [0, 0])
    return (candidate if new >= old else policy), history
