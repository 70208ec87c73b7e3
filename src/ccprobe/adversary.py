"""Closed-loop adversarial agent.

Two control surfaces: a feature-level min-RTT multiplier (the controller's
minimum-delay estimate is scaled; simulator ground truth never changes) and
an environment-level next-bandwidth action (projected onto the smoothness
budget). Two reward modes: naive (negated controller reward) and
delay-constrained (-U_t plus a penalty that fires only while queuing delay
sits below the calibrated baseline threshold tau).
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .cem import CemConfig, cem_maximize
from .learned import (DomainError, PolicyNet, RewardParams, controller_reward,
                      observation_features)
from .metrics import EpisodeReport, build_report
from .netsim import Observation, SimConfig, map_jobs, run_episode
from .tracegen import SmoothnessBudget, gen_random_trace, project_next


class SurfaceMode(enum.Enum):
    FEATURE_MIN_RTT = "feature_min_rtt"
    ENV_BANDWIDTH = "env_bandwidth"


class RewardMode(enum.Enum):
    NAIVE = "naive"
    DELAY_CONSTRAINED = "delay_constrained"


class PerturbMode(enum.Enum):
    ADVERSARIAL = "adversarial"
    RANDOM_NOISE = "random_noise"
    CLEAN = "clean"


@dataclass
class DelayConstraint:
    tau_ms: float = 0.0
    alpha: float = 1.0
    window_h: int = 5
    window_k: int = 1

    def __post_init__(self):
        if self.tau_ms < 0:
            raise ValueError("tau must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if not 1 <= self.window_k <= self.window_h:
            raise ValueError("need 1 <= window_k <= window_h")


@dataclass
class FeatureBound:
    x_fraction: float = 0.5
    mode: PerturbMode = PerturbMode.ADVERSARIAL

    def __post_init__(self):
        if not 0 <= self.x_fraction < 1:
            raise ValueError("x_fraction must be in [0, 1)")


@dataclass
class AdversarySpec:
    surface: SurfaceMode
    reward_mode: RewardMode = RewardMode.DELAY_CONSTRAINED
    constraint: DelayConstraint = field(default_factory=DelayConstraint)
    feature_bound: FeatureBound | None = None
    budget: SmoothnessBudget | None = None
    policy: PolicyNet | None = None

    def __post_init__(self):
        if self.surface is SurfaceMode.FEATURE_MIN_RTT and self.feature_bound is None:
            raise ValueError("feature surface requires a feature_bound")
        if self.surface is SurfaceMode.ENV_BANDWIDTH and self.budget is None:
            raise ValueError("env surface requires a smoothness budget")


# --- reward pieces -----------------------------------------------------------

def naive_reward(controller_reward_value: float) -> float:
    return -controller_reward_value


def queuing_delay(obs: Observation) -> float:
    """d_t = smoothed RTT minus minimum RTT, in ms."""
    if obs.srtt_ms < obs.min_rtt_ms:
        raise DomainError("rtt < min_rtt: broken observation pipeline")
    return obs.srtt_ms - obs.min_rtt_ms


def delay_penalty(history, constraint: DelayConstraint) -> float:
    """-alpha iff both the H-window mean and K-window mean sit strictly below tau."""
    h, k = constraint.window_h, constraint.window_k
    if len(history) < h:
        raise ValueError(f"need at least H={h} delay samples")
    recent = list(history)[-h:]
    d_bar = sum(recent) / h
    d_tilde = sum(recent[-k:]) / k
    if d_bar < constraint.tau_ms and d_tilde < constraint.tau_ms:
        return -constraint.alpha
    return 0.0


def env_reward(obs: Observation, history, constraint: DelayConstraint) -> float:
    """Overall adversarial reward: -U_t plus the delay penalty."""
    if not 0 <= obs.utilization <= 1:
        raise DomainError("utilization out of [0, 1]")
    return -obs.utilization + delay_penalty(history, constraint)


# --- action surfaces ---------------------------------------------------------

def perturb_min_rtt(true_min_rtt_ms: float, action: float, bound: FeatureBound,
                    rng) -> float:
    """Perturbed min-RTT estimate as read by the controller."""
    if true_min_rtt_ms <= 0:
        raise ValueError("true_min_rtt must be > 0")
    x = bound.x_fraction
    if bound.mode is PerturbMode.CLEAN:
        return true_min_rtt_ms
    if bound.mode is PerturbMode.RANDOM_NOISE:
        return true_min_rtt_ms * float(rng.uniform(1.0 - x, 1.0 + x))
    a = min(1.0, max(-1.0, action))
    return true_min_rtt_ms * (1.0 + a * x)


class FeatureIntercept:
    """Scales the controller-visible min-RTT/min-OWD estimate each interval."""

    def __init__(self, bound: FeatureBound, policy: PolicyNet | None = None,
                 b_max: float = 96.0, seed: int = 0):
        self.bound = bound
        self.policy = policy
        self.b_max = b_max
        self.seed = seed
        self.begin_episode()

    def begin_episode(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.prev_action = 0.0
        self._scale = 1.0

    def begin_interval(self, obs: Observation) -> None:
        a = 0.0
        if self.bound.mode is PerturbMode.ADVERSARIAL and self.policy is not None:
            a = self.policy.act(observation_features(obs, self.b_max,
                                                     self.prev_action))
        self.prev_action = a
        self._scale = perturb_min_rtt(1.0, a, self.bound, self.rng)

    def scale(self) -> float:
        return self._scale


class EnvBandwidthDriver:
    """Supplies the next interval's capacity online, inside the budget."""

    def __init__(self, budget: SmoothnessBudget, policy: PolicyNet | None = None,
                 b_max: float | None = None, seed: int = 0,
                 initial_capacity: float | None = None):
        self.budget = budget
        self.policy = policy
        self.b_max = b_max if b_max is not None else budget.bw_max
        self.rng = np.random.default_rng(seed)
        mid = 0.5 * (budget.bw_min + budget.bw_max)
        self.initial = initial_capacity if initial_capacity is not None else mid
        self.history: list[float] = []
        self.prev_action = 0.0

    @property
    def bw_max(self) -> float:
        return self.budget.bw_max

    def first_capacity(self) -> float:
        self.history = [self.budget.clamp(self.initial)]
        self.prev_action = 0.0
        return self.history[0]

    def _propose(self, obs: Observation) -> float:
        b = self.budget
        if self.policy is None:
            return float(self.rng.uniform(b.bw_min, b.bw_max))
        feats = np.concatenate([
            observation_features(obs, self.b_max, self.prev_action),
            [obs.capacity_mbps / b.bw_max],
        ])
        a = self.policy.act(feats)
        self.prev_action = a
        mid = 0.5 * (b.bw_min + b.bw_max)
        half = 0.5 * (b.bw_max - b.bw_min)
        return mid + a * half

    def next_capacity(self, obs: Observation) -> float:
        value = project_next(self.history, self._propose(obs), self.budget)
        self.history.append(value)
        return value


ADV_ENV_FEATURES = 6   # controller features + current capacity
ADV_FEATURE_FEATURES = 5


def make_adversary_policy(surface: SurfaceMode) -> PolicyNet:
    nf = ADV_ENV_FEATURES if surface is SurfaceMode.ENV_BANDWIDTH else ADV_FEATURE_FEATURES
    return PolicyNet(n_features=nf, hidden=16, a_max=1.0)


# --- calibration and training ------------------------------------------------

def clean_episodes(controller_factory, traces, config: SimConfig,
                   workers: int = 1) -> list[EpisodeReport]:
    """One unperturbed episode per trace, each summarized where it ran."""
    if not traces:
        raise ValueError("trace set must be non-empty")
    return map_jobs(clean_episode,
                    [(config, trace, controller_factory) for trace in traces],
                    workers)


def clean_episode(config: SimConfig, trace, controller_factory) -> EpisodeReport:
    """The one clean-episode job: a fresh controller from its factory, so no
    episode starts from another's state, and the episode's report, built where
    the episode ran so that only the report, never the whole log, is pickled."""
    return build_report(run_episode(config, trace, controller_factory()))


def mean_queuing_delay_ms(reports) -> float:
    """Mean over episodes of each one's mean per-interval queuing delay."""
    return sum(r.interval_delay_ms for r in reports) / len(reports)


def calibrate_tau(controller_factory, traces, config: SimConfig) -> float:
    """Mean queuing delay of the unperturbed controller over the baseline set."""
    return mean_queuing_delay_ms(clean_episodes(controller_factory, traces, config))


def random_baseline_traces(budget: SmoothnessBudget, n: int, length: int,
                           interval_ms: float, seed: int):
    return [gen_random_trace(length, budget, seed=seed + i, interval_ms=interval_ms)
            for i in range(n)]


@dataclass
class EpisodeEval:
    utilization: float
    mean_delay_ms: float
    adv_return: float
    constraint_ok_rate: float
    trace_values: list[float] = field(default_factory=list)


def adversarial_episode(spec: AdversarySpec, params, controller_factory,
                        config: SimConfig, reward: RewardParams,
                        seed: int, initial_capacity: float | None = None,
                        clean_traces=None) -> EpisodeEval:
    """One rollout of the adversary against a fresh controller."""
    policy = spec.policy.with_params(params) if params is not None else spec.policy
    intercept = None
    driver = None
    trace = None
    if spec.surface is SurfaceMode.FEATURE_MIN_RTT:
        intercept = FeatureIntercept(spec.feature_bound, policy,
                                     b_max=reward.b_max, seed=seed)
        trace = clean_traces[seed % len(clean_traces)]
    else:
        driver = EnvBandwidthDriver(spec.budget, policy, b_max=reward.b_max,
                                    seed=seed, initial_capacity=initial_capacity)
    log = run_episode(config, trace, controller_factory(), intercept=intercept,
                      env_driver=driver)

    delays = deque(maxlen=spec.constraint.window_h)
    total = 0.0
    ok = 0
    n = len(log.observations)
    for obs in log.observations:
        delays.append(queuing_delay(obs))
        if spec.reward_mode is RewardMode.NAIVE:
            r = naive_reward(controller_reward(obs, reward))
        else:
            if len(delays) < spec.constraint.window_h:
                r = -obs.utilization
            else:
                r = env_reward(obs, delays, spec.constraint)
        total += r
        if obs.srtt_ms - obs.min_rtt_ms >= spec.constraint.tau_ms:
            ok += 1
    return EpisodeEval(
        utilization=log.mean_utilization(),
        mean_delay_ms=log.mean_queuing_delay_ms(),
        adv_return=total / n if n else 0.0,
        constraint_ok_rate=ok / n if n else 0.0,
        trace_values=[o.capacity_mbps for o in log.observations],
    )


def train_adversary(spec: AdversarySpec, controller_factory, config: SimConfig,
                    episodes: int, reward: RewardParams,
                    cem: CemConfig | None = None, clean_traces=None):
    """CEM training of the adversary policy; returns (policy, history)."""
    cem = cem or CemConfig()
    generations = episodes // cem.population
    if spec.policy is None:
        spec.policy = make_adversary_policy(spec.surface)
    if generations == 0:
        return spec.policy, []

    objective = partial(_adversary_return, spec, controller_factory, config,
                        reward, clean_traces)
    result = cem_maximize(objective, dim=spec.policy.n_params,
                          generations=generations, config=cem,
                          init_mean=spec.policy.params)
    return spec.policy.with_params(result.best_params), result.history


def _adversary_return(spec: AdversarySpec, controller_factory, config: SimConfig,
                      reward: RewardParams, clean_traces, params,
                      ep_seed: int) -> tuple[float, float]:
    """`train_adversary`'s CEM objective: (return, constraint rate)."""
    ev = adversarial_episode(spec, params, controller_factory, config, reward,
                             seed=ep_seed, clean_traces=clean_traces)
    return ev.adv_return, ev.constraint_ok_rate


def select_worst_trace(spec: AdversarySpec, policy: PolicyNet, controller_factory,
                       config: SimConfig, reward: RewardParams,
                       n_rollouts: int = 8, seed: int = 0,
                       workers: int = 1) -> EpisodeEval | None:
    """Env-surface selection: among rollout traces with mean delay >= tau,
    the one minimizing utilization. None if no rollout meets the constraint."""
    spec = dataclasses.replace(spec, policy=policy)
    budget = spec.budget
    rng = np.random.default_rng(seed)
    inits = [float(rng.uniform(budget.bw_min, budget.bw_max))
             for _ in range(n_rollouts)]
    rollout = partial(adversarial_episode, spec, None, controller_factory,
                      config, reward)
    candidates = map_jobs(rollout, [(seed + i, init) for i, init in enumerate(inits)],
                          workers)
    feasible = [c for c in candidates if c.mean_delay_ms >= spec.constraint.tau_ms]
    if not feasible:
        return None
    return min(feasible, key=lambda c: c.utilization)
