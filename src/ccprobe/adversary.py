"""Closed-loop adversarial agent.

Two control surfaces: a feature-level min-RTT multiplier (the controller's
minimum-delay estimate is scaled; simulator ground truth never changes) and
an environment-level next-bandwidth action (projected onto the smoothness
budget). Two reward modes: naive (negated controller reward) and
delay-constrained (-U_t plus a penalty that fires only while queuing delay
sits below the calibrated baseline threshold tau). The config's `adversary`
section, `AdversaryConfig`, lives here; the attack runs on it, the
smoothness budget and a policy.
"""

from __future__ import annotations

from functools import partial

from .cem import CemConfig, train_policy
from .learned import PolicyNet, RewardParams
from .metrics import EpisodeReport, build_report, clean_episode, means
from .netsim import ConfigError, Rng, SimConfig, _ffi, _lib, map_jobs, run_episodes
from .tracegen import SmoothnessBudget


# Each adversary setting's values, spelt as the config's `adversary` section
# spells them; a setting is one of these strings everywhere.
SETTINGS = {
    "surface": ("env", "feature"),
    "reward_mode": ("naive", "delay_constrained"),
    "perturb_mode": ("adversarial", "random_noise", "clean"),
}


class AdversaryConfig:
    """The config's `adversary` section, which the attack runs on as it is:
    the surface and its bound, the reward and its delay constraint, and the
    training and selection budgets."""

    def __init__(self, x_fraction: float = 0.05, perturb_mode: str = "adversarial",
                 surface: str = "env", reward_mode: str = "delay_constrained",
                 alpha: float = 1.0, window_h: int = 5, window_k: int = 1,
                 tau_ms: float | None = None, episodes: int = 320, rollouts: int = 8):
        self.x_fraction = x_fraction   # the feature surface's bound
        self.perturb_mode = perturb_mode
        self.surface = surface   # each setting one of SETTINGS
        self.reward_mode = reward_mode
        self.alpha = alpha
        self.window_h = window_h
        self.window_k = window_k
        self.tau_ms = tau_ms   # None -> calibrate from the baseline runs
        self.episodes = episodes
        self.rollouts = rollouts
        if not self.window_k <= self.window_h:
            raise ConfigError(f"need window_k <= window_h, got window_k="
                              f"{self.window_k}, window_h={self.window_h}")


# no command builds it by this name; perfbench builds FeatureBound(x) by position
FeatureBound = AdversaryConfig


ADV_ENV_FEATURES = 6   # controller features + current capacity
ADV_FEATURE_FEATURES = 5


# --- action surfaces ---------------------------------------------------------

class _Adversary:
    """The surfaces' shared part: a C `tl_adv`, `adv_state`, that the tick loop
    steps (`netsim.run_episodes`), and at each interval boundary acts on its
    policy's output or, with no policy, on its own draw from `rng`, uniform
    on `draw`'s (low, high), or with `draw` None on 1.0."""

    def __init__(self, surface: int, n_features: int, policy: PolicyNet | None,
                 b_max: float, has_policy: bool, seed: int,
                 draw: tuple[float, float] | None):
        self.policy, self.b_max, self.n_features = policy, b_max, n_features
        self.seed = seed
        s = self.adv_state = _ffi.new("tl_adv *")
        s.surface, s.b_max, s.has_policy = surface, b_max, has_policy
        if policy is not None:
            s.a_max = policy.a_max
        if draw is not None:
            # the loop's draws have no error path: Rng.uniform's
            # OverflowError here, from a draw of no values
            Rng(seed).uniform(*draw, 0)
            s.draws, s.low = True, draw[0]
            s.span = float(draw[1]) - s.low

    def _begin(self, value: float) -> float:
        """Reseeds `rng`, which the loop draws from, and starts an episode
        whose first capacity or scale is `value`; returns it."""
        self.rng = Rng(self.seed)
        self.adv_state.rng = self.rng._s
        _lib.tl_adv_begin(self.adv_state, value)
        return self.adv_state.value

    def score_by(self, adv: AdversaryConfig, reward: RewardParams) -> None:
        """Have the loop sum the reward into `adv_state.total` and `.ok`."""
        s = self.adv_state
        self._delays = s.delays = _ffi.new("double[]", adv.window_h)
        s.scored, s.naive = True, adv.reward_mode == "naive"
        s.tau_ms, s.alpha, s.window_h, s.delay_k = (adv.tau_ms, adv.alpha,
                                                    adv.window_h, adv.window_k)
        s.reward = reward.c_struct()[0]


class FeatureIntercept(_Adversary):
    """Scales the controller-visible min-RTT/min-OWD estimate each interval:
    by its policy's bounded action under `adversarial`, by a draw from
    [1 - x, 1 + x] under `random_noise`, and else by 1."""

    def __init__(self, adv: AdversaryConfig, policy: PolicyNet | None = None,
                 b_max: float = 96.0, seed: int = 0):
        x, mode = adv.x_fraction, adv.perturb_mode
        super().__init__(_lib.TL_ADV_FEATURE, ADV_FEATURE_FEATURES, policy, b_max,
                         mode == "adversarial" and policy is not None, seed,
                         (1.0 - x, 1.0 + x) if mode == "random_noise" else None)
        self.adv = adv
        self.adv_state.x_fraction = x
        self.begin_episode()

    def begin_episode(self) -> None:
        self._begin(1.0)


class EnvBandwidthDriver(_Adversary):
    """Supplies the next interval's capacity online, inside the budget: its
    policy's proposal or, with none, a draw from [bw_min, bw_max]."""

    def __init__(self, budget: SmoothnessBudget, policy: PolicyNet | None = None,
                 b_max: float | None = None, seed: int = 0,
                 initial_capacity: float | None = None):
        super().__init__(_lib.TL_ADV_ENV, ADV_ENV_FEATURES, policy,
                         b_max if b_max is not None else budget.bw_max,
                         policy is not None, seed,
                         None if policy is not None else (budget.bw_min, budget.bw_max))
        self.budget = budget
        mid = 0.5 * (budget.bw_min + budget.bw_max)
        self.initial = initial_capacity if initial_capacity is not None else mid
        s = self.adv_state
        s.delta, s.bw_min, s.bw_max = budget.delta, budget.bw_min, budget.bw_max
        # the last window_k capacities, which the projection reads
        self._recent = s.recent = _ffi.new("double[]", budget.window_k)
        s.window_k = budget.window_k
        self.begin_episode()

    def first_capacity(self) -> float:
        return self._begin(self.budget.clamp(self.initial))

    begin_episode = first_capacity


def make_adversary_policy(surface: str) -> PolicyNet:
    nf = ADV_ENV_FEATURES if surface == "env" else ADV_FEATURE_FEATURES
    return PolicyNet(n_features=nf, hidden=16, a_max=1.0)


# --- calibration and training ------------------------------------------------

def calibrate_tau(controller_factory, traces, config: SimConfig,
                  workers: int = 1) -> tuple[float, list[EpisodeReport]]:
    """Mean per-interval queuing delay of the unperturbed controller over
    the baseline set, with the reports it is the mean of: one clean episode
    per trace, each summarized where it ran, the batch on `workers`
    threads."""
    if not traces:
        raise ValueError("trace set must be non-empty")
    reports = map_jobs(clean_episode,
                       [(config, trace, controller_factory) for trace in traces],
                       workers)
    return means(reports, "interval_delay_ms")[0], reports


# no command calls it; perfbench's tracer looks it up by name
def adversarial_episode(adv: AdversaryConfig, budget: SmoothnessBudget,
                        policy: PolicyNet | None, params, controller_factory,
                        config: SimConfig, reward: RewardParams,
                        seed: int, initial_capacity: float | None = None,
                        clean_traces=None) -> EpisodeReport:
    """One rollout of the adversary against a fresh controller."""
    return adversarial_episodes(adv, budget, policy,
                                None if params is None else [params],
                                controller_factory, config, reward, [seed],
                                [initial_capacity], clean_traces)[0]


def adversarial_episodes(adv: AdversaryConfig, budget: SmoothnessBudget,
                         policy: PolicyNet | None, params, controller_factory,
                         config: SimConfig, reward: RewardParams, seeds,
                         initial_capacities=None,
                         clean_traces=None) -> list[EpisodeReport]:
    """A slice of rollouts in lock-step, each against a fresh controller.
    Row j has policy parameters params[j] (`policy`'s when `params` is None),
    episode seed seeds[j], which on the feature surface also picks its
    clean trace, and initial capacity initial_capacities[j] (None for the
    budget's midpoint). The loop scores each interval in C: `tl_adv_reward`
    holds the naive and the delay-constrained reward, whose Python
    formulas are test oracles. Each row's report carries its adversary's
    score and capacities."""
    k = len(seeds)
    policies = ([policy] * k if params is None
                else [policy.with_params(p) for p in params])
    if adv.surface == "feature":
        rows = [FeatureIntercept(adv, row_policy, reward.b_max, seed)
                for row_policy, seed in zip(policies, seeds)]
        traces = [clean_traces[seed % len(clean_traces)] for seed in seeds]
    else:
        inits = [None] * k if initial_capacities is None else initial_capacities
        rows = [EnvBandwidthDriver(budget, row_policy, reward.b_max, seed, init)
                for row_policy, seed, init in zip(policies, seeds, inits)]
        traces = [None] * k
    for row in rows:
        row.score_by(adv, reward)
    logs = run_episodes(config, traces, [controller_factory() for _ in range(k)],
                        rows)
    return [build_report(log, adversary=row) for row, log in zip(rows, logs)]


def train_adversary(adv: AdversaryConfig, budget: SmoothnessBudget,
                    policy: PolicyNet | None, controller_factory, config: SimConfig,
                    reward: RewardParams, cem: CemConfig | None = None,
                    clean_traces=None):
    """CEM training of the adversary policy over `adv.episodes` rollouts,
    from `policy` or, with none, a fresh one; returns (policy, history)."""
    if policy is None:
        policy = make_adversary_policy(adv.surface)
    return train_policy(policy,
                        partial(_adversary_returns, adv, budget, policy,
                                controller_factory, config, reward, clean_traces),
                        adv.episodes, cem or CemConfig())


def _adversary_returns(adv: AdversaryConfig, budget: SmoothnessBudget,
                       policy: PolicyNet, controller_factory, config: SimConfig,
                       reward: RewardParams, clean_traces,
                       params, seeds) -> list[tuple[float, float]]:
    """`train_adversary`'s CEM objective: (return, constraint rate) per row."""
    return [(r.adv_return, r.ok_rate)
            for r in adversarial_episodes(adv, budget, policy, params,
                                          controller_factory, config, reward,
                                          seeds, clean_traces=clean_traces)]


def select_worst_trace(adv: AdversaryConfig, budget: SmoothnessBudget,
                       policy: PolicyNet, controller_factory, config: SimConfig,
                       reward: RewardParams, seed: int = 0) -> EpisodeReport | None:
    """Env-surface selection: among `adv.rollouts` rollouts, those whose
    mean per-interval queuing delay is >= `adv.tau_ms`, the report of the
    one minimizing utilization. None if no rollout meets the constraint.
    The rollouts run as one lock-step slice."""
    n = adv.rollouts
    inits = Rng(seed).uniform(budget.bw_min, budget.bw_max, n).tolist()
    candidates = adversarial_episodes(adv, budget, policy, None,
                                      controller_factory, config, reward,
                                      [seed + i for i in range(n)], inits)
    feasible = [c for c in candidates if c.interval_delay_ms >= adv.tau_ms]
    if not feasible:
        return None
    return min(feasible, key=lambda c: c.utilization)
