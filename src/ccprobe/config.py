"""Experiment configuration: one YAML document, schema-validated.

Every section maps onto a record class; unknown keys anywhere are rejected so a
typo fails fast instead of silently running the defaults. The canonical hash
of a config is embedded in every CSV the runner emits, which together with
the seed makes reruns byte-comparable.
"""

from __future__ import annotations

import hashlib
import json

import yaml

from .adversary import SETTINGS, DelayConstraint, FeatureBound, check_setting
from .advtrain import check_mix_p
from .cem import CemConfig
from .learned import FEATURE_NAMES, PolicyNet, RewardParams
from .netsim import ConfigError, SimConfig
from .tracegen import SmoothnessBudget


def _integers(**counts) -> None:
    """ConfigError unless each count is an int (a YAML `1.5` or `abc` is not)."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


class TraceSpec:
    """Where episode traces come from."""

    def __init__(self, source: str = "random", n: int = 10,
                 constant_mbps: float = 48.0, paths: list[str] | None = None,
                 peak: float = 80.0, trough: float = 4.0, rise_intervals: int = 20,
                 fall_intervals: int = 60):
        self.source = source          # random | constant | files | burst
        self.n = n                    # number of random traces
        self.constant_mbps = constant_mbps
        self.paths = [] if paths is None else paths
        # burst parameters (triangle pattern)
        self.peak = peak
        self.trough = trough
        self.rise_intervals = rise_intervals
        self.fall_intervals = fall_intervals
        _integers(n=self.n, rise_intervals=self.rise_intervals,
                  fall_intervals=self.fall_intervals)
        if self.source not in ("random", "constant", "files", "burst"):
            raise ConfigError(f"unknown trace source {self.source!r}")
        if self.source == "files" and not self.paths:
            raise ConfigError("trace source 'files' needs non-empty paths")
        if self.n < 1:
            raise ConfigError("trace n must be >= 1")
        if not (min(self.rise_intervals, self.fall_intervals) >= 0
                and self.rise_intervals + self.fall_intervals >= 1):
            raise ConfigError("rise_intervals and fall_intervals must be >= 0, "
                              "with a burst period of >= 1 interval")


class AdversaryConfig:
    def __init__(self, surface: str = "env", reward_mode: str = "delay_constrained",
                 x_fraction: float = 0.05, perturb_mode: str = "adversarial",
                 alpha: float = 1.0, window_h: int = 5, window_k: int = 1,
                 tau_ms: float | None = None, episodes: int = 320, rollouts: int = 8):
        self.surface = surface   # each setting one of adversary.SETTINGS
        self.reward_mode = reward_mode
        self.x_fraction = x_fraction
        self.perturb_mode = perturb_mode
        self.alpha = alpha
        self.window_h = window_h
        self.window_k = window_k
        self.tau_ms = tau_ms   # None -> calibrate from the baseline runs
        self.episodes = episodes
        self.rollouts = rollouts
        for name in SETTINGS:
            check_setting(name, getattr(self, name))
        _integers(window_h=self.window_h, window_k=self.window_k,
                  episodes=self.episodes, rollouts=self.rollouts)
        # built only to check the values, whose domains are defined there
        DelayConstraint(self.tau_ms or 0.0, self.alpha, self.window_h,
                        self.window_k)
        FeatureBound(self.x_fraction)
        if self.episodes < 0:
            raise ConfigError(f"episodes must be >= 0, got {self.episodes}")
        if self.rollouts < 1:
            raise ConfigError("rollouts must be >= 1")


class TrainSpec:
    def __init__(self, episodes: int = 640, hidden: int = 0, a_max: float = 2.0,
                 mix_p: float = 0.2, population: int = 32, elite_frac: float = 0.25,
                 sigma0: float = 1.0, extra_noise: float = 0.25,
                 noise_decay: float = 0.9):
        self.episodes = episodes
        self.hidden = hidden   # 0 = linear policy
        self.a_max = a_max
        self.mix_p = mix_p
        self.population = population
        self.elite_frac = elite_frac
        self.sigma0 = sigma0
        self.extra_noise = extra_noise
        self.noise_decay = noise_decay
        _integers(episodes=self.episodes, hidden=self.hidden,
                  population=self.population)
        if self.episodes < 0:
            raise ConfigError(f"episodes must be >= 0, got {self.episodes}")
        # built only to check the values, whose domains are defined there
        self.cem(seed=0)
        self.policy()
        check_mix_p(self.mix_p)

    def cem(self, seed: int) -> CemConfig:
        return CemConfig(population=self.population, elite_frac=self.elite_frac,
                         sigma0=self.sigma0, extra_noise=self.extra_noise,
                         noise_decay=self.noise_decay, seed=seed)

    def policy(self) -> PolicyNet:
        """The learned policy training starts from: all parameters zero."""
        return PolicyNet(n_features=len(FEATURE_NAMES), hidden=self.hidden,
                         a_max=self.a_max)


class ExperimentConfig:
    """The sections (None for a section's defaults) and the scalars."""

    def __init__(self, sim: SimConfig | None = None, reward: RewardParams | None = None,
                 budget: SmoothnessBudget | None = None,
                 traces: TraceSpec | None = None,
                 adversary: AdversaryConfig | None = None,
                 train: TrainSpec | None = None, controller: str = "reno",
                 controller_constants: dict | None = None, seed: int = 0,
                 output_dir: str = "runs"):
        self.sim = SimConfig() if sim is None else sim
        self.reward = RewardParams() if reward is None else reward
        self.budget = SmoothnessBudget() if budget is None else budget
        self.traces = TraceSpec() if traces is None else traces
        self.adversary = AdversaryConfig() if adversary is None else adversary
        self.train = TrainSpec() if train is None else train
        self.controller = controller
        self.controller_constants = ({} if controller_constants is None
                                     else controller_constants)
        self.seed = seed
        self.output_dir = output_dir
        self.sim.validate()
        _integers(seed=self.seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def config_hash(self) -> str:
        blob = json.dumps(self, sort_keys=True, default=_json_fields)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _json_fields(value):
    """`config_hash`'s JSON form of a value JSON has none for: a record's
    fields, nested records in turn; anything else's str."""
    return vars(value) if hasattr(value, "__dict__") else str(value)


_SECTIONS = {
    "sim": SimConfig,
    "reward": RewardParams,
    "budget": SmoothnessBudget,
    "traces": TraceSpec,
    "adversary": AdversaryConfig,
    "train": TrainSpec,
}
_SCALARS = ("controller", "controller_constants", "seed", "output_dir")


def _build(cls, data: dict, where: str):
    init = cls.__init__.__code__   # the allowed keys: its parameters after self
    unknown = set(data) - set(init.co_varnames[1:init.co_argcount])
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as e:   # a ConfigError is a ValueError
        raise ConfigError(f"{where}: {e}") from e


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    unknown = set(doc) - set(_SECTIONS) - set(_SCALARS)
    if unknown:
        raise ConfigError(f"top level: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        kwargs[name] = _build(cls, section, name)
    for name in _SCALARS:
        if name in doc:
            kwargs[name] = doc[name]
    return _build(ExperimentConfig, kwargs, "experiment")


def load_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        try:
            doc = yaml.safe_load(f)
        except yaml.YAMLError as e:
            # the parser's message spans several lines; its first says what
            mark = getattr(e, "problem_mark", None)
            at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = getattr(e, "problem", None) or " ".join(str(e).split())
            raise ConfigError(f"{path}: not valid YAML: {problem}{at}") from e
    return config_from_dict(doc or {})
