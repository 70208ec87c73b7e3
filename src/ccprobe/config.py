"""Experiment configuration: one YAML document, schema-validated.

Every section maps onto a dataclass; unknown keys anywhere are rejected so a
typo fails fast instead of silently running the defaults. The canonical hash
of a config is embedded in every CSV the runner emits, which together with
the seed makes reruns byte-comparable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, fields

import yaml

from .adversary import DelayConstraint, FeatureBound
from .advtrain import check_mix_p
from .cem import CemConfig
from .learned import FEATURE_NAMES, PolicyNet, RewardParams
from .netsim import ConfigError, SimConfig
from .tracegen import SmoothnessBudget


class SchemaError(ValueError):
    pass


def _integers(**counts) -> None:
    """SchemaError unless each count is an int (a YAML `1.5` or `abc` is not)."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{name} must be an integer, got {value!r}")


@dataclass
class TraceSpec:
    """Where episode traces come from."""

    source: str = "random"        # random | constant | files | burst
    n: int = 10                   # number of random traces
    constant_mbps: float = 48.0
    paths: list[str] = field(default_factory=list)
    # burst parameters (triangle pattern)
    peak: float = 80.0
    trough: float = 4.0
    rise_intervals: int = 20
    fall_intervals: int = 60

    def __post_init__(self):
        _integers(n=self.n, rise_intervals=self.rise_intervals,
                  fall_intervals=self.fall_intervals)
        if self.source not in ("random", "constant", "files", "burst"):
            raise SchemaError(f"unknown trace source {self.source!r}")
        if self.source == "files" and not self.paths:
            raise SchemaError("trace source 'files' needs non-empty paths")
        if self.n < 1:
            raise SchemaError("trace n must be >= 1")
        if not (min(self.rise_intervals, self.fall_intervals) >= 0
                and self.rise_intervals + self.fall_intervals >= 1):
            raise SchemaError("rise_intervals and fall_intervals must be >= 0, "
                              "with a burst period of >= 1 interval")


@dataclass
class AdversaryConfig:
    surface: str = "env"          # env | feature
    reward_mode: str = "delay_constrained"   # naive | delay_constrained
    x_fraction: float = 0.05
    perturb_mode: str = "adversarial"        # adversarial | random_noise | clean
    alpha: float = 1.0
    window_h: int = 5
    window_k: int = 1
    tau_ms: float | None = None   # None -> calibrate from the baseline runs
    episodes: int = 320
    rollouts: int = 8

    def __post_init__(self):
        if self.surface not in ("env", "feature"):
            raise SchemaError(f"unknown surface {self.surface!r}")
        if self.reward_mode not in ("naive", "delay_constrained"):
            raise SchemaError(f"unknown reward_mode {self.reward_mode!r}")
        if self.perturb_mode not in ("adversarial", "random_noise", "clean"):
            raise SchemaError(f"unknown perturb_mode {self.perturb_mode!r}")
        _integers(window_h=self.window_h, window_k=self.window_k,
                  episodes=self.episodes, rollouts=self.rollouts)
        # built only to check the values, whose domains are defined there
        DelayConstraint(self.tau_ms or 0.0, self.alpha, self.window_h,
                        self.window_k)
        FeatureBound(self.x_fraction)
        if self.rollouts < 1:
            raise SchemaError("rollouts must be >= 1")


@dataclass
class TrainSpec:
    episodes: int = 640
    hidden: int = 0               # 0 = linear policy
    a_max: float = 2.0
    mix_p: float = 0.2
    population: int = 32
    elite_frac: float = 0.25
    sigma0: float = 1.0
    extra_noise: float = 0.25
    noise_decay: float = 0.9

    def __post_init__(self):
        _integers(episodes=self.episodes, hidden=self.hidden,
                  population=self.population)
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


@dataclass
class ExperimentConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    reward: RewardParams = field(default_factory=RewardParams)
    budget: SmoothnessBudget = field(default_factory=SmoothnessBudget)
    traces: TraceSpec = field(default_factory=TraceSpec)
    adversary: AdversaryConfig = field(default_factory=AdversaryConfig)
    train: TrainSpec = field(default_factory=TrainSpec)
    controller: str = "reno"
    controller_constants: dict = field(default_factory=dict)
    seed: int = 0
    output_dir: str = "runs"

    def __post_init__(self):
        self.sim.validate()
        _integers(seed=self.seed)
        if self.seed < 0:
            raise SchemaError(f"seed must be >= 0, got {self.seed}")

    def config_hash(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


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
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError, ConfigError) as e:
        raise SchemaError(f"{where}: {e}") from e


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise SchemaError("config document must be a mapping")
    unknown = set(doc) - set(_SECTIONS) - set(_SCALARS)
    if unknown:
        raise SchemaError(f"top level: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise SchemaError(f"section {name!r} must be a mapping")
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
            raise SchemaError(f"{path}: not valid YAML: {problem}{at}") from e
    return config_from_dict(doc or {})
