"""Experiment configuration: one YAML document, checked against one table.

`DOMAINS` lists every key of every section and of the top level, once each,
with its kind and its domain. `config_from_dict` checks the raw document
against it before it builds any record, and a key the table does not list,
or a value outside its key's domain, is one ConfigError naming the key. The
table only checks values and never converts them; each record keeps what
its fields must satisfy together. A section's record lives in the module
that runs on it (`sim` in netsim, `reward` in learned, `budget` in
tracegen, `adversary` in adversary); `traces` and `train` live here. The
canonical hash of a config is embedded in every CSV the runner emits, which
together with the seed makes reruns byte-comparable.
"""

from __future__ import annotations

import hashlib
import json
import math

import yaml

from .adversary import SETTINGS, AdversaryConfig
from .cc import RULE_BASED
from .cem import CemConfig
from .learned import FEATURE_NAMES, PolicyNet, RewardParams
from .netsim import ConfigError, SimConfig
from .tracegen import SmoothnessBudget

# Every config key, once, with its domain: the tuple of the strings allowed;
# "paths", "text" (a non-empty string) or "mapping"; or a finite number's
# bounds ("> a", ">= a", or "in [a, b)" whose brackets say which ends it
# holds), after "int " for an integer and "null or " where null may stand for
# it. A bool is never a number. Times are at most a day, as an exported
# trace, and capacities (Mbps) at most 1 Tbps.
DOMAINS = {
    "sim": {"tick_ms": "> 0", "one_way_delay_ms": "in (0, 86400000]",
            "queue_capacity_bdp": "in (0, 1000]",
            "packet_size": "int in [1, 65535]",   # the largest IP packet
            "episode_duration_s": "in (0, 86400]", "trace_interval_ms": "> 0"},
    "reward": {"lam": ">= 0", "gamma": ">= 1", "b_max": "> 0"},
    "budget": {"delta": "> 0", "window_k": "int >= 1", "bw_min": "in [0, 1e6]",
               "bw_max": "in (0, 1e6]"},
    "traces": {"source": ("random", "constant", "files", "burst"), "n": "int >= 1",
               "constant_mbps": "in [0, 1e6]", "paths": "paths",
               "peak": "in [0, 1e6]", "trough": "in [0, 1e6]",
               "rise_intervals": "int >= 0", "fall_intervals": "int >= 0"},
    "adversary": {"x_fraction": "in [0, 1)", "perturb_mode": SETTINGS["perturb_mode"],
                  "surface": SETTINGS["surface"],
                  "reward_mode": SETTINGS["reward_mode"],
                  "alpha": "> 0", "window_h": "int >= 1", "window_k": "int >= 1",
                  "tau_ms": "null or >= 0", "episodes": "int >= 0",
                  "rollouts": "int >= 1"},
    "train": {"episodes": "int >= 0", "hidden": "int >= 0", "a_max": "> 0",
              "mix_p": "in [0, 1]", "population": "int >= 1",
              "elite_frac": "in (0, 1]", "sigma0": ">= 0", "extra_noise": ">= 0",
              "noise_decay": "in (0, 1]"},
    "controller": (*RULE_BASED, "learned"), "controller_constants": "mapping",
    "seed": "int >= 0", "output_dir": "text",
}


def _number(value, integer: bool) -> bool:
    """`value` is an int (given `integer`) or a finite number; a bool is neither."""
    try:
        return (type(value) is int if integer or isinstance(value, bool)
                else math.isfinite(value))
    except (TypeError, OverflowError):   # not a number, or an int past any float
        return False


def _within(value, bounds: str) -> bool:
    if bounds.startswith("in "):
        low, high = (float(end) for end in bounds[4:-1].split(","))
        return ((low < value if bounds[3] == "(" else low <= value)
                and (value < high if bounds[-1] == ")" else value <= high))
    op, bound = bounds.split()
    return value > float(bound) if op == ">" else value >= float(bound)


def check(where: str, value, domain) -> None:
    """ConfigError naming `where` unless `value` lies in DOMAINS entry `domain`."""
    if isinstance(domain, tuple):
        what, ok = f"one of {domain}", isinstance(value, str) and value in domain
    elif domain == "paths":
        what = "a list of path strings"
        ok = isinstance(value, list) and all(isinstance(p, str) for p in value)
    elif domain == "text":
        what, ok = "a non-empty string", isinstance(value, str) and value != ""
    elif domain == "mapping":
        what, ok = "a mapping", isinstance(value, dict)
    elif value is None and domain.startswith("null or "):
        return
    else:
        integer = "int " in domain
        what, ok = "an integer" if integer else "a finite number", _number(value, integer)
        if ok:
            bounds = domain.removeprefix("null or ").removeprefix("int ")
            what, ok = bounds, _within(value, bounds)
    if not ok:
        raise ConfigError(f"{where} must be {what}, got {value!r}")


def _check_keys(doc: dict, domains: dict, prefix: str) -> None:
    """Check `doc`, the top level or (`prefix` "<section>.") a section."""
    unknown = set(doc) - set(domains)
    if unknown:
        raise ConfigError(f"{prefix[:-1] or 'top level'}: unknown keys {sorted(unknown)}")
    for key, value in doc.items():
        if isinstance(domains[key], dict):   # a section
            check(key, value, "mapping")
            _check_keys(value, domains[key], f"{key}.")
        else:
            check(prefix + key, value, domains[key])


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
        self.peak = peak   # the burst triangle: peak, trough, rise and fall
        self.trough = trough
        self.rise_intervals = rise_intervals
        self.fall_intervals = fall_intervals
        if self.source == "files" and not self.paths:
            raise ConfigError("trace source 'files' needs non-empty paths")
        if self.rise_intervals + self.fall_intervals < 1:
            raise ConfigError("rise_intervals + fall_intervals must be >= 1")


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

    def config_hash(self) -> str:
        blob = json.dumps(self, sort_keys=True, default=_json_fields)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _json_fields(value):
    """`config_hash`'s JSON form of a value JSON has none for: a record's
    fields, nested records in turn; anything else's str."""
    return vars(value) if hasattr(value, "__dict__") else str(value)


_SECTIONS = {"sim": SimConfig, "reward": RewardParams, "budget": SmoothnessBudget,
             "traces": TraceSpec, "adversary": AdversaryConfig, "train": TrainSpec}


def _build(cls, data: dict, where: str):
    try:
        return cls(**data)
    except ValueError as e:   # a check across fields; a ConfigError is one
        raise ConfigError(f"{where}: {e}") from e


def config_from_dict(doc: dict) -> ExperimentConfig:
    check("config document", doc, "mapping")
    _check_keys(doc, DOMAINS, "")
    adversary = doc.get("adversary", {})
    for key in ("x_fraction", "perturb_mode"):   # read by the feature surface alone
        if key in adversary and adversary.get("surface", "env") == "env":
            raise ConfigError(f"adversary.{key} is read only under surface: "
                              "feature, not env")
    kwargs = {key: (_build(_SECTIONS[key], doc.get(key, {}), key)
                    if isinstance(entry, dict) else doc[key])
              for key, entry in DOMAINS.items()
              if isinstance(entry, dict) or key in doc}
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
