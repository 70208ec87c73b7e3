"""The three study workloads: what set-up writes and which subcommands run.

Every workload uses 60 s episodes, the paper's length. No config sets
`repetitions` or `sim.rng_seed`, so the program's defaults apply and a
change to those defaults shows in `wall_s` without editing this file.
README.md explains why each workload exists.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

# Benchmark seeds fold onto this many input sets, so that every run can be
# checked against digests committed in digests.json.
N_VARIANTS = 16

# The reference host has 2 cores; every subcommand that accepts --workers
# gets this value, as scripts/full_study.sh passes $(nproc).
WORKERS = 2

# Each workload is sized so one iteration takes about this long at
# --workers 2 on the reference host; a run of --seconds S repeats it
# round(S / ITERATION_S) times, so the work done depends only on S.
ITERATION_S = 15.0

RULE_CONTROLLERS = "reno,cubic,vegas,illinois,lp,bbrlite"


@dataclass(frozen=True)
class Step:
    """One subcommand. `owns` is an fnmatch pattern, relative to the
    iteration directory, matching every file the step writes."""

    owns: str
    argv: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    # set_up(run_dir, variant) writes the config(s) and input traces
    set_up: Callable[[str, int], None]
    # steps(run_dir, it_dir, workers) lists the subcommands of one iteration
    steps: Callable[[str, str, int], list[Step]]


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _common(cfg: str, out: str, workers: int) -> tuple[str, ...]:
    return ("--config", cfg, "--out", out, "--workers", str(workers))


# --- replay-matrix -----------------------------------------------------------

def _replay_set_up(run_dir: str, variant: int) -> None:
    _write(os.path.join(run_dir, "replay.yaml"),
           f"traces: {{n: 1}}\nseed: {variant}\n")


def _replay_steps(run_dir: str, it_dir: str, workers: int) -> list[Step]:
    cfg = os.path.join(run_dir, "replay.yaml")
    at = lambda rel: os.path.join(it_dir, rel)  # noqa: E731
    return [
        Step("traces/*", ("gen-trace", "--n", "2", "--length", "600",
                          *_common(cfg, at("traces"), workers))),
        # export takes no --workers flag
        Step("trace_000.mahi", ("export", "--trace", at("traces/trace_000.trace"),
                                "--dest", at("trace_000.mahi"))),
        Step("baseline/*", ("baseline", "--controllers", RULE_CONTROLLERS,
                            "--setting", "both",
                            *_common(cfg, at("baseline"), workers))),
        Step("transfer/*", ("transfer", "--traces", at("traces"),
                            "--controllers", "cubic,bbrlite",
                            *_common(cfg, at("transfer"), workers))),
    ]


# --- attack-env --------------------------------------------------------------

_ATTACK_CFG = """\
traces: {{n: 1}}
adversary: {{surface: {surface}, episodes: {episodes}, rollouts: 4}}
train: {{population: {population}}}
seed: {variant}
"""


def _attack_set_up(run_dir: str, variant: int) -> None:
    # the env attack needs two generations of 8 for a rollout to meet tau
    # on every variant; the feature attack makes no selection
    for surface, population in (("env", 8), ("feature", 4)):
        _write(os.path.join(run_dir, f"attack_{surface}.yaml"),
               _ATTACK_CFG.format(surface=surface, episodes=2 * population,
                                  population=population, variant=variant))


def _attack_steps(run_dir: str, it_dir: str, workers: int) -> list[Step]:
    out = os.path.join(it_dir, "attacks")
    env_cfg = os.path.join(run_dir, "attack_env.yaml")
    feature_cfg = os.path.join(run_dir, "attack_feature.yaml")
    # both attacks write into one directory, as scripts/full_study.sh does;
    # each output file name carries its target
    return [
        Step("attacks/*_cubic.*",
             ("attack", "--controller", "cubic", *_common(env_cfg, out, workers))),
        Step("attacks/*_vegas.*",
             ("attack", "--controller", "vegas",
              *_common(feature_cfg, out, workers))),
    ]


# --- train-retrain -----------------------------------------------------------

def _train_set_up(run_dir: str, variant: int) -> None:
    from ccprobe.netsim import write_trace
    from ccprobe.tracegen import (SmoothnessBudget, gen_burst_trace,
                                  gen_random_trace)

    benign = os.path.join(run_dir, "benign")
    adv = os.path.join(run_dir, "adv_pool")
    os.makedirs(benign, exist_ok=True)
    os.makedirs(adv, exist_ok=True)
    paths = []
    for i in range(2):
        paths.append(os.path.join(benign, f"trace_{i:03d}.trace"))
        write_trace(gen_random_trace(600, SmoothnessBudget(), seed=2 * variant + i),
                    paths[-1])
    # stand-ins for attack output: a low-capacity budgeted walk and a burst
    low = SmoothnessBudget(delta=24.0, bw_min=1.0, bw_max=32.0)
    write_trace(gen_random_trace(600, low, seed=variant),
                os.path.join(adv, "worst_walk.trace"))
    write_trace(gen_burst_trace(600, peak=40.0 + 2.0 * variant, trough=2.0,
                                rise_intervals=10, fall_intervals=40),
                os.path.join(adv, "worst_burst.trace"))
    # The variant picks the traces only. The CEM seed stays fixed: with
    # population 8, which candidates run cwnd into its 4096 cap (about 1 s
    # per episode against 0.15 s) is luck, and a per-variant CEM seed made
    # the iteration time swing twofold between seeds.
    _write(os.path.join(run_dir, "train.yaml"),
           f"traces: {{source: files, paths: {json.dumps(paths)}}}\n"
           f"train: {{episodes: 16, population: 8}}\nseed: 0\n")


def _train_steps(run_dir: str, it_dir: str, workers: int) -> list[Step]:
    cfg = os.path.join(run_dir, "train.yaml")
    at = lambda rel: os.path.join(it_dir, rel)  # noqa: E731
    return [
        Step("train/*", ("train", *_common(cfg, at("train"), workers))),
        Step("retrain/*", ("retrain", "--init", at("train/learned.ckpt"),
                           "--pool-benign", os.path.join(run_dir, "benign"),
                           "--pool-adv", os.path.join(run_dir, "adv_pool"),
                           "--episodes", "8",
                           *_common(cfg, at("retrain"), workers))),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("replay-matrix", _replay_set_up, _replay_steps),
    Workload("attack-env", _attack_set_up, _attack_steps),
    Workload("train-retrain", _train_set_up, _train_steps),
)}
