"""Cross-entropy method over a flat parameter vector.

Shared by the learned controller and the adversary. Gradient-free,
deterministic given the seed: sample a Gaussian population, evaluate, refit
mean/std to the elite fraction, decay the exploration noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netsim import map_jobs


class OptimizerError(RuntimeError):
    pass


@dataclass
class CemConfig:
    population: int = 32
    elite_frac: float = 0.25
    sigma0: float = 1.0
    extra_noise: float = 0.25       # additive std floor, decayed per generation
    noise_decay: float = 0.9
    seed: int = 0
    workers: int = 1                # processes evaluating a population

    def __post_init__(self):
        if not self.population >= 1:
            raise ValueError(f"population must be >= 1, got {self.population!r}")
        if not 0 < self.elite_frac <= 1:
            raise ValueError(f"elite_frac must be in (0, 1], "
                             f"got {self.elite_frac!r}")


@dataclass
class GenerationStats:
    generation: int
    elite_mean: float
    best_return: float
    constraint_satisfaction_rate: float = float("nan")


@dataclass
class CemResult:
    best_params: np.ndarray
    history: list[GenerationStats] = field(default_factory=list)


def cem_maximize(objective, dim: int, generations: int, config: CemConfig,
                 init_mean: np.ndarray | None = None) -> CemResult:
    """Maximize objective(params, episode_seed) -> float (or (float, ok_rate)).

    A generation's episode seeds are drawn up front, then its population runs
    through `map_jobs` on `config.workers` processes (its returns must pickle,
    the objective need not); the result does not depend on it.

    Raises OptimizerError if a generation's returns have exactly zero
    variance before the budget is exhausted (degenerate reward signal).
    """
    rng = np.random.default_rng(config.seed)
    mean = np.zeros(dim) if init_mean is None else np.asarray(init_mean, dtype=float).copy()
    std = np.full(dim, config.sigma0)
    n_elite = max(1, int(round(config.population * config.elite_frac)))

    best_params = mean.copy()
    best_return = -np.inf
    history: list[GenerationStats] = []

    for gen in range(generations):
        noise = config.extra_noise * (config.noise_decay ** gen)
        pop = mean + (std + noise) * rng.standard_normal((config.population, dim))
        seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(config.population)]
        returns = np.empty(config.population)
        ok = np.full(config.population, np.nan)
        for i, out in enumerate(map_jobs(objective, zip(pop, seeds), config.workers)):
            if isinstance(out, tuple):
                returns[i], ok[i] = out
            else:
                returns[i] = out
        order = np.argsort(returns)[::-1]
        elite_idx = order[:n_elite]
        mean = pop[elite_idx].mean(axis=0)
        std = pop[elite_idx].std(axis=0)
        if returns[order[0]] > best_return:
            best_return = float(returns[order[0]])
            best_params = pop[order[0]].copy()
        history.append(GenerationStats(
            generation=gen,
            elite_mean=float(returns[elite_idx].mean()),
            best_return=float(returns[order[0]]),
            constraint_satisfaction_rate=float(np.nanmean(ok)) if not np.all(np.isnan(ok)) else float("nan"),
        ))
        if gen < generations - 1 and float(returns.std()) == 0.0:
            raise OptimizerError("population returns collapsed to zero variance")
    return CemResult(best_params=best_params, history=history)
