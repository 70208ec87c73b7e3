"""Cross-entropy method over a flat parameter vector.

Shared by the learned controller and the adversary through `train_policy`.
Gradient-free, deterministic given the seed: sample a Gaussian population,
evaluate, refit mean/std to the elite fraction, decay the exploration noise.
"""

from __future__ import annotations

import numpy as np

from .netsim import Rng


class OptimizerError(RuntimeError):
    pass


class CemConfig:
    def __init__(self, population: int = 32, elite_frac: float = 0.25,
                 sigma0: float = 1.0, extra_noise: float = 0.25,
                 noise_decay: float = 0.9, seed: int = 0):
        self.population = population
        self.elite_frac = elite_frac
        self.sigma0 = sigma0
        self.extra_noise = extra_noise   # additive std floor, decayed per generation
        self.noise_decay = noise_decay
        self.seed = seed


class GenerationStats:
    def __init__(self, generation: int, elite_mean: float, best_return: float,
                 constraint_satisfaction_rate: float = float("nan")):
        self.generation = generation
        self.elite_mean = elite_mean
        self.best_return = best_return
        self.constraint_satisfaction_rate = constraint_satisfaction_rate


def cem_maximize(objective, dim: int, generations: int, config: CemConfig,
                 init_mean: np.ndarray | None = None
                 ) -> tuple[np.ndarray, list[GenerationStats]]:
    """Maximize the objective; returns (best parameters, per-generation log).
    objective(params, seeds), given a generation's whole (population, dim)
    array of candidates and their episode seeds, drawn up front, returns one
    result per row, a float or (float, ok_rate). It is called once per
    generation and decides itself how its rows run.

    Raises OptimizerError if a generation's returns have exactly zero
    variance before the budget is exhausted (degenerate reward signal).
    """
    rng = Rng(config.seed)
    mean = np.zeros(dim) if init_mean is None else np.asarray(init_mean, dtype=float).copy()
    std = np.full(dim, config.sigma0)
    n_elite = max(1, int(round(config.population * config.elite_frac)))

    best_params = mean.copy()
    best_return = -np.inf
    history: list[GenerationStats] = []

    for gen in range(generations):
        noise = config.extra_noise * (config.noise_decay ** gen)
        pop = mean + (std + noise) * rng.standard_normal((config.population, dim))
        seeds = rng.integers(0, 2**31 - 1, config.population).tolist()
        returns = np.empty(config.population)
        ok = np.full(config.population, np.nan)
        for i, out in enumerate(objective(pop, seeds)):
            if isinstance(out, tuple):
                returns[i], ok[i] = out
            else:
                returns[i] = out
        # best first; tied returns by index, the later index first
        order = np.argsort(returns, kind="stable")[::-1]
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
            raise OptimizerError(f"CEM generation {gen + 1} of {generations}: "
                                 f"population returns collapsed to zero variance")
    return best_params, history


def train_policy(policy, objective, episodes: int, config: CemConfig):
    """The one CEM driver of every trained policy: `episodes` is a total
    rollout budget of `episodes // population` generations, searched from
    `policy`'s own parameters. Returns (best policy, per-generation log),
    or (policy, []) unchanged when the budget buys no generation; a
    negative budget is a ValueError."""
    if episodes < 0:
        raise ValueError(f"episodes must be >= 0, got {episodes!r}")
    generations = episodes // config.population
    if generations == 0:
        return policy, []
    best_params, history = cem_maximize(objective, dim=policy.n_params,
                                        generations=generations, config=config,
                                        init_mean=policy.params)
    return policy.with_params(best_params), history
