"""Cross-entropy optimizer: convergence, determinism, degenerate signals."""

import numpy as np
import pytest

from ccprobe.cem import CemConfig, OptimizerError, cem_maximize, train_policy
from ccprobe.learned import PolicyNet
from ccprobe.netsim import Rng


def _per_row(fn):
    """A population objective that calls fn(params, seed) on each row."""
    return lambda pop, seeds: [fn(params, seed) for params, seed in zip(pop, seeds)]


def test_optimizes_quadratic():
    target = np.array([2.0, -1.0, 0.5])

    @_per_row
    def objective(params, seed):
        return -float(np.sum((params - target) ** 2))

    best, history = cem_maximize(objective, dim=3, generations=30,
                                 config=CemConfig(population=32, seed=0))
    assert np.allclose(best, target, atol=0.1)
    # elite mean improves over training
    assert history[-1].elite_mean > history[0].elite_mean


def test_deterministic_given_seed():
    @_per_row
    def objective(params, seed):
        return -float(np.sum(params ** 2))

    a = cem_maximize(objective, 4, 5, CemConfig(seed=3))
    b = cem_maximize(objective, 4, 5, CemConfig(seed=3))
    assert np.array_equal(a[0], b[0])
    assert [h.best_return for h in a[1]] == [h.best_return for h in b[1]]


def test_different_seed_differs():
    @_per_row
    def objective(params, seed):
        return -float(np.sum(params ** 2))

    a = cem_maximize(objective, 4, 3, CemConfig(seed=3))
    b = cem_maximize(objective, 4, 3, CemConfig(seed=4))
    assert not np.array_equal(a[0], b[0])


def test_zero_variance_raises():
    @_per_row
    def objective(params, seed):
        return 1.0

    with pytest.raises(OptimizerError):
        cem_maximize(objective, 2, 5, CemConfig(seed=0))


def test_zero_variance_on_final_generation_ok():
    @_per_row
    def objective(params, seed):
        return 1.0

    _, history = cem_maximize(objective, 2, 1, CemConfig(seed=0))
    assert len(history) == 1


def test_tied_returns_rank_the_later_row_first():
    # the ranking is a stable sort, reversed, whatever numpy's sort dispatch:
    # of tied returns the later row ranks first, for the elite, in its order,
    # and for the best
    pops = []

    def objective(pop, seeds):
        pops.append(pop.copy())
        if len(pops) == 1:   # the even rows tie above the odd ones
            return [1.0, 0.0] * 32
        return [2.0] * 64    # every row ties: the best is the last

    config = CemConfig(population=64, elite_frac=0.25, seed=2)
    best, _ = cem_maximize(objective, 3, 2, config)
    first, last = pops
    assert np.array_equal(best, last[-1])
    # the second generation is drawn around the elite rows 62, 60, ..., 32
    rng = Rng(config.seed)
    rng.standard_normal((64, 3)), rng.integers(0, 2**31 - 1, 64)
    elite = first[62:31:-2]
    noise = config.extra_noise * config.noise_decay
    z = rng.standard_normal((64, 3))
    want = elite.mean(axis=0) + (elite.std(axis=0) + noise) * z
    assert np.array_equal(last, want)


def test_constraint_rate_plumbed_through():
    @_per_row
    def objective(params, seed):
        return float(params[0]), 0.75

    _, history = cem_maximize(objective, 1, 2, CemConfig(seed=1))
    assert history[0].constraint_satisfaction_rate == pytest.approx(0.75)


def test_init_mean_respected():
    start = np.array([100.0, 100.0])

    @_per_row
    def objective(params, seed):
        return -float(np.sum((params - start) ** 2))

    best, _ = cem_maximize(objective, 2, 3, CemConfig(seed=0, sigma0=0.1),
                           init_mean=start)
    assert np.allclose(best, start, atol=1.0)


def test_objective_sees_each_generation_whole():
    calls = []

    def objective(pop, seeds):
        calls.append((pop.shape, len(seeds)))
        return list(pop[:, 0])

    cem_maximize(objective, 3, 4, CemConfig(population=6, seed=0))
    assert calls == [((6, 3), 6)] * 4


def test_train_policy_rejects_a_negative_budget():
    # a negative budget buys no generation, and must not come back as if
    # trained; a budget below one population trains nothing, unchanged
    calls = []

    def objective(pop, seeds):
        calls.append(len(seeds))
        return [0.0] * len(seeds)

    policy = PolicyNet(5, 0)
    for episodes in (-32, -1):
        with pytest.raises(ValueError, match="episodes must be >= 0"):
            train_policy(policy, objective, episodes, CemConfig(population=4))
    assert train_policy(policy, objective, 3, CemConfig(population=4)) == (policy, [])
    assert calls == []
