"""Trace-pool mixing and retraining contracts."""

import numpy as np
import pytest

from ccprobe.advtrain import (TracePool, adversarial_retrain, evaluate_suite,
                              sample_trace)
from ccprobe.cem import CemConfig
from ccprobe.learned import PolicyNet, RewardParams
from ccprobe.netsim import BandwidthTrace


def traces(tag, n=3):
    return [BandwidthTrace(100.0, [10.0 + i + (0 if tag == "b" else 50)] * 50)
            for i in range(n)]


def test_pool_invariants():
    with pytest.raises(ValueError):
        TracePool(benign=[], adversarial=traces("a"), mix_p=0.5)
    with pytest.raises(ValueError):
        TracePool(benign=traces("b"), adversarial=[], mix_p=0.5)
    TracePool(benign=traces("b"), adversarial=[], mix_p=0.0)
    TracePool(benign=[], adversarial=traces("a"), mix_p=1.0)


def test_degenerate_p_values():
    b, a = traces("b"), traces("a")
    rng = np.random.default_rng(0)
    p0 = TracePool(benign=b, adversarial=a, mix_p=0.0)
    assert all(sample_trace(p0, rng) in b for _ in range(50))
    p1 = TracePool(benign=b, adversarial=a, mix_p=1.0)
    assert all(sample_trace(p1, rng) in a for _ in range(50))


def test_bernoulli_concentration():
    # 10,000 draws at p=0.2: adversarial fraction within 0.2 +/- 0.02
    b, a = traces("b"), traces("a")
    pool = TracePool(benign=b, adversarial=a, mix_p=0.2)
    rng = np.random.default_rng(123)
    n = 10_000
    hits = sum(1 for _ in range(n) if sample_trace(pool, rng) in a)
    assert abs(hits / n - 0.2) < 0.02


def test_uniform_within_list():
    b = traces("b", n=4)
    pool = TracePool(benign=b, adversarial=[], mix_p=0.0)
    rng = np.random.default_rng(7)
    counts = {i: 0 for i in range(4)}
    for _ in range(4000):
        counts[b.index(sample_trace(pool, rng))] += 1
    for c in counts.values():
        assert 800 < c < 1200


def test_retrain_zero_budget_noop(short_sim, const_trace):
    p = PolicyNet(n_features=5, hidden=0)
    pool = TracePool(benign=[const_trace], adversarial=[], mix_p=0.0)
    out, rows = adversarial_retrain(p, pool, 0, short_sim, RewardParams())
    assert out is p and rows == []


def test_retrain_does_not_mutate_input(short_sim, const_trace):
    p = PolicyNet(n_features=5, hidden=0)
    before = p.params.copy()
    pool = TracePool(benign=[const_trace], adversarial=[], mix_p=0.0)
    out, _ = adversarial_retrain(p, pool, 16, short_sim, RewardParams(),
                                 CemConfig(population=8, seed=0))
    assert np.array_equal(p.params, before)
    assert out is not p


def test_evaluate_suite_deterministic(short_sim, const_trace):
    p = PolicyNet(n_features=5, hidden=0)
    sets = {"one": [const_trace]}
    [a] = evaluate_suite([p], sets, short_sim, RewardParams())
    [b] = evaluate_suite([p], sets, short_sim, RewardParams())
    assert a == b and list(a) == ["one"]


def test_evaluate_suite_counts(short_sim):
    p = PolicyNet(n_features=5, hidden=0)
    trs = traces("b", n=10)
    [rows] = evaluate_suite([p], {"ten": trs}, short_sim, RewardParams())
    assert len(rows) == 1               # one set, 10 episodes behind it
    with pytest.raises(ValueError):
        evaluate_suite([p], {}, short_sim, RewardParams())
    with pytest.raises(ValueError):
        evaluate_suite([], {"ten": trs}, short_sim, RewardParams())


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_suite_of_two_policies_is_each_alone(short_sim, workers):
    # retrain's before/after evaluation: one batch, the same rows as one
    # batch per policy
    sets = {"a": traces("a", n=3), "b": traces("b", n=2)}
    p, q = PolicyNet(n_features=5, hidden=0), PolicyNet(
        n_features=5, hidden=0, params=[0.0, 0.0, -1.0, -4.0, 0.0, 0.3])
    both = evaluate_suite([p, q], sets, short_sim, RewardParams(), workers)
    alone = [evaluate_suite([x], sets, short_sim, RewardParams())[0] for x in (p, q)]
    assert both == alone
