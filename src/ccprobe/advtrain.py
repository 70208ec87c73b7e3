"""Adversarial retraining of the learned controller via a mixed trace pool."""

from __future__ import annotations

from functools import partial

from .cem import CemConfig, GenerationStats, train_policy
from .learned import LearnedController, PolicyNet, RewardParams, candidate_returns
from .metrics import clean_episode, means
from .netsim import BandwidthTrace, Rng, SimConfig, map_jobs


class TracePool:
    def __init__(self, benign: list[BandwidthTrace] | None = None,
                 adversarial: list[BandwidthTrace] | None = None, mix_p: float = 0.2):
        self.benign = [] if benign is None else benign
        self.adversarial = [] if adversarial is None else adversarial
        self.mix_p = mix_p
        if self.mix_p < 1 and not self.benign:
            raise ValueError("benign traces required when mix_p < 1")
        if self.mix_p > 0 and not self.adversarial:
            raise ValueError("adversarial traces required when mix_p > 0")


def sample_trace(pool: TracePool, rng) -> BandwidthTrace:
    """Bernoulli(mix_p) picks the adversarial list, then uniform within it."""
    if pool.mix_p > 0 and float(rng.random()) < pool.mix_p:
        traces = pool.adversarial
    else:
        traces = pool.benign if pool.benign else pool.adversarial
    return traces[int(rng.integers(0, len(traces)))]


def adversarial_retrain(policy: PolicyNet, pool: TracePool, episodes: int,
                        sim: SimConfig, reward: RewardParams,
                        cem: CemConfig | None = None, workers: int = 1
                        ) -> tuple[PolicyNet, list[GenerationStats]]:
    """Continue CEM training from `policy`, each row's seed sampling its
    trace from the pool, each generation's episodes on `workers` threads.

    Reward, topology and optimizer are identical to the original training;
    only the trace distribution changes. The input policy object is never
    mutated; a new one is returned.
    """
    return train_policy(
        policy, partial(candidate_returns, policy,
                        lambda s: sample_trace(pool, Rng(s)),
                        sim, reward, workers),
        episodes, cem or CemConfig())


def evaluate_suite(policies: list[PolicyNet], trace_sets: dict, sim: SimConfig,
                   reward: RewardParams, workers: int = 1
                   ) -> list[dict[str, tuple[float, float]]]:
    """Each policy's {set name: (mean utilization, mean per-interval queuing
    delay)}, one episode per trace; every policy's episodes over every set
    go through one `map_jobs` batch."""
    if not policies or not trace_sets or not all(trace_sets.values()):
        raise ValueError("need a policy and a trace set, and no empty set")
    traces = [t for ts in trace_sets.values() for t in ts]
    reports = iter(map_jobs(clean_episode,
                            [(sim, trace, partial(LearnedController, policy,
                                                  b_max=reward.b_max))
                             for policy in policies for trace in traces], workers))
    return [{name: means([next(reports) for _ in ts], "utilization",
                         "interval_delay_ms")
             for name, ts in trace_sets.items()} for _ in policies]
