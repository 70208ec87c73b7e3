"""The Python formulas of an episode's summary, kept as test oracles now that
C computes them: the controller reward and the per-interval means, over an
`EpisodeLog`'s Observations, summed as Python 3.11's `sum` adds floats (left
to right from 0); and the per-step loops that generated random traces before
one C call projected them."""

import numpy as np

from ccprobe.netsim import DomainError
from ccprobe.tracegen import project_next


def controller_reward(o, params) -> float:
    """R_t = ((T_t - lam * L_t) / B_max) * D_t."""
    if o.min_rtt_ms <= 0:
        raise DomainError("min_rtt must be > 0")
    d = 1.0
    if params.gamma * o.min_rtt_ms < o.srtt_ms:
        d = params.gamma * o.min_rtt_ms / o.srtt_ms
    return (o.throughput_mbps - params.lam * o.loss_mbps) / params.b_max * d


def mean_queuing_delay_ms(log) -> float:
    obs = log.observations
    if not obs:
        return 0.0
    base = log.config.base_rtt_ms
    return sum(max(0.0, o.srtt_ms - base) for o in obs) / len(obs)


def mean_utilization(log) -> float:
    obs = log.observations
    if not obs:
        return 0.0
    cap = sum(o.capacity_mbps for o in obs)
    got = sum(o.throughput_mbps for o in obs)
    return min(1.0, got / cap) if cap > 0 else 0.0


def episode_return(log, params) -> float:
    rs = [controller_reward(o, params) for o in log.observations]
    return sum(rs) / len(rs) if rs else 0.0


def gen_random_trace_values(length, budget, seed):
    """`tracegen.gen_random_trace`'s values as its per-step loop made them:
    one scalar draw per interval, each after the first projected onto the
    budget over the values before it."""
    rng = np.random.default_rng(seed)
    values = [float(rng.uniform(budget.bw_min, budget.bw_max))]
    for _ in range(length - 1):
        proposed = float(rng.uniform(budget.bw_min, budget.bw_max))
        values.append(project_next(values, proposed, budget))
    return values


def gen_unconstrained_values(length, bw_min, bw_max, seed):
    """`tracegen.gen_unconstrained`'s values, one scalar draw at a time."""
    rng = np.random.default_rng(seed)
    return [min(bw_max, max(bw_min, float(rng.uniform(bw_min, bw_max))))
            for _ in range(length)]
