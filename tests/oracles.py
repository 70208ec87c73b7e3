"""The Python formulas of an episode's summary, kept as test oracles now that
C computes them: the controller reward and the per-interval means, over an
`EpisodeLog`'s rows as `Obs` records, summed as Python 3.11's `sum` adds floats
(left to right from 0); the adversarial reward's pieces that `tl_adv_reward`
scores; the min-RTT estimate the feature surface hands the controller; the
cwnd smoothness acceptance criterion 7 ranks controllers by; and the per-step
loops that generated random traces before one C call projected them."""

import math
from collections import namedtuple

import numpy as np

from ccprobe.netsim import OBS_COLUMNS, DomainError
from ccprobe.tracegen import avg_abs_slope, project_next

# one interval's record: its index, then the fields of its `tl_obs` row
Obs = namedtuple("Obs", ("interval_idx",) + OBS_COLUMNS)


def observations(log) -> list[Obs]:
    """The log's rows, each as an `Obs`."""
    return [Obs(i, *row) for i, row in enumerate(log.rows.tolist())]


def controller_reward(o, params) -> float:
    """R_t = ((T_t - lam * L_t) / B_max) * D_t."""
    if o.min_rtt_ms <= 0:
        raise DomainError("min_rtt must be > 0")
    d = 1.0
    if params.gamma * o.min_rtt_ms < o.srtt_ms:
        d = params.gamma * o.min_rtt_ms / o.srtt_ms
    return (o.throughput_mbps - params.lam * o.loss_mbps) / params.b_max * d


def naive_reward(controller_reward_value: float) -> float:
    return -controller_reward_value


def queuing_delay(obs) -> float:
    """d_t = smoothed RTT minus minimum RTT, in ms."""
    if obs.srtt_ms < obs.min_rtt_ms:
        raise DomainError("rtt < min_rtt: broken observation pipeline")
    return obs.srtt_ms - obs.min_rtt_ms


def delay_penalty(history, adv) -> float:
    """-alpha iff both the H-window mean and K-window mean sit strictly below
    tau, each of them `adv`'s, an `adversary` section."""
    h, k = adv.window_h, adv.window_k
    if len(history) < h:
        raise ValueError(f"need at least H={h} delay samples")
    recent = list(history)[-h:]
    d_bar = sum(recent) / h
    d_tilde = sum(recent[-k:]) / k
    if d_bar < adv.tau_ms and d_tilde < adv.tau_ms:
        return -adv.alpha
    return 0.0


def env_reward(obs, history, adv) -> float:
    """Overall adversarial reward: -U_t plus the delay penalty."""
    if not 0 <= obs.utilization <= 1:
        raise DomainError("utilization out of [0, 1]")
    return -obs.utilization + delay_penalty(history, adv)


def perturb_min_rtt(true_min_rtt_ms: float, action: float, adv, rng) -> float:
    """The min-RTT estimate a feature intercept under `adv`, an `adversary`
    section, hands the controller: unchanged (clean), scaled by a draw
    `rng.uniform(1 - x, 1 + x)` (random_noise) or by
    1 + clamp(action, -1, 1) * x (adversarial)."""
    x = adv.x_fraction
    if adv.perturb_mode == "clean":
        return true_min_rtt_ms
    if adv.perturb_mode == "random_noise":
        return true_min_rtt_ms * float(rng.uniform(1.0 - x, 1.0 + x))
    return true_min_rtt_ms * (1.0 + min(1.0, max(-1.0, action)) * x)


def cwnd_smoothness(series, k: int = 1) -> tuple[float, float]:
    """(linear, log_scaled) smoothness of a (time_s, cwnd) series.

    linear: mean over t of the windowed average absolute slope of cwnd
    (no time normalization). log_scaled: same windowing over
    |log(b_i) - log(b_{i-1})| / (t_i - t_{i-1}), natural log. The two metrics
    deliberately differ in time units; log_scaled is invariant under
    multiplicative rescaling of cwnd.
    """
    if len(series) < k + 1:
        raise ValueError(f"need at least {k + 1} samples")
    times = [t for t, _ in series]
    cwnds = [c for _, c in series]
    if any(c <= 0 for c in cwnds):
        raise DomainError("cwnd values must be positive")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise DomainError("timestamps must be strictly increasing")
    n = len(series)
    linear_terms = [avg_abs_slope(cwnds, t, k) for t in range(k, n)]
    log_rates = [abs(math.log(cwnds[i]) - math.log(cwnds[i - 1])) / (times[i] - times[i - 1])
                 for i in range(1, n)]
    # same windowing applied to the time-normalized log differences
    log_terms = [sum(log_rates[i] for i in range(t - k, t)) / k for t in range(k, n)]
    return sum(linear_terms) / len(linear_terms), sum(log_terms) / len(log_terms)


def mean_queuing_delay_ms(log) -> float:
    obs = observations(log)
    if not obs:
        return 0.0
    base = log.config.base_rtt_ms
    return sum(max(0.0, o.srtt_ms - base) for o in obs) / len(obs)


def mean_utilization(log) -> float:
    obs = observations(log)
    if not obs:
        return 0.0
    cap = sum(o.capacity_mbps for o in obs)
    got = sum(o.throughput_mbps for o in obs)
    return min(1.0, got / cap) if cap > 0 else 0.0


def episode_return(log, params) -> float:
    rs = [controller_reward(o, params) for o in observations(log)]
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
