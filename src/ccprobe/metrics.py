"""The one episode job and its report: utilization, queuing-delay stats and,
on request, the controller reward and an adversary's score.

Metrics always use ground truth (the true base RTT, the realized capacities),
never the controller's possibly-perturbed estimates.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate

from .netsim import EmptyLog, EpisodeLog, SimConfig, run_episode


class EpisodeReport:
    """One episode's summary, the only one an episode job sends back. Given a
    reward, `reward` is the mean controller reward; given the row's
    adversary, `adv_return` and `ok_rate` are its mean return and constraint
    rate, and `capacities` the capacity of each interval. Otherwise each of
    these is None."""

    __slots__ = ("utilization", "interval_delay_ms", "mean_delay_ms",
                 "p95_delay_ms", "dropped", "reward", "adv_return", "ok_rate",
                 "capacities")

    def __init__(self, utilization: float, interval_delay_ms: float,
                 mean_delay_ms: float, p95_delay_ms: float, dropped: int,
                 reward: float | None = None, adv_return: float | None = None,
                 ok_rate: float | None = None,
                 capacities: list[float] | None = None):
        self.utilization = utilization
        # mean over intervals of srtt - base RTT
        self.interval_delay_ms = interval_delay_ms
        self.mean_delay_ms = mean_delay_ms   # mean over ACKs of rtt - base RTT
        self.p95_delay_ms = p95_delay_ms     # nearest-rank P95 over ACKs
        self.dropped = dropped
        self.reward = reward
        self.adv_return = adv_return
        self.ok_rate = ok_rate
        self.capacities = capacities


def delay_stats(log: EpisodeLog) -> tuple[float, float]:
    """(mean, nearest-rank p95) per-ACK queuing delay, RTT minus ground-truth
    base RTT, from the RTT histogram: sums stay in integer ticks and are
    scaled by tick_ms once, so a non-dyadic tick adds no rounding per ACK."""
    hist = log.ack_rtt_ticks
    if not hist:
        raise EmptyLog("no ACKs recorded")
    base, tick_ms = log.config.base_rtt_ms, log.config.tick_ms
    keys = sorted(hist)
    cum = list(accumulate(hist[k] for k in keys))
    n = cum[-1]
    mean = (sum(k * c for k, c in hist.items()) * tick_ms - n * base) / n
    return mean, keys[bisect_left(cum, math.ceil(0.95 * n))] * tick_ms - base


def build_report(log: EpisodeLog, reward=None, adversary=None) -> EpisodeReport:
    """The episode's report: its means from the one sum the C reduction takes
    over the rows, with `reward` (a `learned.RewardParams`) its mean
    controller reward too; with `adversary`, the one that ran in it, what its
    `adv_state` summed and the capacities of the rows."""
    n = len(log.rows)
    s = log.sums(reward)
    interval_d = s.queuing_delay_ms / n if n else 0.0
    if log.ack_rtt_ticks:
        mean_d, p95_d = delay_stats(log)
    else:  # no ACK arrived at all
        mean_d, p95_d = interval_d, float("nan")
    cap = s.capacity_mbps
    report = EpisodeReport(min(1.0, s.throughput_mbps / cap) if cap > 0 else 0.0,
                           interval_d, mean_d, p95_d, log.dropped)
    if reward is not None:
        report.reward = s.reward / n if n else 0.0
    if adversary is not None:
        a = adversary.adv_state
        report.adv_return = a.total / n if n else 0.0
        report.ok_rate = a.ok / n if n else 0.0
        report.capacities = log.column("capacity_mbps").tolist()
    return report


def clean_episode(config: SimConfig, trace, controller_factory,
                  reward=None) -> EpisodeReport:
    """The one episode job of every batch: a fresh controller from its
    factory, so no episode starts from another's state, and the episode's
    report, built in the job so that a batch keeps only the reports, never
    the whole logs."""
    return build_report(run_episode(config, trace, controller_factory()), reward)


def means(reports, *fields: str) -> tuple[float, ...]:
    """Each report field's mean over `reports`, summed in their order."""
    return tuple(sum(getattr(r, f) for r in reports) / len(reports)
                 for f in fields)


def dump_series_csv(log: EpisodeLog, path: str) -> None:
    """time_ms, cwnd, ingress_mbps, egress_mbps, capacity_mbps per interval."""
    columns = [log.column(c).tolist() for c in
               ("now_ms", "cwnd", "throughput_mbps", "loss_mbps", "capacity_mbps")]
    with open(path, "w") as f:
        f.write("time_ms,cwnd,ingress_mbps,egress_mbps,capacity_mbps\n")
        for now, cwnd, egress, loss, cap in zip(*columns):
            f.write(f"{now:.1f},{cwnd:.4f},{egress + loss:.4f},"
                    f"{egress:.4f},{cap:.4f}\n")
