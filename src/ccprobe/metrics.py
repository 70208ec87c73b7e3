"""Post-episode analysis: utilization and queuing-delay stats.

Metrics always use ground truth (the true base RTT, the realized capacities),
never the controller's possibly-perturbed estimates.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate

from .netsim import EmptyLog, EpisodeLog


class EpisodeReport:
    """One episode's summary: all that a clean-episode job sends back."""

    __slots__ = ("utilization", "interval_delay_ms", "mean_delay_ms",
                 "p95_delay_ms", "dropped")

    def __init__(self, utilization: float, interval_delay_ms: float,
                 mean_delay_ms: float, p95_delay_ms: float, dropped: int):
        self.utilization = utilization
        # mean over intervals of srtt - base RTT
        self.interval_delay_ms = interval_delay_ms
        self.mean_delay_ms = mean_delay_ms   # mean over ACKs of rtt - base RTT
        self.p95_delay_ms = p95_delay_ms     # nearest-rank P95 over ACKs
        self.dropped = dropped


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


def build_report(log: EpisodeLog) -> EpisodeReport:
    interval_d = log.mean_queuing_delay_ms()
    if log.ack_rtt_ticks:
        mean_d, p95_d = delay_stats(log)
    else:  # no ACK arrived at all
        mean_d, p95_d = interval_d, float("nan")
    return EpisodeReport(utilization=log.mean_utilization(),
                         interval_delay_ms=interval_d, mean_delay_ms=mean_d,
                         p95_delay_ms=p95_d, dropped=log.dropped)


def dump_series_csv(log: EpisodeLog, path: str) -> None:
    """time_ms, cwnd, ingress_mbps, egress_mbps, capacity_mbps per interval."""
    with open(path, "w") as f:
        f.write("time_ms,cwnd,ingress_mbps,egress_mbps,capacity_mbps\n")
        for o in log.observations:
            ingress = o.throughput_mbps + o.loss_mbps
            f.write(f"{o.now_ms:.1f},{o.cwnd:.4f},{ingress:.4f},"
                    f"{o.throughput_mbps:.4f},{o.capacity_mbps:.4f}\n")
