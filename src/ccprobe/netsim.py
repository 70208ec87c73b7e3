"""Deterministic single-flow bottleneck-link simulator.

One sender, one drop-tail FIFO queue in front of a time-varying link,
fixed propagation delay each way. Packet granularity (1500 B default),
fixed tick (1 ms default). Everything is a pure function of the inputs,
so identical (config, trace, controller) runs give identical logs.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent import futures
from dataclasses import dataclass, field


class ConfigError(ValueError):
    pass


class EmptyLog(ValueError):
    pass


class DomainError(ValueError):
    pass


@dataclass
class SimConfig:
    tick_ms: float = 1.0
    one_way_delay_ms: float = 10.0
    queue_capacity_bdp: float = 2.0
    packet_size: int = 1500
    episode_duration_s: float = 60.0
    trace_interval_ms: float = 100.0

    def validate(self) -> None:
        if self.tick_ms <= 0:
            raise ConfigError("tick_ms must be > 0")
        # ACKs are filed under tick + 2 * owd_ticks, so the delay must be a
        # whole, non-zero number of ticks
        owd = self.one_way_delay_ms / self.tick_ms
        if not 1 - 1e-9 <= owd < math.inf or abs(owd - round(owd)) > 1e-9:
            raise ConfigError("one_way_delay_ms must be a positive integer "
                              "multiple of tick_ms")
        if self.queue_capacity_bdp <= 0:
            raise ConfigError("queue_capacity_bdp must be > 0")
        ratio = self.trace_interval_ms / self.tick_ms
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError("trace_interval_ms must be an integer multiple of tick_ms")
        n_int = self.episode_duration_s * 1000.0 / self.trace_interval_ms
        if abs(n_int - round(n_int)) > 1e-9:
            raise ConfigError("episode duration must be an integer multiple of trace_interval_ms")

    @property
    def interval_ticks(self) -> int:
        return int(round(self.trace_interval_ms / self.tick_ms))

    @property
    def n_intervals(self) -> int:
        return int(round(self.episode_duration_s * 1000.0 / self.trace_interval_ms))

    @property
    def base_rtt_ms(self) -> float:
        return 2.0 * self.one_way_delay_ms


@dataclass
class BandwidthTrace:
    """Time-indexed available capacity; one value per interval, in Mbps."""

    interval_ms: float
    values: list[float]

    def __post_init__(self):
        if not self.values:
            raise ConfigError("trace must be non-empty")
        if not 0 < self.interval_ms < math.inf:
            raise ConfigError(f"interval_ms must be finite and > 0, "
                              f"got {self.interval_ms}")
        for v in self.values:
            if not 0 <= v < math.inf:
                raise ConfigError(f"bandwidth must be finite and >= 0 Mbps, "
                                  f"got {v}")

    def capacity_at(self, interval_idx: int) -> float:
        # cycles like Mahimahi replays
        return self.values[interval_idx % len(self.values)]


def read_trace(path: str) -> BandwidthTrace:
    interval_ms = None
    values = []
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line.lstrip("#").strip()
                    if body.startswith("interval_ms="):
                        interval_ms = float(body.split("=", 1)[1])
                    continue
                values.append(float(line))
        if interval_ms is None:
            raise ConfigError("missing '# interval_ms=<int>' header")
        return BandwidthTrace(interval_ms=interval_ms, values=values)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def write_trace(trace: BandwidthTrace, path: str) -> None:
    with open(path, "w") as f:
        f.write(f"# interval_ms={int(round(trace.interval_ms))}\n")
        for v in trace.values:
            f.write(f"{v:.6f}\n")


def export_mahimahi(trace: BandwidthTrace, path: str, packet_size: int = 1500) -> None:
    """One integer-ms timestamp per 1500 B delivery opportunity.

    Emits timestamp t whenever cumulative capacity bytes cross k*packet_size.
    """
    with open(path, "w") as f:
        cum = 0.0
        next_k = 1
        total_ms = int(round(len(trace.values) * trace.interval_ms))
        for ms in range(total_ms):
            idx = int(ms // trace.interval_ms)
            cum += trace.capacity_at(idx) * 1e6 / 8.0 / 1000.0
            while cum >= next_k * packet_size:
                f.write(f"{ms + 1}\n")
                next_k += 1


@dataclass
class Observation:
    """Per-monitoring-interval snapshot consumed by controllers and adversary."""

    interval_idx: int
    now_ms: float
    capacity_mbps: float
    throughput_mbps: float   # delivered goodput over the interval
    loss_mbps: float         # dropped-byte rate over the interval
    loss_rate: float         # dropped / sent packets (0 if nothing sent)
    srtt_ms: float           # smoothed RTT (ground truth)
    min_rtt_ms: float        # running minimum RTT (ground truth)
    visible_min_rtt_ms: float  # what the controller's min-RTT estimate reads
    utilization: float       # delivered / capacity over the interval
    cwnd: float


@dataclass
class EpisodeLog:
    config: SimConfig
    # totals
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    acked: int = 0
    in_flight_end: int = 0
    # per-interval series
    observations: list[Observation] = field(default_factory=list)
    # per-ACK RTT histogram: RTT in ticks -> number of ACKs
    ack_rtt_ticks: dict[int, int] = field(default_factory=dict)

    def mean_queuing_delay_ms(self) -> float:
        """Mean per-interval queuing delay (smoothed RTT minus true base RTT)."""
        if not self.observations:
            return 0.0
        base = self.config.base_rtt_ms
        return sum(max(0.0, o.srtt_ms - base) for o in self.observations) / len(self.observations)

    def mean_utilization(self) -> float:
        if not self.observations:
            return 0.0
        cap = sum(o.capacity_mbps for o in self.observations)
        got = sum(o.throughput_mbps for o in self.observations)
        return min(1.0, got / cap) if cap > 0 else 0.0


def run_episode(config: SimConfig, trace, controller, intercept=None,
                env_driver=None) -> EpisodeLog:
    """Closed-loop episode: sim <-> controller, optionally with an adversary.

    Exactly one of `trace` (pre-specified) or `env_driver` (supplies the next
    interval's bandwidth online) drives the link capacity. `intercept`, when
    given, scales the min-RTT estimate the controller reads; simulator ground
    truth is never touched.
    """
    config.validate()
    if (trace is None) == (env_driver is None):
        raise ConfigError("exactly one of trace / env_driver must be given")
    if trace is not None and trace.interval_ms != config.trace_interval_ms:
        raise ConfigError(f"trace interval {trace.interval_ms:g} ms differs "
                          f"from sim trace_interval_ms "
                          f"{config.trace_interval_ms:g} ms")

    pkt = config.packet_size
    tick_ms = config.tick_ms
    owd_ms = config.one_way_delay_ms
    owd_ticks = int(round(owd_ms / tick_ms))
    interval_ticks = config.interval_ticks
    n_intervals = config.n_intervals
    n_ticks = n_intervals * interval_ticks
    base_rtt_ms = config.base_rtt_ms

    # Fixed buffer: 2 x (max capacity x base RTT), as with a static Mahimahi queue.
    if trace is not None:
        max_cap = max(trace.values)
    else:
        max_cap = env_driver.bw_max
    queue_cap_bytes = config.queue_capacity_bdp * (max_cap * 1e6 / 8.0) * (base_rtt_ms / 1000.0)
    queue_cap_pkts = max(1, int(queue_cap_bytes // pkt))

    log = EpisodeLog(config=config)
    rtt_hist = log.ack_rtt_ticks

    # The FIFO holds runs [send_tick, count], oldest first: every packet
    # injected in one tick shares its send tick, so a tick's work is per run,
    # never per packet.
    queue: deque[list[int]] = deque()
    qlen = 0
    acks_at: dict[int, list[list[int]]] = {}   # ack tick -> delivered runs
    ack_delay_ticks = 2 * owd_ticks
    burst_cap = queue_cap_pkts + 8
    byte_credit = 0.0
    sent = delivered = dropped = acked_pkts = 0
    resolved_drops = 0

    srtt = None
    min_rtt = math.inf
    min_owd = math.inf
    last_ack_tick = 0

    # loss-event bookkeeping (sender side)
    acks_after_drop = 0
    drop_pending = False
    reaction_blocked_until = -1

    # pacing (BbrLite)
    pacing_credit = 0.0

    # per-interval aggregates
    iv_delivered = iv_sent = iv_dropped = 0

    if env_driver is not None:
        capacity = env_driver.first_capacity()
    else:
        capacity = trace.capacity_at(0)
    interval_idx = 0
    cap_bytes_per_tick = capacity * 1e6 / 8.0 * tick_ms / 1000.0

    from .cc import LossKind  # local import avoids a module cycle
    triple_dup, timeout = LossKind.TRIPLE_DUP_ACK, LossKind.TIMEOUT
    on_ack, on_loss = controller.on_ack, controller.on_loss

    if intercept is not None:
        intercept.begin_episode()
    scale = 1.0 if intercept is None else intercept.scale()

    for tick in range(n_ticks):
        # 1. ACK arrivals
        batch = acks_at.pop(tick, None)
        if batch:
            n = rtt_ticks = 0
            for send_tick, count in batch:
                r = tick - send_tick
                n += count
                rtt_ticks += count * r
                rtt_hist[r] = rtt_hist.get(r, 0) + count
            # runs leave the FIFO in send order: the last one's RTT is the
            # batch's minimum
            rtt = r * tick_ms
            if rtt < min_rtt:
                min_rtt = rtt
            mean_rtt = rtt_ticks * tick_ms / n
            owd = mean_rtt - owd_ms  # queue wait + forward prop
            if owd < min_owd:
                min_owd = owd
            srtt = mean_rtt if srtt is None else srtt + (mean_rtt - srtt) / 8.0
            acked_pkts += n
            last_ack_tick = tick
            if drop_pending:
                acks_after_drop += n
            # positional: keyword construction costs ~3x as much per batch
            on_ack(AckInfo(tick * tick_ms, mean_rtt, owd, n, n * pkt,
                           min_rtt * scale, min_owd * scale, srtt, scale))

        # 2. loss reactions
        if drop_pending and acks_after_drop >= 3 and tick >= reaction_blocked_until:
            on_loss(triple_dup)
            resolved_drops = dropped
            drop_pending = False
            acks_after_drop = 0
            srtt_ticks = int(round((srtt or base_rtt_ms) / tick_ms))
            reaction_blocked_until = tick + max(1, srtt_ticks)
        else:
            rto_ms = 2.0 * (srtt or base_rtt_ms)
            if rto_ms < 200.0:
                rto_ms = 200.0
            if (sent - acked_pkts - resolved_drops > 0
                    and (tick - last_ack_tick) * tick_ms > rto_ms):
                on_loss(timeout)
                resolved_drops = dropped
                drop_pending = False
                acks_after_drop = 0
                last_ack_tick = tick  # restart the timer
                reaction_blocked_until = tick + max(1, int(round(rto_ms / tick_ms)))

        # 3. injection, gated by cwnd (and pacing when the controller sets one);
        # a single tick can never usefully inject more than a full queue's
        # worth, so the burst cap keeps runaway cwnd values cheap
        cwnd = int(controller.cwnd)
        k = (cwnd if cwnd > 1 else 1) - (sent - acked_pkts - resolved_drops)
        if k > burst_cap:
            k = burst_cap
        pacing = controller.pacing_rate_bps
        if pacing is not None:
            pacing_credit = min(pacing_credit + pacing / 8.0 * tick_ms / 1000.0,
                                10.0 * pkt)
            # exact: pkt is an integer and the credit is at most 10 * pkt
            k = min(k, int(pacing_credit // pkt))
            if k > 0:
                pacing_credit -= k * pkt
        if k > 0:
            sent += k
            iv_sent += k
            enq = min(k, queue_cap_pkts - qlen)
            if enq:
                queue.append([tick, enq])
                qlen += enq
            if enq < k:
                dropped += k - enq
                iv_dropped += k - enq
                if not drop_pending:
                    drop_pending = True
                    acks_after_drop = 0

        # 4. delivery
        byte_credit += cap_bytes_per_tick
        n_opp = int(byte_credit // pkt)
        byte_credit -= n_opp * pkt
        if n_opp and qlen:
            n_del = left = min(n_opp, qlen)
            runs = []
            while left:
                run = queue[0]
                if run[1] <= left:
                    runs.append(queue.popleft())
                    left -= run[1]
                else:
                    run[1] -= left
                    runs.append([run[0], left])
                    left = 0
            acks_at[tick + ack_delay_ticks] = runs
            qlen -= n_del
            delivered += n_del
            iv_delivered += n_del

        # 5. interval boundary
        if (tick + 1) % interval_ticks == 0:
            secs = interval_ticks * tick_ms / 1000.0
            thr = iv_delivered * pkt * 8.0 / 1e6 / secs
            loss_thr = iv_dropped * pkt * 8.0 / 1e6 / secs
            cur_min = min_rtt if min_rtt < math.inf else base_rtt_ms
            cur_srtt = srtt if srtt is not None else base_rtt_ms
            obs = Observation(
                interval_idx=interval_idx,
                now_ms=tick * tick_ms + tick_ms,
                capacity_mbps=capacity,
                throughput_mbps=thr,
                loss_mbps=loss_thr,
                loss_rate=(iv_dropped / iv_sent) if iv_sent else 0.0,
                srtt_ms=cur_srtt,
                min_rtt_ms=cur_min,
                visible_min_rtt_ms=cur_min * scale,
                utilization=min(1.0, thr / capacity) if capacity > 0 else 0.0,
                cwnd=controller.cwnd,
            )
            log.observations.append(obs)
            controller.on_interval(obs)
            if intercept is not None:
                intercept.begin_interval(obs)
                scale = intercept.scale()
            interval_idx += 1
            if interval_idx < n_intervals:
                if env_driver is not None:
                    capacity = env_driver.next_capacity(obs)
                else:
                    capacity = trace.capacity_at(interval_idx)
                cap_bytes_per_tick = capacity * 1e6 / 8.0 * tick_ms / 1000.0
            iv_delivered = iv_sent = iv_dropped = 0

    log.sent = sent
    log.delivered = delivered
    log.dropped = dropped
    log.acked = acked_pkts
    log.in_flight_end = sent - delivered - dropped
    return log


def map_jobs(fn, jobs, workers: int) -> list:
    """`[fn(*job) for job in jobs]` on up to `workers` processes, never more
    than one per job; one process means this one. ccprobe's only pool: with
    more than one process, `fn` and the jobs must pickle (module-level
    functions, `functools.partial`s of them, plain data)."""
    jobs = list(jobs)
    n = min(workers, len(jobs))
    if n <= 1:
        return [fn(*job) for job in jobs]
    with futures.ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, *zip(*jobs)))


@dataclass(slots=True)
class AckInfo:
    now_ms: float
    rtt_ms: float
    owd_ms: float
    acked_packets: int
    acked_bytes: int
    min_rtt_ms: float   # controller-visible running minimum (may be perturbed)
    min_owd_ms: float   # controller-visible minimum one-way delay
    srtt_ms: float
    min_rtt_scale: float = 1.0  # intercept multiplier applied to min estimates
