"""Rule-based congestion-controller state machines behind one interface.

Reno, Cubic, Vegas, Illinois, LP and a simplified BBR ("BBR-lite", no
ProbeRTT state, fixed 8-phase gain cycle). All controllers consume the same
AckInfo / Observation stream, so the same trace or perturbation applies
uniformly across algorithms.

Constants not pinned by any single reference are taken from the canonical
kernel implementations and are overridable via the factory kwargs.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

from .netsim import AckInfo, Observation


class Phase(enum.Enum):
    SLOW_START = "slow_start"
    CONGESTION_AVOIDANCE = "congestion_avoidance"
    FAST_RECOVERY = "fast_recovery"
    LP_INFERENCE = "lp_inference"


class LossKind(enum.Enum):
    TRIPLE_DUP_ACK = "triple_dup_ack"
    TIMEOUT = "timeout"


INIT_CWND = 10.0
MIN_SSTHRESH = 2.0


class Controller:
    """Base controller: owns cwnd (packets, fractional) and ssthresh."""

    name = "base"

    def __init__(self):
        self.cwnd = INIT_CWND
        self.ssthresh = 1e9
        self.phase = Phase.SLOW_START
        self.pacing_rate_bps = None

    def on_ack(self, ack: AckInfo) -> None:
        raise NotImplementedError

    def on_loss(self, kind: LossKind) -> None:
        raise NotImplementedError

    def on_interval(self, obs: Observation) -> None:
        pass

    def _clamp(self) -> None:
        if self.cwnd < 1.0:
            self.cwnd = 1.0
        if self.ssthresh < MIN_SSTHRESH:
            self.ssthresh = MIN_SSTHRESH

    def _timeout_reset(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, MIN_SSTHRESH)
        self.cwnd = 1.0
        self.phase = Phase.SLOW_START


class Reno(Controller):
    name = "reno"

    def on_ack(self, ack: AckInfo) -> None:
        if self.phase is Phase.FAST_RECOVERY:
            # exit recovery on the first new ACK; resume avoidance at ssthresh
            self.cwnd = self.ssthresh
            self.phase = Phase.CONGESTION_AVOIDANCE
        if self.phase is Phase.SLOW_START:
            self.cwnd += ack.acked_packets
            if self.cwnd >= self.ssthresh:
                self.phase = Phase.CONGESTION_AVOIDANCE
        else:
            self.cwnd += ack.acked_packets / self.cwnd
        self._clamp()

    def on_loss(self, kind: LossKind) -> None:
        if kind is LossKind.TIMEOUT:
            self._timeout_reset()
        else:
            self.ssthresh = max(self.cwnd / 2.0, MIN_SSTHRESH)
            self.cwnd = self.ssthresh
            self.phase = Phase.FAST_RECOVERY
        self._clamp()


def cubic_window(t_s: float, w_max: float, c: float = 0.4, beta: float = 0.7) -> float:
    """W(t) = C(t-K)^3 + w_max with K = cbrt(w_max(1-beta)/C); W(K) == w_max."""
    k = (w_max * (1.0 - beta) / c) ** (1.0 / 3.0)
    return c * (t_s - k) ** 3 + w_max


class Cubic(Controller):
    name = "cubic"

    def __init__(self, c: float = 0.4, beta: float = 0.7):
        super().__init__()
        self.c = c
        self.beta = beta
        self.w_max = 0.0
        self.epoch_start_ms = None

    def on_ack(self, ack: AckInfo) -> None:
        if self.phase is Phase.FAST_RECOVERY:
            self.phase = Phase.CONGESTION_AVOIDANCE
        if self.phase is Phase.SLOW_START:
            self.cwnd += ack.acked_packets
            if self.cwnd >= self.ssthresh:
                self.phase = Phase.CONGESTION_AVOIDANCE
        else:
            if self.epoch_start_ms is None:
                self.epoch_start_ms = ack.now_ms
                if self.w_max < self.cwnd:
                    self.w_max = self.cwnd
            t = (ack.now_ms - self.epoch_start_ms + ack.rtt_ms) / 1000.0
            target = cubic_window(t, self.w_max, self.c, self.beta)
            if target > self.cwnd:
                self.cwnd += (target - self.cwnd) / self.cwnd * ack.acked_packets
            else:
                # gentle probing when at/above the plateau
                self.cwnd += 0.01 * ack.acked_packets / self.cwnd
        self._clamp()

    def on_loss(self, kind: LossKind) -> None:
        if kind is LossKind.TIMEOUT:
            self.w_max = self.cwnd
            self.epoch_start_ms = None
            self._timeout_reset()
        else:
            self.w_max = self.cwnd
            self.cwnd *= self.beta
            self.ssthresh = max(self.cwnd, MIN_SSTHRESH)
            self.epoch_start_ms = None
            self.phase = Phase.FAST_RECOVERY
        self._clamp()


class Vegas(Controller):
    name = "vegas"

    def __init__(self, alpha: float = 2.0, beta: float = 4.0):
        super().__init__()
        self.alpha = alpha
        self.beta = beta
        self.base_rtt_ms = math.inf   # fed from the controller-visible min-RTT
        self.next_adjust_ms = 0.0

    def vegas_diff(self, rtt_ms: float) -> float:
        """(expected - actual) * base_rtt, in packets."""
        if not math.isfinite(self.base_rtt_ms) or rtt_ms <= 0:
            return 0.0
        base_s = self.base_rtt_ms / 1000.0
        rtt_s = rtt_ms / 1000.0
        return (self.cwnd / base_s - self.cwnd / rtt_s) * base_s

    def on_ack(self, ack: AckInfo) -> None:
        self.base_rtt_ms = ack.min_rtt_ms
        if self.phase is Phase.FAST_RECOVERY:
            self.cwnd = self.ssthresh
            self.phase = Phase.CONGESTION_AVOIDANCE
        diff = self.vegas_diff(ack.rtt_ms)
        if self.phase is Phase.SLOW_START:
            self.cwnd += ack.acked_packets
            if self.cwnd >= self.ssthresh or diff > self.beta:
                self.phase = Phase.CONGESTION_AVOIDANCE
        elif ack.now_ms >= self.next_adjust_ms:
            if diff > self.beta:
                self.cwnd -= 1.0
            elif diff < self.alpha:
                self.cwnd += 1.0
            self.next_adjust_ms = ack.now_ms + ack.rtt_ms
        self._clamp()

    def on_loss(self, kind: LossKind) -> None:
        if kind is LossKind.TIMEOUT:
            self._timeout_reset()
        else:
            self.ssthresh = max(self.cwnd / 2.0, MIN_SSTHRESH)
            self.cwnd = self.ssthresh
            self.phase = Phase.FAST_RECOVERY
        self._clamp()


class Illinois(Controller):
    name = "illinois"

    def __init__(self, alpha_min: float = 0.3, alpha_max: float = 10.0,
                 beta_min: float = 0.125, beta_max: float = 0.5):
        super().__init__()
        self.alpha_min = alpha_min
        self.alpha_max = alpha_max
        self.beta_min = beta_min
        self.beta_max = beta_max
        self.base_rtt_ms = math.inf
        self.max_rtt_ms = 0.0
        self.rtt_sum = 0.0
        self.rtt_n = 0
        self.avg_delay_ms = 0.0
        self.next_window_ms = 0.0

    def _delay_params(self) -> tuple[float, float]:
        """Standard piecewise delay mapping for the AIMD coefficients."""
        dm = self.max_rtt_ms - self.base_rtt_ms
        if dm <= 0 or not math.isfinite(self.base_rtt_ms):
            return self.alpha_max, self.beta_min
        da = self.avg_delay_ms
        d1 = 0.01 * dm
        # alpha: alpha_max below d1, then hyperbolic decay to alpha_min at dm
        if da <= d1:
            alpha = self.alpha_max
        else:
            k1 = (dm - d1) * self.alpha_min * self.alpha_max / (self.alpha_max - self.alpha_min)
            k2 = k1 / self.alpha_max - d1
            alpha = max(self.alpha_min, k1 / (k2 + da))
        # beta: linear ramp between 0.1*dm and 0.8*dm
        d2, d3 = 0.1 * dm, 0.8 * dm
        if da <= d2:
            beta = self.beta_min
        elif da >= d3:
            beta = self.beta_max
        else:
            beta = self.beta_min + (self.beta_max - self.beta_min) * (da - d2) / (d3 - d2)
        return alpha, beta

    def on_ack(self, ack: AckInfo) -> None:
        self.base_rtt_ms = min(self.base_rtt_ms, ack.min_rtt_ms)
        self.max_rtt_ms = max(self.max_rtt_ms, ack.rtt_ms)
        self.rtt_sum += ack.rtt_ms * ack.acked_packets
        self.rtt_n += ack.acked_packets
        if ack.now_ms >= self.next_window_ms and self.rtt_n > 0:
            self.avg_delay_ms = self.rtt_sum / self.rtt_n - self.base_rtt_ms
            self.rtt_sum = 0.0
            self.rtt_n = 0
            self.next_window_ms = ack.now_ms + ack.rtt_ms
        if self.phase is Phase.FAST_RECOVERY:
            self.phase = Phase.CONGESTION_AVOIDANCE
        if self.phase is Phase.SLOW_START:
            self.cwnd += ack.acked_packets
            if self.cwnd >= self.ssthresh:
                self.phase = Phase.CONGESTION_AVOIDANCE
        else:
            alpha, _ = self._delay_params()
            self.cwnd += alpha * ack.acked_packets / self.cwnd
        self._clamp()

    def on_loss(self, kind: LossKind) -> None:
        if kind is LossKind.TIMEOUT:
            self._timeout_reset()
        else:
            _, beta = self._delay_params()
            self.cwnd *= (1.0 - beta)
            self.ssthresh = max(self.cwnd, MIN_SSTHRESH)
            self.phase = Phase.FAST_RECOVERY
        self._clamp()


class LpIndication(enum.Enum):
    NONE = "none"
    FIRST = "first_indication"
    SECOND = "second_indication"


@dataclass
class LpFilterState:
    """One-way-delay early-congestion filter used by TCP LP.

    sowd is an EWMA of owd (gain 1/8); owd_min / owd_max are running
    extremes. The early-congestion condition fires when
    sowd > owd_min + threshold_fraction * (owd_max - owd_min), strictly.
    """

    threshold_fraction: float = 0.15
    ewma_gain: float = 0.125
    # checks stay disarmed until the observed OWD range exceeds this floor,
    # otherwise sub-ms jitter trips the threshold before any queue exists
    min_range_ms: float = 3.0
    owd_ms: float = 0.0
    sowd_ms: float | None = None
    owd_min_ms: float = math.inf
    owd_max_ms: float = -math.inf
    in_inference: bool = False
    inference_until_ms: float = -math.inf

    def threshold_ms(self) -> float:
        return self.owd_min_ms + self.threshold_fraction * (self.owd_max_ms - self.owd_min_ms)

    def update(self, owd_sample_ms: float) -> None:
        """Advance the delay filters without evaluating the indication."""
        self.owd_ms = owd_sample_ms
        self.owd_min_ms = min(self.owd_min_ms, owd_sample_ms)
        self.owd_max_ms = max(self.owd_max_ms, owd_sample_ms)
        if self.sowd_ms is None:
            self.sowd_ms = owd_sample_ms
        else:
            self.sowd_ms += self.ewma_gain * (owd_sample_ms - self.sowd_ms)

    def check(self, owd_sample_ms: float, now_ms: float = 0.0,
              inference_window_ms: float = 0.0) -> LpIndication:
        self.update(owd_sample_ms)
        if self.in_inference and now_ms > self.inference_until_ms:
            self.in_inference = False
        if self.owd_max_ms - self.owd_min_ms < self.min_range_ms:
            return LpIndication.NONE
        if self.sowd_ms > self.threshold_ms():
            if not self.in_inference:
                self.in_inference = True
                self.inference_until_ms = now_ms + inference_window_ms
                return LpIndication.FIRST
            return LpIndication.SECOND
        return LpIndication.NONE


class Lp(Controller):
    """Reno plus one-way-delay early congestion detection."""

    name = "lp"

    def __init__(self, threshold_fraction: float = 0.15, ewma_gain: float = 0.125):
        super().__init__()
        self.filter = LpFilterState(threshold_fraction=threshold_fraction,
                                    ewma_gain=ewma_gain)
        self.indications = 0
        self.backoffs: list[tuple[float, LpIndication]] = []
        self._grace_until_ms = -math.inf  # lets a backoff act before re-checking
        self._reno = Reno()
        self._reno.cwnd = self.cwnd

    def on_ack(self, ack: AckInfo) -> None:
        # the visible min-OWD estimate replaces the filter's floor
        self.filter.owd_min_ms = min(self.filter.owd_min_ms, ack.min_owd_ms)
        if ack.now_ms < self._grace_until_ms:
            self.filter.update(ack.owd_ms)
            ind = LpIndication.NONE
        else:
            # grace spans 2 RTTs (in-flight packets predate the backoff for a
            # full RTT); the window is 3 RTTs so the re-check lands inside it
            ind = self.filter.check(ack.owd_ms, now_ms=ack.now_ms,
                                    inference_window_ms=3.0 * ack.srtt_ms)
        if ind is not LpIndication.NONE:
            self.indications += 1
            self.backoffs.append((ack.now_ms, ind))
            if ind is LpIndication.FIRST:
                # halve and resume linear growth from there
                self.cwnd = max(1.0, self.cwnd / 2.0)
                self.ssthresh = max(self.cwnd, MIN_SSTHRESH)
                self._reno.phase = Phase.CONGESTION_AVOIDANCE
            else:
                # persistent congestion: timeout-style reset with exponential
                # recovery up to half the operating window
                self.ssthresh = max(self.cwnd / 2.0, MIN_SSTHRESH)
                self.cwnd = 1.0
                self.filter.inference_until_ms = ack.now_ms + 3.0 * ack.srtt_ms
                self._reno.phase = Phase.SLOW_START
            self.phase = Phase.LP_INFERENCE
            self._grace_until_ms = ack.now_ms + 2.0 * ack.srtt_ms
            self._reno.cwnd = self.cwnd
            self._reno.ssthresh = self.ssthresh
            return
        if self.phase is Phase.LP_INFERENCE and not self.filter.in_inference:
            self.phase = self._reno.phase
        self._reno.on_ack(ack)
        self.cwnd = self._reno.cwnd
        self.ssthresh = self._reno.ssthresh
        if self.phase is not Phase.LP_INFERENCE:
            self.phase = self._reno.phase
        self._clamp()

    def on_loss(self, kind: LossKind) -> None:
        self._reno.on_loss(kind)
        self.cwnd = self._reno.cwnd
        self.ssthresh = self._reno.ssthresh
        self.phase = self._reno.phase
        self._clamp()


class BbrLite(Controller):
    """Model-based controller: windowed max-bandwidth and min-RTT filters.

    cwnd = 2 x estimated BDP; pacing = gain x bandwidth estimate with the
    fixed cycle [1.25, 0.75, 1, 1, 1, 1, 1, 1] advanced once per min-RTT.
    """

    GAIN_CYCLE = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    name = "bbrlite"

    def __init__(self, bw_window_rtts: int = 10, rtt_window_s: float = 10.0,
                 packet_size: int = 1500):
        super().__init__()
        self.bw_window_rtts = bw_window_rtts
        self.rtt_window_ms = rtt_window_s * 1000.0
        self.packet_size = packet_size
        # monotonic deques: bw decreasing (front = windowed max),
        # rtt increasing (front = windowed min)
        self.bw_samples: deque[tuple[float, float]] = deque()   # (t_ms, bps)
        self.rtt_samples: deque[tuple[float, float]] = deque()  # (t_ms, ms)
        self.gain_index = 0
        self.next_gain_advance_ms = 0.0
        self.min_rtt_scale = 1.0
        # delivery-rate aggregation over ~one RTT
        self._acc_bytes = 0
        self._acc_start_ms = 0.0

    def bw_estimate_bps(self) -> float:
        return self.bw_samples[0][1] if self.bw_samples else 0.0

    def min_rtt_estimate_ms(self) -> float:
        raw = self.rtt_samples[0][1] if self.rtt_samples else math.inf
        return raw * self.min_rtt_scale

    def _push_bw(self, t: float, bw: float) -> None:
        while self.bw_samples and self.bw_samples[-1][1] <= bw:
            self.bw_samples.pop()
        self.bw_samples.append((t, bw))

    def _push_rtt(self, t: float, rtt: float) -> None:
        while self.rtt_samples and self.rtt_samples[-1][1] >= rtt:
            self.rtt_samples.pop()
        self.rtt_samples.append((t, rtt))

    def on_ack(self, ack: AckInfo) -> None:
        now = ack.now_ms
        # feature-level perturbation reaches this filter as a scale on its output
        self.min_rtt_scale = ack.min_rtt_scale
        # delivery rate: bytes acked over the last ~RTT of wall time
        self._acc_bytes += ack.acked_bytes
        elapsed = now - self._acc_start_ms
        if elapsed >= ack.rtt_ms:
            bw = self._acc_bytes * 8.0 / (elapsed / 1000.0)
            self._push_bw(now, bw)
            self._acc_bytes = 0
            self._acc_start_ms = now
        self._push_rtt(now, ack.rtt_ms)
        min_rtt = self.min_rtt_estimate_ms()
        horizon = self.bw_window_rtts * max(min_rtt, 1.0)
        while self.bw_samples and now - self.bw_samples[0][0] > horizon:
            self.bw_samples.popleft()
        while self.rtt_samples and now - self.rtt_samples[0][0] > self.rtt_window_ms:
            self.rtt_samples.popleft()
        bw_est = self.bw_estimate_bps()
        min_rtt = self.min_rtt_estimate_ms()
        if bw_est > 0 and math.isfinite(min_rtt):
            bdp_pkts = bw_est / 8.0 * (min_rtt / 1000.0) / self.packet_size
            self.cwnd = max(4.0, 2.0 * bdp_pkts)
            if now >= self.next_gain_advance_ms:
                self.gain_index = (self.gain_index + 1) % len(self.GAIN_CYCLE)
                self.next_gain_advance_ms = now + min_rtt
            self.pacing_rate_bps = self.GAIN_CYCLE[self.gain_index] * bw_est
        self._clamp()

    def on_loss(self, kind: LossKind) -> None:
        # rate-model controller: ignores individual loss events
        if kind is LossKind.TIMEOUT:
            self.cwnd = max(4.0, self.cwnd / 2.0)
        self._clamp()


class Pinned(Controller):
    """Oracle controller pinned at a fixed cwnd; used by tests and calibration."""

    name = "pinned"

    def __init__(self, cwnd: float):
        super().__init__()
        self.cwnd = max(1.0, cwnd)
        self.phase = Phase.CONGESTION_AVOIDANCE

    def on_ack(self, ack: AckInfo) -> None:
        pass

    def on_loss(self, kind: LossKind) -> None:
        pass


RULE_BASED = {
    "reno": Reno,
    "cubic": Cubic,
    "vegas": Vegas,
    "illinois": Illinois,
    "lp": Lp,
    "bbrlite": BbrLite,
}


def make_controller(name: str, **constants):
    """Controller factory; `learned` requires a policy= kwarg (see learned.py).

    `initial_cwnd` / `initial_ssthresh` are accepted for every rule-based
    controller and applied after construction (e.g. to model a sender that
    has already converged past slow start).
    """
    if name == "learned":
        from .learned import LearnedController
        return LearnedController(**constants)
    init_cwnd = constants.pop("initial_cwnd", None)
    init_ssthresh = constants.pop("initial_ssthresh", None)
    try:
        cls = RULE_BASED[name]
    except KeyError:
        raise ValueError(f"unknown controller {name!r}; "
                         f"expected one of {sorted(RULE_BASED) + ['learned']}")
    ctl = cls(**constants)
    if init_cwnd is not None:
        ctl.cwnd = float(init_cwnd)
    if init_ssthresh is not None:
        ctl.ssthresh = float(init_ssthresh)
        if isinstance(ctl, Lp):   # Lp's window lives in its inner Reno
            ctl._reno.ssthresh = ctl.ssthresh
    return ctl
