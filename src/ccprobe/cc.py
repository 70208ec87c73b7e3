"""Congestion controllers behind one interface, each a view of a C `tl_cc`.

Reno, Cubic, Vegas, Illinois, LP and a simplified BBR ("BBR-lite", no
ProbeRTT state, fixed 8-phase gain cycle). All controllers run in the same
tick loop and see the same Observations, so the same trace or perturbation
applies uniformly across algorithms.

The six are implemented once, in C (`_tickloop.c`). Every controller is a
`Controller`, which owns one `tl_cc` struct, `cc_state`, that the tick loop
reads cwnd and pacing from. The six keep their constants and state there,
and the loop updates it inline per ACK batch and per loss reaction. Their
attributes (`cwnd`, `ssthresh`, `phase`, `w_max`, `base_rtt_ms`, ...) are
views of the struct's fields, and `on_ack` / `on_loss` call the same C
functions the tick loop does. So on a trace, with no intercept, their
episodes never return to Python before the end. The learned controller with
a linear policy runs in the loop the same way (`learned.py`). Any other
controller (`Pinned`, a learned one whose policy has a hidden layer, any
other `Controller` subclass) is TL_EXTERNAL: it acts in `on_interval`, so
the tick loop returns to Python once per interval for it; ACKs and losses
reach it only through the interval's `Observation`.

Constants not pinned by any single reference are taken from the canonical
kernel implementations and are overridable via the factory kwargs. Every
constant must be a finite number in its domain, or the constructor raises
ValueError.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers
import operator

from .netsim import Observation, _ffi, _lib


class Phase(enum.Enum):
    SLOW_START = "slow_start"
    CONGESTION_AVOIDANCE = "congestion_avoidance"
    FAST_RECOVERY = "fast_recovery"
    LP_INFERENCE = "lp_inference"


class LossKind(enum.Enum):
    TRIPLE_DUP_ACK = "triple_dup_ack"
    TIMEOUT = "timeout"


class LpIndication(enum.Enum):
    NONE = "none"
    FIRST = "first_indication"
    SECOND = "second_indication"


_PHASE_OF = {_lib.TL_SLOW_START: Phase.SLOW_START,
             _lib.TL_CONGESTION_AVOIDANCE: Phase.CONGESTION_AVOIDANCE,
             _lib.TL_FAST_RECOVERY: Phase.FAST_RECOVERY,
             _lib.TL_LP_INFERENCE: Phase.LP_INFERENCE}
_PHASE_CODE = {phase: code for code, phase in _PHASE_OF.items()}
_INDICATION_OF = {_lib.TL_LP_NONE: LpIndication.NONE,
                  _lib.TL_LP_FIRST: LpIndication.FIRST,
                  _lib.TL_LP_SECOND: LpIndication.SECOND}

def _finite(**constants) -> list[float]:
    """The constants as floats; ValueError unless each is a finite real."""
    out = []
    for name, value in constants.items():
        x = math.nan
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            try:
                x = float(value)
            except OverflowError:
                pass
        if not math.isfinite(x):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        out.append(x)
    return out


class _Field:
    """An attribute that is a C struct field, named by its path from the
    object, e.g. "cc_state.w.cwnd"."""

    def __init__(self, path: str):
        parent, self.name = path.rsplit(".", 1)
        self.get = operator.attrgetter(path)
        self.parent = operator.attrgetter(parent)

    def __get__(self, obj, cls=None):
        return self if obj is None else self.get(obj)

    def __set__(self, obj, value):
        setattr(self.parent(obj), self.name, value)


class _PhaseField(_Field):
    def __get__(self, obj, cls=None):
        return self if obj is None else _PHASE_OF[super().__get__(obj)]

    def __set__(self, obj, phase: Phase):
        super().__set__(obj, _PHASE_CODE[phase])


# a zeroed `tl_cc`, freed together with its sample deques
_new_cc = _ffi.new_allocator(alloc=_lib.tl_cc_alloc, free=_lib.tl_cc_release)


class Controller:
    """Base controller: owns the C `tl_cc`, `cc_state`, that the tick loop
    reads cwnd (packets, fractional) and pacing from; `cc_init` sets the
    initial window, then `fields` are set on the struct.

    A Python controller subclasses this class, calls `super().__init__()`
    and acts in `on_interval`, which the loop, returning to Python at every
    interval boundary, calls at each interval's end. A `RuleController`
    instead has a `cc_state` that the loop updates per ACK
    batch and per loss reaction, and a linear `LearnedController` one that it
    steps per interval; neither's `on_interval` is called by the loop.
    """

    name = "base"
    KIND = _lib.TL_EXTERNAL
    cwnd = _Field("cc_state.w.cwnd")

    def __init__(self, **fields):
        self.cc_state = _new_cc("tl_cc *")
        _lib.cc_init(self.cc_state, self.KIND)
        for field, value in fields.items():
            setattr(self.cc_state, field, value)

    @property
    def pacing_rate_bps(self) -> float | None:
        return self.cc_state.pacing_bps if self.cc_state.paced else None

    def on_interval(self, obs: Observation) -> None:
        pass


def _grown(status: int) -> None:
    if status:
        raise MemoryError("no memory left for BBR-lite's sample deques")


def _samples(d) -> list[tuple[float, float]]:
    """The (t_ms, value) samples of a `tl_deque`, front first."""
    ring = (d.buf[(d.head + i) % d.cap] for i in range(d.len))
    return [(x.t_ms, x.value) for x in ring]


@dataclasses.dataclass(slots=True)
class AckInfo:
    """One ACK batch: the fields of the tick loop's `tl_ackinfo`, in order."""

    now_ms: float
    rtt_ms: float
    owd_ms: float
    acked_packets: int
    acked_bytes: int
    min_rtt_ms: float   # controller-visible running minimum (may be perturbed)
    min_owd_ms: float   # controller-visible minimum one-way delay
    srtt_ms: float
    min_rtt_scale: float = 1.0  # intercept multiplier applied to min estimates


class RuleController(Controller):
    """A controller whose constants and state are one C `tl_cc`, `cc_state`.

    The tick loop runs the C functions on `cc_state` itself and never calls
    `on_ack` / `on_loss` / `on_interval`, not even a subclass's override.
    """

    ssthresh = _Field("cc_state.w.ssthresh")
    phase = _PhaseField("cc_state.w.phase")

    def on_ack(self, ack: AckInfo) -> None:
        _grown(_lib.cc_on_ack(self.cc_state,
                              _ffi.new("tl_ackinfo *", dataclasses.astuple(ack))))

    def on_loss(self, kind: LossKind) -> None:
        _lib.cc_on_loss(self.cc_state, kind is LossKind.TIMEOUT)


class Reno(RuleController):
    name = "reno"
    KIND = _lib.TL_RENO

    def __init__(self):   # no constants
        super().__init__()


def _check_cubic(c: float, beta: float) -> None:
    if not (c > 0 and 0 < beta < 1):
        raise ValueError(f"cubic needs c > 0 and 0 < beta < 1, "
                         f"got c={c!r}, beta={beta!r}")


def cubic_window(t_s: float, w_max: float, c: float = 0.4, beta: float = 0.7) -> float:
    """W(t) = C(t-K)^3 + w_max with K = cbrt(w_max(1-beta)/C); W(K) == w_max."""
    t_s, w_max, c, beta = _finite(t_s=t_s, w_max=w_max, c=c, beta=beta)
    _check_cubic(c, beta)
    if w_max < 0:
        raise ValueError(f"w_max must be >= 0, got {w_max!r}")
    return _lib.cubic_window(t_s, _lib.cubic_k(w_max, c, beta), w_max, c)


class Cubic(RuleController):
    name = "cubic"
    KIND = _lib.TL_CUBIC
    c = _Field("cc_state.c")
    beta = _Field("cc_state.beta")
    w_max = _Field("cc_state.w_max")

    def __init__(self, c: float = 0.4, beta: float = 0.7):
        c, beta = _finite(c=c, beta=beta)
        _check_cubic(c, beta)
        super().__init__(c=c, beta=beta)


class Vegas(RuleController):
    name = "vegas"
    KIND = _lib.TL_VEGAS
    alpha = _Field("cc_state.alpha")
    beta = _Field("cc_state.beta")
    base_rtt_ms = _Field("cc_state.base_rtt_ms")  # the visible min-RTT
    next_adjust_ms = _Field("cc_state.next_adjust_ms")

    def __init__(self, alpha: float = 2.0, beta: float = 4.0):
        alpha, beta = _finite(alpha=alpha, beta=beta)
        if not 0 <= alpha <= beta:
            raise ValueError(f"vegas needs 0 <= alpha <= beta, "
                             f"got alpha={alpha!r}, beta={beta!r}")
        super().__init__(alpha=alpha, beta=beta)

    def vegas_diff(self, rtt_ms: float) -> float:
        """(expected - actual) * base_rtt, in packets."""
        return _lib.vegas_diff(self.cc_state, rtt_ms)


class Illinois(RuleController):
    name = "illinois"
    KIND = _lib.TL_ILLINOIS
    alpha_min = _Field("cc_state.alpha_min")
    alpha_max = _Field("cc_state.alpha_max")
    beta_min = _Field("cc_state.beta_min")
    beta_max = _Field("cc_state.beta_max")
    base_rtt_ms = _Field("cc_state.base_rtt_ms")
    max_rtt_ms = _Field("cc_state.max_rtt_ms")
    rtt_sum = _Field("cc_state.rtt_sum")
    rtt_n = _Field("cc_state.rtt_n")
    avg_delay_ms = _Field("cc_state.avg_delay_ms")
    next_window_ms = _Field("cc_state.next_window_ms")

    def __init__(self, alpha_min: float = 0.3, alpha_max: float = 10.0,
                 beta_min: float = 0.125, beta_max: float = 0.5):
        bounds = _finite(alpha_min=alpha_min, alpha_max=alpha_max,
                         beta_min=beta_min, beta_max=beta_max)
        alpha_min, alpha_max, beta_min, beta_max = bounds
        if not (0 < alpha_min < alpha_max and 0 <= beta_min <= beta_max < 1):
            raise ValueError(f"illinois needs 0 < alpha_min < alpha_max and "
                             f"0 <= beta_min <= beta_max < 1, got {bounds}")
        super().__init__(alpha_min=alpha_min, alpha_max=alpha_max,
                         beta_min=beta_min, beta_max=beta_max)

    def _delay_params(self) -> tuple[float, float]:
        """Standard piecewise delay mapping for the AIMD coefficients."""
        out = _ffi.new("double[2]")
        _lib.illinois_params(self.cc_state, out, out + 1)
        return out[0], out[1]


# LP's filter stays disarmed until the OWD range exceeds this floor
LP_MIN_RANGE_MS = 3.0


def _lp_filter_init(f, threshold_fraction, ewma_gain, min_range_ms) -> None:
    tf, gain, floor = _finite(threshold_fraction=threshold_fraction,
                              ewma_gain=ewma_gain, min_range_ms=min_range_ms)
    if not (0 <= tf <= 1 and 0 < gain <= 1 and floor >= 0):
        raise ValueError(f"lp needs 0 <= threshold_fraction <= 1, "
                         f"0 < ewma_gain <= 1 and min_range_ms >= 0, "
                         f"got {tf!r}, {gain!r}, {floor!r}")
    _lib.lp_filter_init(f, tf, gain, floor)


class LpFilterState:
    """One-way-delay early-congestion filter used by TCP LP: a view of a C
    `tl_lp_filter`, its own or an `Lp` controller's (`Lp.filter`).

    sowd is an EWMA of owd (gain 1/8); owd_min / owd_max are running
    extremes. The early-congestion condition fires when
    sowd > owd_min + threshold_fraction * (owd_max - owd_min), strictly.
    """

    threshold_fraction = _Field("_f.threshold_fraction")
    ewma_gain = _Field("_f.ewma_gain")
    min_range_ms = _Field("_f.min_range_ms")
    owd_ms = _Field("_f.owd_ms")
    owd_min_ms = _Field("_f.owd_min_ms")
    owd_max_ms = _Field("_f.owd_max_ms")
    in_inference = _Field("_f.in_inference")
    inference_until_ms = _Field("_f.inference_until_ms")

    def __init__(self, threshold_fraction: float = 0.15, ewma_gain: float = 0.125,
                 min_range_ms: float = LP_MIN_RANGE_MS):
        self._f = _ffi.new("tl_lp_filter *")
        _lp_filter_init(self._f, threshold_fraction, ewma_gain, min_range_ms)

    @classmethod
    def _of(cls, cc_state) -> LpFilterState:
        view = cls.__new__(cls)
        view._owner = cc_state   # keeps the struct alive
        view._f = _ffi.addressof(cc_state, "filter")
        return view

    @property
    def sowd_ms(self) -> float | None:
        return self._f.sowd_ms if self._f.has_sowd else None

    def threshold_ms(self) -> float:
        return _lib.lp_filter_threshold(self._f)

    def update(self, owd_sample_ms: float) -> None:
        """Advance the delay filters without evaluating the indication."""
        _lib.lp_filter_update(self._f, owd_sample_ms)

    def check(self, owd_sample_ms: float, now_ms: float = 0.0,
              inference_window_ms: float = 0.0) -> LpIndication:
        return _INDICATION_OF[_lib.lp_filter_check(self._f, owd_sample_ms, now_ms,
                                                   inference_window_ms)]


class Lp(RuleController):
    """Reno plus one-way-delay early congestion detection.

    Counts its early-congestion indications in `indications`, by kind in
    `first_indications` and `second_indications`.
    """

    name = "lp"
    KIND = _lib.TL_LP
    indications = _Field("cc_state.indications")
    first_indications = _Field("cc_state.first_indications")
    second_indications = _Field("cc_state.second_indications")

    def __init__(self, threshold_fraction: float = 0.15, ewma_gain: float = 0.125):
        super().__init__()
        _lp_filter_init(_ffi.addressof(self.cc_state, "filter"),
                        threshold_fraction, ewma_gain, LP_MIN_RANGE_MS)

    @property
    def filter(self) -> LpFilterState:
        return LpFilterState._of(self.cc_state)


class BbrLite(RuleController):
    """Model-based controller: windowed max-bandwidth and min-RTT filters.

    cwnd = 2 x estimated BDP; pacing = gain x bandwidth estimate with the
    fixed cycle [1.25, 0.75, 1, 1, 1, 1, 1, 1] advanced once per min-RTT.
    """

    GAIN_CYCLE = tuple(_lib.tl_gain_cycle)

    name = "bbrlite"
    KIND = _lib.TL_BBRLITE
    bw_window_rtts = _Field("cc_state.bw_window_rtts")
    rtt_window_ms = _Field("cc_state.rtt_window_ms")
    packet_size = _Field("cc_state.packet_size")
    gain_index = _Field("cc_state.gain_index")
    next_gain_advance_ms = _Field("cc_state.next_gain_advance_ms")
    min_rtt_scale = _Field("cc_state.min_rtt_scale")

    def __init__(self, bw_window_rtts: int = 10, rtt_window_s: float = 10.0,
                 packet_size: int = 1500):
        constants = _finite(bw_window_rtts=bw_window_rtts,
                            rtt_window_s=rtt_window_s, packet_size=packet_size)
        if not all(x > 0 for x in constants):
            raise ValueError(f"bbrlite needs bw_window_rtts, rtt_window_s and "
                             f"packet_size > 0, got {constants}")
        bw_window_rtts, rtt_window_s, packet_size = constants
        super().__init__(bw_window_rtts=bw_window_rtts,
                         rtt_window_ms=rtt_window_s * 1000.0,
                         packet_size=packet_size)

    @property
    def bw_samples(self) -> list[tuple[float, float]]:
        """(t_ms, bps), strictly decreasing: the front is the windowed max."""
        return _samples(self.cc_state.bw)

    @property
    def rtt_samples(self) -> list[tuple[float, float]]:
        """(t_ms, ms), strictly increasing: the front is the windowed min."""
        return _samples(self.cc_state.rtt)

    def bw_estimate_bps(self) -> float:
        return _lib.bbr_bw_estimate(self.cc_state)

    def _push_bw(self, t: float, bw: float) -> None:
        _grown(_lib.bbr_push_bw(self.cc_state, t, bw))

    def _push_rtt(self, t: float, rtt: float) -> None:
        _grown(_lib.bbr_push_rtt(self.cc_state, t, rtt))


class Pinned(Controller):
    """Oracle controller pinned at a fixed cwnd; used by tests and by
    `scripts/bench_netsim.py`."""

    name = "pinned"

    def __init__(self, cwnd: float):
        super().__init__()
        self.cwnd = max(1.0, cwnd)


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

    `initial_cwnd` (>= 1) / `initial_ssthresh` (>= 2) are accepted for every
    rule-based controller and applied after construction (e.g. to model a
    sender that has already converged past slow start).
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
        ctl.cwnd, = _finite(initial_cwnd=init_cwnd)
        if ctl.cwnd < 1:
            raise ValueError(f"initial_cwnd must be >= 1, got {init_cwnd!r}")
    if init_ssthresh is not None:
        ctl.ssthresh, = _finite(initial_ssthresh=init_ssthresh)
        if ctl.ssthresh < 2:
            raise ValueError(f"initial_ssthresh must be >= 2, got {init_ssthresh!r}")
        if isinstance(ctl, Lp):   # Lp's window grows in its inner Reno
            ctl.cc_state.reno.ssthresh = ctl.ssthresh
    return ctl
