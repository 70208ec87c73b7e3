"""Congestion controllers behind one interface, each a view of a C `tl_cc`.

Reno, Cubic, Vegas, Illinois, LP and a simplified BBR ("BBR-lite", no
ProbeRTT state, fixed 8-phase gain cycle). All controllers run in the same
tick loop, so the same trace or perturbation applies uniformly across
algorithms.

The six are implemented once, in C (`_tickloop.c`). Every controller is a
`Controller`, which owns one `tl_cc` struct, `cc_state`, that the tick loop
reads cwnd and pacing from. The six keep their constants and state there,
and the loop updates it inline per ACK batch and per loss reaction; no
Python method drives them. `cwnd`, `ssthresh` and LP's `indications` are
views of the struct's fields, and any other state is read from `cc_state`
itself. So on a trace, with no intercept, their episodes never return to
Python before the end. The learned controller with a linear policy runs in
the loop the same way (`learned.py`), and so does `Pinned` (TL_PINNED), whose
cwnd never moves. A learned controller whose policy has a hidden layer is
TL_HIDDEN: the loop returns to Python at each interval boundary for numpy
to run its policy, as for an adversary. No other `Controller` is run.

Constants not pinned by any single reference are taken from the canonical
kernel implementations and are overridable via the factory kwargs. Every
constant must be a finite number in its domain, or the constructor raises
ValueError.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator

from .netsim import _ffi, _lib


# no episode reads it; perfbench's tracer looks it up by name
class LossKind(enum.Enum):
    TRIPLE_DUP_ACK = "triple_dup_ack"
    TIMEOUT = "timeout"


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


# a zeroed `tl_cc`, freed together with its sample deques
_new_cc = _ffi.new_allocator(alloc=_lib.tl_cc_alloc, free=_lib.tl_cc_release)


class Controller:
    """Base controller: owns the C `tl_cc`, `cc_state`, that the tick loop
    reads cwnd (packets, fractional) and pacing from, and acts on alone;
    `cc_init` makes it a `KIND` controller, then `fields` are set on it."""

    name = "base"
    cwnd = _Field("cc_state.w.cwnd")

    def __init__(self, **fields):
        self.cc_state = _new_cc("tl_cc *")
        _lib.cc_init(self.cc_state, self.KIND)
        for field, value in fields.items():
            setattr(self.cc_state, field, value)


class RuleController(Controller):
    """A controller whose constants and state are one C `tl_cc`, `cc_state`,
    which the tick loop updates per ACK batch and per loss reaction."""

    ssthresh = _Field("cc_state.w.ssthresh")


class Reno(RuleController):
    name = "reno"
    KIND = _lib.TL_RENO

    def __init__(self):   # no constants
        super().__init__()


def _check_cubic(c: float, beta: float) -> None:
    if not (c > 0 and 0 < beta < 1):
        raise ValueError(f"cubic needs c > 0 and 0 < beta < 1, "
                         f"got c={c!r}, beta={beta!r}")


class Cubic(RuleController):
    name = "cubic"
    KIND = _lib.TL_CUBIC

    def __init__(self, c: float = 0.4, beta: float = 0.7):
        c, beta = _finite(c=c, beta=beta)
        _check_cubic(c, beta)
        super().__init__(c=c, beta=beta)


class Vegas(RuleController):
    name = "vegas"
    KIND = _lib.TL_VEGAS

    def __init__(self, alpha: float = 2.0, beta: float = 4.0):
        alpha, beta = _finite(alpha=alpha, beta=beta)
        if not 0 <= alpha <= beta:
            raise ValueError(f"vegas needs 0 <= alpha <= beta, "
                             f"got alpha={alpha!r}, beta={beta!r}")
        super().__init__(alpha=alpha, beta=beta)


class Illinois(RuleController):
    name = "illinois"
    KIND = _lib.TL_ILLINOIS

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


# LP's filter stays disarmed until the OWD range exceeds this floor
LP_MIN_RANGE_MS = 3.0


class Lp(RuleController):
    """Reno plus one-way-delay early congestion detection: the filter fires
    when sowd, an EWMA of the one-way delay, exceeds owd_min +
    threshold_fraction * (owd_max - owd_min), strictly. Counts its
    early-congestion indications in `indications`.
    """

    name = "lp"
    KIND = _lib.TL_LP
    indications = _Field("cc_state.indications")

    def __init__(self, threshold_fraction: float = 0.15, ewma_gain: float = 0.125):
        tf, gain = _finite(threshold_fraction=threshold_fraction, ewma_gain=ewma_gain)
        if not (0 <= tf <= 1 and 0 < gain <= 1):
            raise ValueError(f"lp needs 0 <= threshold_fraction <= 1 and "
                             f"0 < ewma_gain <= 1, got {tf!r}, {gain!r}")
        super().__init__()
        _lib.lp_filter_init(_ffi.addressof(self.cc_state, "filter"), tf, gain,
                            LP_MIN_RANGE_MS)


class BbrLite(RuleController):
    """Model-based controller: windowed max-bandwidth and min-RTT filters.

    cwnd = 2 x estimated BDP; pacing = gain x bandwidth estimate with the
    fixed cycle [1.25, 0.75, 1, 1, 1, 1, 1, 1] advanced once per min-RTT.
    """

    name = "bbrlite"
    KIND = _lib.TL_BBRLITE

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


class Pinned(Controller):
    """Oracle controller pinned at a fixed cwnd; used by tests and by
    `scripts/bench_netsim.py`. The tick loop ignores its ACKs and losses."""

    name = "pinned"
    KIND = _lib.TL_PINNED

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
