"""Test-side drivers of the C that the tick loop runs, one call at a time: a
controller's per-ACK and per-loss callbacks, an adversary's interval step,
and a C function that writes its one result through a pointer."""

import numpy as np

from ccprobe.netsim import _ffi, _lib, domain_check, obs_row


def on_ack(ctl, ack) -> None:
    """`cc_on_ack` on `ctl.cc_state` for one ACK batch, `ack` the fields of a
    `tl_ackinfo` in order: now_ms, rtt_ms, owd_ms, acked_packets,
    acked_bytes, min_rtt_ms, min_owd_ms, srtt_ms and min_rtt_scale."""
    if _lib.cc_on_ack(ctl.cc_state, _ffi.new("tl_ackinfo *", ack)):
        raise MemoryError("no memory left for BBR-lite's sample deques")


def on_loss(ctl, timeout: bool = False) -> None:
    _lib.cc_on_loss(ctl.cc_state, timeout)


def adv_step(adv, obs) -> float:
    """The loop's boundary step of one adversary, outside it: the next
    capacity or min-RTT scale."""
    s = adv.adv_state
    _lib.tl_adv_observe(s, obs_row(obs))
    x, out = np.array([list(s.x)[:adv.n_features]]), np.zeros(1)
    adv.lockstep([adv], x, out)()
    s.out = out[0]
    return _lib.tl_adv_act(s)


def c_double(fn, *args) -> float:
    """The double `fn(*args, double *out)` writes; DomainError for a
    TL_DOMAIN_* code."""
    out = _ffi.new("double *")
    domain_check(fn(*args, out))
    return out[0]
