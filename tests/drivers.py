"""Test-side drivers of the C that the tick loop runs, one call at a time: a
controller's per-ACK and per-loss callbacks, a learned controller's and an
adversary's interval step, and a C function that writes its one result
through a pointer."""

from ccprobe.learned import observation_features
from ccprobe.netsim import _ffi, _lib, _lockstep, domain_check


def obs_row(obs):
    """`obs`, an `oracles.Obs`, as a C `tl_obs` row."""
    return _ffi.new("tl_obs *", obs[1:])


def on_ack(ctl, ack) -> None:
    """`cc_on_ack` on `ctl.cc_state` for one ACK batch, `ack` the fields of a
    `tl_ackinfo` in order: now_ms, rtt_ms, owd_ms, acked_packets,
    acked_bytes, min_rtt_ms, min_owd_ms, srtt_ms and min_rtt_scale."""
    if _lib.cc_on_ack(ctl.cc_state, _ffi.new("tl_ackinfo *", ack)):
        raise MemoryError("no memory left for BBR-lite's sample deques")


def on_loss(ctl, timeout: bool = False) -> None:
    _lib.cc_on_loss(ctl.cc_state, timeout)


def learned_step(ctl, obs) -> None:
    """A learned controller's interval step on `obs`, outside the loop: C's
    TL_LINEAR step, or its hidden-layer policy's output on the observation's
    features, then `cc_learned_step`."""
    if ctl.cc_state.kind == _lib.TL_LINEAR:
        _lib.cc_on_interval(ctl.cc_state, obs_row(obs))
        return
    feats = observation_features(obs_row(obs), ctl.b_max, ctl.prev_action)
    _lib.cc_learned_step(ctl.cc_state, ctl.policy.output(feats))


def adv_step(adv, obs) -> float:
    """The loop's boundary step of one adversary, outside it: the next
    capacity or min-RTT scale, from its policy's output on `obs` or, with no
    policy, as C draws it."""
    if adv.adv_state.has_policy:
        hook = _lockstep([adv], "adv_state")   # points `adv_state` at its buffers
        _lib.tl_adv_observe(adv.adv_state, obs_row(obs))
        hook()
    return _lib.tl_adv_act(adv.adv_state)


def c_double(fn, *args) -> float:
    """The double `fn(*args, double *out)` writes; DomainError for a
    TL_DOMAIN_* code."""
    out = _ffi.new("double *")
    domain_check(fn(*args, out))
    return out[0]
