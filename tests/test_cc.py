"""Controller state machines: phase transitions, window math, LP filter, BBR-lite."""

import math

import pytest
from hypothesis import given, strategies as st

from ccprobe import cc
from ccprobe.cc import (RULE_BASED, AckInfo, BbrLite, Cubic, Illinois, Lp,
                        LpFilterState, LpIndication, LossKind, Phase, Reno,
                        Vegas, cubic_window, make_controller)
from ccprobe.netsim import BandwidthTrace, SimConfig, run_episode


def ack(now=0.0, rtt=20.0, n=1, min_rtt=20.0, srtt=None, owd=None):
    return AckInfo(now_ms=now, rtt_ms=rtt, owd_ms=owd if owd is not None else rtt - 10.0,
                   acked_packets=n, acked_bytes=n * 1500, min_rtt_ms=min_rtt,
                   min_owd_ms=10.0, srtt_ms=srtt if srtt is not None else rtt)


# --- Reno --------------------------------------------------------------------

def test_reno_slow_start_doubles_per_rtt():
    c = Reno()
    start = c.cwnd
    c.on_ack(ack(n=int(start)))  # one RTT's worth of ACKs
    assert c.cwnd == 2 * start
    assert c.phase is Phase.SLOW_START


def test_reno_congestion_avoidance_linear():
    c = Reno()
    c.phase = Phase.CONGESTION_AVOIDANCE
    c.cwnd = 10.0
    for _ in range(10):
        c.on_ack(ack())
    # ~1 packet per cwnd-worth of ACKs
    assert c.cwnd == pytest.approx(11.0, abs=0.05)


def test_reno_triple_dup_halves():
    c = Reno()
    c.cwnd = 40.0
    c.on_loss(LossKind.TRIPLE_DUP_ACK)
    assert c.cwnd == 20.0
    assert c.phase is Phase.FAST_RECOVERY
    c.on_ack(ack())
    assert c.phase is Phase.CONGESTION_AVOIDANCE


def test_reno_timeout_resets_to_one():
    c = Reno()
    c.cwnd = 40.0
    c.on_loss(LossKind.TIMEOUT)
    assert c.cwnd == 1.0
    assert c.ssthresh == 20.0
    assert c.phase is Phase.SLOW_START


# --- Cubic -------------------------------------------------------------------

def test_cubic_window_plateau_at_wmax():
    # W(K) == w_max by construction
    for w_max in (10.0, 55.5, 300.0):
        k = (w_max * 0.3 / 0.4) ** (1.0 / 3.0)
        assert cubic_window(k, w_max) == pytest.approx(w_max, rel=1e-12)


def test_cubic_window_concave_then_convex():
    w_max = 100.0
    k = (w_max * 0.3 / 0.4) ** (1.0 / 3.0)
    assert cubic_window(0.0, w_max) < w_max
    assert cubic_window(2 * k, w_max) > w_max


def test_cubic_backoff_factor():
    c = Cubic()
    c.phase = Phase.CONGESTION_AVOIDANCE
    c.cwnd = 100.0
    c.on_loss(LossKind.TRIPLE_DUP_ACK)
    assert c.cwnd == pytest.approx(70.0)
    assert c.w_max == 100.0


# --- Vegas -------------------------------------------------------------------

def test_vegas_diff_oracle():
    v = Vegas()
    v.base_rtt_ms = 20.0
    v.cwnd = 40.0
    # expected = cwnd/base, actual = cwnd/rtt; diff in packets
    rtt = 25.0
    expect = (40.0 / 0.020 - 40.0 / 0.025) * 0.020
    assert v.vegas_diff(rtt) == pytest.approx(expect, rel=1e-12)


def test_vegas_steers_between_alpha_beta():
    v = Vegas()
    v.phase = Phase.CONGESTION_AVOIDANCE
    v.cwnd = 40.0
    # large diff -> decrease
    v.base_rtt_ms = 20.0
    v.on_ack(ack(now=100.0, rtt=40.0, min_rtt=20.0))
    assert v.cwnd == 39.0
    # tiny diff -> increase (next adjustment window)
    v.on_ack(ack(now=200.0, rtt=20.0, min_rtt=20.0))
    assert v.cwnd == 40.0


def test_vegas_tracks_visible_min_rtt():
    v = Vegas()
    v.on_ack(ack(rtt=20.0, min_rtt=14.0))
    assert v.base_rtt_ms == 14.0


# --- Illinois ----------------------------------------------------------------

def test_illinois_alpha_beta_bounds():
    c = Illinois()
    c.base_rtt_ms = 20.0
    c.max_rtt_ms = 120.0
    for avg in (0.0, 1.0, 30.0, 70.0, 100.0):
        c.avg_delay_ms = avg
        alpha, beta = c._delay_params()
        assert 0.3 <= alpha <= 10.0
        assert 0.125 <= beta <= 0.5


def test_illinois_aggressive_when_delay_low():
    c = Illinois()
    c.base_rtt_ms = 20.0
    c.max_rtt_ms = 120.0
    c.avg_delay_ms = 0.5
    a_low, b_low = c._delay_params()
    c.avg_delay_ms = 90.0
    a_high, b_high = c._delay_params()
    assert a_low > a_high
    assert b_low <= b_high


# --- LP ----------------------------------------------------------------------

def test_lp_filter_threshold_is_15pct_of_range():
    s = LpFilterState()
    for owd in (10.0, 30.0):
        s.update(owd)
    assert s.threshold_ms() == pytest.approx(10.0 + 0.15 * 20.0)


def test_lp_filter_ewma_oracle():
    s = LpFilterState()
    samples = [10.0, 12.0, 20.0, 14.0]
    expect = None
    for x in samples:
        s.update(x)
        expect = x if expect is None else expect + (x - expect) / 8.0
    assert s.sowd_ms == pytest.approx(expect, rel=1e-12)


def test_lp_indication_sequence():
    s = LpFilterState(min_range_ms=3.0)
    # establish a 10..30 range, sowd low
    for _ in range(50):
        s.update(10.0)
    s.update(30.0)
    # drive sowd above threshold: first crossing -> FIRST, inside window -> SECOND
    inds = []
    for i in range(60):
        inds.append(s.check(30.0, now_ms=float(i), inference_window_ms=100.0))
    assert LpIndication.FIRST in inds
    first_at = inds.index(LpIndication.FIRST)
    assert inds[first_at + 1] is LpIndication.SECOND


def test_lp_filter_disarmed_below_min_range():
    s = LpFilterState(min_range_ms=3.0)
    for _ in range(20):
        assert s.check(10.5, now_ms=0.0) is LpIndication.NONE
    # 0.5 ms of spread never arms the threshold
    assert s.owd_max_ms - s.owd_min_ms < 3.0


def test_lp_controller_backs_off_without_loss(short_sim, const_trace):
    ctl = Lp()
    log = run_episode(short_sim, const_trace, ctl)
    # every indication is a first or a second one
    assert ctl.first_indications + ctl.second_indications == ctl.indications >= 1


def test_lp_grace_period_blocks_immediate_recheck():
    ctl = Lp()
    ctl.filter.owd_min_ms = 10.0
    for _ in range(50):
        ctl.filter.update(10.0)
    ctl.filter.update(40.0)
    ctl.on_ack(ack(now=1000.0, rtt=50.0, owd=40.0, srtt=50.0))
    assert ctl.indications == 1
    cwnd_after_first = ctl.cwnd
    # within two smoothed RTTs the filter only updates, never re-fires
    ctl.on_ack(ack(now=1010.0, rtt=50.0, owd=40.0, srtt=50.0))
    assert ctl.indications == 1
    assert ctl.cwnd >= cwnd_after_first


# --- BBR-lite ----------------------------------------------------------------

def test_bbrlite_monotone_deques_match_bruteforce():
    import random
    rnd = random.Random(0)
    b = BbrLite()
    bws, rtts = [], []
    for i in range(200):
        t = float(i * 10)
        bw = rnd.uniform(1e6, 1e8)
        rtt = rnd.uniform(20.0, 200.0)
        bws.append(bw)
        rtts.append(rtt)
        b._push_bw(t, bw)
        b._push_rtt(t, rtt)
        # un-pruned deque fronts are the running extrema
        assert b.bw_estimate_bps() == max(bws)
        assert b.rtt_samples[0][1] == min(rtts)
        # deque ordering invariants
        assert all(x > y for (_, x), (_, y) in
                   zip(b.bw_samples, list(b.bw_samples)[1:]))
        assert all(x < y for (_, x), (_, y) in
                   zip(b.rtt_samples, list(b.rtt_samples)[1:]))


def test_bbrlite_tracks_capacity():
    sim = SimConfig(episode_duration_s=15.0)
    trace = BandwidthTrace(100.0, [48.0] * 150)
    log = run_episode(sim, trace, BbrLite())
    assert log.mean_utilization() > 0.85
    assert log.dropped == 0


def test_bbrlite_gain_cycle_shape():
    assert BbrLite.GAIN_CYCLE[0] == 1.25
    assert BbrLite.GAIN_CYCLE[1] == 0.75
    assert all(g == 1.0 for g in BbrLite.GAIN_CYCLE[2:])
    assert len(BbrLite.GAIN_CYCLE) == 8


# --- state in C ----------------------------------------------------------------

def _struct_field(obj, path):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def test_field_views_round_trip():
    # every struct-field attribute reads and writes the field its path names,
    # on the controllers (cc_state.w.*, cc_state.*), on an LP filter of its
    # own (_f.*) and on the view of an Lp controller's filter
    lp = make_controller("lp")
    views = [make_controller(name) for name in RULE_BASED]
    views += [LpFilterState(), lp.filter]
    for view in views:
        fields = {name: attr for cls in reversed(type(view).__mro__)
                  for name, attr in vars(cls).items()
                  if isinstance(attr, cc._Field)}
        assert fields, type(view)
        for i, (name, attr) in enumerate(sorted(fields.items())):
            path = attr.get.__reduce__()[1][0]   # the path the attrgetter walks
            if isinstance(attr, cc._PhaseField):
                value, raw = Phase.FAST_RECOVERY, cc._PHASE_CODE[Phase.FAST_RECOVERY]
            elif isinstance(getattr(view, name), int):
                value = raw = 3 + i
            else:
                value = raw = 0.25 + i
            setattr(view, name, value)
            assert _struct_field(view, path) == raw, (type(view), name)
            assert getattr(view, name) == value, (type(view), name)
    # the view writes through to the controller's own filter
    lp.filter.owd_max_ms = 99.5
    assert lp.cc_state.filter.owd_max_ms == 99.5
    assert lp.filter.owd_max_ms == 99.5


# --- factory -----------------------------------------------------------------

def test_factory_names():
    for name, cls in (("reno", Reno), ("cubic", Cubic), ("vegas", Vegas),
                      ("illinois", Illinois), ("lp", Lp), ("bbrlite", BbrLite)):
        assert isinstance(make_controller(name), cls)


def test_factory_rejects_unknown():
    with pytest.raises(ValueError, match="unknown controller"):
        make_controller("newreno")


def test_factory_constant_overrides():
    c = make_controller("cubic", beta=0.5)
    assert c.beta == 0.5
    c = make_controller("reno", initial_cwnd=50.0, initial_ssthresh=100.0)
    assert c.cwnd == 50.0
    assert c.ssthresh == 100.0
    lp = make_controller("lp", initial_ssthresh=64.0)
    assert lp.cc_state.reno.ssthresh == 64.0


@given(st.floats(min_value=1.0, max_value=1000.0),
       st.floats(min_value=0.0, max_value=10.0))
def test_cubic_window_passes_through_wmax_at_k(w_max, t):
    # W is monotone in t around K and exact at K
    k = (w_max * 0.3 / 0.4) ** (1.0 / 3.0)
    assert cubic_window(k, w_max) == pytest.approx(w_max, rel=1e-9)
    if t < k:
        assert cubic_window(t, w_max) <= w_max + 1e-9
