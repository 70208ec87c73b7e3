"""Controller state machines: phase transitions, window math, LP filter,
BBR-lite, driven through the C callbacks the tick loop calls."""

import pytest
from hypothesis import given, strategies as st

from ccprobe import cc
from ccprobe.cc import (RULE_BASED, BbrLite, Cubic, Illinois, Lp, Reno, Vegas,
                        make_controller)
from ccprobe.learned import LearnedController, PolicyNet
from ccprobe.metrics import build_report
from ccprobe.netsim import BandwidthTrace, SimConfig, _ffi, _lib, run_episode
from drivers import on_ack, on_loss


def ack(now=0.0, rtt=20.0, n=1, min_rtt=20.0, srtt=None, owd=None):
    """One ACK batch: the fields of a `tl_ackinfo`, in order."""
    return (now, rtt, owd if owd is not None else rtt - 10.0, n, n * 1500,
            min_rtt, 10.0, srtt if srtt is not None else rtt, 1.0)


def phase(ctl):
    return ctl.cc_state.w.phase


# --- Reno --------------------------------------------------------------------

def test_reno_slow_start_doubles_per_rtt():
    c = Reno()
    start = c.cwnd
    on_ack(c, ack(n=int(start)))  # one RTT's worth of ACKs
    assert c.cwnd == 2 * start
    assert phase(c) == _lib.TL_SLOW_START


def test_reno_congestion_avoidance_linear():
    c = Reno()
    c.cc_state.w.phase = _lib.TL_CONGESTION_AVOIDANCE
    c.cwnd = 10.0
    for _ in range(10):
        on_ack(c, ack())
    # ~1 packet per cwnd-worth of ACKs
    assert c.cwnd == pytest.approx(11.0, abs=0.05)


def test_reno_triple_dup_halves():
    c = Reno()
    c.cwnd = 40.0
    on_loss(c)
    assert c.cwnd == 20.0
    assert phase(c) == _lib.TL_FAST_RECOVERY
    on_ack(c, ack())
    assert phase(c) == _lib.TL_CONGESTION_AVOIDANCE


def test_reno_timeout_resets_to_one():
    c = Reno()
    c.cwnd = 40.0
    on_loss(c, timeout=True)
    assert c.cwnd == 1.0
    assert c.ssthresh == 20.0
    assert phase(c) == _lib.TL_SLOW_START


# --- Cubic -------------------------------------------------------------------

def cubic_window(t_s, w_max, c=0.4, beta=0.7):
    """W(t) = C(t-K)^3 + w_max with K = cbrt(w_max(1-beta)/C)."""
    return _lib.cubic_window(t_s, _lib.cubic_k(w_max, c, beta), w_max, c)


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
    c.cc_state.w.phase = _lib.TL_CONGESTION_AVOIDANCE
    c.cwnd = 100.0
    on_loss(c)
    assert c.cwnd == pytest.approx(70.0)
    assert c.cc_state.w_max == 100.0


# --- Vegas -------------------------------------------------------------------

def test_vegas_diff_oracle():
    v = Vegas()
    v.cc_state.base_rtt_ms = 20.0
    v.cwnd = 40.0
    # expected = cwnd/base, actual = cwnd/rtt; diff in packets
    rtt = 25.0
    expect = (40.0 / 0.020 - 40.0 / 0.025) * 0.020
    assert _lib.vegas_diff(v.cc_state, rtt) == pytest.approx(expect, rel=1e-12)


def test_vegas_steers_between_alpha_beta():
    v = Vegas()
    v.cc_state.w.phase = _lib.TL_CONGESTION_AVOIDANCE
    v.cwnd = 40.0
    # large diff -> decrease
    v.cc_state.base_rtt_ms = 20.0
    on_ack(v, ack(now=100.0, rtt=40.0, min_rtt=20.0))
    assert v.cwnd == 39.0
    # tiny diff -> increase (next adjustment window)
    on_ack(v, ack(now=200.0, rtt=20.0, min_rtt=20.0))
    assert v.cwnd == 40.0


def test_vegas_tracks_visible_min_rtt():
    v = Vegas()
    on_ack(v, ack(rtt=20.0, min_rtt=14.0))
    assert v.cc_state.base_rtt_ms == 14.0


# --- Illinois ----------------------------------------------------------------

def illinois_params(ctl):
    """The piecewise delay mapping's AIMD coefficients (alpha, beta)."""
    out = _ffi.new("double[2]")
    _lib.illinois_params(ctl.cc_state, out, out + 1)
    return out[0], out[1]


def test_illinois_alpha_beta_bounds():
    c = Illinois()
    c.cc_state.base_rtt_ms = 20.0
    c.cc_state.max_rtt_ms = 120.0
    for avg in (0.0, 1.0, 30.0, 70.0, 100.0):
        c.cc_state.avg_delay_ms = avg
        alpha, beta = illinois_params(c)
        assert 0.3 <= alpha <= 10.0
        assert 0.125 <= beta <= 0.5


def test_illinois_aggressive_when_delay_low():
    c = Illinois()
    c.cc_state.base_rtt_ms = 20.0
    c.cc_state.max_rtt_ms = 120.0
    c.cc_state.avg_delay_ms = 0.5
    a_low, b_low = illinois_params(c)
    c.cc_state.avg_delay_ms = 90.0
    a_high, b_high = illinois_params(c)
    assert a_low > a_high
    assert b_low <= b_high


# --- LP ----------------------------------------------------------------------

def lp_filter():
    """A `tl_lp_filter` at LP's defaults: threshold 15% of the OWD range,
    EWMA gain 1/8, disarmed below a 3 ms range."""
    f = _ffi.new("tl_lp_filter *")
    _lib.lp_filter_init(f, 0.15, 0.125, cc.LP_MIN_RANGE_MS)
    return f


def test_lp_filter_threshold_is_15pct_of_range():
    f = lp_filter()
    for owd in (10.0, 30.0):
        _lib.lp_filter_update(f, owd)
    assert _lib.lp_filter_threshold(f) == pytest.approx(10.0 + 0.15 * 20.0)


def test_lp_filter_ewma_oracle():
    f = lp_filter()
    samples = [10.0, 12.0, 20.0, 14.0]
    expect = None
    for x in samples:
        _lib.lp_filter_update(f, x)
        expect = x if expect is None else expect + (x - expect) / 8.0
    assert f.has_sowd and f.sowd_ms == pytest.approx(expect, rel=1e-12)


def test_lp_indication_sequence():
    f = lp_filter()
    # establish a 10..30 range, sowd low
    for _ in range(50):
        _lib.lp_filter_update(f, 10.0)
    _lib.lp_filter_update(f, 30.0)
    # drive sowd above threshold: first crossing -> FIRST, inside window -> SECOND
    inds = [_lib.lp_filter_check(f, 30.0, float(i), 100.0) for i in range(60)]
    assert _lib.TL_LP_FIRST in inds
    first_at = inds.index(_lib.TL_LP_FIRST)
    assert inds[first_at + 1] == _lib.TL_LP_SECOND


def test_lp_filter_disarmed_below_min_range():
    f = lp_filter()
    for _ in range(20):
        assert _lib.lp_filter_check(f, 10.5, 0.0, 0.0) == _lib.TL_LP_NONE
    # 0.5 ms of spread never arms the threshold
    assert f.owd_max_ms - f.owd_min_ms < 3.0


def test_lp_controller_backs_off_without_loss(short_sim, const_trace):
    ctl = Lp()
    log = run_episode(short_sim, const_trace, ctl)
    # every indication is a first or a second one
    s = ctl.cc_state
    assert s.first_indications + s.second_indications == ctl.indications >= 1


def test_lp_grace_period_blocks_immediate_recheck():
    ctl = Lp()
    f = _ffi.addressof(ctl.cc_state, "filter")
    f.owd_min_ms = 10.0
    for _ in range(50):
        _lib.lp_filter_update(f, 10.0)
    _lib.lp_filter_update(f, 40.0)
    on_ack(ctl, ack(now=1000.0, rtt=50.0, owd=40.0, srtt=50.0))
    assert ctl.indications == 1
    cwnd_after_first = ctl.cwnd
    # within two smoothed RTTs the filter only updates, never re-fires
    on_ack(ctl, ack(now=1010.0, rtt=50.0, owd=40.0, srtt=50.0))
    assert ctl.indications == 1
    assert ctl.cwnd >= cwnd_after_first


# --- BBR-lite ----------------------------------------------------------------

def samples(d):
    """The (t_ms, value) samples of a `tl_deque`, front first."""
    ring = (d.buf[(d.head + i) % d.cap] for i in range(d.len))
    return [(x.t_ms, x.value) for x in ring]


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
        assert _lib.bbr_push_bw(b.cc_state, t, bw) == 0
        assert _lib.bbr_push_rtt(b.cc_state, t, rtt) == 0
        bw_samples, rtt_samples = samples(b.cc_state.bw), samples(b.cc_state.rtt)
        # un-pruned deque fronts are the running extrema
        assert _lib.bbr_bw_estimate(b.cc_state) == max(bws)
        assert rtt_samples[0][1] == min(rtts)
        # deque ordering invariants
        assert all(x > y for (_, x), (_, y) in zip(bw_samples, bw_samples[1:]))
        assert all(x < y for (_, x), (_, y) in zip(rtt_samples, rtt_samples[1:]))


def test_bbrlite_tracks_capacity():
    sim = SimConfig(episode_duration_s=15.0)
    trace = BandwidthTrace(100.0, [48.0] * 150)
    log = run_episode(sim, trace, BbrLite())
    assert build_report(log).utilization > 0.85
    assert log.dropped == 0


def test_bbrlite_gain_cycle_shape():
    assert tuple(_lib.tl_gain_cycle) == (1.25, 0.75) + (1.0,) * 6


# --- state in C ----------------------------------------------------------------

def _struct_field(obj, path):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def test_field_views_round_trip():
    # every struct-field attribute reads and writes the field its path names,
    # on the rule controllers and the learned one (cc_state.w.*, cc_state.*)
    views = [make_controller(name) for name in RULE_BASED]
    views.append(LearnedController(PolicyNet(n_features=5, hidden=0)))
    for view in views:
        fields = {name: attr for cls in reversed(type(view).__mro__)
                  for name, attr in vars(cls).items()
                  if isinstance(attr, cc._Field)}
        assert fields, type(view)
        for i, (name, attr) in enumerate(sorted(fields.items())):
            path = attr.get.__reduce__()[1][0]   # the path the attrgetter walks
            value = 3 + i if isinstance(getattr(view, name), int) else 0.25 + i
            setattr(view, name, value)
            assert _struct_field(view, path) == value, (type(view), name)
            assert getattr(view, name) == value, (type(view), name)


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
    assert c.cc_state.beta == 0.5
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
