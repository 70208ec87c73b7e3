"""Simulator oracles: BDP arithmetic, queue saturation, determinism, trace IO,
invariants over random traces and golden episode hashes."""

import dataclasses
import hashlib
import math
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from ccprobe import netsim
from ccprobe.cc import RULE_BASED, Controller, make_controller
from ccprobe.netsim import (BandwidthTrace, ConfigError, SimConfig,
                            export_mahimahi, map_jobs, read_trace, run_episode,
                            write_trace)
from ccprobe.tracegen import SmoothnessBudget, gen_burst_trace, gen_random_trace


class Pinned(Controller):
    """Constant-cwnd oracle controller."""

    name = "pinned"

    def __init__(self, cwnd):
        super().__init__()
        self.cwnd = cwnd

    def on_ack(self, ack):
        pass

    def on_loss(self, kind):
        pass


def bdp_packets(mbps, rtt_ms, pkt=1500):
    return mbps * 1e6 / 8.0 * rtt_ms / 1000.0 / pkt


def test_bdp_arithmetic():
    # 12 Mbps at 1500 B packets is exactly 1000 packets per second
    assert 12e6 / 8.0 / 1500 == 1000.0
    assert bdp_packets(48.0, 20.0) == 80.0


def test_pinned_bdp_full_utilization(short_sim, const_trace):
    log = run_episode(short_sim, const_trace, Pinned(80.0))
    assert log.mean_utilization() > 0.99
    assert log.dropped == 0
    # steady-state RTT samples sit exactly at the base RTT
    tail = log.ack_rtts_ms[len(log.ack_rtts_ms) // 2:]
    assert all(r == short_sim.base_rtt_ms for r in tail)


def test_pinned_overload_saturates_queue(short_sim, const_trace):
    # 3 x BDP: one BDP in flight, the rest pinned in the 2 x BDP queue
    log = run_episode(short_sim, const_trace, Pinned(240.0))
    assert log.mean_utilization() > 0.99
    assert log.dropped > 0
    # full queue of 2 x BDP adds two base-RTTs of queuing delay
    assert log.mean_queuing_delay_ms() == pytest.approx(
        2.0 * short_sim.base_rtt_ms, rel=0.1)


def test_underload_has_no_queueing(short_sim, const_trace):
    log = run_episode(short_sim, const_trace, Pinned(20.0))
    assert log.dropped == 0
    assert log.mean_utilization() == pytest.approx(20.0 / 80.0, rel=0.05)
    # initial 20-packet burst queues briefly; steady state is queue-free
    tail = log.ack_rtts_ms[len(log.ack_rtts_ms) // 2:]
    assert max(tail) == short_sim.base_rtt_ms


def test_determinism_bit_identical(short_sim, const_trace):
    a = run_episode(short_sim, const_trace, Pinned(80.0))
    b = run_episode(short_sim, const_trace, Pinned(80.0))
    assert a.ack_rtts_ms == b.ack_rtts_ms
    assert a.observations == b.observations
    assert (a.sent, a.delivered, a.dropped) == (b.sent, b.delivered, b.dropped)


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(tick_ms=0.0).validate()
    with pytest.raises(ConfigError):
        SimConfig(trace_interval_ms=33.0).validate()  # not a tick multiple
    with pytest.raises(ConfigError):
        SimConfig(episode_duration_s=0.05).validate()
    for owd in (0.0, -10.0, 10.4, 0.5, math.nan, math.inf):  # off the tick grid
        with pytest.raises(ConfigError, match="one_way_delay_ms"):
            SimConfig(one_way_delay_ms=owd).validate()
    SimConfig(tick_ms=0.5, one_way_delay_ms=10.5).validate()
    SimConfig().validate()


def test_exactly_one_capacity_source(short_sim, const_trace):
    with pytest.raises(ConfigError):
        run_episode(short_sim, None, Pinned(10.0))
    with pytest.raises(ConfigError):
        run_episode(short_sim, const_trace, Pinned(10.0),
                    env_driver=object())


def test_trace_roundtrip(tmp_path):
    trace = BandwidthTrace(100.0, [1.5, 96.0, 48.125])
    path = tmp_path / "t.trace"
    write_trace(trace, str(path))
    back = read_trace(str(path))
    assert back.interval_ms == 100.0
    assert back.values == trace.values


def test_trace_missing_header(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("48.0\n")
    with pytest.raises(ValueError, match="interval_ms"):
        read_trace(str(path))


@pytest.mark.parametrize("body", ["48.0\nnan\n", "48.0\n-5\n", "inf\n",
                                  "48.0\nfast\n"])
def test_trace_rejects_bad_values(tmp_path, body):
    path = tmp_path / "bad.trace"
    path.write_text("# interval_ms=100\n" + body)
    with pytest.raises(ConfigError, match="bad.trace"):
        read_trace(str(path))


def test_trace_interval_must_match_sim(short_sim, tmp_path):
    path = tmp_path / "slow.trace"
    path.write_text("# interval_ms=1000\n" + "48.0\n" * 5)
    with pytest.raises(ConfigError, match="interval"):
        run_episode(short_sim, read_trace(str(path)), Pinned(10.0))


def test_map_jobs_pool_is_capped_by_jobs(monkeypatch):
    sizes = []

    class Spy(netsim.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(netsim.futures, "ProcessPoolExecutor", Spy)
    jobs = [(2, 3), (3, 2)]
    assert map_jobs(pow, jobs, 64) == [8, 9]
    assert sizes == [2]                     # one process per job, no more
    assert map_jobs(pow, jobs[:1], 8) == [8]
    assert map_jobs(pow, jobs, 1) == [8, 9]
    assert sizes == [2]                     # a single process runs here


def test_mahimahi_export_opportunity_count(tmp_path):
    # 12 Mbps for 1 s = 1000 packet opportunities
    trace = BandwidthTrace(100.0, [12.0] * 10)
    path = tmp_path / "mm.txt"
    export_mahimahi(trace, str(path))
    stamps = [int(x) for x in path.read_text().split()]
    assert len(stamps) == 1000
    assert stamps == sorted(stamps)
    assert stamps[-1] <= 1000


def test_trace_cycles_like_replay():
    trace = BandwidthTrace(100.0, [10.0, 20.0])
    assert trace.capacity_at(0) == 10.0
    assert trace.capacity_at(5) == 20.0


def test_record_acks_off_keeps_aggregates(short_sim, const_trace):
    # Pinned(240) overloads the link, so drops and queuing delay are exercised
    for cwnd in (80.0, 240.0):
        log = run_episode(short_sim, const_trace, Pinned(cwnd), record_acks=False)
        ref = run_episode(short_sim, const_trace, Pinned(cwnd))
        assert log.ack_rtts_ms == [] and len(ref.ack_rtts_ms) == ref.acked > 0
        assert ((log.sent, log.delivered, log.dropped, log.acked, log.in_flight_end)
                == (ref.sent, ref.delivered, ref.dropped, ref.acked, ref.in_flight_end))
        assert log.observations == ref.observations
        assert log.mean_utilization() == ref.mean_utilization()


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.5, max_value=48.0),
       st.floats(min_value=0.5, max_value=24.0),
       st.floats(min_value=1.0, max_value=96.0))
def test_episode_invariants_on_feasible_traces(seed, delta, bw_min, span):
    sim = SimConfig(episode_duration_s=2.0)
    budget = SmoothnessBudget(delta=delta, bw_min=bw_min, bw_max=bw_min + span)
    trace = gen_random_trace(sim.n_intervals, budget, seed)
    pkt = sim.packet_size
    opportunities = math.floor(sum(v * 1e6 / 8.0 * sim.trace_interval_ms / 1000.0
                                   for v in trace.values) / pkt + 1e-6)
    queue_cap = max(1, int(sim.queue_capacity_bdp * max(trace.values) * 1e6 / 8.0
                           * sim.base_rtt_ms / 1000.0 // pkt))
    for name in RULE_BASED:
        log = run_episode(sim, trace, make_controller(name), record_acks=False)
        assert log.acked <= log.delivered <= log.sent, name
        assert log.delivered <= opportunities, name
        assert 0 <= log.in_flight_end <= queue_cap, name
        assert all(0.0 <= o.utilization <= 1.0 for o in log.observations), name


# --- golden episodes -----------------------------------------------------------

def _golden_traces():
    low = SmoothnessBudget(delta=6.0, bw_min=1.0, bw_max=12.0)
    walk = gen_random_trace(50, low, seed=5).values
    return [gen_random_trace(50, SmoothnessBudget(), seed=11),
            gen_burst_trace(50, peak=60.0, trough=2.0, rise_intervals=5,
                            fall_intervals=20),
            # a low-capacity walk with a 0.5 s outage, so RTO timeouts fire
            BandwidthTrace(100.0, walk[:25] + [0.0] * 5 + walk[30:])]


def test_golden_episode_hashes(short_sim):
    # One digest over every episode's totals, observations and per-ACK RTTs:
    # a change to the simulator's arithmetic or event order moves it. The
    # runaway Pinned(4096) saturates the per-tick injection cap; Pinned(240)
    # overloads the queue at a steady cwnd.
    factories = ([partial(make_controller, name) for name in RULE_BASED]
                 + [partial(Pinned, 4096.0), partial(Pinned, 240.0)])
    h = hashlib.sha256()
    for trace in _golden_traces():
        for factory in factories:
            for record_acks in (True, False):
                log = run_episode(short_sim, trace, factory(),
                                  record_acks=record_acks)
                h.update(repr((log.sent, log.delivered, log.dropped, log.acked,
                               log.in_flight_end,
                               [dataclasses.astuple(o) for o in log.observations],
                               log.ack_rtts_ms)).encode())
    assert h.hexdigest() == GOLDEN_EPISODES_SHA256


GOLDEN_EPISODES_SHA256 = (
    "59208ca17ee980f8caeb36dc22ecebdab6d47365b005323b17cf665b840bdfd4")
