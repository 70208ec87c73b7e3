"""Simulator oracles: BDP arithmetic, queue saturation, determinism, trace IO,
invariants over random traces and golden episode hashes."""

import hashlib
import math
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import threading
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccprobe import netsim
from ccprobe.adversary import (AdversaryConfig, EnvBandwidthDriver,
                               FeatureIntercept, adversarial_episodes,
                               make_adversary_policy)
from ccprobe.cc import RULE_BASED, Pinned, make_controller
from ccprobe.learned import LearnedController, PolicyNet, RewardParams
from ccprobe.netsim import (OBS_COLUMNS, BandwidthTrace, ConfigError, SimConfig,
                            _lib, export_mahimahi, map_jobs, read_trace, replace,
                            run_episode, run_episodes, write_trace)
from ccprobe.tracegen import SmoothnessBudget, gen_burst_trace, gen_random_trace


def bdp_packets(mbps, rtt_ms, pkt=1500):
    return mbps * 1e6 / 8.0 * rtt_ms / 1000.0 / pkt


def test_bdp_arithmetic():
    # 12 Mbps at 1500 B packets is exactly 1000 packets per second
    assert 12e6 / 8.0 / 1500 == 1000.0
    assert bdp_packets(48.0, 20.0) == 80.0


def queued_acks(log, sim):
    """ACKs whose RTT exceeds the base RTT; none may be below it."""
    base = 2 * round(sim.one_way_delay_ms / sim.tick_ms)
    assert min(log.ack_rtt_ticks) == base
    return sum(c for k, c in log.ack_rtt_ticks.items() if k > base)


def test_pinned_bdp_full_utilization(short_sim, const_trace):
    log = run_episode(short_sim, const_trace, Pinned(80.0))
    assert log.mean_utilization() > 0.99
    assert log.dropped == 0
    # only the initial one-cwnd burst queues; every other RTT sample sits
    # exactly at the base RTT
    assert queued_acks(log, short_sim) <= 80


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
    assert queued_acks(log, short_sim) <= 20


def test_determinism_bit_identical(short_sim, const_trace):
    a = run_episode(short_sim, const_trace, Pinned(80.0))
    b = run_episode(short_sim, const_trace, Pinned(80.0))
    assert a.ack_rtt_ticks == b.ack_rtt_ticks
    assert a.observations == b.observations
    assert (a.sent, a.delivered, a.dropped) == (b.sent, b.delivered, b.dropped)


def test_config_validation():
    # the times' whole multiples of each other; each field's own domain is
    # the config table's (test_cli's exit-2 cases)
    with pytest.raises(ConfigError):
        SimConfig(trace_interval_ms=33.0).validate()  # not a tick multiple
    for duration in (0.05, 1e-300):   # not a whole number of intervals, or none
        with pytest.raises(ConfigError, match="trace_interval_ms"):
            SimConfig(episode_duration_s=duration).validate()
    with pytest.raises(ConfigError, match="trace_interval_ms"):
        SimConfig(trace_interval_ms=1e300).validate()
    for owd in (0.0, -10.0, 10.4, 0.5, math.nan, math.inf):  # off the tick grid
        with pytest.raises(ConfigError, match="one_way_delay_ms"):
            SimConfig(one_way_delay_ms=owd).validate()
    SimConfig(tick_ms=0.5, one_way_delay_ms=10.5).validate()
    SimConfig().validate()


def test_integral_float_packet_size_is_the_integer(short_sim):
    # 1500.0 (as YAML may spell it) runs the same episode as 1500
    trace = _golden_traces()[2]
    a = run_episode(short_sim, trace, make_controller("cubic"))
    b = run_episode(replace(short_sim, packet_size=1500.0), trace,
                    make_controller("cubic"))
    assert a.observations == b.observations
    assert a.ack_rtt_ticks == b.ack_rtt_ticks
    assert (a.sent, a.delivered, a.dropped) == (b.sent, b.delivered, b.dropped)


def test_exactly_one_capacity_source(short_sim, const_trace):
    with pytest.raises(ConfigError):
        run_episode(short_sim, None, Pinned(10.0))
    with pytest.raises(ConfigError):
        run_episodes(short_sim, [const_trace], [Pinned(10.0)],
                     [EnvBandwidthDriver(SmoothnessBudget())])


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


def test_map_jobs_threads_are_capped_by_jobs(started_threads, no_thread_left):
    # a batch of n jobs at w workers starts min(w, n) - 1 threads, since the
    # caller runs a share; results stay in order when n does not divide evenly
    jobs = [(2, 3), (3, 2), (2, 2), (3, 3), (5, 2)]
    expect = [8, 9, 4, 27, 25]
    assert map_jobs(pow, jobs[:2], 64) == [8, 9]
    assert len(started_threads) == 1        # one thread per job, no more
    assert map_jobs(pow, jobs[:1], 8) == [8]
    assert map_jobs(pow, jobs, 1) == expect
    assert len(started_threads) == 1        # the caller alone runs these
    for w, total in ((2, 2), (3, 4), (4, 7), (5, 11)):
        assert map_jobs(pow, iter(jobs), w) == expect
        assert len(started_threads) == total
    assert len(set(map(id, started_threads))) == 11
    assert no_thread_left()


def test_map_jobs_runs_each_job_once_under_frequent_switches():
    # more threads than cores, switching every microsecond: no job is taken
    # twice or skipped, and every result lands in its own slot
    ran, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = map_jobs(lambda i: ran.append(i) or i * i,
                       [(i,) for i in range(3000)], 8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(3000))
    assert out == [i * i for i in range(3000)]


def _wait(event):
    assert event.wait(timeout=30), "a job waited 30 s for another"


def test_map_jobs_raises_a_workers_exception_here(no_thread_left):
    # unchanged: the same object, with its own type, even one that would not
    # survive pickling; no thread is left behind
    class Two(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a} and {b}")

    caller = threading.current_thread()
    for exc in (KeyError("k"), Two(1, 2)):
        ran_elsewhere = threading.Event()

        def job(x):
            if threading.current_thread() is caller:
                _wait(ran_elsewhere)
                return x
            ran_elsewhere.set()
            raise exc

        with pytest.raises(type(exc)) as e:
            map_jobs(job, [(1,), (2,)], 2)
        assert e.value is exc
        assert no_thread_left()


def test_map_jobs_raises_the_lowest_failed_job():
    # "late" raises only after "early" has: whichever of the two has the
    # lower index is raised, not the first to fail
    for kinds, want in ((["ok", "late", "ok", "early"], "late"),
                        (["ok", "early", "ok", "late"], "early")):
        early_failed = threading.Event()

        def job(kind):
            if kind == "late":
                _wait(early_failed)
            elif kind == "early":
                early_failed.set()
            else:
                return kind
            raise ValueError(kind)

        with pytest.raises(ValueError) as e:
            map_jobs(job, [(k,) for k in kinds], 4)
        assert e.value.args == (want,)


def test_map_jobs_starts_no_job_after_a_failure():
    # job 0 raises while job 1 runs; the thread that ran job 1 then stops,
    # and so does the one that raised, so jobs 2-7 never start
    started, one_started, raised = [], threading.Event(), threading.Event()

    def job(i):
        started.append(i)
        if i == 0:
            _wait(one_started)
            raised.set()
            raise ValueError("job 0")
        one_started.set()
        _wait(raised)
        time.sleep(0.2)
        return i

    with pytest.raises(ValueError, match="job 0"):
        map_jobs(job, [(i,) for i in range(8)], 2)
    assert sorted(started) == [0, 1]


def test_map_jobs_raises_promptly_when_its_own_share_raises(no_thread_left):
    # once all three jobs have started, the caller's raises at once; the
    # workers' jobs still run to their end before map_jobs returns, and no
    # thread outlives it
    caller, all_started = threading.current_thread(), threading.Barrier(3)
    finished = []

    def job(x):
        all_started.wait(timeout=30)
        if threading.current_thread() is caller:
            raise ValueError("caller share failed")
        time.sleep(0.3)
        finished.append(x)
        return x

    t = time.perf_counter()
    with pytest.raises(ValueError, match="caller share failed"):
        map_jobs(job, [(x,) for x in range(3)], 3)
    assert time.perf_counter() - t < 10
    assert len(finished) == 2 and no_thread_left()


def test_map_jobs_inside_a_worker_gets_a_pool_of_its_own(no_thread_left):
    # a job may run a batch of its own on threads of its own
    def inner(x):
        return sum(map_jobs(pow, [(x, 2), (x, 3)], 2))

    assert map_jobs(inner, [(2,), (3,)], 2) == [12, 36]
    assert no_thread_left()


def test_map_jobs_returns_unpicklable_results_intact():
    # results are the objects the jobs returned: nothing is pickled
    out = map_jobs(lambda x: (threading.Lock(), lambda: x, bytes([x]) * 2**20),
                   [(x,) for x in range(5)], 3)
    assert [r[1]() for r in out] == list(range(5))
    assert all(r[2] == bytes([x]) * 2**20 for x, r in enumerate(out))


def test_mahimahi_export_opportunity_count(tmp_path):
    # 12 Mbps for 1 s = 1000 packet opportunities
    trace = BandwidthTrace(100.0, [12.0] * 10)
    path = tmp_path / "mm.txt"
    export_mahimahi(trace, str(path))
    stamps = [int(x) for x in path.read_text().split()]
    assert len(stamps) == 1000
    assert stamps == sorted(stamps)
    assert stamps[-1] <= 1000


def _export_reference(trace, path, packet_size=1500):
    # the per-ms loop export_mahimahi replaced; its output is the definition
    with open(path, "w") as f:
        cum = 0.0
        next_k = 1
        total_ms = int(round(len(trace.values) * trace.interval_ms))
        for ms in range(total_ms):
            idx = int(ms // trace.interval_ms)
            # the trace cycles like a Mahimahi replay
            cum += trace.values[idx % len(trace.values)] * 1e6 / 8.0 / 1000.0
            while cum >= next_k * packet_size:
                f.write(f"{ms + 1}\n")
                next_k += 1


def _export_cases():
    rand = gen_random_trace(600, SmoothnessBudget(), seed=7)
    zeros = BandwidthTrace(100.0, [0.0] * 3 + rand.values[3:40] + [0.0] * 10
                           + rand.values[50:90] + [0.0])
    return [(rand, 1500),
            (gen_burst_trace(600), 1500),
            (BandwidthTrace(7.5, rand.values[:200]), 1500),
            (BandwidthTrace(0.3, rand.values[:300]), 1500),
            (BandwidthTrace(7.0, [0.013, 0.5, 3.3, 0.0, 1.0, 0.1]), 1),
            (rand, 9000),
            (zeros, 1500)]


def test_golden_export_digest(tmp_path):
    # Pins every byte of the Mahimahi export: a 60 s random and the burst
    # trace, fractional intervals, 1 B and 9000 B packets, idle intervals
    h = hashlib.sha256()
    for i, (trace, pkt) in enumerate(_export_cases()):
        path = tmp_path / f"{i}.mahi"
        export_mahimahi(trace, str(path), packet_size=pkt)
        data = path.read_bytes()
        assert data, i
        h.update(hashlib.sha256(data).digest())
    assert h.hexdigest() == GOLDEN_EXPORT_SHA256


def test_export_reference_gives_the_golden_digest(tmp_path):
    h = hashlib.sha256()
    for i, (trace, pkt) in enumerate(_export_cases()):
        path = tmp_path / f"{i}.mahi"
        _export_reference(trace, str(path), packet_size=pkt)
        h.update(hashlib.sha256(path.read_bytes()).digest())
    assert h.hexdigest() == GOLDEN_EXPORT_SHA256


@settings(max_examples=60, deadline=None)
@given(rates=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
                      min_size=1, max_size=300),
       interval_ms=st.one_of(st.sampled_from([100.0, 7.5, 0.3, 1.0]),
                             st.floats(0.05, 120.0)),
       pkt=st.one_of(st.sampled_from([1, 1500, 9000]),
                     st.integers(1, 1 << 20)))
def test_export_matches_the_per_ms_loop(rates, interval_ms, pkt):
    # capacities of up to 3 packets per ms keep the files small; up to
    # 36,000 ms spans several export blocks
    trace = BandwidthTrace(interval_ms, [r * pkt * 8.0 / 1000.0 for r in rates])
    with tempfile.TemporaryDirectory() as tmp:
        want, got = os.path.join(tmp, "want"), os.path.join(tmp, "got")
        _export_reference(trace, want, packet_size=pkt)
        export_mahimahi(trace, got, packet_size=pkt)
        with open(want, "rb") as a, open(got, "rb") as b:
            assert a.read() == b.read()


def _export_as_reference(tmp_path, trace, pkt):
    """The export's bytes, after checking them against the per-ms loop's."""
    want, got = tmp_path / "want", tmp_path / "got"
    _export_reference(trace, str(want), packet_size=pkt)
    export_mahimahi(trace, str(got), packet_size=pkt)
    assert got.read_bytes() == want.read_bytes()
    return got.read_bytes()


def test_export_ms_with_more_lines_than_a_chunk(tmp_path):
    # 1 B packets at 1,000 Mbps in 1 ms intervals: 125,000 lines in each
    # of ms 1 and 2, almost four chunks each, then 62 lines in ms 3
    data = _export_as_reference(tmp_path, BandwidthTrace(1.0, [1000.0, 1000.0, 0.5]), 1)
    assert 125_000 * 2 > netsim._EXPORT_CHUNK
    assert data == b"1\n" * 125_000 + b"2\n" * 125_000 + b"3\n" * 62


@pytest.mark.parametrize("lines", [netsim._EXPORT_CHUNK // 2 - 1,
                                   netsim._EXPORT_CHUNK // 2,
                                   netsim._EXPORT_CHUNK // 2 + 1])
def test_export_lines_around_the_chunk_edge(tmp_path, lines):
    # ms 1's lines of 2 bytes end one line before, at and one line after the
    # first chunk's edge; the lines of ms 2 (2 bytes) and ms 10 (3 bytes) follow
    first = lines * 8.0 / 1000.0          # Mbps of `lines` 1 B packets per ms
    assert math.floor(first * 1e6 / 8.0 / 1000.0) == lines
    trace = BandwidthTrace(1.0, [first, 0.008, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.024])
    data = _export_as_reference(tmp_path, trace, 1)
    assert data == b"1\n" * lines + b"2\n" + b"10\n" * 3


def test_export_ms_across_digit_widths(tmp_path):
    # timestamps 9 -> 10, 99 -> 100, 9,999 -> 10,000 and 99,999 -> 100,000,
    # at 0 to 9 lines per ms, over 25 export blocks of about two chunks each
    trace = BandwidthTrace(100.0, [12.0, 36.0, 0.0, 24.0] * 251)
    data = _export_as_reference(tmp_path, trace, 500)
    for a, b in ((9, 10), (99, 100), (9_999, 10_000), (99_999, 100_000)):
        assert f"\n{a}\n{b}\n".encode() in data


def test_mahi_lines_never_write_past_the_chunk():
    # chunks of 24 bytes in a 64-byte buffer: every call stops at a line's
    # end within 24 bytes and leaves the rest of the buffer as it was
    cum = np.array([3.0, 3.0, 40.0, 41.5])
    ffi, buf = netsim._ffi, netsim._ffi.new("char[]", 64)
    done, pos = ffi.new("int64_t *"), ffi.new("int64_t *")
    out = b""
    while pos[0] < len(cum):
        ffi.memmove(buf, b"\xff" * 64, 64)
        n = netsim._lib.tl_mahi_lines(ffi.from_buffer("double[]", cum), len(cum), 998,
                                      1.0, done, pos, buf, 24)
        assert 0 < n <= 24 and ffi.buffer(buf)[24:] == b"\xff" * 40
        out += ffi.buffer(buf, n)[:]
    assert out == b"999\n" * 3 + b"1001\n" * 37 + b"1002\n"
    assert done[0] == 41


def test_export_of_an_all_zero_trace_is_empty(tmp_path):
    assert _export_as_reference(tmp_path, BandwidthTrace(100.0, [0.0] * 10), 1500) == b""
    assert (tmp_path / "got").exists()


def test_export_counts_exactly_up_to_2_53_bytes(tmp_path):
    # one 1 ms interval whose bytes are just below, then at, 2^53
    mbps = 2.0**53 / 125.0
    while mbps * 1e6 / 8.0 / 1000.0 >= 2.0**53:
        mbps = math.nextafter(mbps, 0.0)
    below = BandwidthTrace(1.0, [mbps])
    pkt = 1 << 40
    want, got = tmp_path / "want", tmp_path / "got"
    _export_reference(below, str(want), packet_size=pkt)
    export_mahimahi(below, str(got), packet_size=pkt)
    assert got.read_bytes() == want.read_bytes()
    assert len(got.read_text().split()) == 8191
    while mbps * 1e6 / 8.0 / 1000.0 < 2.0**53:
        mbps = math.nextafter(mbps, math.inf)
    for trace in (BandwidthTrace(1.0, [mbps]),
                  BandwidthTrace(100.0, [48.0, 1e303]),   # inf bytes
                  BandwidthTrace(100.0, [1.7e302] * 100),  # sum overflows
                  # refused in its second block, after the first was written
                  BandwidthTrace(1000.0, [2.0**53 / 4500 / 125] * 5)):
        with pytest.raises(ConfigError, match="2\\^53"):
            export_mahimahi(trace, str(tmp_path / "no"), packet_size=pkt)
        # a refused export leaves no file, not even a temporary one, and a
        # file already at its path as it was
        assert sorted(os.listdir(tmp_path)) == ["got", "want"]
        with pytest.raises(ConfigError, match="2\\^53"):
            export_mahimahi(trace, str(got), packet_size=pkt)
        assert got.read_bytes() == want.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["got", "want"]


def test_export_rejects_bad_packet_size(tmp_path):
    trace = BandwidthTrace(100.0, [12.0])
    for size in (0, -1500, 1500.5, math.nan, True):
        with pytest.raises(ConfigError, match="packet_size"):
            export_mahimahi(trace, str(tmp_path / "mm"), packet_size=size)


def test_trace_cycles_like_replay(short_sim):
    # the tick loop replays a trace shorter than the episode from its start
    trace = BandwidthTrace(100.0, [10.0, 20.0])
    log = run_episode(short_sim, trace, Pinned(10.0))
    assert log.column("capacity_mbps").tolist() == [10.0, 20.0] * 25


# --- the compiled tick loop -----------------------------------------------------

def test_tick_loop_module_is_named_after_its_sources():
    # and after numpy's version, whose C distributions the module links
    here = os.path.dirname(netsim.__file__)
    h = hashlib.sha256(np.__version__.encode())
    for fn in ("_tickloop.c", "_tickloop_build.py"):
        with open(os.path.join(here, fn), "rb") as f:
            h.update(f.read())
    assert netsim._tick_loop.__name__ == f"ccprobe._tickloop_{h.hexdigest()[:16]}"


# setuptools' build_py lays out the package as a wheel or an install ships it
_BUILD_PY = """
import sys
from setuptools.dist import Distribution
from setuptools.config.pyprojecttoml import apply_configuration
dist = apply_configuration(Distribution(), "pyproject.toml")
dist.script_name = "setup.py"
dist.get_command_obj("build_py").build_lib = sys.argv[1]
dist.run_command("build_py")
"""


def test_tick_loop_builds_on_first_import(tmp_path):
    # the package as installed from pyproject.toml carries what the tick loop
    # is built from; without a built module it builds one, once, and leaves
    # nothing else behind, and a stale build next to it is removed
    src = os.path.dirname(netsim.__file__)
    tree = tmp_path / "tree"
    shutil.copy(os.path.join(os.path.dirname(os.path.dirname(src)), "pyproject.toml"),
                tmp_path / "pyproject.toml")
    shutil.copytree(src, tmp_path / "src" / "ccprobe",
                    ignore=shutil.ignore_patterns("_tickloop_*.so", ".tickloop-build-*",
                                                  "__pycache__"))
    subprocess.run([sys.executable, "-c", _BUILD_PY, str(tree)], cwd=tmp_path,
                   capture_output=True, check=True)
    pkg = tree / "ccprobe"
    assert {"_tickloop.c", "_tickloop_build.py"} <= set(os.listdir(pkg))
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    (pkg / f"_tickloop_0123456789abcdef{suffix}").write_bytes(b"")
    env = dict(os.environ, PYTHONPATH=str(tree))
    probe = [sys.executable, "-c",
             "import ccprobe.netsim as n; print(n._tick_loop.__file__)"]
    first = subprocess.run(probe, env=env, capture_output=True, text=True, check=True)
    built = first.stdout.strip()
    assert os.path.dirname(built) == str(pkg)
    leftovers = {fn for fn in os.listdir(pkg)
                 if fn.startswith(("_tickloop_", ".tickloop"))}
    assert leftovers == {"_tickloop_build.py", os.path.basename(built)}
    mtime = os.stat(built).st_mtime_ns
    again = subprocess.run(probe, env=env, capture_output=True, text=True, check=True)
    assert again.stdout.strip() == built and os.stat(built).st_mtime_ns == mtime


def test_non_finite_cwnd_raises(short_sim, const_trace):
    broken = Pinned(20.0)
    broken.cwnd = math.nan
    with pytest.raises(ValueError, match="cwnd nan is not finite"):
        run_episode(short_sim, const_trace, broken)


def test_capacity_beyond_64_bit_counts_rejected(short_sim):
    with pytest.raises(ConfigError, match="too many to count"):
        run_episode(short_sim, BandwidthTrace(100.0, [1e300] * 50), Pinned(10.0))


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b) or (
        math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("pkt", [1.0, 3.0, 1500.0, 9000.0, 2.0**40])
def test_fast_floor_division_is_pythons(pkt):
    # the tick loop's `credit // pkt`: floor(x / pkt) on [0, 2^53), where
    # just below a multiple of pkt is the case it could get wrong, and
    # CPython's algorithm for negative, NaN, inf and huge x
    floordiv = netsim._lib.tl_floordiv
    xs = [0.0, -0.0, 0.5, 1.0, pkt, 2.0**52, 2.0**53, -1.0, -pkt, -2.0**60,
          math.nan, math.inf, -math.inf, 1e300, 5e-324]
    for k in (1, 2, 7, 1000, 123456789, 2**52 // int(pkt) - 1,
              2**52 // int(pkt), 2**52 // int(pkt) + 1, 2**53 // int(pkt) - 1,
              2**53 // int(pkt)):
        at = k * pkt
        xs += [at, math.nextafter(at, 0.0), math.nextafter(at, math.inf)]
    for at in (2.0**52, 2.0**53):
        xs += [math.nextafter(at, 0.0), math.nextafter(at, math.inf)]
    rng = np.random.default_rng(0)
    xs += list(rng.uniform(0.0, 2.0**52, 2000)) + list(rng.uniform(0.0, 50 * pkt, 2000))
    for x in xs:
        assert _same_float(floordiv(x, pkt), x // pkt), (x, pkt)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**63 - 1),
       st.integers(min_value=1, max_value=2**63 - 1))
def test_int_true_division_is_pythons(a, b):
    # an interval's loss rate, dropped / sent; counts beyond 2^53 do not
    # convert to doubles exactly
    assert netsim._lib.tl_int_truediv(a, b) == a / b


def test_int_true_division_beyond_2_53_rounds_once():
    truediv = netsim._lib.tl_int_truediv
    rng = np.random.default_rng(3)
    big = [2**53 - 1, 2**53, 2**53 + 1, 2**62, 2**63 - 1,
           *(int(x) for x in rng.integers(2**53, 2**63 - 1, 500))]
    small = [1, 2, 3, 7, 2**52 + 1, *(int(x) for x in rng.integers(1, 2**53, 500))]
    for a, b in [*zip(big, small), *zip(small, big), *zip(big, big[::-1])]:
        assert truediv(a, b) == a / b, (a, b)
    # exactly halfway between two doubles: ties to even, down and up
    assert truediv(2**54 + 2, 2) == 2.0**53
    assert truediv(2**54 + 6, 1) == 2.0**54 + 8


class _CountingLib:
    """The tick loop's C library, counting `tl_step` and `tl_step_rows`
    calls, with the row count of the last `tl_step_rows` call."""

    def __init__(self, lib):
        self.lib, self.steps, self.row_steps, self.rows = lib, 0, 0, 0

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def tl_step(self, st):
        self.steps += 1
        return self.lib.tl_step(st)

    def tl_step_rows(self, states, k, *args):
        self.row_steps, self.rows = self.row_steps + 1, k
        return self.lib.tl_step_rows(states, k, *args)


def test_trace_driven_c_controller_runs_to_the_end_in_one_step(
        short_sim, monkeypatch):
    # a rule, linear learned or Pinned controller on a trace, and any
    # controller but a hidden-layer one under a policy-less adversary (an env
    # driver, or a random-noise or clean intercept, which draws in C), has no
    # Python work at an interval boundary; a hidden-layer policy and an
    # adversary's policy each bring the loop back once per interval, in one
    # `tl_step_rows` call for the whole slice, and a lock-step slice of
    # rollouts on either surface makes no per-row `tl_step` call
    spy = _CountingLib(netsim._lib)
    monkeypatch.setattr(netsim, "_lib", spy)
    trace = _golden_traces()[0]
    hidden = PolicyNet(n_features=5, hidden=16)
    budget = SmoothnessBudget(delta=12.0, bw_min=2.0, bw_max=48.0)
    feat_policy = _adversary_policy("feature", 2)
    n = short_sim.n_intervals

    def intercept(mode, policy=None):
        return partial(FeatureIntercept, AdversaryConfig(0.5, mode), policy, seed=3)

    def env(policy=None):
        return partial(EnvBandwidthDriver, budget, policy, seed=4)

    reno, linear = partial(make_controller, "reno"), partial(_learned, FIXED_POLICY)
    cases = ([(partial(make_controller, name), trace, None, (1, 0))
              for name in RULE_BASED]
             + [(linear, trace, None, (1, 0)),
                (partial(Pinned, 40.0), trace, None, (1, 0)),
                (partial(LearnedController, hidden), trace, None, (0, n + 1)),
                (reno, trace, intercept("adversarial", feat_policy), (0, n + 1)),
                (linear, trace, intercept("adversarial", feat_policy), (0, n + 1)),
                (reno, None, env(_adversary_policy("env", 1)), (0, n + 1)),
                (partial(LearnedController, hidden), trace,
                 intercept("random_noise"), (0, n + 1))]
             + [(factory, trace, intercept(mode, policy), (1, 0))
                for factory in (reno, linear) for mode in ("random_noise", "clean")
                for policy in (None, feat_policy)]
             + [(factory, None, env(), (1, 0)) for factory in (reno, linear)])
    for factory, tr, adv, calls in cases:
        spy.steps = spy.row_steps = 0
        [log] = run_episodes(short_sim, [tr], [factory()], [adv and adv()])
        assert (spy.steps, spy.row_steps) == calls, (factory, adv)
        assert [o.interval_idx for o in log.observations] == list(range(n))
    # a slice of policy and policy-less adversaries: only the two rows with a
    # policy are hooked, and the other three each run in one `tl_step`
    spy.steps = spy.row_steps = 0
    rows = [(None, env(_adversary_policy("env", 1))), (None, env()),
            (trace, intercept("random_noise", feat_policy)),
            (trace, intercept("clean")), (None, env(_adversary_policy("env", 2)))]
    run_episodes(short_sim, [tr for tr, _ in rows], [reno() for _ in rows],
                 [adv() for _, adv in rows])
    assert (spy.steps, spy.row_steps, spy.rows) == (3, n + 1, 2)
    reward = RewardParams()
    for surface in ("env", "feature"):
        adv = AdversaryConfig(0.5, surface=surface, tau_ms=0.0)
        policy = make_adversary_policy(surface)
        params = np.random.default_rng(0).normal(0.0, 0.5, (3, policy.n_params))
        spy.steps = spy.row_steps = 0
        evals = adversarial_episodes(adv, SmoothnessBudget(), policy, params,
                                     partial(make_controller, "cubic"), short_sim,
                                     reward, [0, 1, 2], clean_traces=[trace])
        assert (len(evals), spy.steps, spy.row_steps) == (3, 0, n + 1), surface


def test_run_to_end_episode_equals_the_hooked_one(short_sim):
    # the same episode under an intercept with a policy returns at every
    # interval and reads each observation row there, instead of all of them
    # at the end; a bound of 0 makes its min-RTT scale exactly 1.0
    zero = AdversaryConfig(0.0)
    policy = _adversary_policy("feature", 2)
    factories = ([partial(make_controller, name) for name in RULE_BASED]
                 + [partial(_learned, FIXED_POLICY), partial(_learned, RUNAWAY_POLICY)])
    for trace in _golden_traces():
        for factory in factories:
            a, b = run_episode(short_sim, trace, factory()), run_episodes(
                short_sim, [trace], [factory()], [FeatureIntercept(zero, policy)])[0]
            assert repr(a) == repr(b), factory


def _hidden(seed):
    policy = PolicyNet(n_features=5, hidden=16)
    rng = np.random.default_rng(seed)
    return LearnedController(policy.with_params(rng.normal(0.0, 1.0, policy.n_params)))


def test_hidden_learned_slice_equals_single_episodes(short_sim):
    # hidden-16 learned controllers in one slice: alone, beside rule and
    # linear rows, and under env drivers (with and without a policy) or
    # min-RTT intercepts on rows of their own and on other rows; each row's
    # log and final controller state are its episode's run alone
    t0, t1, t2 = _golden_traces()
    budget = SmoothnessBudget(delta=12.0, bw_min=2.0, bw_max=48.0)

    def env(seed, policy=True):
        return EnvBandwidthDriver(budget, _adversary_policy(
            "env", seed) if policy else None, seed=seed)

    def feat(seed):
        return FeatureIntercept(AdversaryConfig(0.5), _adversary_policy(
            "feature", seed), seed=seed)

    reno, linear = partial(make_controller, "reno"), partial(_learned, FIXED_POLICY)
    h = [partial(_hidden, s) for s in range(11)]
    slices = [
        [(t0, h[0], None), (t1, h[1], None), (t2, h[2], None)],
        [(None, h[3], partial(env, 1)), (t0, h[4], None), (None, reno, partial(env, 2)),
         (None, h[5], partial(env, 3)), (t2, linear, None)],
        [(t1, linear, partial(feat, 4)), (t0, h[6], partial(feat, 5)), (t2, h[7], None),
         (t1, h[8], partial(feat, 6))],
        [(None, h[9], partial(env, 7, False)), (t0, h[10], None),
         (None, reno, partial(env, 8, False))],
    ]
    for rows in slices:
        ctls = [factory() for _, factory, _ in rows]
        logs = run_episodes(short_sim, [trace for trace, _, _ in rows], ctls,
                            [adv and adv() for _, _, adv in rows])
        for (trace, factory, adv), ctl, log in zip(rows, ctls, logs):
            alone = factory()
            [one] = run_episodes(short_sim, [trace], [alone], [adv and adv()])
            assert repr(log) == repr(one), (factory, adv)
            assert log.rows.tobytes() == one.rows.tobytes(), (factory, adv)
            assert ((ctl.cwnd, getattr(ctl, "prev_action", None))
                    == (alone.cwnd, getattr(alone, "prev_action", None)))


def test_loss_reactions_are_counted_by_kind(short_sim, const_trace):
    # none without a drop; triple duplicate ACKs under a steady overload;
    # timeouts once the link stalls
    quiet = run_episode(short_sim, const_trace, Pinned(20.0))
    assert (quiet.dropped, quiet.triple_dups, quiet.timeouts) == (0, 0, 0)
    overload = run_episode(short_sim, const_trace, Pinned(240.0))
    assert overload.triple_dups > 0 and overload.timeouts == 0
    outage = run_episode(short_sim, _golden_traces()[2], make_controller("reno"))
    assert outage.timeouts > 0
    # a triple duplicate ACK needs a drop since the last reaction
    assert overload.triple_dups <= overload.dropped


def _whole_log(config, trace, controller_factory):
    return run_episode(config, trace, controller_factory())


def test_slotted_observations_equal_at_workers_1_and_2(short_sim):
    # whole episode logs come back from a worker thread; each job builds its
    # own controller from a factory
    trace = _golden_traces()[0]
    jobs = [(short_sim, trace, partial(make_controller, name)) for name in RULE_BASED]
    one, two = map_jobs(_whole_log, jobs, 1), map_jobs(_whole_log, jobs, 2)
    assert not hasattr(one[0].observations[0], "__dict__")
    for a, b in zip(one, two):
        assert a.observations == b.observations
        assert (a.sent, a.delivered, a.dropped, a.acked, a.ack_rtt_ticks) == \
            (b.sent, b.delivered, b.dropped, b.acked, b.ack_rtt_ticks)


def _slice_bytes(config, traces, factories, adversary_factories=None):
    """Each episode of a `run_episodes` slice as its rows' bytes, totals,
    counters and RTT histogram; every controller and adversary is built by
    the job, so no two jobs share one."""
    adversaries = adversary_factories and [f() for f in adversary_factories]
    logs = netsim.run_episodes(config, traces, [f() for f in factories],
                               adversaries)
    return [(log.rows.tobytes(), log.sent, log.delivered, log.dropped,
             log.acked, log.in_flight_end, log.triple_dups, log.timeouts,
             sorted(log.ack_rtt_ticks.items()))
            for log in logs]


class _Overlap:
    """A job wrapper that counts how many jobs run at once, at most."""

    def __init__(self, fn):
        self.fn, self.lock, self.now, self.most = fn, threading.Lock(), 0, 0

    def __call__(self, *job):
        with self.lock:
            self.now += 1
            self.most = max(self.most, self.now)
        try:
            return self.fn(*job)
        finally:
            with self.lock:
                self.now -= 1


def test_episodes_on_four_threads_equal_serial_ones(short_sim):
    # every rule controller, linear learned controllers (one runaway), Pinned
    # (TL_PINNED) and an env and a feature slice of hidden-16 adversaries:
    # the same bytes when four threads run them at once as when run serially
    traces = _golden_traces()
    single = ([partial(make_controller, name) for name in RULE_BASED]
              + [partial(_learned, FIXED_POLICY), partial(_learned, RUNAWAY_POLICY),
                 partial(Pinned, 240.0), partial(Pinned, 4096.0)])
    budget = SmoothnessBudget(delta=12.0, bw_min=2.0, bw_max=48.0)
    env = [partial(EnvBandwidthDriver, budget,
                   _adversary_policy("env", s), seed=s)
           for s in range(3)]
    feat = [partial(FeatureIntercept, AdversaryConfig(0.5),
                    _adversary_policy("feature", s), seed=s)
            for s in range(3)]
    jobs = [(short_sim, [trace], [f]) for trace in traces for f in single]
    jobs.append((short_sim, [None] * 3,
                 [partial(make_controller, n) for n in ("reno", "cubic", "bbrlite")],
                 env))
    jobs.append((short_sim, traces,
                 [partial(make_controller, n) for n in ("vegas", "lp", "illinois")],
                 feat))
    serial = map_jobs(_slice_bytes, jobs, 1)
    overlap = _Overlap(_slice_bytes)
    assert map_jobs(overlap, jobs * 3, 4) == serial * 3
    assert overlap.most >= 2


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
    base_ticks = 2 * round(sim.one_way_delay_ms / sim.tick_ms)
    factories = {name: partial(make_controller, name) for name in RULE_BASED}
    # controllers whose ticks are mostly quiescent
    factories.update(pinned1=partial(Pinned, 1.0),
                     collapsed=partial(_learned, COLLAPSED_POLICY))
    for name, factory in factories.items():
        log = run_episode(sim, trace, factory())
        assert log.acked <= log.delivered <= log.sent, name
        # one histogram entry per ACK, none faster than the propagation RTT
        assert sum(log.ack_rtt_ticks.values()) == log.acked, name
        assert all(k >= base_ticks for k in log.ack_rtt_ticks), name
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
    # One digest over every episode's totals, observations and per-ACK RTT
    # histogram: a change to the simulator's arithmetic or event order moves
    # it. The runaway Pinned(4096) saturates the per-tick injection cap;
    # Pinned(240) overloads the queue at a steady cwnd.
    factories = ([partial(make_controller, name) for name in RULE_BASED]
                 + [partial(Pinned, 4096.0), partial(Pinned, 240.0)])
    h = hashlib.sha256()
    for trace in _golden_traces():
        for factory in factories:
            _hash_episode(h, run_episode(short_sim, trace, factory()))
    assert h.hexdigest() == GOLDEN_EPISODES_SHA256


def test_slice_of_mixed_policy_shapes_is_rejected(short_sim, monkeypatch):
    # a group's hook stacks policies of one shape; a slice mixing shapes
    # fails before any tick runs, naming the rows. Policy-less adversaries
    # are in no group: a slice of them beside policy rows is its rows alone.
    spy = _CountingLib(netsim._lib)
    monkeypatch.setattr(netsim, "_lib", spy)
    t0, t1, _ = _golden_traces()
    budget = SmoothnessBudget(delta=12.0, bw_min=2.0, bw_max=48.0)
    cases = [
        ([t0, t1], [LearnedController(PolicyNet(n_features=5, hidden=16)),
                    LearnedController(PolicyNet(n_features=5, hidden=8))], None,
         r"hidden-layer controllers .*rows \[0\]: 5 features, hidden 16; "
         r"rows \[1\]: 5 features, hidden 8"),
        ([None, t0], [make_controller("reno"), make_controller("reno")],
         [EnvBandwidthDriver(budget, _adversary_policy("env", 1), seed=1),
          FeatureIntercept(AdversaryConfig(0.5), _adversary_policy("feature", 2))],
         r"adversaries .*rows \[0\]: 6 features, hidden 16; "
         r"rows \[1\]: 5 features, hidden 16"),
    ]
    for traces, ctls, advs, message in cases:
        with pytest.raises(ValueError, match=message):
            run_episodes(short_sim, traces, ctls, advs)
    assert (spy.steps, spy.row_steps) == (0, 0)
    monkeypatch.undo()
    rows = [(None, lambda: EnvBandwidthDriver(budget, seed=1)),
            (None, lambda: EnvBandwidthDriver(budget, _adversary_policy("env", 2),
                                              seed=2)),
            (t0, lambda: FeatureIntercept(AdversaryConfig(0.3, "random_noise"),
                                          seed=3)),
            (t1, lambda: None)]
    logs = run_episodes(short_sim, [tr for tr, _ in rows],
                        [make_controller("vegas") for _ in rows],
                        [adv() for _, adv in rows])
    for (tr, adv), log in zip(rows, logs):
        [alone] = run_episodes(short_sim, [tr], [make_controller("vegas")], [adv()])
        assert repr(log) == repr(alone)


def _hash_episode(h, log):
    h.update(repr((log.sent, log.delivered, log.dropped, log.acked,
                   log.in_flight_end,
                   [(o.interval_idx, *(getattr(o, c) for c in OBS_COLUMNS))
                    for o in log.observations],
                   sorted(log.ack_rtt_ticks.items()))).encode())


# the bench's fixed linear policy: grows cwnd on an empty queue, backs off on
# queuing and loss; the runaway one doubles-and-more every interval
FIXED_POLICY = [0.0, 0.0, -1.0, -4.0, 0.0, 0.3]
RUNAWAY_POLICY = [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]


def _learned(params):
    return LearnedController(PolicyNet(n_features=5, hidden=0, params=params))


def _adversary_policy(surface, seed):
    policy = make_adversary_policy(surface)
    rng = np.random.default_rng(seed)
    return policy.with_params(rng.normal(0.0, 0.5, policy.n_params))


def test_golden_episode_hashes_beyond_rule_traces(short_sim):
    # The episode kinds the rule/Pinned digest above leaves out: learned
    # controllers (one of them pinned at its 4096 cwnd cap), capacity from an
    # online env driver, a min-RTT intercept, and a 0.5 ms tick.
    traces = _golden_traces()
    budget = SmoothnessBudget(delta=12.0, bw_min=2.0, bw_max=48.0)
    env_policy = _adversary_policy("env", 1)
    feat_policy = _adversary_policy("feature", 2)
    half_tick = replace(short_sim, tick_ms=0.5)
    logs = []
    for trace in traces:
        for params in (FIXED_POLICY, RUNAWAY_POLICY):
            logs.append(run_episode(short_sim, trace, _learned(params)))
    runaway = logs[1]
    for policy, seed in ((env_policy, 3), (None, 4)):
        for factory in (partial(make_controller, "reno"),
                        partial(make_controller, "bbrlite"),
                        partial(_learned, FIXED_POLICY)):
            driver = EnvBandwidthDriver(budget, policy, seed=seed)
            logs += run_episodes(short_sim, [None], [factory()], [driver])
    env_log = logs[-1]
    for bound, seed in ((AdversaryConfig(0.5), 5),
                        (AdversaryConfig(0.3, "random_noise"), 6)):
        for name in ("vegas", "lp", "bbrlite"):
            intercept = FeatureIntercept(bound, feat_policy, seed=seed)
            logs += run_episodes(short_sim, [traces[0]], [make_controller(name)],
                                 [intercept])
    feat_log = logs[-4]
    for trace in (traces[0], traces[2]):
        for name in RULE_BASED:
            logs.append(run_episode(half_tick, trace, make_controller(name)))
    # each kind really is exercised
    assert max(o.cwnd for o in runaway.observations) == 4096.0
    assert len({o.capacity_mbps for o in env_log.observations}) > 10
    assert any(o.visible_min_rtt_ms != o.min_rtt_ms
               for o in feat_log.observations)
    h = hashlib.sha256()
    for log in logs:
        _hash_episode(h, log)
    assert h.hexdigest() == GOLDEN_EPISODES_BEYOND_SHA256


# every rule controller at its defaults, converged (initial cwnd and
# ssthresh set) and with each of its own constants moved off the default;
# bbrlite's variant sends 9000 B packets
RULE_CONSTANT_CASES = (
    [(name, {}) for name in RULE_BASED]
    + [(name, {"initial_cwnd": 30.0, "initial_ssthresh": 40.0})
       for name in RULE_BASED]
    + [("cubic", {"c": 0.2, "beta": 0.5}),
       ("vegas", {"alpha": 1.0, "beta": 6.0}),
       ("illinois", {"alpha_min": 0.5, "alpha_max": 8.0,
                     "beta_min": 0.2, "beta_max": 0.4}),
       ("lp", {"threshold_fraction": 0.3, "ewma_gain": 0.25}),
       ("bbrlite", {"bw_window_rtts": 6, "rtt_window_s": 4.0,
                    "packet_size": 9000})])


_PHASE_NAMES = ("slow_start", "congestion_avoidance", "fast_recovery",
                "lp_inference")


def _controller_state(ctl):
    s = ctl.cc_state
    return (ctl.cwnd, ctl.ssthresh, _PHASE_NAMES[s.w.phase],
            getattr(ctl, "indications", 0),
            s.gain_index if s.kind == _lib.TL_BBRLITE else None,
            s.pacing_bps if s.paced else None)


def test_golden_rule_controller_digest():
    # 60 s episodes on a random trace and on the default burst pattern,
    # hashed with each controller's final state (window, phase, LP
    # indications, BBR-lite gain index and pacing rate)
    sim = SimConfig()
    traces = [gen_random_trace(sim.n_intervals, SmoothnessBudget(), seed=3),
              gen_burst_trace(sim.n_intervals, peak=80.0, trough=4.0,
                              rise_intervals=20, fall_intervals=60)]
    h = hashlib.sha256()
    digests = {}
    for name, constants in RULE_CONSTANT_CASES:
        cfg = replace(sim, packet_size=constants.get("packet_size", 1500))
        for i, trace in enumerate(traces):
            ctl = make_controller(name, **constants)
            log = run_episode(cfg, trace, ctl)
            one = hashlib.sha256()
            _hash_episode(one, log)
            one.update(repr(_controller_state(ctl)).encode())
            h.update(one.digest())
            digests[name, repr(constants), i] = one.digest()
    # each non-default case moves its controller off the default episode
    for name, constants in RULE_CONSTANT_CASES:
        if constants:
            assert any(digests[name, repr(constants), i] != digests[name, "{}", i]
                       for i in range(len(traces))), (name, constants)
    assert h.hexdigest() == GOLDEN_RULE_CONSTANTS_SHA256


def test_golden_hidden_learned_episode_digest(short_sim):
    # Learned controllers with a tanh hidden layer of 16, whose policies
    # numpy runs at each interval boundary (TL_HIDDEN): three random policies on every golden trace, one under a min-RTT intercept,
    # each hashed with its final cwnd and previous action
    traces = _golden_traces()
    rng = np.random.default_rng(16)
    h = hashlib.sha256()
    for scale in (0.3, 1.0, 3.0):
        policy = PolicyNet(n_features=5, hidden=16)
        policy = policy.with_params(rng.normal(0.0, scale, policy.n_params))
        runs = [(trace, None) for trace in traces]
        runs.append((traces[0], FeatureIntercept(AdversaryConfig(0.5),
                                                 _adversary_policy(
                                                     "feature", 7),
                                                 seed=8)))
        for trace, intercept in runs:
            ctl = LearnedController(policy)
            _hash_episode(h, run_episodes(short_sim, [trace], [ctl], [intercept])[0])
            h.update(repr((ctl.cwnd, ctl.prev_action)).encode())
    assert h.hexdigest() == GOLDEN_HIDDEN_LEARNED_SHA256


# a linear policy whose bias drives the action to -a_max: cwnd halves every
# interval down to 1 and stays there, as a collapsed CEM candidate's does
COLLAPSED_POLICY = [0.0, 0.0, 0.0, 0.0, 0.0, -5.0]


def _quiescent_cases():
    """(config, trace, factory) of episodes whose ticks are mostly quiescent:
    no ACK due, a full window, an empty queue and no loss reaction due, so
    only the link credit moves."""
    short = SimConfig(episode_duration_s=5.0)
    factories = [partial(Pinned, 1.0), partial(Pinned, 2.0),
                 partial(_learned, COLLAPSED_POLICY), partial(_learned, FIXED_POLICY),
                 partial(make_controller, "bbrlite")]
    for tick_ms in (1.0, 0.5, 0.25):
        full = SimConfig(tick_ms=tick_ms)
        runs = [(full, gen_random_trace(full.n_intervals, SmoothnessBudget(), seed=0))]
        for queue_bdp in (short.queue_capacity_bdp, 0.1):
            sim = replace(short, tick_ms=tick_ms,
                                      queue_capacity_bdp=queue_bdp)
            runs += [(sim, trace) for trace in _golden_traces()]
        for sim, trace in runs:
            for factory in factories:
                yield sim, trace, factory


def test_golden_quiescent_episode_digest():
    # Episodes in which the link credit is often all that moves, at 1, 0.5
    # and 0.25 ms ticks: Pinned(1) and Pinned(2), a learned policy collapsed
    # to cwnd 1, the bench's fixed policy and the paced bbrlite, on a 60 s
    # random trace and on the golden traces, whose low walk carries less
    # than a packet per tick. Behind a queue of a tenth of a BDP, drops leave
    # only lost packets in flight: on the walk with the outage, the digest
    # pins the tick each retransmission timeout fires at, after a run of
    # ACK-less ticks, and the tick each blocked triple-dup reaction fires at.
    h = hashlib.sha256()
    small = []
    for sim, trace, factory in _quiescent_cases():
        log = run_episode(sim, trace, factory())
        _hash_episode(h, log)
        if sim.queue_capacity_bdp == 0.1 and trace.values[25] == 0.0:
            small.append(log)
    assert sum(log.timeouts for log in small) > 0
    assert sum(log.triple_dups for log in small) > 0
    assert h.hexdigest() == GOLDEN_QUIESCENT_SHA256


GOLDEN_HIDDEN_LEARNED_SHA256 = (
    "c7e6ea5dec721de65643412194edfe0765803fb55d5064449598590f5335941a")
GOLDEN_EPISODES_SHA256 = (
    "949371a8ebc3459d238479074a64f50af84f5cc971e3db64f7fc7af1e3dac3e5")
GOLDEN_EPISODES_BEYOND_SHA256 = (
    "2e893e6fdf27277da533bde019b36eb95d3d4192dbdef1f791230965c48a82cf")
GOLDEN_RULE_CONSTANTS_SHA256 = (
    "ac3681cee30cefcfdfff8fd968d7c396aeb666a804551660528fe9804bbef669")
GOLDEN_EXPORT_SHA256 = (
    "1c59568f70032d19c72bcdea82121ca0a32f50942859a4a1d25e04927beed593")
GOLDEN_QUIESCENT_SHA256 = (
    "84a866ed3f803f622d1a860445122cb3f834a0cb266aacb9e7316acf52ee3a96")
