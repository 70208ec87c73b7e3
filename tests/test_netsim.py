"""Simulator oracles: BDP arithmetic, queue saturation, determinism, trace IO,
invariants over random traces and golden episode hashes."""

import dataclasses
import hashlib
import math
import os
import shutil
import signal
import subprocess
import sys
import sysconfig
import tempfile
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccprobe import netsim
from ccprobe.adversary import (EnvBandwidthDriver, FeatureBound, FeatureIntercept,
                               PerturbMode, SurfaceMode, make_adversary_policy)
from ccprobe.cc import RULE_BASED, Controller, Pinned, make_controller
from ccprobe.learned import LearnedController, PolicyNet
from ccprobe.netsim import (BandwidthTrace, ConfigError, SimConfig,
                            export_mahimahi, map_jobs, read_trace, run_episode,
                            write_trace)
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
    for size in (0, -1500, 1500.5, math.nan, math.inf, True, "1500"):
        with pytest.raises(ConfigError, match="packet_size"):
            SimConfig(packet_size=size).validate()


def test_integral_float_packet_size_is_the_integer(short_sim):
    # 1500.0 (as YAML may spell it) runs the same episode as 1500
    trace = _golden_traces()[2]
    a = run_episode(short_sim, trace, make_controller("cubic"))
    b = run_episode(dataclasses.replace(short_sim, packet_size=1500.0), trace,
                    make_controller("cubic"))
    assert a.observations == b.observations
    assert a.ack_rtt_ticks == b.ack_rtt_ticks
    assert (a.sent, a.delivered, a.dropped) == (b.sent, b.delivered, b.dropped)


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


def test_map_jobs_forks_are_capped_by_jobs(forked_pids):
    # a batch of n jobs at w workers forks min(w, n) - 1 children, since the
    # caller runs a share; results stay in order when n does not divide evenly
    jobs = [(2, 3), (3, 2), (2, 2), (3, 3), (5, 2)]
    expect = [8, 9, 4, 27, 25]
    assert map_jobs(pow, jobs[:2], 64) == [8, 9]
    assert len(forked_pids) == 1            # one process per job, no more
    assert map_jobs(pow, jobs[:1], 8) == [8]
    assert map_jobs(pow, jobs, 1) == expect
    assert len(forked_pids) == 1            # a single process runs here
    assert map_jobs(pow, jobs, 2) == expect
    assert len(forked_pids) == 2
    assert map_jobs(pow, jobs, 3) == expect
    assert len(forked_pids) == 4 and len(set(forked_pids)) == 4
    assert map_jobs(pow, iter(jobs), 5) == expect
    assert len(forked_pids) == 8
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)          # every child was reaped


def _in_a_child(script):
    """Run `script` after `from ccprobe.netsim import map_jobs` in a fresh
    interpreter, so a hang fails the test instead of blocking the suite; the
    interpreter gets a session of its own, and a hung one is killed with every
    process it forked."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    with subprocess.Popen([sys.executable, "-c", "import os, time\n"
                           "from ccprobe.netsim import map_jobs\n" + script],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


# the end of a script whose map_jobs call has returned or raised
_NO_CHILD_LEFT = ("try:\n"
                  "    os.waitpid(-1, os.WNOHANG)\n"
                  "except ChildProcessError:\n"
                  "    print('no child left')\n")


def test_map_jobs_names_a_child_that_dies_without_results():
    run = _in_a_child(
        "caller = os.getpid()\n"
        "def job(x):\n"
        "    if os.getpid() != caller:\n"
        "        os._exit(3)\n"
        "    return x\n"
        "try:\n"
        "    map_jobs(job, [(1,), (2,)], 2)\n"
        "except RuntimeError as e:\n"
        "    print(e)\n" + _NO_CHILD_LEFT)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("map_jobs worker "), run.stdout
    assert run.stdout.endswith(" sent no results: exit status 3\nno child left\n")


def test_map_jobs_raises_a_childs_exception_here():
    # with its type and message; one that does not survive pickling comes
    # back as a RuntimeError carrying its repr
    run = _in_a_child(
        "class Two(Exception):\n"
        "    def __init__(self, a, b):\n"
        "        super().__init__(f'{a} and {b}')\n"
        "caller = os.getpid()\n"
        "def job(exc):\n"
        "    if os.getpid() != caller:\n"
        "        raise exc\n"
        "for exc in (KeyError('k'), Two(1, 2)):\n"
        "    try:\n"
        "        map_jobs(job, [(None,), (exc,)], 2)\n"
        "    except Exception as e:\n"
        "        print(repr(e))\n" + _NO_CHILD_LEFT)
    assert run.returncode == 0, run.stderr
    assert run.stdout == ("KeyError('k')\nRuntimeError(\"Two('1 and 2')\")\n"
                          "no child left\n")


def test_map_jobs_names_a_child_killed_halfway_through_its_results():
    # SIGALRM ends the child while it is blocked writing 1 MB into a pipe
    # that holds less, so part of a pickle arrived; the status tells
    run = _in_a_child(
        "import signal\n"
        "caller = os.getpid()\n"
        "def job(x):\n"
        "    if os.getpid() == caller:\n"
        "        time.sleep(1.0)\n"
        "        return x\n"
        "    signal.alarm(1)\n"
        "    return b'x' * 2**20\n"
        "try:\n"
        "    map_jobs(job, [(1,), (2,)], 2)\n"
        "except RuntimeError as e:\n"
        "    print(e)\n" + _NO_CHILD_LEFT)
    assert run.returncode == 0, run.stderr
    assert run.stdout.endswith(
        f" sent no results: killed by signal {int(signal.SIGALRM)}\nno child left\n"), run.stdout


def test_map_jobs_returns_results_larger_than_a_pipe_intact():
    run = _in_a_child(
        "out = map_jobs(lambda x: bytes([x]) * 2**20, [(x,) for x in range(5)], 3)\n"
        "print([r == bytes([x]) * 2**20 for x, r in enumerate(out)])\n")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[True, True, True, True, True]\n"


def test_map_jobs_raises_promptly_when_its_own_share_raises():
    # the children block writing 1 MB into pipes nobody reads; closing the
    # read ends gives them EPIPE, so reaping them cannot hang
    run = _in_a_child(
        "caller = os.getpid()\n"
        "def job(x):\n"
        "    if os.getpid() == caller:\n"
        "        time.sleep(0.5)\n"
        "        raise ValueError('caller share failed')\n"
        "    return b'x' * 2**20\n"
        "t = time.perf_counter()\n"
        "try:\n"
        "    map_jobs(job, [(x,) for x in range(3)], 3)\n"
        "except ValueError as e:\n"
        "    print(e, time.perf_counter() - t < 10)\n" + _NO_CHILD_LEFT)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "caller share failed True\nno child left\n"


def test_map_jobs_inside_a_worker_gets_a_pool_of_its_own():
    # the worker inherits its parent's open pool, which it cannot use; in a
    # child process, so a hang fails instead of blocking
    script = ("from ccprobe.netsim import map_jobs\n"
              "def inner(x):\n"
              "    return sum(map_jobs(pow, [(x, 2), (x, 3)], 2))\n"
              "print(map_jobs(inner, [(2,), (3,)], 2))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[12, 36]\n"


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
            cum += trace.capacity_at(idx) * 1e6 / 8.0 / 1000.0
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
                  BandwidthTrace(100.0, [1.7e302] * 100)):  # sum overflows
        with pytest.raises(ConfigError, match="2\\^53"):
            export_mahimahi(trace, str(tmp_path / "no"), packet_size=pkt)
        assert not (tmp_path / "no").exists()


def test_export_rejects_bad_packet_size(tmp_path):
    trace = BandwidthTrace(100.0, [12.0])
    for size in (0, -1500, 1500.5, math.nan, True):
        with pytest.raises(ConfigError, match="packet_size"):
            export_mahimahi(trace, str(tmp_path / "mm"), packet_size=size)


def test_trace_cycles_like_replay():
    trace = BandwidthTrace(100.0, [10.0, 20.0])
    assert trace.capacity_at(0) == 10.0
    assert trace.capacity_at(5) == 20.0


# --- the compiled tick loop -----------------------------------------------------

def test_tick_loop_module_is_named_after_its_sources():
    here = os.path.dirname(netsim.__file__)
    h = hashlib.sha256()
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


class _IntervalOnly(Controller):
    # a Python controller: it calls Controller's __init__ and acts in
    # on_interval, whose cwnd the next interval sends at
    def __init__(self):
        super().__init__()
        self.cwnd = 20.0

    def on_interval(self, obs):
        self.cwnd = 40.0


def test_interval_only_controller_sets_the_next_intervals_cwnd(short_sim, const_trace):
    log = run_episode(short_sim, const_trace, _IntervalOnly())
    low = run_episode(short_sim, const_trace, Pinned(20.0))
    high = run_episode(short_sim, const_trace, Pinned(40.0))
    assert [o.cwnd for o in log.observations] == [20.0] + [40.0] * 49
    # the first interval is Pinned(20)'s; every later one sends at twice the
    # rate, below the 80-packet BDP
    assert log.observations[0] == low.observations[0]
    assert low.sent < log.sent < high.sent
    assert log.observations[-1].throughput_mbps == pytest.approx(
        2 * low.observations[-1].throughput_mbps)


class _Broken(Pinned):
    def on_interval(self, obs):
        self.cwnd = math.nan


def test_non_finite_cwnd_raises(short_sim, const_trace):
    with pytest.raises(ValueError, match="cwnd nan is not finite"):
        run_episode(short_sim, const_trace, _Broken(10.0))


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
    """The tick loop's C library, counting `tl_step` calls."""

    def __init__(self, lib):
        self.lib, self.steps = lib, 0

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def tl_step(self, st):
        self.steps += 1
        return self.lib.tl_step(st)


def test_trace_driven_c_controller_runs_to_the_end_in_one_step(
        short_sim, monkeypatch):
    # a rule or linear learned controller on a trace has no Python work at
    # an interval boundary; a Python controller, a hidden-layer policy and
    # an intercept each bring the loop back once per interval
    spy = _CountingLib(netsim._lib)
    monkeypatch.setattr(netsim, "_lib", spy)
    trace = _golden_traces()[0]
    hidden = PolicyNet(n_features=5, hidden=16)
    clean = FeatureIntercept(FeatureBound(0.5, PerturbMode.CLEAN))
    n = short_sim.n_intervals
    cases = ([(partial(make_controller, name), None, 1) for name in RULE_BASED]
             + [(partial(_learned, FIXED_POLICY), None, 1),
                (partial(Pinned, 40.0), None, n + 1),
                (partial(LearnedController, hidden), None, n + 1),
                (partial(make_controller, "reno"), clean, n + 1),
                (partial(_learned, FIXED_POLICY), clean, n + 1)])
    for factory, intercept, steps in cases:
        spy.steps = 0
        log = run_episode(short_sim, trace, factory(), intercept=intercept)
        assert spy.steps == steps, factory
        assert [o.interval_idx for o in log.observations] == list(range(n))


def test_run_to_end_episode_equals_the_hooked_one(short_sim):
    # the same episode with a clean intercept returns at every interval and
    # reads each observation row there, instead of all of them at the end
    clean = FeatureBound(0.5, PerturbMode.CLEAN)
    factories = ([partial(make_controller, name) for name in RULE_BASED]
                 + [partial(_learned, FIXED_POLICY), partial(_learned, RUNAWAY_POLICY)])
    for trace in _golden_traces():
        for factory in factories:
            a, b = run_episode(short_sim, trace, factory()), run_episode(
                short_sim, trace, factory(), intercept=FeatureIntercept(clean))
            assert repr(a) == repr(b), factory


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
    # whole episode logs come back from a forked worker by pickle; each job
    # builds its own controller from a factory
    trace = _golden_traces()[0]
    jobs = [(short_sim, trace, partial(make_controller, name)) for name in RULE_BASED]
    one, two = map_jobs(_whole_log, jobs, 1), map_jobs(_whole_log, jobs, 2)
    assert not hasattr(one[0].observations[0], "__dict__")
    for a, b in zip(one, two):
        assert a.observations == b.observations
        assert (a.sent, a.delivered, a.dropped, a.acked, a.ack_rtt_ticks) == \
            (b.sent, b.delivered, b.dropped, b.acked, b.ack_rtt_ticks)


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
    for name in RULE_BASED:
        log = run_episode(sim, trace, make_controller(name))
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


def _hash_episode(h, log):
    h.update(repr((log.sent, log.delivered, log.dropped, log.acked,
                   log.in_flight_end,
                   [dataclasses.astuple(o) for o in log.observations],
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
    env_policy = _adversary_policy(SurfaceMode.ENV_BANDWIDTH, 1)
    feat_policy = _adversary_policy(SurfaceMode.FEATURE_MIN_RTT, 2)
    half_tick = dataclasses.replace(short_sim, tick_ms=0.5)
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
            logs.append(run_episode(short_sim, None, factory(),
                                    env_driver=driver))
    env_log = logs[-1]
    for bound, seed in ((FeatureBound(0.5), 5),
                        (FeatureBound(0.3, PerturbMode.RANDOM_NOISE), 6)):
        for name in ("vegas", "lp", "bbrlite"):
            intercept = FeatureIntercept(bound, feat_policy, seed=seed)
            logs.append(run_episode(short_sim, traces[0], make_controller(name),
                                    intercept=intercept))
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


def _controller_state(ctl):
    return (ctl.cwnd, ctl.ssthresh, ctl.phase.value,
            getattr(ctl, "indications", 0), getattr(ctl, "gain_index", None),
            ctl.pacing_rate_bps)


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
        cfg = dataclasses.replace(sim, packet_size=constants.get("packet_size", 1500))
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
    # Learned controllers with a tanh hidden layer of 16, which stay
    # external controllers acting from Python once per interval: three
    # random policies on every golden trace, one under a min-RTT intercept,
    # each hashed with its final cwnd and previous action
    traces = _golden_traces()
    rng = np.random.default_rng(16)
    h = hashlib.sha256()
    for scale in (0.3, 1.0, 3.0):
        policy = PolicyNet(n_features=5, hidden=16)
        policy = policy.with_params(rng.normal(0.0, scale, policy.n_params))
        runs = [(trace, None) for trace in traces]
        runs.append((traces[0], FeatureIntercept(FeatureBound(0.5),
                                                 _adversary_policy(
                                                     SurfaceMode.FEATURE_MIN_RTT, 7),
                                                 seed=8)))
        for trace, intercept in runs:
            ctl = LearnedController(policy)
            _hash_episode(h, run_episode(short_sim, trace, ctl, intercept=intercept))
            h.update(repr((ctl.cwnd, ctl.prev_action)).encode())
    assert h.hexdigest() == GOLDEN_HIDDEN_LEARNED_SHA256


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
