"""Deterministic single-flow bottleneck-link simulator.

One sender, one drop-tail FIFO queue in front of a time-varying link,
fixed propagation delay each way. Packet granularity (1500 B default),
fixed tick (1 ms default). Everything is a pure function of the inputs,
so identical (config, trace, controller) runs give identical logs.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np


def _load_tick_loop():
    """The compiled tick loop (`_tickloop.c`, through cffi).

    The module's name carries a hash of the files it is built from, so a
    stale build is never loaded. When none is present, `_tickloop_build.py`
    compiles one into this package (about a second with gcc).
    """
    here = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for fn in ("_tickloop.c", "_tickloop_build.py"):
        with open(os.path.join(here, fn), "rb") as f:
            h.update(f.read())
    name = f"{__package__}._tickloop_{h.hexdigest()[:16]}"
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError as e:
        if e.name != name:
            raise
    # a separate process, so the compiler toolchain never loads in this one
    build = subprocess.run([sys.executable, os.path.join(here, "_tickloop_build.py"),
                            name.rpartition(".")[2]],
                           capture_output=True, text=True)
    if build.returncode:
        raise ImportError(f"building {name} failed:\n{build.stdout}{build.stderr}")
    importlib.invalidate_caches()
    return importlib.import_module(name)


_tick_loop = _load_tick_loop()
_ffi, _lib = _tick_loop.ffi, _tick_loop.lib
_DONE, _INTERVAL = _lib.TL_DONE, _lib.TL_INTERVAL
# doubles per `tl_obs` row: an Observation's fields after interval_idx
_OBS_FIELDS = _ffi.sizeof("tl_obs") // _ffi.sizeof("double")


class ConfigError(ValueError):
    pass


class EmptyLog(ValueError):
    pass


class DomainError(ValueError):
    pass


def _packet_size(size) -> int:
    """`size` as an int; ConfigError unless it is integral and >= 1."""
    if (isinstance(size, bool) or not isinstance(size, (int, float))
            or not float(size).is_integer() or size < 1):
        raise ConfigError(f"packet_size must be an integer >= 1, got {size!r}")
    return int(size)


@dataclass
class SimConfig:
    tick_ms: float = 1.0
    one_way_delay_ms: float = 10.0
    queue_capacity_bdp: float = 2.0
    packet_size: int = 1500
    episode_duration_s: float = 60.0
    trace_interval_ms: float = 100.0

    def validate(self) -> None:
        if self.tick_ms <= 0:
            raise ConfigError("tick_ms must be > 0")
        # the tick loop counts packets and bytes in whole numbers; an
        # integral float such as 1500.0 converts to one exactly
        _packet_size(self.packet_size)
        # ACKs are filed under tick + 2 * owd_ticks, so the delay must be a
        # whole, non-zero number of ticks
        owd = self.one_way_delay_ms / self.tick_ms
        if not 1 - 1e-9 <= owd < math.inf or abs(owd - round(owd)) > 1e-9:
            raise ConfigError("one_way_delay_ms must be a positive integer "
                              "multiple of tick_ms")
        if self.queue_capacity_bdp <= 0:
            raise ConfigError("queue_capacity_bdp must be > 0")
        ratio = self.trace_interval_ms / self.tick_ms
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError("trace_interval_ms must be an integer multiple of tick_ms")
        n_int = self.episode_duration_s * 1000.0 / self.trace_interval_ms
        if abs(n_int - round(n_int)) > 1e-9:
            raise ConfigError("episode duration must be an integer multiple of trace_interval_ms")

    @property
    def interval_ticks(self) -> int:
        return int(round(self.trace_interval_ms / self.tick_ms))

    @property
    def n_intervals(self) -> int:
        return int(round(self.episode_duration_s * 1000.0 / self.trace_interval_ms))

    @property
    def base_rtt_ms(self) -> float:
        return 2.0 * self.one_way_delay_ms


@dataclass
class BandwidthTrace:
    """Time-indexed available capacity; one value per interval, in Mbps."""

    interval_ms: float
    values: list[float]

    def __post_init__(self):
        if not self.values:
            raise ConfigError("trace must be non-empty")
        if not 0 < self.interval_ms < math.inf:
            raise ConfigError(f"interval_ms must be finite and > 0, "
                              f"got {self.interval_ms}")
        for v in self.values:
            if not 0 <= v < math.inf:
                raise ConfigError(f"bandwidth must be finite and >= 0 Mbps, "
                                  f"got {v}")

    def capacity_at(self, interval_idx: int) -> float:
        # cycles like Mahimahi replays
        return self.values[interval_idx % len(self.values)]


def read_trace(path: str) -> BandwidthTrace:
    interval_ms = None
    values = []
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line.lstrip("#").strip()
                    if body.startswith("interval_ms="):
                        interval_ms = float(body.split("=", 1)[1])
                    continue
                values.append(float(line))
        if interval_ms is None:
            raise ConfigError("missing '# interval_ms=<int>' header")
        return BandwidthTrace(interval_ms=interval_ms, values=values)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def write_trace(trace: BandwidthTrace, path: str) -> None:
    with open(path, "w") as f:
        f.write(f"# interval_ms={int(round(trace.interval_ms))}\n")
        for v in trace.values:
            f.write(f"{v:.6f}\n")


# export block length in ms: a 60 s trace raises peak RSS by ~0.25 MB in
# blocks of 4,096 ms, ~0.65 MB in blocks of 8,192 and ~2.3 MB all at once
_EXPORT_BLOCK_MS = 4096
# the longest trace exported: one day, walked in ~21,000 blocks
EXPORT_MAX_MS = 86_400_000


def _cum_bytes_blocks(trace: BandwidthTrace):
    """(first ms, capacity bytes carried by the end of each ms) per block.

    The same additions as a per-ms `cum += capacity * 1e6 / 8.0 / 1000.0`,
    in the same order: `cumsum` accumulates strictly left to right, and each
    block continues from the last sum of the one before. A sum too large
    for a double is inf.
    """
    # Python floats: a product too large for a double is inf, not a warning
    per_ms = np.array([v * 1e6 / 8.0 / 1000.0 for v in trace.values])
    total_ms = int(round(len(trace.values) * trace.interval_ms))
    cum = 0.0
    for start in range(0, total_ms, _EXPORT_BLOCK_MS):
        ms = np.arange(start, min(start + _EXPORT_BLOCK_MS, total_ms),
                       dtype=np.float64)
        # numpy's float floor_divide is CPython's `//`
        idx = np.floor_divide(ms, trace.interval_ms, out=ms).astype(np.int64)
        block = per_ms.take(np.remainder(idx, len(per_ms), out=idx))
        block[0] += cum
        with np.errstate(over="ignore"):
            np.cumsum(block, out=block)
        cum = block[-1]
        yield start, block


def export_mahimahi(trace: BandwidthTrace, path: str, packet_size: int = 1500) -> None:
    """One integer-ms timestamp per packet-sized delivery opportunity.

    Timestamp ms + 1 appears once for each k >= 1 whose k * packet_size
    bytes the link has carried by the end of ms `ms`. The counts are exact
    while the trace carries fewer than 2^53 bytes in all; a trace that
    carries more, or lasts longer than EXPORT_MAX_MS, raises ConfigError
    before anything is written.
    """
    pkt = float(_packet_size(packet_size))
    total_ms = len(trace.values) * trace.interval_ms
    if total_ms > EXPORT_MAX_MS:
        raise ConfigError(f"trace lasts {total_ms:.4g} ms, longer than the "
                          f"{EXPORT_MAX_MS} ms (one day) an export may cover")
    for start, block in _cum_bytes_blocks(trace):
        if not block[-1] < 2.0**53:   # the sums only grow: the last is the largest
            raise ConfigError(f"trace carries {block[-1]:.4g} bytes by ms "
                              f"{start + len(block)}, too many to count "
                              f"delivery opportunities exactly (limit 2^53)")
    with open(path, "w") as f:
        done = 0.0
        for start, block in _cum_bytes_blocks(trace):
            # max{k : k * pkt <= cum}, exactly: see tl_floordiv in _tickloop.c
            k = np.floor(np.divide(block, pkt, out=block), out=block)
            counts = np.diff(k, prepend=done).astype(np.int64).tolist()
            done = k[-1]
            f.writelines(f"{ms}\n" * c
                         for ms, c in enumerate(counts, start + 1) if c)


@dataclass(slots=True)
class Observation:
    """Per-monitoring-interval snapshot consumed by controllers and adversary."""

    interval_idx: int
    now_ms: float
    capacity_mbps: float
    throughput_mbps: float   # delivered goodput over the interval
    loss_mbps: float         # dropped-byte rate over the interval
    loss_rate: float         # dropped / sent packets (0 if nothing sent)
    srtt_ms: float           # smoothed RTT (ground truth)
    min_rtt_ms: float        # running minimum RTT (ground truth)
    visible_min_rtt_ms: float  # what the controller's min-RTT estimate reads
    utilization: float       # delivered / capacity over the interval
    cwnd: float


@dataclass
class EpisodeLog:
    config: SimConfig
    # totals
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    acked: int = 0
    in_flight_end: int = 0
    # loss reactions by kind
    triple_dups: int = 0
    timeouts: int = 0
    # per-interval series
    observations: list[Observation] = field(default_factory=list)
    # per-ACK RTT histogram: RTT in ticks -> number of ACKs
    ack_rtt_ticks: dict[int, int] = field(default_factory=dict)

    def mean_queuing_delay_ms(self) -> float:
        """Mean per-interval queuing delay (smoothed RTT minus true base RTT)."""
        if not self.observations:
            return 0.0
        base = self.config.base_rtt_ms
        return sum(max(0.0, o.srtt_ms - base) for o in self.observations) / len(self.observations)

    def mean_utilization(self) -> float:
        if not self.observations:
            return 0.0
        cap = sum(o.capacity_mbps for o in self.observations)
        got = sum(o.throughput_mbps for o in self.observations)
        return min(1.0, got / cap) if cap > 0 else 0.0


def run_episode(config: SimConfig, trace, controller, intercept=None,
                env_driver=None) -> EpisodeLog:
    """Closed-loop episode: sim <-> controller, optionally with an adversary.

    Exactly one of `trace` (pre-specified) or `env_driver` (supplies the next
    interval's bandwidth online) drives the link capacity. `intercept`, when
    given, scales the min-RTT estimate the controller reads; simulator ground
    truth is never touched.

    The ticks run in C (`_tickloop.c`), which also writes each interval's
    observation into a buffer and steps the controller's `cc_state`: per ACK
    batch and loss reaction for a rule controller, per interval for a
    learned one with a linear policy. Such an episode on a trace runs to its
    end in one call, and its observations are built from the buffer once.
    The loop comes back here at every interval boundary only for work that
    is Python's: the `on_interval` of a TL_EXTERNAL controller (`Pinned`, a
    learned one with a hidden layer, any other `Controller` subclass), which
    sets its next cwnd in `cc_state` itself, the intercept and the env
    driver. `controller` is a `cc.Controller`: the loop drives its
    `cc_state` and nothing else.
    """
    config.validate()
    if (trace is None) == (env_driver is None):
        raise ConfigError("exactly one of trace / env_driver must be given")
    if trace is not None and trace.interval_ms != config.trace_interval_ms:
        raise ConfigError(f"trace interval {trace.interval_ms:g} ms differs "
                          f"from sim trace_interval_ms "
                          f"{config.trace_interval_ms:g} ms")

    pkt = int(config.packet_size)
    tick_ms = config.tick_ms
    interval_ticks = config.interval_ticks
    n_intervals = config.n_intervals
    base_rtt_ms = config.base_rtt_ms

    # Fixed buffer: 2 x (max capacity x base RTT), as with a static Mahimahi queue.
    if trace is not None:
        max_cap = max(trace.values)
    else:
        max_cap = env_driver.bw_max
    queue_cap_bytes = config.queue_capacity_bdp * (max_cap * 1e6 / 8.0) * (base_rtt_ms / 1000.0)
    queue_cap_pkts = max(1, int(queue_cap_bytes // pkt))
    n_ticks = n_intervals * interval_ticks
    # a tick injects at most queue_cap_pkts + 8 packets, so this bounds every
    # count the tick loop keeps in 64 bits
    if n_ticks * (queue_cap_pkts + 8) >= 2**62:
        raise ConfigError(f"capacity {max_cap:g} Mbps makes a queue of "
                          f"{queue_cap_pkts:.3g} packets, too many to count "
                          f"in 64 bits")

    st = _ffi.new("tl_state *")
    st.pkt = pkt
    # ACKs return two one-way delays after delivery
    st.ack_delay = 2 * int(round(config.one_way_delay_ms / tick_ms))
    st.interval_ticks = interval_ticks
    st.n_ticks = n_ticks
    st.queue_cap = queue_cap_pkts
    st.burst_cap = queue_cap_pkts + 8
    st.tick_ms = tick_ms
    st.owd_ms = config.one_way_delay_ms
    st.base_rtt_ms = base_rtt_ms
    st.min_rtt = st.min_owd = math.inf
    st.reaction_blocked_until = -1
    rows = st.obs = _ffi.new("tl_obs[]", n_intervals)
    flat = _ffi.cast("double *", rows)

    st.cc = controller.cc_state
    acts = st.cc.kind == _lib.TL_EXTERNAL
    hooked = st.hooked = acts or intercept is not None or env_driver is not None

    if env_driver is not None:
        st.capacity = env_driver.first_capacity()
    else:
        caps = st.caps = _ffi.new("double[]", trace.values)
        st.n_caps = len(caps)
        st.capacity = caps[0]

    if intercept is not None:
        intercept.begin_episode()
    st.scale = 1.0 if intercept is None else intercept.scale()

    log = EpisodeLog(config=config)
    observations = log.observations
    step = _lib.tl_step
    try:
        while True:
            ev = step(st)
            if ev == _INTERVAL:
                i = len(observations)
                obs = Observation(i, *_ffi.unpack(flat + i * _OBS_FIELDS, _OBS_FIELDS))
                observations.append(obs)
                if acts:
                    controller.on_interval(obs)
                if intercept is not None:
                    intercept.begin_interval(obs)
                    st.scale = intercept.scale()
                if env_driver is not None and i + 1 < n_intervals:
                    st.capacity = env_driver.next_capacity(obs)
            elif ev == _DONE:
                break
            else:
                raise _tick_loop_error(ev, st)

        if not hooked:
            # map draws _OBS_FIELDS values in a row for each Observation
            values = iter(_ffi.unpack(flat, n_intervals * _OBS_FIELDS))
            log.observations = list(map(Observation, range(n_intervals),
                                        *[values] * _OBS_FIELDS))
        log.sent = st.sent
        log.delivered = st.delivered
        log.dropped = st.dropped
        log.acked = st.acked
        log.in_flight_end = st.sent - st.delivered - st.dropped
        log.triple_dups = st.triple_dups
        log.timeouts = st.timeouts
        # no ACK, no histogram buffer
        hist = _ffi.unpack(st.hist, st.hist_len) if st.hist_len else ()
        log.ack_rtt_ticks = {r: c for r, c in enumerate(hist) if c}
    finally:
        _lib.tl_free(st)
    return log


def _tick_loop_error(ev: int, st) -> Exception:
    if ev == _lib.TL_NOMEM:
        return MemoryError("tick loop: no memory left for the queue, ACK or "
                           "RTT buffers or BBR-lite's sample deques")
    if ev == _lib.TL_BAD_CWND:
        return ValueError(f"controller cwnd {st.cc.w.cwnd!r} is not finite")
    if ev == _lib.TL_BAD_PACING:
        return ValueError(f"pacing rate {st.cc.pacing_bps!r} bps "
                          f"leaves no finite pacing credit")
    return ValueError(f"capacity {st.capacity!r} Mbps leaves no finite link credit")


def map_jobs(fn, jobs, workers: int) -> list:
    """`[fn(*job) for job in jobs]`, in order, on `n = min(workers, len(jobs))`
    processes: this one and `n - 1` children forked for the batch. Child k runs
    jobs k, k + n, ... and this process jobs 0, n, ..., then reads each child's
    pickled results from a pipe. Children inherit `fn` and the jobs, so only
    results must pickle. A child's exception is raised here (as a RuntimeError
    with its repr if it does not pickle); every child is reaped first. A child
    ends in `os._exit`: stdio output it leaves buffered is dropped, not doubled."""
    jobs = list(jobs)
    n = min(workers, len(jobs))
    if n <= 1:
        return [fn(*job) for job in jobs]
    results, children = [None] * len(jobs), []     # (pid, pipe's read end)
    try:
        for k in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r), os.close(w)
                raise
            if pid == 0:
                _child(fn, jobs[k::n], w, [r] + [f.fileno() for _, f in children])
            os.close(w)
            children.append((pid, open(r, "rb")))
        results[::n] = [fn(*job) for job in jobs[::n]]
        sent = [f.read() for _, f in children]
    finally:
        # a child blocked on a full pipe gets EPIPE once its read end closes
        for _, f in children:
            f.close()
        ended = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for k, (pid, _), data, status in zip(range(1, n), children, sent, ended):
        if status or not data:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"map_jobs worker {pid} sent no results: " + (
                f"exit status {code}" if code >= 0 else f"killed by signal {-code}"))
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results[k::n] = value
    return results


def _child(fn, jobs: list, w: int, inherited: list[int]) -> None:
    """A forked worker: run `jobs`, write `(True, results)` or `(False,
    exception)` to `w`, and leave by `os._exit`, never by the caller's stack."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            data = pickle.dumps((True, [fn(*job) for job in jobs]))
        except BaseException as e:
            try:
                data = pickle.dumps((False, e))
                pickle.loads(data)
            except Exception:
                data = pickle.dumps((False, RuntimeError(repr(e))))
        with open(w, "wb") as f:
            f.write(data)
        status = 0
    finally:
        os._exit(status)
