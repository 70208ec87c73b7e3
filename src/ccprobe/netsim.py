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
import operator
import os
import sys
import threading

import numpy as np


def _load_tick_loop():
    """The compiled tick loop (`_tickloop.c`, through cffi).

    The module's name carries a hash of the files it is built from and of
    numpy's version, whose C distributions it links, so a stale build is
    never loaded. When none is present, `_tickloop_build.py` compiles one
    into this package (about 2.5 seconds with gcc).
    """
    here = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256(np.__version__.encode())
    for fn in ("_tickloop.c", "_tickloop_build.py"):
        with open(os.path.join(here, fn), "rb") as f:
            h.update(f.read())
    name = f"{__package__}._tickloop_{h.hexdigest()[:16]}"
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError as e:
        if e.name != name:
            raise
    # a separate process, so the compiler toolchain never loads in this one;
    # subprocess is imported only here, so an import that finds a build
    # never loads it
    import subprocess
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
# the fields of a `tl_obs` row, one interval's record, in order: the columns
# of `EpisodeLog.rows`
OBS_COLUMNS = tuple(name for name, _ in _ffi.typeof("tl_obs").fields)
# doubles per `tl_obs` row
_OBS_FIELDS = len(OBS_COLUMNS)


class Rng:
    """A seeded PCG64 stream (`tl_rng`), bit for bit the `Generator` of
    numpy's `default_rng(seed)` in the four draws below, each with numpy's
    errors; a draw of `size` values fills one array in one C call."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        words = [seed >> i & 0xFFFFFFFF for i in range(0, seed.bit_length() or 1, 32)]
        self._s = _ffi.new("tl_rng *")
        _lib.tl_rng_seed(self._s, words, len(words))

    def __repr__(self) -> str:
        s = self._s
        return (f"Rng(state={s.state_hi << 64 | s.state_lo:#x}, "
                f"inc={s.inc_hi << 64 | s.inc_lo:#x}, has_uint32={s.has_uint32}, "
                f"uinteger={s.uinteger})")

    def uniform(self, low: float, high: float, size=None):
        low = float(low)
        span = float(high) - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if size is None:
            return _lib.tl_rng_uniform(self._s, low, span)
        out = np.empty(size)
        _lib.tl_rng_uniform_fill(self._s, low, span, _ffi.from_buffer("double[]", out),
                                 out.size)
        return out

    def random(self) -> float:
        # low + range * u with low 0 and range 1 is u itself
        return _lib.tl_rng_uniform(self._s, 0.0, 1.0)

    def integers(self, low: int, high: int, size=None):
        """Integers in [low, high), as int64."""
        low, last = operator.index(low), operator.index(high) - 1
        if low < -2**63:
            raise ValueError("low is out of bounds for int64")
        if last >= 2**63:
            raise ValueError("high is out of bounds for int64")
        if low > last:
            raise ValueError("low >= high")
        out = np.empty(1 if size is None else size, np.int64)
        _lib.tl_rng_integers_fill(self._s, low % 2**64, last - low,
                                  _ffi.from_buffer("uint64_t[]", out), out.size)
        return int(out[0]) if size is None else out

    def standard_normal(self, size):
        out = np.empty(size)
        _lib.tl_rng_normal_fill(self._s, _ffi.from_buffer("double[]", out), out.size)
        return out


def replace(record, **changes):
    """A new `record` with `changes`, built through its class's constructor,
    so that the constructor's checks run again."""
    return type(record)(**{**vars(record), **changes})


def _fields_repr(record) -> str:
    """`Name(field=value, ...)`, the fields in constructor order."""
    fields = ", ".join(f"{k}={v!r}" for k, v in vars(record).items())
    return f"{type(record).__qualname__}({fields})"


class ConfigError(ValueError):
    """A config, trace, checkpoint or argument that cannot run; the CLI
    reports it on one line and exits 2."""


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


class SimConfig:
    def __init__(self, tick_ms: float = 1.0, one_way_delay_ms: float = 10.0,
                 queue_capacity_bdp: float = 2.0, packet_size: int = 1500,
                 episode_duration_s: float = 60.0, trace_interval_ms: float = 100.0):
        self.tick_ms = tick_ms
        self.one_way_delay_ms = one_way_delay_ms
        self.queue_capacity_bdp = queue_capacity_bdp
        self.packet_size = packet_size
        self.episode_duration_s = episode_duration_s
        self.trace_interval_ms = trace_interval_ms

    __repr__ = _fields_repr

    def validate(self) -> None:
        """ConfigError unless the times are whole multiples of each other."""
        # ACKs are filed under tick + 2 * owd_ticks, so the delay must be a
        # whole, non-zero number of ticks
        owd = self.one_way_delay_ms / self.tick_ms
        if not 1 - 1e-9 <= owd < math.inf or abs(owd - round(owd)) > 1e-9:
            raise ConfigError("one_way_delay_ms must be a positive integer "
                              "multiple of tick_ms")
        ratio = self.trace_interval_ms / self.tick_ms
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError("trace_interval_ms must be an integer multiple of tick_ms")
        n_int = self.episode_duration_s * 1000.0 / self.trace_interval_ms
        if not n_int >= 1 - 1e-9 or abs(n_int - round(n_int)) > 1e-9:
            raise ConfigError("episode duration must be a positive integer "
                              "multiple of trace_interval_ms")

    @property
    def interval_ticks(self) -> int:
        return int(round(self.trace_interval_ms / self.tick_ms))

    @property
    def n_intervals(self) -> int:
        return int(round(self.episode_duration_s * 1000.0 / self.trace_interval_ms))

    @property
    def base_rtt_ms(self) -> float:
        return 2.0 * self.one_way_delay_ms


class BandwidthTrace:
    """Time-indexed available capacity; one value per interval, in Mbps,
    cycled like a Mahimahi replay."""

    def __init__(self, interval_ms: float, values: list[float]):
        self.interval_ms = interval_ms
        self.values = values
        if not self.values:
            raise ConfigError("trace must be non-empty")
        if not 0 < self.interval_ms < math.inf:
            raise ConfigError(f"interval_ms must be finite and > 0, "
                              f"got {self.interval_ms}")
        for v in self.values:
            if not 0 <= v < math.inf:
                raise ConfigError(f"bandwidth must be finite and >= 0 Mbps, "
                                  f"got {v}")


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


# export block length in ms: an export holds one block of sums (32 KiB) and
# one chunk of lines (64 KiB) at a time, however many lines one ms holds
_EXPORT_BLOCK_MS = 4096
_EXPORT_CHUNK = 1 << 16
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
    and leaves `path` as it was: the lines go to a new file next to `path`,
    which replaces it once the last block has passed the check."""
    pkt = float(_packet_size(packet_size))
    total_ms = len(trace.values) * trace.interval_ms
    if total_ms > EXPORT_MAX_MS:
        raise ConfigError(f"trace lasts {total_ms:.4g} ms, longer than the "
                          f"{EXPORT_MAX_MS} ms (one day) an export may cover")
    buf = _ffi.new("char[]", _EXPORT_CHUNK)
    done, pos = _ffi.new("int64_t *"), _ffi.new("int64_t *")
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            for start, block in _cum_bytes_blocks(trace):
                if not block[-1] < 2.0**53:   # the sums only grow: the last is the largest
                    raise ConfigError(f"trace carries {block[-1]:.4g} bytes by ms "
                                      f"{start + len(block)}, too many to count "
                                      f"delivery opportunities exactly (limit 2^53)")
                cum, pos[0] = _ffi.from_buffer("double[]", block), 0
                while pos[0] < len(block):
                    n = _lib.tl_mahi_lines(cum, len(block), start, pkt, done, pos,
                                           buf, _EXPORT_CHUNK)
                    f.write(_ffi.buffer(buf, n))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


class EpisodeLog:
    """An episode's totals and series. A log holds an array, so logs compare
    by identity; compare their `rows` instead."""

    def __init__(self, config: SimConfig, sent: int = 0, delivered: int = 0,
                 dropped: int = 0, acked: int = 0, in_flight_end: int = 0,
                 triple_dups: int = 0, timeouts: int = 0,
                 rows: np.ndarray | None = None,
                 ack_rtt_ticks: dict[int, int] | None = None):
        self.config = config
        # totals
        self.sent = sent
        self.delivered = delivered
        self.dropped = dropped
        self.acked = acked
        self.in_flight_end = in_flight_end
        # loss reactions by kind
        self.triple_dups = triple_dups
        self.timeouts = timeouts
        # per-interval series: row i is interval i's `tl_obs` row, as the
        # tick loop wrote it (OBS_COLUMNS)
        self.rows = np.empty((0, _OBS_FIELDS)) if rows is None else rows
        # per-ACK RTT histogram: RTT in ticks -> number of ACKs
        self.ack_rtt_ticks = {} if ack_rtt_ticks is None else ack_rtt_ticks

    __repr__ = _fields_repr

    def column(self, name: str) -> np.ndarray:
        """One field of every row, a name in OBS_COLUMNS."""
        return self.rows[:, OBS_COLUMNS.index(name)]

    def sums(self, reward=None):
        """The rows' `tl_sums`, each summed left to right in C: queuing delay
        (smoothed RTT minus true base RTT, floored at 0), capacity, throughput
        and, given `reward` (a `learned.RewardParams`), the controller reward;
        DomainError from the first row outside the reward's domain."""
        rows = self.rows
        if (rows.dtype != np.float64 or rows.shape[1:] != (_OBS_FIELDS,)
                or not rows.flags.c_contiguous):
            raise ValueError(f"rows must be a C-contiguous float64 array of "
                             f"{_OBS_FIELDS} columns, got {rows.dtype} {rows.shape}")
        s = _ffi.new("tl_sums *")
        domain_check(_lib.tl_obs_sums(
            _ffi.from_buffer("tl_obs[]", rows), len(rows), self.config.base_rtt_ms,
            _ffi.NULL if reward is None else reward.c_struct(), s))
        return s


def run_episode(config: SimConfig, trace, controller) -> EpisodeLog:
    """Closed-loop episode of `controller` on `trace`, with no adversary: the
    k = 1 case of `run_episodes`, which says how the loop runs and takes an
    adversary."""
    return run_episodes(config, [trace], [controller])[0]


def run_episodes(config: SimConfig, traces, controllers,
                 adversaries=None) -> list[EpisodeLog]:
    """k episodes in lock-step, row j of `traces`, `controllers` and
    `adversaries` (None for none); each log equals the row's episode run alone.

    The ticks run in C (`_tickloop.c`), which also writes each interval's
    observation into a buffer, steps the controller's `cc_state` and does
    every per-interval step of the adversary but its policy's matmuls: its
    feature row, action or, with no policy, its random draw, next capacity
    or min-RTT scale, and reward. A row with no policy for numpy runs to its
    end in one `tl_step` call. The others, with a TL_HIDDEN controller or an
    adversary that has a policy, stop at each interval boundary, all in one
    `tl_step_rows` call per interval; there each group's hook (`_lockstep`),
    one stacked `learned.policy_outputs` call, leaves its members' outputs
    for the next call to act on. Rows are independent, so stepping all of
    them before any hook changes nothing. Each log's `rows` are the buffer
    the loop wrote.

    A row with no trace takes its capacity from its adversary, an env driver.
    A slice's hidden-layer controllers share one policy shape, and so do its
    adversaries that have a policy; ValueError, before any tick runs, names
    the rows of a slice whose policies do not. An adversary has
    `adv_state`, its `tl_adv`; `policy`; `n_features`; and `begin_episode()`,
    which resets it.
    """
    config.validate()
    adversaries = adversaries or [None] * len(controllers)
    n = config.n_intervals
    hidden = {j: c for j, c in enumerate(controllers)
              if c.cc_state.kind == _lib.TL_HIDDEN}
    advs = {j: a for j, a in enumerate(adversaries)
            if a is not None and a.adv_state.has_policy}
    _one_policy_shape("hidden-layer controllers", hidden)
    _one_policy_shape("adversaries", advs)
    rows = []
    try:
        for row in zip(traces, controllers, adversaries, strict=True):
            rows.append(_Row(config, *row))
        for row in rows:
            if not row.st.hooked and (ev := _lib.tl_step(row.st)) != _DONE:
                raise _tick_loop_error(ev, row.st)
        # each group's hook, and the number of boundaries it runs at
        hooks = [(_lockstep(list(group.values()), struct), m) for group, struct, m
                 in ((hidden, "cc_state", n), (advs, "adv_state", n - 1)) if group]
        hooked = [row.st for row in rows if row.st.hooked]
        states = _ffi.new("tl_state *[]", hooked)
        failed = _ffi.new("int64_t *")
        for i in range(n + 1 if hooked else 0):
            want = _INTERVAL if i < n else _DONE
            if (ev := _lib.tl_step_rows(states, len(hooked), want, failed)) != want:
                raise _tick_loop_error(ev, hooked[failed[0]])
            for hook, m in hooks:
                if i < m:
                    hook()
        return [row.finish() for row in rows]
    finally:
        for row in rows:
            _lib.tl_free(row.st)


def _one_policy_shape(what: str, members: dict) -> None:
    """ValueError naming the rows unless a slice group's `members` (row ->
    controller or adversary) have policies of one shape, (features, hidden
    width): the group's hook stacks them."""
    rows = {}
    for j, m in members.items():
        rows.setdefault((m.policy.n_features, m.policy.hidden), []).append(j)
    if len(rows) > 1:
        shapes = "; ".join(f"rows {js}: {nf} features, hidden {nh}"
                           for (nf, nh), js in rows.items())
        raise ValueError(f"a lock-step slice's {what} need one policy shape, "
                         f"got {shapes}")


def _lockstep(members, struct: str):
    """A slice group's hook, one stacked `learned.policy_outputs` call, filling
    out[j] from x[j]; member j's C struct `struct` points at both, it keeps them."""
    from .learned import policy_outputs   # learned imports this module
    x, out = np.zeros((len(members), members[0].n_features)), np.zeros(len(members))
    for j, member in enumerate(members):
        s = getattr(member, struct)
        member._x = s.x = _ffi.from_buffer("double[]", x[j])
        member._out = s.out = _ffi.from_buffer("double[]", out[j:j + 1])
    return policy_outputs([member.policy for member in members], x, out)


class _Row:
    """A `run_episodes` row: its `tl_state`, and the buffers it points to."""

    def __init__(self, config: SimConfig, trace, controller, adversary):
        adv = None if adversary is None else adversary.adv_state
        env = adv is not None and adv.surface == _lib.TL_ADV_ENV
        if (trace is None) != env:
            raise ConfigError("an episode's capacity comes from exactly one of "
                              "a trace and an env driver")
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
        max_cap = adv.bw_max if env else max(trace.values)
        queue_cap_bytes = config.queue_capacity_bdp * (max_cap * 1e6 / 8.0) * (base_rtt_ms / 1000.0)
        queue_cap_pkts = max(1, int(queue_cap_bytes // pkt))
        n_ticks = n_intervals * interval_ticks
        # a tick injects at most queue_cap_pkts + 8 packets, so this bounds every
        # count the tick loop keeps in 64 bits
        if n_ticks * (queue_cap_pkts + 8) >= 2**62:
            raise ConfigError(f"capacity {max_cap:g} Mbps makes a queue of "
                              f"{queue_cap_pkts:.3g} packets, too many to count "
                              f"in 64 bits")

        self.st = st = _ffi.new("tl_state *")
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
        # the loop writes each of the log's rows before anything reads it
        self.log = EpisodeLog(config=config, rows=np.empty((n_intervals, _OBS_FIELDS)))
        self.obs = st.obs = _ffi.from_buffer("tl_obs[]", self.log.rows)

        st.cc = controller.cc_state
        st.hooked = st.cc.kind == _lib.TL_HIDDEN or (adv is not None and adv.has_policy)
        st.scale = 1.0
        if adv is not None:
            adversary.begin_episode()
            st.adv = adv
            if env:
                st.capacity = adv.value
            else:
                st.scale = adv.value
        if trace is not None:
            self.caps = st.caps = _ffi.new("double[]", trace.values)
            st.n_caps = len(self.caps)
            st.capacity = self.caps[0]

    def finish(self) -> EpisodeLog:
        """The episode's log, once `st` has run to the end."""
        st, log = self.st, self.log
        log.sent = st.sent
        log.delivered = st.delivered
        log.dropped = st.dropped
        log.acked = st.acked
        log.in_flight_end = st.sent - st.delivered - st.dropped
        log.triple_dups = st.triple_dups
        log.timeouts = st.timeouts
        # no ACK, no histogram buffer
        hist = np.frombuffer(_ffi.buffer(st.hist, 8 * st.hist_len), np.int64)
        rtts = hist.nonzero()[0]
        log.ack_rtt_ticks = dict(zip(rtts.tolist(), hist[rtts].tolist()))
        return log


# the message of each TL_DOMAIN_* code: the adversarial reward's checks
_DOMAIN_ERRORS = {_lib.TL_DOMAIN_RTT: "rtt < min_rtt: broken observation pipeline",
                  _lib.TL_DOMAIN_MIN_RTT: "min_rtt must be > 0",
                  _lib.TL_DOMAIN_UTILIZATION: "utilization out of [0, 1]"}


def domain_check(err: int) -> None:
    """DomainError for a TL_DOMAIN_* code from C; nothing for 0."""
    if err:
        raise DomainError(_DOMAIN_ERRORS[err])


def _tick_loop_error(ev: int, st) -> Exception:
    if ev in _DOMAIN_ERRORS:
        return DomainError(_DOMAIN_ERRORS[ev])
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
    threads: this one and `n - 1` started for the batch. Each thread takes the
    next job no thread has taken yet. The tick loop runs without the GIL, so
    episodes that run to their end in one `tl_step` call overlap. Once a job
    raises, no thread starts another; after every thread has joined, the
    exception of the lowest-indexed failed job is raised unchanged."""
    jobs = list(jobs)
    n = min(workers, len(jobs))
    if n <= 1:
        return [fn(*job) for job in jobs]
    results, failed = [None] * len(jobs), {}
    lock, untaken = threading.Lock(), iter(range(len(jobs)))

    def work():
        while True:
            with lock:
                i = None if failed else next(untaken, None)
            if i is None:
                return
            try:
                results[i] = fn(*jobs[i])
            except BaseException as e:
                with lock:
                    failed[i] = e

    threads = []
    try:
        for _ in range(n - 1):
            t = threading.Thread(target=work)
            t.start()
            threads.append(t)
        work()
    except BaseException as e:
        # a thread that would not start, or an interrupt: stop the others
        with lock:
            failed[-1] = e
        raise
    finally:
        for t in threads:
            t.join()
    if failed:
        raise failed[min(failed)]
    return results
