"""Outside-in tracing: spans recorded around calls into each ccprobe module.

`Instrumentation` replaces chosen functions and methods of the imported ccprobe
modules with wrappers that open and close spans on a `Tracer`; the program's
source is not touched. A layer's self time is its span's duration minus the
part of that interval its child spans cover. Spans nest on one stack, so the
traced run must keep every episode in one process (`--workers 1`).
"""

from __future__ import annotations

import enum
import functools
import hashlib
import inspect
import time
from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class SpanStats:
    calls: int = 0          # outermost entries (a nested same-name call is not counted)
    total_s: float = 0.0    # duration of outermost entries
    self_s: float = 0.0     # duration minus child-span coverage, all entries
    depth: int = 0          # entries open right now
    durations: list[float] | None = None   # outermost durations, when asked for


class Tracer:
    """Span stack with per-name aggregates, counters and samples.

    `wrap(fn, name)` returns `fn` inside a span. Hot spans (per-ACK
    callbacks) are only aggregated. Spans whose name starts with one of
    `record` are also kept as (name, start, end, parent index), the parent
    being the nearest recorded ancestor, so a run can write them out.
    """

    def __init__(self, clock=time.perf_counter, keep_durations=(), record=()):
        self.clock = clock
        self.stack: list[list] = []   # open spans: [child_s, nearest recorded index]
        self.stats: dict[str, SpanStats] = {}
        self.keep_durations = set(keep_durations)
        self.record = tuple(record)
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    def get(self, name: str) -> SpanStats:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats(
                durations=[] if name in self.keep_durations else None)
        return st

    def wrap(self, fn, name: str, before=None, after=None):
        """`fn` inside span `name`. `before(args, kwargs)` runs just ahead of
        the span; its return value goes to `after(ctx, result)`, which runs
        just behind it."""
        st = self.get(name)
        stack, clock, spans = self.stack, self.clock, self.spans
        record = bool(self.record) and name.startswith(self.record)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(args, kwargs) if before is not None else None
            rec = parent = stack[-1][1] if stack else -1
            if record:
                rec = len(spans)
                spans.append((name, 0.0, 0.0, parent))
            frame = [0.0, rec]
            stack.append(frame)
            st.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st.depth -= 1
                st.self_s += dur - frame[0]
                if not st.depth:
                    st.calls += 1
                    st.total_s += dur
                    if st.durations is not None:
                        st.durations.append(dur)
                if stack:
                    stack[-1][0] += dur
                if record:
                    spans[rec] = (name, start, end, parent)
            if after is not None:
                after(ctx, result)
            return result

        return wrapper

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)


# --- episode identity ----------------------------------------------------------

def _canon(obj):
    """A repr-able, address-free canonical form of controller/intercept state."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape,
                hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest())
    if isinstance(obj, np.random.Generator):
        return ("Generator", _canon(obj.bit_generator.state))
    if isinstance(obj, (list, tuple, deque)):
        return tuple(_canon(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((str(k), _canon(v)) for k, v in obj.items()))
    if hasattr(obj, "__dict__"):
        return (type(obj).__qualname__, _canon(vars(obj)))
    return repr(obj)


def episode_key(config, trace, controller, intercept=None) -> str:
    """Identity of a trace-driven episode's inputs.

    `SimConfig.rng_seed` is left out because `run_episode` never reads it:
    episodes that differ only there are the same work done again.
    """
    sim = {k: v for k, v in vars(config).items() if k != "rng_seed"}
    blob = repr((_canon(sim), repr(trace.interval_ms), _canon(list(trace.values)),
                 _canon(controller), _canon(intercept)))
    return hashlib.sha256(blob.encode()).hexdigest()


# --- instrumentation -------------------------------------------------------------

class Instrumentation:
    """Patches ccprobe's modules for one traced run; `undo()` restores them."""

    MODULES = ("netsim", "cc", "learned", "cem", "adversary", "tracegen",
               "advtrain", "metrics", "config", "cli")

    def __init__(self, tracer: Tracer, modules: dict):
        self.tracer = tracer
        self.mods = modules
        self.undo_list: list[tuple[object, str, object]] = []
        self.episode_keys: set[str] = set()

    # patching helpers
    def _set(self, owner, attr: str, value) -> None:
        self.undo_list.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, name: str, before=None, after=None,
                 replacement=None) -> None:
        """Wrap a module-level function everywhere ccprobe refers to it."""
        original = getattr(self.mods[module], attr)
        wrapped = replacement or self.tracer.wrap(original, name, before, after)
        for mod in self.mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def method(self, cls, attr: str, name: str, before=None) -> None:
        if attr in vars(cls):
            self._set(cls, attr, self.tracer.wrap(vars(cls)[attr], name, before))

    def undo(self) -> None:
        for owner, attr, value in reversed(self.undo_list):
            setattr(owner, attr, value)
        self.undo_list.clear()

    # the layers
    def install(self) -> "Instrumentation":
        m, t = self.mods, self.tracer

        # netsim
        sig = inspect.signature(m["netsim"].run_episode)

        def episode_before(args, kwargs):
            b = sig.bind(*args, **kwargs).arguments
            cfg = b["config"]
            if b.get("trace") is not None:
                t.count("netsim.trace_episodes")
                self.episode_keys.add(episode_key(cfg, b["trace"], b["controller"],
                                                  b.get("intercept")))
            return cfg

        def episode_after(cfg, log):
            t.count("netsim.ticks", cfg.n_intervals * cfg.interval_ticks)
            t.count("netsim.acked", log.acked)
            t.count("netsim.sent", log.sent)
            t.count("netsim.dropped", log.dropped)

        self.function("netsim", "run_episode", "netsim.run_episode",
                      episode_before, episode_after)
        for fn in ("read_trace", "write_trace", "export_mahimahi"):
            self.function("netsim", fn, "netsim.trace_io")

        # cc: every controller class's own callbacks
        cc = m["cc"]
        loss_kinds = {cc.LossKind.TRIPLE_DUP_ACK: "cc.on_loss.triple_dup",
                      cc.LossKind.TIMEOUT: "cc.on_loss.timeout"}

        on_loss = t.get("cc.on_loss")

        def loss_before(args, kwargs):
            if on_loss.depth == 0:
                kind = args[1] if len(args) > 1 else kwargs["kind"]
                t.count(loss_kinds[kind])

        for cls in vars(cc).values():
            if isinstance(cls, type) and issubclass(cls, cc.Controller):
                self.method(cls, "on_ack", "cc.on_ack")
                self.method(cls, "on_loss", "cc.on_loss", loss_before)
                self.method(cls, "on_interval", "cc.on_interval")

        # learned
        learned = m["learned"]
        self.method(learned.PolicyNet, "act", "learned.act")
        self.method(learned.LearnedController, "on_interval", "learned.on_interval")
        self.function("learned", "observation_features", "learned.features")
        self.function("learned", "train_controller", "learned.train")

        # cem: the objective becomes a child span, so cem.maximize's self
        # time is the optimizer's own
        traced_cem = t.wrap(m["cem"].cem_maximize, "cem.maximize")

        @functools.wraps(traced_cem)
        def cem_maximize(objective, dim, generations, config, init_mean=None):
            ends: list[float] = []
            objective = t.wrap(objective, "cem.objective",
                               after=lambda _ctx, _r: ends.append(t.clock()))
            start = t.clock()
            try:
                return traced_cem(objective, dim, generations, config, init_mean)
            finally:
                pop = config.population
                t.count("cem.generations", len(ends) // pop)
                marks = [start] + ends[pop - 1::pop]
                for a, b in zip(marks, marks[1:]):
                    t.sample("cem.gen_s", b - a)

        self.function("cem", "cem_maximize", "cem.maximize", replacement=cem_maximize)

        # adversary
        adv = m["adversary"]
        self.function("adversary", "calibrate_tau", "adversary.calibrate_tau")
        self.function("adversary", "train_adversary", "adversary.train")
        self.function("adversary", "select_worst_trace", "adversary.select_worst")
        asig = inspect.signature(adv.adversarial_episode)

        def rollout_before(args, kwargs):
            return asig.bind(*args, **kwargs).arguments["spec"].constraint.tau_ms

        def rollout_after(tau, ev):
            t.count("adversary.rollouts")
            t.count("adversary.feasible", ev.mean_delay_ms >= tau)

        self.function("adversary", "adversarial_episode", "adversary.episode",
                      rollout_before, rollout_after)
        for attr in ("first_capacity", "next_capacity"):
            self.method(adv.EnvBandwidthDriver, attr, "adversary.driver")
        for attr in ("begin_episode", "begin_interval", "scale"):
            self.method(adv.FeatureIntercept, attr, "adversary.intercept")

        # tracegen
        self.function("tracegen", "project_next", "tracegen.project_next")
        for fn in ("gen_random_trace", "gen_burst_trace", "gen_unconstrained"):
            self.function("tracegen", fn, "tracegen.gen")
        self.function("tracegen", "check_feasible", "tracegen.check_feasible")

        # advtrain, metrics, config, cli
        self.function("advtrain", "adversarial_retrain", "advtrain.retrain")
        self.function("advtrain", "evaluate_suite", "advtrain.evaluate_suite")
        self.function("metrics", "build_report", "metrics.build_report")
        self.function("metrics", "delay_stats", "metrics.delay_stats")
        self.function("config", "load_config", "config.load")
        self.function("cli", "_write_csv", "cli.csv_write")
        return self


# --- per-layer metrics -----------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, unique_episodes: int,
                  subcommands: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit). A layer that did not
    run reads 0, as does a ratio whose base is 0."""
    g, c = tracer.get, tracer.counters
    ep = g("netsim.run_episode")
    on_ack = g("cc.on_ack")
    out = {
        "netsim.episodes": (ep.calls, "count"),
        "netsim.self_s": (ep.self_s, "s"),
        "netsim.ticks_per_s": (_ratio(c.get("netsim.ticks", 0), ep.total_s), "1/s"),
        "netsim.acks_per_s": (_ratio(c.get("netsim.acked", 0), ep.total_s), "1/s"),
        "netsim.episode_ms_p50": (1e3 * percentile(ep.durations, 50), "ms"),
        "netsim.episode_ms_p90": (1e3 * percentile(ep.durations, 90), "ms"),
        "netsim.drop_ratio": (_ratio(c.get("netsim.dropped", 0),
                                     c.get("netsim.sent", 0)), "ratio"),
        "netsim.trace_episodes": (c.get("netsim.trace_episodes", 0), "count"),
        "netsim.unique_episode_ratio": (_ratio(unique_episodes,
                                               c.get("netsim.trace_episodes", 0)),
                                        "ratio"),
        "netsim.trace_io_s": (g("netsim.trace_io").total_s, "s"),
        "cc.on_ack.calls": (on_ack.calls, "count"),
        "cc.on_ack.self_s": (on_ack.self_s, "s"),
        "cc.on_ack.ns_per_call": (1e9 * _ratio(on_ack.self_s, on_ack.calls), "ns"),
        "cc.on_loss.triple_dup": (c.get("cc.on_loss.triple_dup", 0), "count"),
        "cc.on_loss.timeout": (c.get("cc.on_loss.timeout", 0), "count"),
        "cc.on_interval.self_s": (g("cc.on_interval").self_s, "s"),
        "learned.act.calls": (g("learned.act").calls, "count"),
        "learned.act.self_s": (g("learned.act").self_s, "s"),
        "learned.features.self_s": (g("learned.features").self_s, "s"),
        "cem.generations": (c.get("cem.generations", 0), "count"),
        "cem.evals": (g("cem.objective").calls, "count"),
        "cem.gen_s_p50": (percentile(tracer.samples.get("cem.gen_s", []), 50), "s"),
        "cem.self_s": (g("cem.maximize").self_s, "s"),
        "adversary.calibrate_tau.s": (g("adversary.calibrate_tau").total_s, "s"),
        "adversary.train.s": (g("adversary.train").total_s, "s"),
        "adversary.select_worst.s": (g("adversary.select_worst").total_s, "s"),
        "adversary.driver.self_s": (g("adversary.driver").self_s, "s"),
        "adversary.intercept.self_s": (g("adversary.intercept").self_s, "s"),
        "adversary.rollouts": (c.get("adversary.rollouts", 0), "count"),
        "adversary.feasible_ratio": (_ratio(c.get("adversary.feasible", 0),
                                            c.get("adversary.rollouts", 0)), "ratio"),
        "tracegen.project_next.calls": (g("tracegen.project_next").calls, "count"),
        "tracegen.project_next.self_s": (g("tracegen.project_next").self_s, "s"),
        "tracegen.gen_s": (g("tracegen.gen").total_s, "s"),
        "tracegen.check_feasible.s": (g("tracegen.check_feasible").total_s, "s"),
        "advtrain.retrain.s": (g("advtrain.retrain").total_s, "s"),
        "advtrain.evaluate_suite.s": (g("advtrain.evaluate_suite").total_s, "s"),
        "metrics.build_report.s": (g("metrics.build_report").total_s, "s"),
        "metrics.delay_stats.s": (g("metrics.delay_stats").total_s, "s"),
        "config.load_s": (g("config.load").total_s, "s"),
        "cli.csv_write_s": (g("cli.csv_write").total_s, "s"),
    }
    for sub in subcommands:
        out[f"cli.{sub}.s"] = (g(f"cli.{sub}").total_s, "s")
    return out
