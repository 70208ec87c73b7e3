#!/usr/bin/env python3
"""Layer benchmark of the simulator: ticks/s and ACKs/s of `run_episode`, the
trace/I/O layer's Mahimahi export and random-trace generation, batches of
episodes through `map_jobs`, and adversarial episodes run in lock-step slices.

Runs one episode case per rule controller, a runaway `Pinned(4096)` sender,
a `Pinned(1)` sender, a `LearnedController` with a fixed linear policy and
one whose policy has collapsed cwnd to 1, and vegas under a policy-less
random-noise min-RTT intercept (x 0.05, seed 1), over one fixed 60 s random
trace (seed 0, default budget), and cubic under a policy-less env driver
(default budget, seed 1), which draws its own capacities; times `export_mahimahi` and `gen_random_trace` of
the same trace, times three batches at 1 and 2 workers (one CEM generation of
population 8 around the fixed policy, one around a fixed hidden-16 policy,
and `evaluate_suite` of the fixed policy, each over the 10 random traces of
seeds 0-9), times 60 s env-surface adversary
episodes against cubic (random hidden-16 policies, seeds 0-15) in slices of
1, 4 and 16, and one env-adversary CEM generation of 8 against cubic (a
lock-step slice on the calling thread at any worker count), times what an
episode costs after its ticks (everything but `tl_step` in `clean_episode`
of the fixed policy with its reward and of cubic, over the same trace),
times the random draws (the `rng` row, below), times start-up (a warm
re-import of `ccprobe.cli` and a fresh interpreter importing it), and
stores the result under `--label` in the
JSON file `--out` (other labels already in the file are kept). Import
ccprobe from the tree to measure, so two trees compare under identical
settings:

    PYTHONPATH=/path/to/parent/src python3 scripts/bench_netsim.py \
        --label parent --out BENCH_<n>.json
    PYTHONPATH=src python3 scripts/bench_netsim.py --label change --out BENCH_<n>.json

The episode cases run in CASE_ROUNDS rounds after one untimed warm-up of
each, every round running every case once, so a slow spell of a shared host
falls on all cases alike. Each case reports its median and its best episode
time, ticks/s (simulated ticks per host second) and ACKs/s (acknowledged
packets per host second) at both. All else is timed REPEATS times after
one untimed warm-up, and reports the median. The export (into a temporary
file) and the generation are timed TRACE_IO_REPEATS times after one warm-up,
and each gives its median and best ms per 60 s trace and its median CPU ms;
at 5 repeats the export's median moved by half between runs. The batches and
the adversary slices are timed REPEATS times; a slice's time is given per
episode. Each batch and adversary CEM generation also reports the median
CPU time it used: the process's user + system time, reaped children's
included, so a batch that forks shows its children's work too. On a host
that gives a second thread or process no core of its own, wall time at 2
workers cannot fall, while CPU time still shows work added or removed. The
hidden-16 generation's episodes return to Python at every interval
(TL_HIDDEN), where numpy runs their policy holding the GIL, so on threads
they overlap only in their ticks and little is to be gained. A tree without
`adversary.adversarial_episodes` runs a slice as one `adversarial_episode`
call per row, and a tree whose `evaluate_suite`
takes one policy gets that one. A tree whose `cem_maximize` still calls its
objective once per candidate, whose adversary settings are enums rather
than the config's strings, or whose `metrics.clean_episode` takes no reward,
is not supported. The cost after the ticks is the median, over
AFTER_TICKS_REPEATS episodes after one warm-up, of each episode's wall time
minus the time spent in the calls `netsim.run_episodes` makes to `tl_step`.
Start-up is timed with ccprobe's bytecode cached under a temporary prefix,
whatever PYTHONDONTWRITEBYTECODE says, after one untimed import that writes
it: the warm re-import is perfbench's `setup_s` import (drop every ccprobe
module, collect garbage, import `ccprobe.cli`), its median over
WARM_IMPORTS; the cold one is a `python3 -c "import ccprobe.cli"` process,
its median over COLD_IMPORTS, beside the median of a process importing only
numpy, yaml and cffi, which every ccprobe process imports too, and of a
process that imports `ccprobe.cli` and then generates one 600-interval
random trace, the first draw of every command that draws, with that
process's peak RSS. The `rng` row gives the median us per call, over
RNG_SAMPLES samples of RNG_CALLS calls after one untimed sample, of one
seeding plus the 600 uniforms of a trace, and of one CEM generation's draws
at population 32 and dim 6 (a (32, 6) normal draw, then 32 episode seeds),
each for `netsim.Rng` (null on a tree without it) and for numpy's
`Generator` drawing as the code did before `Rng`, the seeds one call each.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial

import numpy as np

from ccprobe import adversary, netsim
from ccprobe.adversary import (AdversarySpec, DelayConstraint, EnvBandwidthDriver,
                               FeatureBound, FeatureIntercept,
                               make_adversary_policy, random_baseline_traces,
                               train_adversary)
from ccprobe.advtrain import evaluate_suite
from ccprobe.cc import RULE_BASED, Pinned, make_controller
from ccprobe.cem import CemConfig, cem_maximize
from ccprobe.learned import (LearnedController, PolicyNet, RewardParams,
                             candidate_returns)
from ccprobe.metrics import clean_episode
from ccprobe.netsim import SimConfig, export_mahimahi, run_episode, run_episodes
from ccprobe.tracegen import SmoothnessBudget, gen_random_trace

REPEATS = 5
TRACE_IO_REPEATS = 41
CASE_ROUNDS = 15
AFTER_TICKS_REPEATS = 21
WARM_IMPORTS = 20
COLD_IMPORTS = 10
RNG_CALLS = 200
RNG_SAMPLES = 21
# fixed linear policy over the five observation features plus a bias: it
# grows cwnd while the queue is empty and backs off on queuing and loss
LEARNED_PARAMS = [0.0, 0.0, -1.0, -4.0, 0.0, 0.3]
# a linear policy whose bias holds the action at -a_max: cwnd falls to 1 and
# stays there, as a collapsed CEM candidate's does
COLLAPSED_PARAMS = [0.0, 0.0, 0.0, 0.0, 0.0, -5.0]


def _cases():
    """Each episode case's name and its episode, a function of (sim, trace)."""
    def alone(factory):
        return lambda sim, trace: run_episode(sim, trace, factory())

    for name in RULE_BASED:
        yield name, alone(partial(make_controller, name))
    yield "pinned4096", alone(partial(Pinned, 4096.0))
    yield "pinned1", alone(partial(Pinned, 1.0))
    policy = PolicyNet(n_features=5, hidden=0, params=LEARNED_PARAMS)
    yield "learned_fixed", alone(partial(LearnedController, policy))
    collapsed = PolicyNet(n_features=5, hidden=0, params=COLLAPSED_PARAMS)
    yield "learned_collapsed", alone(partial(LearnedController, collapsed))
    noise = FeatureBound(0.05, "random_noise")
    yield "vegas_noise", lambda sim, trace: run_episodes(
        sim, [trace], [make_controller("vegas")], [FeatureIntercept(noise, seed=1)])[0]
    yield "cubic_env_driver", lambda sim, trace: run_episodes(
        sim, [None], [make_controller("cubic")],
        [EnvBandwidthDriver(SmoothnessBudget(), seed=1)])[0]


def _timed(fn):
    """Median seconds of REPEATS calls after one untimed warm-up, and the
    last call's result."""
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _cpu_s() -> float:
    """User + system seconds of this process and its reaped children."""
    return sum(r.ru_utime + r.ru_stime
               for r in (resource.getrusage(resource.RUSAGE_SELF),
                         resource.getrusage(resource.RUSAGE_CHILDREN)))


def _timed_cpu(fn, repeats=REPEATS):
    """Median wall, median CPU and best wall seconds of `repeats` calls after
    one untimed warm-up."""
    fn()
    wall, cpu = [], []
    for _ in range(repeats):
        c0, t0 = _cpu_s(), time.perf_counter()
        fn()
        wall.append(time.perf_counter() - t0)
        cpu.append(_cpu_s() - c0)
    return statistics.median(wall), statistics.median(cpu), min(wall)


def _trace_io_row(fn) -> dict:
    t, cpu, best = _timed_cpu(fn, TRACE_IO_REPEATS)
    return {"ms_per_trace": round(t * 1000, 3), "best_ms_per_trace": round(best * 1000, 3),
            "cpu_ms_per_trace": round(cpu * 1000, 3)}


def measure_trace_io(trace) -> dict:
    """The export of `trace` and the generation of a trace like it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.mahi")
        export = _trace_io_row(lambda: export_mahimahi(trace, path))
        export["bytes"] = os.path.getsize(path)
    n = len(trace.values)
    gen = _trace_io_row(lambda: gen_random_trace(n, SmoothnessBudget(), seed=0))
    return {"export": export, "gen_random_trace": gen}


def measure(trace) -> dict:
    sim = SimConfig()
    ticks = sim.n_intervals * sim.interval_ticks
    cases = dict(_cases())
    for episode in cases.values():
        episode(sim, trace)
    times = {name: [] for name in cases}
    logs = {}
    for _ in range(CASE_ROUNDS):
        for name, episode in cases.items():
            t0 = time.perf_counter()
            logs[name] = episode(sim, trace)
            times[name].append(time.perf_counter() - t0)
    out = {}
    for name, log in logs.items():
        t, best = statistics.median(times[name]), min(times[name])
        out[name] = {
            "episode_s": round(t, 5), "best_episode_s": round(best, 5),
            "ticks_per_s": round(ticks / t), "best_ticks_per_s": round(ticks / best),
            "acks_per_s": round(log.acked / t), "best_acks_per_s": round(log.acked / best),
            "sent": log.sent, "dropped": log.dropped, "acked": log.acked,
        }
    return out


def _suite(policy, trace_sets, sim, reward, workers):
    """`evaluate_suite` of one policy, in either signature."""
    if "policies" in inspect.signature(evaluate_suite).parameters:
        return evaluate_suite([policy], trace_sets, sim, reward, workers)[0]
    return evaluate_suite(policy, trace_sets, sim, reward, workers)


def measure_pool() -> dict:
    sim, reward = SimConfig(), RewardParams()
    policy = PolicyNet(n_features=5, hidden=0, params=LEARNED_PARAMS)
    traces = random_baseline_traces(SmoothnessBudget(), 10, sim.n_intervals,
                                    sim.trace_interval_ms, seed=0)
    hidden = PolicyNet(n_features=5, hidden=16)
    hidden = hidden.with_params(np.random.default_rng(0).normal(0.0, 0.5, hidden.n_params))

    def generation(policy, w):
        trace_of = lambda s: traces[s % len(traces)]  # noqa: E731
        return cem_maximize(partial(candidate_returns, policy, trace_of, sim, reward, w),
                            dim=policy.n_params, generations=1,
                            config=CemConfig(population=8),
                            init_mean=policy.params)

    batches = {
        "cem_generation": partial(generation, policy),
        "cem_generation_hidden": partial(generation, hidden),
        "evaluate_suite": lambda w: _suite(policy, {"pool": traces}, sim, reward, w),
    }
    out = {}
    for name, batch in batches.items():
        for w in (1, 2):
            t, cpu, _ = _timed_cpu(lambda: batch(w))
            out.setdefault(name, {}).update({f"workers_{w}_ms": round(t * 1000, 2),
                                             f"workers_{w}_cpu_ms": round(cpu * 1000, 2)})
    return out


def measure_adversary() -> dict:
    """ms per env-adversary episode in slices of 1, 4 and 16, and ms (wall
    and CPU) per env-adversary CEM generation of 8, against cubic."""
    sim, reward = SimConfig(), RewardParams()
    spec = AdversarySpec(surface="env", constraint=DelayConstraint(tau_ms=50.0),
                         budget=SmoothnessBudget(),
                         policy=make_adversary_policy("env"))
    factory = partial(make_controller, "cubic")
    rng = np.random.default_rng(0)
    params = rng.normal(0.0, 0.5, (16, spec.policy.n_params))
    sliced = getattr(adversary, "adversarial_episodes", None)

    def episodes(k):
        if sliced is not None:
            return sliced(spec, params[:k], factory, sim, reward, list(range(k)))
        return [adversary.adversarial_episode(spec, p, factory, sim, reward, seed=i)
                for i, p in enumerate(params[:k])]

    out = {}
    for k in (1, 4, 16):
        t, _ = _timed(lambda: episodes(k))
        out[f"slice_{k}_ms_per_episode"] = round(t * 1000 / k, 2)
    t, cpu, _ = _timed_cpu(lambda: train_adversary(spec, factory, sim, 8, reward,
                                                CemConfig(population=8)))
    out["env_cem_generation_ms"] = round(t * 1000, 2)
    out["env_cem_generation_cpu_ms"] = round(cpu * 1000, 2)
    return out


class _TimedSteps:
    """Stands in for `netsim._lib`, adding the time of each `tl_step` call
    to `in_step`."""

    def __init__(self, lib):
        self.lib, self.in_step = lib, 0.0

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def tl_step(self, st):
        t0 = time.perf_counter()
        try:
            return self.lib.tl_step(st)
        finally:
            self.in_step += time.perf_counter() - t0


def measure_after_ticks(trace) -> dict:
    """ms per 60 s episode outside `tl_step`, and in all, for the episode
    job as the learned CEM objective runs it (fixed linear policy, with its
    reward) and as a clean episode of cubic runs it."""
    sim, reward = SimConfig(), RewardParams()
    policy = PolicyNet(n_features=5, hidden=0, params=LEARNED_PARAMS)
    learned = partial(LearnedController, policy, b_max=reward.b_max)
    cases = {"clean_episode_learned": lambda: clean_episode(sim, trace, learned, reward),
             "clean_episode_cubic": lambda: clean_episode(
                 sim, trace, partial(make_controller, "cubic"))}
    out = {}
    timed = _TimedSteps(netsim._lib)
    netsim._lib = timed
    try:
        for name, episode in cases.items():
            episode()
            after, total = [], []
            for _ in range(AFTER_TICKS_REPEATS):
                timed.in_step = 0.0
                t0 = time.perf_counter()
                episode()
                total.append(time.perf_counter() - t0)
                after.append(total[-1] - timed.in_step)
            out[name] = {"after_ticks_ms": round(statistics.median(after) * 1000, 3),
                         "episode_ms": round(statistics.median(total) * 1000, 3)}
    finally:
        netsim._lib = timed.lib
    return out


def _per_call_us(fn) -> float:
    """Median us per call of `fn` (module docstring)."""
    samples = []
    for _ in range(RNG_SAMPLES + 1):
        t0 = time.perf_counter()
        for _ in range(RNG_CALLS):
            fn()
        samples.append((time.perf_counter() - t0) / RNG_CALLS)
    return round(statistics.median(samples[1:]) * 1e6, 3)


def measure_rng() -> dict:
    """us per call of a trace's seeding and uniforms, and of one CEM
    generation's draws, by `netsim.Rng` and by numpy's `Generator`."""
    out = {}
    rng_class = getattr(netsim, "Rng", None)
    if rng_class is None:
        out["rng"] = None
    else:
        r = rng_class(0)
        out["rng"] = {
            "seed_uniform600_us": _per_call_us(
                lambda: rng_class(0).uniform(1.0, 96.0, 600)),
            "cem_generation_us": _per_call_us(
                lambda: (r.standard_normal((32, 6)),
                         r.integers(0, 2**31 - 1, 32).tolist()))}
    g = np.random.default_rng(0)
    out["generator"] = {
        "seed_uniform600_us": _per_call_us(
            lambda: np.random.default_rng(0).uniform(1.0, 96.0, 600)),
        "cem_generation_us": _per_call_us(
            lambda: (g.standard_normal((32, 6)),
                     [int(g.integers(0, 2**31 - 1)) for _ in range(32)]))}
    return out


def _process_ms(code: str, env: dict) -> float:
    """Median ms of COLD_IMPORTS `python3 -c code` processes, after one."""
    times = []
    for _ in range(COLD_IMPORTS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:]) * 1000


def measure_startup() -> dict:
    """ms of a warm re-import of `ccprobe.cli` and of a fresh interpreter
    importing it, the bytecode cached (module docstring)."""
    src = os.path.dirname(os.path.dirname(netsim.__file__))
    saved = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "ccprobe"}
    prefix, write = sys.pycache_prefix, sys.dont_write_bytecode
    with tempfile.TemporaryDirectory() as cache:
        sys.pycache_prefix, sys.dont_write_bytecode = cache, False
        times = []
        try:
            for _ in range(WARM_IMPORTS + 1):
                for name in [n for n in sys.modules if n.split(".")[0] == "ccprobe"]:
                    del sys.modules[name]
                gc.collect()
                t0 = time.perf_counter()
                importlib.import_module("ccprobe.cli")
                times.append(time.perf_counter() - t0)
        finally:
            sys.pycache_prefix, sys.dont_write_bytecode = prefix, write
            sys.modules.update(saved)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env.update(PYTHONPATH=src, PYTHONPYCACHEPREFIX=cache)
        # the peak of the process's own memory (VmHWM): a child's ru_maxrss
        # would also count this process's, from before the exec
        first_trace = ("import ccprobe.cli, ccprobe.tracegen as t; "
                       "t.gen_random_trace(600, t.SmoothnessBudget(), seed=0); "
                       "print(open('/proc/self/status').read()"
                       ".split('VmHWM:')[1].split()[0])")
        kib = subprocess.run([sys.executable, "-c", first_trace], env=env,
                             check=True, capture_output=True, text=True).stdout
        return {"warm_import_ms": round(statistics.median(times[1:]) * 1000, 3),
                "cold_import_ms": round(_process_ms("import ccprobe.cli", env), 3),
                "cold_deps_ms": round(_process_ms("import numpy, yaml, cffi", env), 3),
                "cold_first_trace_ms": round(_process_ms(first_trace, env), 3),
                "first_trace_peak_rss_mb": round(int(kib) / 1024, 2)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True,
                    help="key of this tree's numbers, e.g. parent or change")
    ap.add_argument("--out", required=True,
                    help="JSON file to add this run to, e.g. BENCH_<n>.json")
    args = ap.parse_args()

    # the simulator's sources: netsim.py and, where it exists, its C tick loop
    h = hashlib.sha256()
    for path in (netsim.__file__,
                 os.path.join(os.path.dirname(netsim.__file__), "_tickloop.c")):
        if os.path.exists(path):
            with open(path, "rb") as f:
                h.update(f.read())
    netsim_sha = h.hexdigest()[:16]
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc.update(nproc=os.cpu_count(), python=platform.python_version(),
               trace="gen_random_trace(600, SmoothnessBudget(), seed=0), 60 s",
               repeats=REPEATS, trace_io_repeats=TRACE_IO_REPEATS,
               case_rounds=CASE_ROUNDS, warm_imports=WARM_IMPORTS,
               cold_imports=COLD_IMPORTS)
    sim = SimConfig()
    trace = gen_random_trace(sim.n_intervals, SmoothnessBudget(), seed=0)
    doc.setdefault("runs", {})[args.label] = {"netsim_sha256": netsim_sha,
                                              "cases": measure(trace),
                                              **measure_trace_io(trace),
                                              "pool": measure_pool(),
                                              "adversary": measure_adversary(),
                                              "after_ticks": measure_after_ticks(trace),
                                              "rng": measure_rng(),
                                              "startup": measure_startup()}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    for case, r in doc["runs"][args.label]["cases"].items():
        print(f"{args.label} {case:17s} {r['ticks_per_s']:>9d} ticks/s "
              f"(best {r['best_ticks_per_s']:>9d}) {r['acks_per_s']:>9d} acks/s")
    for row in ("export", "gen_random_trace"):
        r = doc["runs"][args.label][row]
        print(f"{args.label} {row:17s} {r['ms_per_trace']:>8.3f} ms/trace "
              f"(best {r['best_ms_per_trace']:.3f}, CPU {r['cpu_ms_per_trace']:.3f})")
    for batch, r in doc["runs"][args.label]["pool"].items():
        print(f"{args.label} {batch:21s} {r['workers_1_ms']:>8.2f} ms "
              f"({r['workers_1_cpu_ms']:>8.2f} ms CPU) at 1 worker "
              f"{r['workers_2_ms']:>8.2f} ms ({r['workers_2_cpu_ms']:>8.2f} ms CPU) at 2")
    for row, ms in doc["runs"][args.label]["adversary"].items():
        print(f"{args.label} adversary {row:36s} {ms:>8.2f} ms")
    for case, r in doc["runs"][args.label]["after_ticks"].items():
        print(f"{args.label} {case:22s} {r['after_ticks_ms']:>8.3f} ms after the ticks "
              f"of {r['episode_ms']:>8.3f} ms")
    r = doc["runs"][args.label]["startup"]
    print(f"{args.label} startup: warm import {r['warm_import_ms']:.3f} ms, cold "
          f"import {r['cold_import_ms']:.3f} ms (numpy, yaml, cffi alone "
          f"{r['cold_deps_ms']:.3f} ms), import and one trace "
          f"{r['cold_first_trace_ms']:.3f} ms at {r['first_trace_peak_rss_mb']:.2f} MB")
    for impl, r in doc["runs"][args.label]["rng"].items():
        if r is not None:
            print(f"{args.label} rng {impl:9s} seeding + 600 uniforms "
                  f"{r['seed_uniform600_us']:.3f} us, CEM generation "
                  f"{r['cem_generation_us']:.3f} us")


if __name__ == "__main__":
    main()
