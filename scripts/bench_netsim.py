#!/usr/bin/env python3
"""Layer benchmark of the simulator: ticks/s and ACKs/s of `run_episode`, the
trace/I/O layer's Mahimahi export, and batches of episodes on the process pool.

Runs one episode case per rule controller, a runaway `Pinned(4096)` sender
and a `LearnedController` with a fixed linear policy, over one fixed 60 s
random trace (seed 0, default budget), times `export_mahimahi` of the same
trace, times two pooled batches at 1 and 2 workers (one CEM generation of
population 8 around the fixed policy, and `evaluate_suite` of it, each over
the 10 random traces of seeds 0-9), and stores the result under `--label` in
the JSON file `--out` (other labels already in the file are kept). Import
ccprobe from the tree to measure, so two trees compare under identical
settings:

    PYTHONPATH=/path/to/parent/src python3 scripts/bench_netsim.py \
        --label parent --out BENCH_<n>.json
    PYTHONPATH=src python3 scripts/bench_netsim.py --label change --out BENCH_<n>.json

Each case is timed REPEATS times after one untimed warm-up episode; the
median episode time gives ticks/s (simulated ticks per host second) and
ACKs/s (acknowledged packets per host second). The export is timed the same
way, into a temporary file, and gives ms per 60 s trace. The batches are
timed the same way too, inside one `netsim.worker_pool` where the tree has
one, as a command runs them, so the warm-up starts the pool and the timed
calls reuse it; a tree without it starts a pool in every call.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import tempfile
import time
from functools import partial

from ccprobe import netsim
from ccprobe.adversary import random_baseline_traces
from ccprobe.advtrain import evaluate_suite
from ccprobe.cc import RULE_BASED, Pinned, make_controller
from ccprobe.cem import CemConfig, cem_maximize
from ccprobe.learned import LearnedController, PolicyNet, RewardParams, _pool_return
from ccprobe.netsim import SimConfig, export_mahimahi, run_episode
from ccprobe.tracegen import SmoothnessBudget, gen_random_trace

REPEATS = 5
# fixed linear policy over the five observation features plus a bias: it
# grows cwnd while the queue is empty and backs off on queuing and loss
LEARNED_PARAMS = [0.0, 0.0, -1.0, -4.0, 0.0, 0.3]


def _cases():
    for name in RULE_BASED:
        yield name, partial(make_controller, name)
    yield "pinned4096", partial(Pinned, 4096.0)
    policy = PolicyNet(n_features=5, hidden=0, params=LEARNED_PARAMS)
    yield "learned_fixed", partial(LearnedController, policy)


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


def measure_export(trace) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.mahi")
        t, _ = _timed(lambda: export_mahimahi(trace, path))
        size = os.path.getsize(path)
    return {"ms_per_trace": round(t * 1000, 2), "bytes": size}


def measure(trace) -> dict:
    sim = SimConfig()
    ticks = sim.n_intervals * sim.interval_ticks
    out = {}
    for name, factory in _cases():
        t, log = _timed(lambda: run_episode(sim, trace, factory()))
        out[name] = {
            "episode_s": round(t, 4),
            "ticks_per_s": round(ticks / t),
            "acks_per_s": round(log.acked / t),
            "sent": log.sent, "dropped": log.dropped, "acked": log.acked,
        }
    return out


def measure_pool() -> dict:
    sim, reward = SimConfig(), RewardParams()
    policy = PolicyNet(n_features=5, hidden=0, params=LEARNED_PARAMS)
    traces = random_baseline_traces(SmoothnessBudget(), 10, sim.n_intervals,
                                    sim.trace_interval_ms, seed=0)
    objective = partial(_pool_return, policy, traces, sim, reward)
    batches = {
        "cem_generation": lambda w: cem_maximize(
            objective, dim=policy.n_params, generations=1,
            config=CemConfig(population=8, workers=w), init_mean=policy.params),
        "evaluate_suite": lambda w: evaluate_suite(
            policy, {"pool": traces}, sim, reward, w),
    }
    pool = getattr(netsim, "worker_pool", None)
    out = {}
    for name, batch in batches.items():
        for w in (1, 2):
            with pool() if pool else contextlib.nullcontext():
                t, _ = _timed(lambda: batch(w))
            out.setdefault(name, {})[f"workers_{w}_ms"] = round(t * 1000, 2)
    return out


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
               repeats=REPEATS)
    sim = SimConfig()
    trace = gen_random_trace(sim.n_intervals, SmoothnessBudget(), seed=0)
    doc.setdefault("runs", {})[args.label] = {"netsim_sha256": netsim_sha,
                                              "cases": measure(trace),
                                              "export": measure_export(trace),
                                              "pool": measure_pool()}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    for case, r in doc["runs"][args.label]["cases"].items():
        print(f"{args.label} {case:14s} {r['ticks_per_s']:>8d} ticks/s "
              f"{r['acks_per_s']:>9d} acks/s")
    print(f"{args.label} export         "
          f"{doc['runs'][args.label]['export']['ms_per_trace']:>8.2f} ms/trace")
    for batch, r in doc["runs"][args.label]["pool"].items():
        print(f"{args.label} {batch:14s} {r['workers_1_ms']:>8.2f} ms at 1 worker "
              f"{r['workers_2_ms']:>8.2f} ms at 2")


if __name__ == "__main__":
    main()
