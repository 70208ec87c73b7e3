"""ccprobe benchmark: one study workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay-matrix --seed 3 --seconds 30 --trace 0

`--trace 0` times whole iterations of the workload with `--workers 2` and
reports the end-to-end metrics; iteration k uses input variant
(seed + k) mod 16 and is preceded by its own set-ups. `--trace 1` runs one
untraced and one traced iteration of variant seed mod 16 with `--workers 1`
and reports the per-layer metrics. Every iteration's outputs are checked
against perfbench/digests.json. The last
line of stdout is the result as one JSON object; the line before it records
the run environment. `--record-digests` rewrites digests.json from one
iteration per input variant (do this only when outputs change on purpose).
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

from tracing import Instrumentation, Tracer, layer_metrics
from workloads import ITERATION_S, N_VARIANTS, WORKERS, WORKLOADS, Step

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
DIGESTED_SUFFIXES = (".csv", ".trace", ".ckpt", ".mahi")
# set-ups before each timed iteration; setup_s is the median of all of them,
# so its samples are spread over the run like the iterations' are
SETUP_REPEATS = 7
# subcommands any workload runs; each gets a cli.<name>.s per-layer metric
SUBCOMMANDS = ("gen-trace", "export", "baseline", "transfer", "attack",
               "train", "retrain")
# spans kept whole (not only aggregated) and written to spans.json
RECORDED_SPANS = ("cli.", "config.", "netsim.run_episode", "cem.", "learned.train",
                  "adversary.calibrate_tau", "adversary.train", "adversary.select_worst",
                  "adversary.episode", "advtrain.", "tracegen.gen")


class BenchError(RuntimeError):
    pass


# --- outputs ---------------------------------------------------------------------

def file_digest(path: str) -> str:
    """sha256 of a file; a CSV's leading `# config=` provenance line is
    dropped, since it is the one line a config change may alter."""
    with open(path, "rb") as f:
        data = f.read()
    if path.endswith(".csv") and data.startswith(b"# config="):
        data = data.split(b"\n", 1)[1] if b"\n" in data else b""
    return hashlib.sha256(data).hexdigest()


def output_digests(it_dir: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(it_dir):
        for fn in files:
            if fn.endswith(DIGESTED_SUFFIXES):
                path = os.path.join(dirpath, fn)
                out[os.path.relpath(path, it_dir)] = file_digest(path)
    return dict(sorted(out.items()))


def step_mismatches(step: Step, got: dict, expected: dict) -> list[str]:
    """Files owned by `step` that are missing, extra or differ."""
    names = {r for r in (*got, *expected) if fnmatch.fnmatch(r, step.owns)}
    return sorted(r for r in names if got.get(r) != expected.get(r))


# --- environment -----------------------------------------------------------------

def _git_head(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str, variants: list[int]) -> dict:
    import numpy

    pkg = os.path.join(root, "src", "ccprobe")
    lines, h = 0, hashlib.sha256()
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            with open(os.path.join(pkg, fn), "rb") as f:
                data = f.read()
            lines += data.count(b"\n")
            h.update(fn.encode() + b"\0" + data)
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": _git_head(root),
            "src_lines": lines, "src_sha256": h.hexdigest(), "variants": variants}


# --- set-up and iterations -------------------------------------------------------

def set_up(workload, run_dir: str, variant: int) -> float:
    """Import ccprobe afresh, then write the workload's config and inputs.
    Garbage left by earlier work is collected first, outside the timing."""
    for name in [n for n in sys.modules if n == "ccprobe" or n.startswith("ccprobe.")]:
        del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    importlib.import_module("ccprobe.cli")
    workload.set_up(run_dir, variant)
    return time.perf_counter() - start


def run_iteration(workload, run_dir: str, it_dir: str, workers: int,
                  expected: dict | None, tracer: Tracer | None = None) -> dict:
    """Run every step once; returns wall time, digests and failed steps."""
    shutil.rmtree(it_dir, ignore_errors=True)
    os.makedirs(it_dir)
    cli = sys.modules["ccprobe.cli"]
    steps = workload.steps(run_dir, it_dir, workers)
    codes, logs = [], []
    start = time.perf_counter()
    for step in steps:
        buf = io.StringIO()
        main = cli.main if tracer is None else tracer.wrap(cli.main,
                                                           f"cli.{step.subcommand}")
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = main(list(step.argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # the run goes on and reports the step as failed
            code = "exception"
            buf.write(traceback.format_exc())
        codes.append(code)
        logs.append(buf.getvalue())
    wall = time.perf_counter() - start

    got = output_digests(it_dir)
    failed = []
    for step, code, log in zip(steps, codes, logs):
        bad = [] if expected is None else step_mismatches(step, got, expected)
        if code != 0 or bad:
            failed.append({"step": step.subcommand, "exit": code,
                           "mismatched": bad, "log": log[-2000:]})
    return {"wall_s": wall, "steps": len(steps), "failed": failed, "digests": got,
            "exit_codes": codes}


def load_expected(workload: str, variant: int) -> dict:
    with open(DIGESTS) as f:
        table = json.load(f)
    try:
        return table["workloads"][workload][str(variant)]
    except KeyError:
        raise BenchError(f"digests.json has no entry for {workload} variant {variant}")


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


# --- modes -----------------------------------------------------------------------

def iteration_variants(seed: int, seconds: float) -> list[int]:
    """Input variant of each timed iteration. Consecutive iterations take
    consecutive variants, so a run's wall_s spans several input sets and
    depends less on how much work one variant happens to need."""
    n = max(1, round(seconds / ITERATION_S))
    return [(seed + k) % N_VARIANTS for k in range(n)]


def timed(workload, run_dir: str, variants: list[int]) -> tuple[dict, list, list]:
    """One set-up burst and one iteration at --workers 2 per variant."""
    its, setups = [], []
    for k, variant in enumerate(variants):
        var_dir = os.path.join(run_dir, f"v{variant}")
        os.makedirs(var_dir, exist_ok=True)
        expected = load_expected(workload.name, variant)
        setups += [set_up(workload, var_dir, variant) for _ in range(SETUP_REPEATS)]
        its.append(run_iteration(workload, var_dir, os.path.join(var_dir, f"it{k}"),
                                 WORKERS, expected))
    metrics = {"wall_s": (statistics.median(i["wall_s"] for i in its), "s"),
               "setup_s": (statistics.median(setups), "s")}
    return metrics, its, setups


def traced(workload, run_dir: str, variant: int) -> tuple[dict, list, list]:
    """One untraced and one traced iteration, both at --workers 1."""
    expected = load_expected(workload.name, variant)
    setups = [set_up(workload, run_dir, variant)]
    plain = run_iteration(workload, run_dir, os.path.join(run_dir, "plain"), 1,
                          expected)
    tracer = Tracer(keep_durations=("netsim.run_episode",), record=RECORDED_SPANS)
    mods = {m: sys.modules[f"ccprobe.{m}"] for m in Instrumentation.MODULES}
    inst = Instrumentation(tracer, mods).install()
    cpu0 = cpu_s()
    try:
        traced_it = run_iteration(workload, run_dir, os.path.join(run_dir, "traced"),
                                  1, expected, tracer)
    finally:
        inst.undo()
    cpu = cpu_s() - cpu0
    metrics = layer_metrics(tracer, len(inst.episode_keys), SUBCOMMANDS)
    metrics["process.cpu_s"] = (cpu, "s")
    metrics["process.tracing_overhead_s"] = (traced_it["wall_s"] - plain["wall_s"], "s")
    with open(os.path.join(run_dir, "spans.json"), "w") as f:
        json.dump([{"name": n, "start": s, "end": e, "parent": p}
                   for n, s, e, p in tracer.spans], f)
    return metrics, [plain, traced_it], setups


def record_digests(root: str, names: list[str]) -> int:
    """Rewrite digests.json entries from one --workers 2 iteration per variant."""
    table = {"workers": WORKERS, "workloads": {}}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            table = json.load(f)
    for name in names:
        wl = WORKLOADS[name]
        entries = {}
        for variant in range(N_VARIANTS):
            run_dir = os.path.join(root, ".perfbench_out", name)
            shutil.rmtree(run_dir, ignore_errors=True)
            os.makedirs(run_dir)
            set_up(wl, run_dir, variant)
            it = run_iteration(wl, run_dir, os.path.join(run_dir, "it0"), WORKERS, None)
            if it["failed"]:
                print(json.dumps(it["failed"], indent=1), file=sys.stderr)
                print(f"{name} variant {variant}: a step failed", file=sys.stderr)
                return 1
            entries[str(variant)] = it["digests"]
            print(f"{name} variant {variant}: {len(it['digests'])} files, "
                  f"{it['wall_s']:.1f} s", file=sys.stderr)
        table["workloads"][name] = entries
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite digests.json for --workload (default: all)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ccprobe", "__init__.py")):
        print(f"error: no src/ccprobe under {root}; run from a ccprobe checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    if args.record_digests:
        return record_digests(root, [args.workload] if args.workload else sorted(WORKLOADS))
    if args.workload is None:
        ap.error("--workload is required")

    wl = WORKLOADS[args.workload]
    variants = ([args.seed % N_VARIANTS] if args.trace
                else iteration_variants(args.seed, args.seconds))
    run_dir = os.path.join(root, ".perfbench_out", wl.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        importlib.import_module("ccprobe.cli")  # and numpy, yaml, ...
        loaded = os.path.realpath(sys.modules["ccprobe"].__file__)
        if not loaded.startswith(os.path.realpath(src) + os.sep):
            raise BenchError(f"ccprobe imported from {loaded}, not from {src}")
        # Modules imported from here on, such as ccprobe's own in every
        # set-up, keep their bytecode under the run directory: every set-up
        # but the first loads it whatever PYTHONDONTWRITEBYTECODE says, and
        # nothing is written outside the checkout.
        sys.pycache_prefix = os.path.join(run_dir, "pycache")
        sys.dont_write_bytecode = False
        if args.trace:
            metrics, its, setups = traced(wl, run_dir, variants[0])
        else:
            metrics, its, setups = timed(wl, run_dir, variants)
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    except (BenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    attempted = sum(i["steps"] for i in its)
    failed = sum(len(i["failed"]) for i in its)
    for i in its:
        for f in i["failed"]:
            print(f"failed step: {json.dumps(f)}", file=sys.stderr)
    env = environment(root, variants)
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "workers": 1 if args.trace else WORKERS, "environment": env,
              "iterations": [{k: v for k, v in i.items() if k != "digests"} for i in its],
              "setup_s": setups, "failed_frac": failed / attempted}
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump({**detail, "metrics": metrics}, f, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
