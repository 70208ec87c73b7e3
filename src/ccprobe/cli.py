"""Experiment runner: baselines, attacks, transfer matrix, retraining.

Commands: baseline | attack | transfer | lp-case | train | retrain |
sweep-p | gen-trace | export; retrain and sweep-p are one command, run at
train.mix_p alone or over P_GRID too. The output root comes from --out,
then the CCPROBE_OUT env var, then the config's output_dir. Every CSV
starts with a provenance comment line (# config=<hash> seed=<n>) and
carries no timestamps, so reruns with identical inputs are byte-identical.
Exit code is 0 only when all invariant checks pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from . import advtrain
from .adversary import (adversarial_episodes, calibrate_tau, select_worst_trace,
                        train_adversary)
from .cc import make_controller
from .cem import OptimizerError
from .config import DOMAINS, ExperimentConfig, check, load_config
from .learned import LearnedController, load_policy, save_policy, train_controller
from .metrics import build_report, clean_episode, dump_series_csv, means
from .netsim import (BandwidthTrace, ConfigError, SimConfig, export_mahimahi,
                     map_jobs, read_trace, replace, run_episode, write_trace)
from .tracegen import (check_feasible, gen_burst_trace, gen_random_trace,
                       gen_unconstrained)

# --- plumbing ----------------------------------------------------------------

def _out_dir(args, cfg: ExperimentConfig) -> str:
    root = args.out or os.environ.get("CCPROBE_OUT") or cfg.output_dir
    os.makedirs(root, exist_ok=True)
    return root


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:   # checked as the config's own seed is
        check("--seed", args.seed, DOMAINS["seed"])
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _write_csv(path: str, header: list[str], rows: list[list],
               cfg: ExperimentConfig) -> None:
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.6f}"
        return str(v)
    with open(path, "w") as f:
        f.write(f"# config={cfg.config_hash()} seed={cfg.seed}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


def _build_traces(cfg: ExperimentConfig,
                  source: str | None = None) -> list[BandwidthTrace]:
    """The traces of `source`, by default the config's `traces.source`."""
    t = cfg.traces
    iv = cfg.sim.trace_interval_ms
    length = cfg.sim.n_intervals
    source = source or t.source
    if source == "random":
        return [gen_random_trace(length, cfg.budget, seed=cfg.seed + i, interval_ms=iv)
                for i in range(t.n)]
    if source == "constant":
        return [BandwidthTrace(iv, [t.constant_mbps] * length)]
    if source == "burst":
        return [gen_burst_trace(length, t.peak, t.trough, t.rise_intervals,
                                t.fall_intervals, interval_ms=iv)]
    return [read_trace(p) for p in t.paths]


def _controller_factory(cfg: ExperimentConfig, name: str,
                        checkpoint: str | None = None, **defaults) -> partial:
    """The one way a command builds controllers: a zero-argument partial of
    `make_controller`.

    `cfg.controller_constants` apply to `cfg.controller` only (over any
    `defaults`); `learned` reads its checkpoint here, once. One controller is
    built on the spot, so a missing checkpoint or a rejected constant fails
    before any episode runs.
    """
    if name == "learned" and checkpoint is None:
        raise ConfigError("the learned controller requires --checkpoint")
    kwargs = dict(defaults)
    if name == "learned":
        kwargs.update(policy=_learned_policy(checkpoint), b_max=cfg.reward.b_max)
    try:
        if name == cfg.controller:
            kwargs.update(cfg.controller_constants)
        factory = partial(make_controller, name, **kwargs)
        factory()
    except (TypeError, ValueError) as e:
        raise ConfigError(f"controller {name!r}: {e}") from e
    return factory


def _learned_policy(path: str):
    """Checkpoint `path`'s policy; ConfigError unless a learned controller runs it."""
    policy = load_policy(path)
    try:
        return LearnedController(policy).policy
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _controller_factories(args, cfg: ExperimentConfig) -> dict[str, partial]:
    """`--controllers` (by default every controller, `learned` only with
    `--checkpoint`), each name mapped to its factory."""
    names = (args.controllers.split(",") if args.controllers
             else [c for c in DOMAINS["controller"] if c != "learned" or args.checkpoint])
    return {name: _controller_factory(cfg, name, args.checkpoint)
            for name in names}


# --- commands ----------------------------------------------------------------

def cmd_baseline(args, cfg: ExperimentConfig, out: str) -> int:
    factories = _controller_factories(args, cfg)
    controllers = list(factories)
    settings = []
    if args.setting in ("clean", "both"):
        settings.append(("clean", _build_traces(cfg, "constant")))
    if args.setting in ("random", "both"):
        settings.append(("random", _build_traces(cfg)))

    jobs, keys = [], []
    for setting, traces in settings:
        for name in controllers:
            for ti, trace in enumerate(traces):
                jobs.append((cfg.sim, trace, factories[name]))
                keys.append((name, setting, ti))
    results = map_jobs(clean_episode, jobs, args.workers)

    rows = []
    for name in controllers:
        for setting, _ in settings:
            got = [r for r, key in zip(results, keys)
                   if key[0] == name and key[1] == setting]
            rows.append([name, setting, *means(got, "utilization", "mean_delay_ms",
                                               "p95_delay_ms")])
    _write_csv(os.path.join(out, "baseline.csv"),
               ["model", "setting", "utilization", "delay_ms", "p95_ms"],
               rows, cfg)
    with open(os.path.join(out, "baseline_episodes.jsonl"), "w") as f:
        for (name, setting, ti), r in zip(keys, results):
            report = {"utilization": r.utilization,
                      "mean_delay_ms": r.mean_delay_ms,
                      "p95_delay_ms": r.p95_delay_ms}
            f.write(json.dumps({"key": f"{name}/{setting}/t{ti}",
                                "report": report}) + "\n")
    print(f"wrote {out}/baseline.csv ({len(rows)} rows, {len(jobs)} episodes)")
    return 0


def cmd_attack(args, cfg: ExperimentConfig, out: str) -> int:
    target = args.controller or cfg.controller
    factory = _controller_factory(cfg, target, args.checkpoint)
    baseline_traces = _build_traces(cfg)

    # one clean episode per baseline trace gives both tau and the baseline row
    base_delay, base = calibrate_tau(factory, baseline_traces, cfg.sim, args.workers)
    [base_util] = means(base, "utilization")
    tau = cfg.adversary.tau_ms
    if tau is None and cfg.adversary.reward_mode == "delay_constrained":
        tau = base_delay
        print(f"calibrated tau = {tau:.3f} ms")
    adv = replace(cfg.adversary, tau_ms=tau or 0.0)
    feature = adv.surface == "feature"

    # a random-noise or clean intercept reads no policy: none is trained
    policy = None
    if not feature or adv.perturb_mode == "adversarial":
        policy, history = train_adversary(adv, cfg.budget, None, factory, cfg.sim,
                                          cfg.reward, cfg.train.cem(cfg.seed),
                                          clean_traces=baseline_traces)
        _write_csv(os.path.join(out, f"adv_train_{target}.csv"),
                   ["generation", "elite_mean", "best_return",
                    "constraint_satisfaction_rate"],
                   [[h.generation, h.elite_mean, h.best_return,
                     h.constraint_satisfaction_rate] for h in history],
                   cfg)
        save_policy(policy, os.path.join(out, f"adv_policy_{target}.ckpt"),
                    feature_names=tuple(f"f{i}" for i in range(policy.n_features)))

    ok = True
    rows = [[target, "baseline", base_util, base_delay, 0.0, 0.0]]
    if feature:
        evals = adversarial_episodes(adv, cfg.budget, policy, None, factory, cfg.sim,
                                     cfg.reward, range(len(baseline_traces)),
                                     clean_traces=baseline_traces)
        util, delay = means(evals, "utilization", "interval_delay_ms")
    else:
        worst = select_worst_trace(adv, cfg.budget, policy, factory, cfg.sim,
                                   cfg.reward, seed=cfg.seed)
        if worst is None:
            print("no rollout satisfied the delay constraint", file=sys.stderr)
            return 1
        trace = BandwidthTrace(cfg.sim.trace_interval_ms, worst.capacities)
        if not check_feasible(trace.values, cfg.budget):
            print("selected trace violates the smoothness budget", file=sys.stderr)
            ok = False
        write_trace(trace, os.path.join(out, f"worst_{target}.trace"))
        util, delay = worst.utilization, worst.interval_delay_ms
    rows.append([target, "attack", util, delay,
                 util - base_util, delay - base_delay])
    _write_csv(os.path.join(out, f"attack_{target}.csv"),
               ["model", "condition", "utilization", "delay_ms",
                "util_delta", "delay_delta"],
               rows, cfg)
    print(f"wrote {out}/attack_{target}.csv")
    return 0 if ok else 1


def cmd_transfer(args, cfg: ExperimentConfig, out: str) -> int:
    named = [(name.removeprefix("worst_"), trace)
             for name, trace in _load_trace_dir(args.traces).items()]
    if len(named) < 2:
        raise ConfigError(f"transfer needs >= 2 worst-trace artifacts, "
                         f"found {len(named)} in {args.traces}")
    factories = _controller_factories(args, cfg)
    controllers = list(factories)

    keys = [(src, ctl) for src, _ in named for ctl in controllers]
    jobs = [(cfg.sim, trace, factories[ctl])
            for _, trace in named for ctl in controllers]
    cells = dict(zip(keys, map_jobs(clean_episode, jobs, args.workers)))

    col_min = {}
    for ctl in controllers:
        utils = {src: cells[(src, ctl)].utilization for src, _ in named}
        col_min[ctl] = min(utils, key=utils.get)
    rows = []
    for src, _ in named:
        for ctl in controllers:
            got = cells[(src, ctl)]
            rows.append([src, ctl, got.utilization, got.mean_delay_ms,
                         int(src == ctl), int(col_min[ctl] == src)])
    _write_csv(os.path.join(out, "transfer.csv"),
               ["trace_target", "controller", "utilization", "delay_ms",
                "diagonal", "column_min"],
               rows, cfg)
    print(f"wrote {out}/transfer.csv ({len(named)}x{len(controllers)} cells)")
    return 0


def burst_case(cfg: ExperimentConfig) -> tuple[SimConfig, BandwidthTrace]:
    """The LP burst case's sim config and trace: exactly one period of the
    config's burst pattern, `rise_intervals + fall_intervals` intervals
    (8 s at the defaults), whatever `sim.episode_duration_s` says."""
    t = cfg.traces
    period = t.rise_intervals + t.fall_intervals
    iv = cfg.sim.trace_interval_ms
    sim = replace(cfg.sim, episode_duration_s=period * iv / 1000.0)
    return sim, gen_burst_trace(period, t.peak, t.trough, t.rise_intervals,
                                t.fall_intervals, interval_ms=iv)


def cmd_lp_case(args, cfg: ExperimentConfig, out: str) -> int:
    sim, trace = burst_case(cfg)
    write_trace(trace, os.path.join(out, "burst.trace"))

    # the comparison sender starts converged (ssthresh at the peak-rate BDP)
    # so its episode stays loss-free and only loss signals could back it off
    peak_bdp = (cfg.traces.peak * 1e6 / 8.0 * sim.base_rtt_ms / 1000.0
                / sim.packet_size)
    names = ["lp", "reno"] + (["learned"] if args.checkpoint else [])
    defaults = {"reno": {"initial_ssthresh": peak_bdp}}
    factories = {name: _controller_factory(cfg, name, args.checkpoint,
                                           **defaults.get(name, {}))
                 for name in names}
    rows = []
    checks = []
    # the checks read each episode's controller as well as its log
    ctls = [factories[name]() for name in names]
    logs = map_jobs(run_episode, [(sim, trace, ctl) for ctl in ctls], args.workers)
    for name, ctl, log in zip(names, ctls, logs):
        rep = build_report(log)
        n_ind = getattr(ctl, "indications", 0)
        rows.append([name, rep.utilization, rep.mean_delay_ms, n_ind, log.dropped])
        dump_series_csv(log, os.path.join(out, f"lp_case_{name}.csv"))
        if name == "lp":
            checks.append(("lp emits >= 1 early-congestion indication", n_ind >= 1))
            lp_util = rep.utilization
        if name == "reno":
            checks.append(("reno sees a loss-free episode", log.dropped == 0))
            # the loss reactions the tick loop counted for reno's episode
            checks.append(("reno performs zero backoffs",
                           log.triple_dups + log.timeouts == 0))
        if name == "learned":
            checks.append(("learned utilization exceeds lp's", rep.utilization > lp_util))
    _write_csv(os.path.join(out, "lp_case.csv"),
               ["model", "utilization", "delay_ms", "indications", "dropped"],
               rows, cfg)
    for label, passed in checks:
        print(f"[{'ok' if passed else 'FAIL'}] {label}")
    return 0 if all(passed for _, passed in checks) else 1


def cmd_train(args, cfg: ExperimentConfig, out: str) -> int:
    traces = _build_traces(cfg)
    policy = cfg.train.policy()
    episodes = args.episodes or cfg.train.episodes
    policy, log_rows = train_controller(policy, traces, episodes, cfg.sim,
                                        cfg.reward, cfg.train.cem(cfg.seed),
                                        workers=args.workers)
    ckpt = args.checkpoint_out or os.path.join(out, "learned.ckpt")
    save_policy(policy, ckpt)
    _write_csv(os.path.join(out, "train_log.csv"),
               ["generation", "elite_mean", "best_return"],
               [[r.generation, r.elite_mean, r.best_return] for r in log_rows],
               cfg)
    [suite] = advtrain.evaluate_suite([policy], {"train_pool": traces}, cfg.sim,
                                      cfg.reward, args.workers)
    for name, (util, delay) in suite.items():
        print(f"{name}: util={util:.4f} delay={delay:.2f}ms")
    print(f"wrote {ckpt}")
    return 0


def _load_trace_dir(path: str) -> dict[str, BandwidthTrace]:
    """Every `<name>.trace` file in `path`, by name, in name order."""
    return {f[:-len(".trace")]: read_trace(os.path.join(path, f))
            for f in sorted(os.listdir(path)) if f.endswith(".trace")}


def _pool_dir(path: str, flag: str) -> list[BandwidthTrace]:
    """The traces of a `--pool-*` directory; ConfigError if it holds none."""
    traces = list(_load_trace_dir(path).values())
    if not traces:
        raise ConfigError(f"{flag} {path} holds no .trace file")
    return traces


P_GRID = (0.0, 0.1, 0.2, 0.5, 0.8, 1.0)


def cmd_retrain(args, cfg: ExperimentConfig, out: str) -> int:
    """Retrain `--init` once per p of `args.p_grid` and `train.mix_p`.

    Every p's pool is built before any episode runs. The incoming policy
    and each retrained one are evaluated in one batch. The configured p's
    policy goes to `retrained.ckpt` with its before/after rows in
    `retrain_eval.csv`; a non-empty grid also writes `sweep_p.csv`.
    """
    benign = (_pool_dir(args.pool_benign, "--pool-benign")
              if args.pool_benign else _build_traces(cfg))
    adversarial = _pool_dir(args.pool_adv, "--pool-adv") if args.pool_adv else []
    policy = _learned_policy(args.init)
    mix_p = cfg.train.mix_p
    grid = sorted({*args.p_grid, mix_p})
    try:
        pools = [advtrain.TracePool(benign if p < 1 else [],
                                    adversarial if p > 0 else [], p)
                 for p in grid]
    except ValueError as e:
        raise ConfigError(f"{e} (adversarial traces come from --pool-adv)") from e
    episodes = args.episodes or cfg.train.episodes
    cem = cfg.train.cem(cfg.seed)
    retrained = [advtrain.adversarial_retrain(policy, pool, episodes, cfg.sim,
                                              cfg.reward, cem, args.workers)[0]
                 for pool in pools]
    sets = {"random_baseline": benign}
    if adversarial:
        sets["adversarial"] = adversarial
    before, *after = advtrain.evaluate_suite([policy, *retrained], sets,
                                             cfg.sim, cfg.reward, args.workers)
    mine = grid.index(mix_p)
    save_policy(retrained[mine], os.path.join(out, "retrained.ckpt"))
    _write_csv(os.path.join(out, "retrain_eval.csv"),
               ["stage", "trace_set", "utilization", "delay_ms"],
               [[stage, name, util, delay]
                for stage, suite in (("before", before), ("after", after[mine]))
                for name, (util, delay) in suite.items()],
               cfg)
    for p, suite in zip(grid, after):
        print(f"p={p}: " + " ".join(f"{name} util={util:.4f}"
                                    for name, (util, _) in suite.items()))
    print(f"wrote {out}/retrained.ckpt and {out}/retrain_eval.csv")
    if args.p_grid:
        _write_csv(os.path.join(out, "sweep_p.csv"),
                   ["mix_p", "random_util", "random_delay_ms",
                    "adv_util", "adv_delay_ms"],
                   [[p] + [v for pair in suite.values() for v in pair]
                    for p, suite in zip(grid, after)],
                   cfg)
        print(f"wrote {out}/sweep_p.csv")
    return 0


def cmd_gen_trace(args, cfg: ExperimentConfig, out: str) -> int:
    """`--n` traces of `--length` intervals in `--mode`, under the config's
    smoothness budget (random, unconstrained) or burst shape (burst); each is
    written by a job of one batch on `--workers` threads."""
    budget, t = cfg.budget, cfg.traces
    iv = cfg.sim.trace_interval_ms

    def write(i: int) -> bool:
        """Writes trace `i`; whether it passes the budget check."""
        if args.mode == "random":
            trace = gen_random_trace(args.length, budget, seed=cfg.seed + i,
                                     interval_ms=iv)
        elif args.mode == "unconstrained":
            trace = gen_unconstrained(args.length, budget.bw_min, budget.bw_max,
                                      seed=cfg.seed + i, interval_ms=iv)
        else:
            trace = gen_burst_trace(args.length, t.peak, t.trough, t.rise_intervals,
                                    t.fall_intervals, interval_ms=iv)
        write_trace(trace, os.path.join(out, f"trace_{i:03d}.trace"))
        return args.mode != "random" or check_feasible(trace.values, budget)

    passed = map_jobs(write, [(i,) for i in range(args.n)], args.workers)
    for i, ok in enumerate(passed):
        if not ok:
            print(f"trace {i} failed the budget check", file=sys.stderr)
    print(f"wrote {args.n} trace(s) to {out}")
    return 0 if all(passed) else 1


def cmd_export(args) -> int:
    trace = read_trace(args.trace)
    export_mahimahi(trace, args.dest)
    print(f"wrote {args.dest}")
    return 0


# --- argument parsing --------------------------------------------------------

def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _common(p):
    p.add_argument("--config", help="YAML experiment config")
    p.add_argument("--out", help="output directory (overrides CCPROBE_OUT)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="threads that run a batch of episodes or traces "
                        "(>= 1; outputs do not depend on it); a lock-step "
                        "adversarial batch runs whole on one thread, one C "
                        "call per interval for its rows with a policy and one "
                        "per episode for the others")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ccprobe",
                                 description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("baseline", help="clean/random-trace controller baselines")
    _common(p)
    p.add_argument("--controllers", help="comma-separated controller names")
    p.add_argument("--setting", choices=["clean", "random", "both"],
                   default="both")
    p.add_argument("--checkpoint", help="learned-controller checkpoint")
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("attack", help="train the adversary against one target")
    _common(p)
    p.add_argument("--controller", help="target controller name")
    p.add_argument("--checkpoint", help="learned-controller checkpoint")
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("transfer", help="cross-controller trace transfer matrix")
    _common(p)
    p.add_argument("--traces", required=True,
                   help="directory of worst_<target>.trace artifacts")
    p.add_argument("--controllers")
    p.add_argument("--checkpoint")
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser("lp-case", help="burst-trace early-congestion case study")
    _common(p)
    p.add_argument("--checkpoint", help="include the learned controller")
    p.set_defaults(fn=cmd_lp_case)

    p = sub.add_parser("train", help="train the learned controller")
    _common(p)
    p.add_argument("--episodes", type=_positive_int)
    p.add_argument("--checkpoint-out")
    p.set_defaults(fn=cmd_train)

    # one command over a grid of mixing probabilities; train.mix_p is always
    # in it, so retrain is sweep-p's run at the configured p alone
    for name, grid, text in (("retrain", (), "continue training on a mixed pool"),
                             ("sweep-p", P_GRID, "mixing-probability sweep")):
        p = sub.add_parser(name, help=text)
        _common(p)
        p.add_argument("--init", required=True, help="starting checkpoint")
        p.add_argument("--pool-benign", help="directory of benign .trace files")
        p.add_argument("--pool-adv", help="directory of adversarial .trace files")
        p.add_argument("--episodes", type=_positive_int)
        p.set_defaults(fn=cmd_retrain, p_grid=grid)

    p = sub.add_parser("gen-trace", help="generate bandwidth traces")
    _common(p)
    p.add_argument("--n", type=_positive_int, default=1)
    p.add_argument("--length", type=_positive_int, default=600)
    p.add_argument("--mode", choices=["random", "unconstrained", "burst"],
                   default="random")
    p.set_defaults(fn=cmd_gen_trace)

    p = sub.add_parser("export", help="convert a trace to mahimahi format")
    p.add_argument("--trace", required=True)
    p.add_argument("--dest", required=True)
    p.set_defaults(fn=cmd_export)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.fn is cmd_export:    # the one command without a config
            return cmd_export(args)
        cfg = _load_cfg(args)
        return args.fn(args, cfg, _out_dir(args, cfg))
    except (ConfigError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError, PermissionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OptimizerError as e:   # a run's result, not bad input
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
