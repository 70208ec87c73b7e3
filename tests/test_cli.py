"""Config schema and CLI subcommands (small budgets, tmp outputs)."""

import json
import math
import os
import pickle
import subprocess
import sys

import pytest

from ccprobe import cli
from ccprobe.adversary import calibrate_tau, random_baseline_traces
from ccprobe.cc import Cubic, make_controller
from ccprobe.cli import main
from ccprobe.config import (ExperimentConfig, SchemaError, config_from_dict,
                            load_config)
from ccprobe.learned import LearnedController, PolicyNet, save_policy
from ccprobe.metrics import build_report
from ccprobe.netsim import BandwidthTrace, read_trace, run_episode, write_trace
from ccprobe.tracegen import SmoothnessBudget, gen_random_trace


def test_default_config_valid():
    cfg = ExperimentConfig()
    assert cfg.controller == "reno"
    assert cfg.config_hash() == ExperimentConfig().config_hash()


def test_unknown_top_level_key_rejected():
    with pytest.raises(SchemaError, match="unknown keys"):
        config_from_dict({"simm": {}})


def test_unknown_section_key_rejected():
    with pytest.raises(SchemaError, match="unknown keys"):
        config_from_dict({"sim": {"tick": 1.0}})
    with pytest.raises(SchemaError, match="unknown keys"):
        config_from_dict({"adversary": {"surfaces": "env"}})


def test_removed_repetition_keys_rejected(tmp_path):
    # episodes are deterministic, so no key may ask for replays of one; and
    # every episode records its ACK RTT histogram, so none may switch it off
    for doc, text in (({"repetitions": 3}, "repetitions: 3\n"),
                      ({"sim": {"rng_seed": 1}}, "sim: {rng_seed: 1}\n"),
                      ({"sim": {"record_acks": False}},
                       "sim: {record_acks: false}\n")):
        with pytest.raises(SchemaError, match="unknown keys"):
            config_from_dict(doc)
        p = tmp_path / "old.yaml"
        p.write_text(text)
        assert main(["baseline", "--config", str(p),
                     "--out", str(tmp_path / "x")]) == 2


def test_bad_values_rejected():
    with pytest.raises(SchemaError):
        config_from_dict({"sim": {"tick_ms": 0.0}})
    with pytest.raises(SchemaError):
        config_from_dict({"adversary": {"surface": "kernel"}})
    with pytest.raises(SchemaError):
        config_from_dict({"traces": {"source": "nope"}})
    # a zero delay files ACKs under a tick already processed; 10.4 ms at 1 ms
    # ticks would measure every delay against a base RTT the sim never has
    for owd in (0, 10.4):
        with pytest.raises(SchemaError, match="one_way_delay_ms"):
            config_from_dict({"sim": {"one_way_delay_ms": owd}})
    # the tick loop counts whole packets of whole bytes
    for size in (0, -1500, 1500.5, 0.5, math.inf, math.nan, True, "1500"):
        with pytest.raises(SchemaError, match="packet_size"):
            config_from_dict({"sim": {"packet_size": size}})
    # a budget may not hand the link a negative capacity
    with pytest.raises(SchemaError, match="bw_min"):
        config_from_dict({"budget": {"bw_min": -1.0}})


def test_config_hash_tracks_content():
    a = config_from_dict({"seed": 1})
    b = config_from_dict({"seed": 2})
    assert a.config_hash() != b.config_hash()


def test_load_config_yaml(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("sim:\n  episode_duration_s: 5.0\nseed: 9\n")
    cfg = load_config(str(p))
    assert cfg.sim.episode_duration_s == 5.0
    assert cfg.seed == 9


def _write_cfg(tmp_path, extra=""):
    p = tmp_path / "cfg.yaml"
    p.write_text("sim:\n  episode_duration_s: 5.0\n"
                 "traces:\n  n: 2\nseed: 3\n" + extra)
    return str(p)


def test_gen_trace_and_export(tmp_path):
    out = str(tmp_path / "t")
    assert main(["gen-trace", "--n", "2", "--length", "40",
                 "--out", out, "--seed", "1"]) == 0
    files = sorted(os.listdir(out))
    assert files == ["trace_000.trace", "trace_001.trace"]
    dest = str(tmp_path / "mm.txt")
    assert main(["export", "--trace", os.path.join(out, files[0]),
                 "--dest", dest]) == 0
    assert os.path.exists(dest)


def _export_in_child(tmp_path, text: str) -> str:
    """`ccprobe export` of a trace file holding `text`, in a child process,
    so a hang fails instead of blocking; its stderr, once it exits 2 having
    written nothing."""
    trace = tmp_path / "in.trace"
    trace.write_text(text)
    dest = tmp_path / "out.mahi"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-m", "ccprobe", "export", "--trace",
                          str(trace), "--dest", str(dest)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2
    assert not dest.exists()
    return run.stderr


def test_export_of_a_huge_capacity_exits_2(tmp_path):
    # 1e303 Mbps makes the cumulative bytes infinite; a per-ms export of it
    # never ended
    assert "2^53" in _export_in_child(tmp_path, "# interval_ms=100\n48.0\n1e303\n")


def test_export_of_a_day_long_trace_exits_2(tmp_path):
    # a 10^12 ms interval of 0 Mbps carries nothing, so no byte bound stops
    # it; the export walked every ms of it and never ended
    err = _export_in_child(tmp_path, "# interval_ms=1000000000000\n0\n")
    assert "86400000 ms (one day)" in err


def test_gen_trace_burst_mode(tmp_path):
    out = str(tmp_path / "b")
    assert main(["gen-trace", "--mode", "burst", "--length", "80",
                 "--out", out, "--seed", "0"]) == 0
    tr = read_trace(os.path.join(out, "trace_000.trace"))
    assert max(tr.values) == pytest.approx(80.0)


def test_baseline_csv_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    args = ["baseline", "--config", cfg, "--controllers", "reno,vegas",
            "--setting", "clean"]
    assert main(args + ["--out", out_a]) == 0
    assert main(args + ["--out", out_b, "--workers", "2"]) == 0
    a = open(os.path.join(out_a, "baseline.csv")).read()
    b = open(os.path.join(out_b, "baseline.csv")).read()
    assert a == b
    lines = a.splitlines()
    assert lines[0].startswith("# config=")
    assert lines[1] == "model,setting,utilization,delay_ms,p95_ms"
    assert len(lines) == 4


def test_baseline_cells_are_one_direct_episode(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    cfg = load_config(cfg_path)
    out = str(tmp_path / "c")
    assert main(["baseline", "--config", cfg_path,
                 "--controllers", "reno,vegas", "--setting", "clean",
                 "--out", out]) == 0
    body = open(os.path.join(out, "baseline.csv")).read().splitlines()[2:]
    trace = BandwidthTrace(cfg.sim.trace_interval_ms,
                           [cfg.traces.constant_mbps] * cfg.sim.n_intervals)
    for line, name in zip(body, ("reno", "vegas")):
        rep = build_report(run_episode(cfg.sim, trace, make_controller(name)))
        assert line == (f"{name},clean,{rep.utilization:.6f},"
                        f"{rep.mean_delay_ms:.6f},{rep.p95_delay_ms:.6f}")


def test_baseline_episodes_jsonl_one_line_per_episode(tmp_path):
    cfg = _write_cfg(tmp_path)   # two random traces, one clean
    out = str(tmp_path / "j")
    assert main(["baseline", "--config", cfg, "--controllers", "reno,lp",
                 "--setting", "both", "--out", out]) == 0
    with open(os.path.join(out, "baseline_episodes.jsonl")) as f:
        lines = [json.loads(line) for line in f]
    keys = [d["key"] for d in lines]
    assert sorted(keys) == sorted(f"{c}/{s}/t{t}" for c in ("reno", "lp")
                                  for s, n in (("clean", 1), ("random", 2))
                                  for t in range(n))
    assert all(set(d["report"]) >= {"utilization", "mean_delay_ms"}
               for d in lines)


def test_attack_baseline_delay_is_calibrated_tau(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, "adversary:\n  surface: feature\n"
                                    "  episodes: 0\n")
    out = str(tmp_path / "a")
    assert main(["attack", "--config", cfg_path, "--controller", "vegas",
                 "--out", out]) == 0
    cfg = load_config(cfg_path)
    traces = random_baseline_traces(cfg.budget, cfg.traces.n, cfg.sim.n_intervals,
                                    cfg.sim.trace_interval_ms, cfg.seed)
    tau = calibrate_tau(lambda: make_controller("vegas"), traces, cfg.sim)
    assert f"calibrated tau = {tau:.3f} ms" in capsys.readouterr().out
    rows = open(os.path.join(out, "attack_vegas.csv")).read().splitlines()
    model, condition, _, delay_ms = rows[2].split(",")[:4]
    assert (model, condition, delay_ms) == ("vegas", "baseline", f"{tau:.6f}")


def test_baseline_random_setting(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "r")
    assert main(["baseline", "--config", cfg, "--controllers", "reno",
                 "--setting", "random", "--out", out]) == 0
    body = open(os.path.join(out, "baseline.csv")).read().splitlines()
    assert body[2].startswith("reno,random,")


def test_lp_case_passes_checks(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "lp")
    assert main(["lp-case", "--config", cfg, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "[ok]" in printed and "[FAIL]" not in printed
    assert os.path.exists(os.path.join(out, "lp_case_lp.csv"))
    assert os.path.exists(os.path.join(out, "lp_case_reno.csv"))


def test_lp_case_at_the_default_config_passes_every_check(tmp_path, capsys):
    # one burst period, whatever the config's 60 s episodes say
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "default.yaml")
    assert main(["lp-case", "--config", cfg, "--out", str(tmp_path / "lp")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line.startswith("[ok] ")] == printed
    assert len(printed) == 3
    trace = read_trace(str(tmp_path / "lp" / "burst.trace"))
    assert len(trace.values) == 80


def test_lp_case_backoff_check_counts_renos_loss_reactions(tmp_path, capsys):
    # reno without its converged start overshoots the peak within the one
    # burst period, drops twice and reacts to each drop: the check reads
    # those reactions, so it fails
    p = tmp_path / "cfg.yaml"
    p.write_text("controller_constants: {initial_ssthresh: 400}\n")
    assert main(["lp-case", "--config", str(p), "--out", str(tmp_path / "lp")]) == 1
    printed = capsys.readouterr().out
    assert "[FAIL] reno sees a loss-free episode" in printed
    assert "[FAIL] reno performs zero backoffs" in printed


def test_transfer_requires_two_traces(tmp_path):
    cfg = _write_cfg(tmp_path)
    empty = str(tmp_path / "none")
    os.makedirs(empty)
    assert main(["transfer", "--config", cfg, "--traces", empty,
                 "--out", str(tmp_path / "o")]) == 1


def test_schema_error_exit_code(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("junk_key: 1\n")
    assert main(["baseline", "--config", str(p),
                 "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("size", ["0", "-1500", "1500.5"])
def test_bad_packet_size_exits_2(tmp_path, capsys, size):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"sim: {{episode_duration_s: 1.0, packet_size: {size}}}\n")
    assert main(["baseline", "--config", str(cfg), "--controllers", "reno",
                 "--setting", "random", "--out", str(tmp_path / "x")]) == 2
    assert "packet_size must be an integer >= 1" in capsys.readouterr().err


def test_train_and_retrain_small(tmp_path):
    cfg = _write_cfg(tmp_path, "train:\n  episodes: 32\n  population: 16\n")
    out = str(tmp_path / "tr")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    ckpt = os.path.join(out, "learned.ckpt")
    assert os.path.exists(ckpt)
    # retrain from it, benign-only pool
    out2 = str(tmp_path / "rt")
    assert main(["retrain", "--config", cfg, "--init", ckpt, "--mix-p", "0",
                 "--episodes", "32", "--out", out2]) == 0
    assert os.path.exists(os.path.join(out2, "retrained.ckpt"))
    body = open(os.path.join(out2, "retrain_eval.csv")).read()
    assert "random_baseline" in body


# --- one controller factory, one report job -----------------------------------

def _checkpoint(tmp_path):
    path = str(tmp_path / "learned.ckpt")
    save_policy(PolicyNet(n_features=5, hidden=0,
                          params=[-0.1, 0.5, -1.0, -0.3, 0.2, 0.4]), path)
    return path


def _worst_traces(tmp_path):
    d = tmp_path / "worst"
    d.mkdir()
    for i, name in enumerate(("a", "b")):
        write_trace(gen_random_trace(50, SmoothnessBudget(), seed=i),
                    str(d / f"worst_{name}.trace"))
    return str(d)


def _body(out, name):
    return open(os.path.join(out, name)).read().splitlines()[2:]


def test_baseline_random_row_follows_trace_source(tmp_path):
    p = tmp_path / "const.yaml"
    p.write_text("sim: {episode_duration_s: 5.0}\n"
                 "traces: {source: constant}\nseed: 3\n")
    out = str(tmp_path / "o")
    assert main(["baseline", "--config", str(p), "--controllers", "reno",
                 "--setting", "both", "--out", out]) == 0
    clean, rand = _body(out, "baseline.csv")
    assert clean.startswith("reno,clean,") and rand.startswith("reno,random,")
    assert clean.split(",")[2:] == rand.split(",")[2:]


def _no_episodes(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an episode ran")
    for name in ("map_jobs", "clean_episodes", "run_episode"):
        monkeypatch.setattr(cli, name, fail)
    monkeypatch.setattr(cli.advtrain, "adversarial_retrain", fail)


def test_learned_without_checkpoint_exits_2(tmp_path, monkeypatch, capsys):
    _no_episodes(monkeypatch)
    cfg = _write_cfg(tmp_path)
    for argv in (["baseline", "--controllers", "reno,learned"],
                 ["attack", "--controller", "learned"],
                 ["transfer", "--traces", _worst_traces(tmp_path),
                  "--controllers", "learned"]):
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--checkpoint" in err


def test_rejected_constant_exits_2(tmp_path, monkeypatch, capsys):
    _no_episodes(monkeypatch)
    cfg = _write_cfg(tmp_path, "controller: reno\n"
                               "controller_constants: {c: 0.5}\n")
    for argv in (["baseline", "--controllers", "reno"],
                 ["attack", "--controller", "reno"],
                 ["lp-case"]):
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'c'" in err


@pytest.mark.parametrize("name,constants", [
    ("cubic", "{beta: .nan}"), ("cubic", "{c: -1.0}"), ("cubic", "{beta: 1.0}"),
    ("cubic", "{c: '0.5'}"), ("reno", "{initial_cwnd: -5}"),
    ("lp", "{initial_ssthresh: 1.5}"), ("vegas", "{alpha: 5.0}"),
    ("illinois", "{alpha_min: 10.0}"), ("illinois", "{beta_max: .inf}"),
    ("lp", "{ewma_gain: 0.0}"), ("lp", "{threshold_fraction: true}"),
    ("bbrlite", "{packet_size: 0}")])
def test_constant_outside_its_domain_exits_2(tmp_path, monkeypatch, capsys,
                                             name, constants):
    # checked by the factory, before any episode can meet the value
    _no_episodes(monkeypatch)
    cfg = _write_cfg(tmp_path, f"controller: {name}\n"
                               f"controller_constants: {constants}\n")
    assert main(["baseline", "--controllers", name, "--config", cfg,
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"controller {name!r}" in err


def test_constants_apply_only_to_config_controller(tmp_path):
    # cubic's constant reaches cubic and never the reno attack target
    cfg = _write_cfg(tmp_path, "controller: cubic\n"
                               "controller_constants: {c: 0.5}\n"
                               "adversary: {surface: feature, episodes: 0}\n")
    assert main(["attack", "--config", cfg, "--controller", "reno",
                 "--out", str(tmp_path / "a")]) == 0


def test_controller_factories_pickle(tmp_path):
    cfg = config_from_dict({"controller": "cubic",
                            "controller_constants": {"c": 0.5}})
    ctl = pickle.loads(pickle.dumps(cli._controller_factory(cfg, "cubic")))()
    assert isinstance(ctl, Cubic) and ctl.c == 0.5
    factory = cli._controller_factory(cfg, "learned", _checkpoint(tmp_path))
    ctl = pickle.loads(pickle.dumps(factory))()
    assert isinstance(ctl, LearnedController)
    assert list(ctl.policy.params) == list(factory().policy.params)
    assert ctl.b_max == cfg.reward.b_max


def test_learned_reports_match_across_worker_counts(tmp_path):
    cfg = _write_cfg(tmp_path)
    ckpt = _checkpoint(tmp_path)
    traces = _worst_traces(tmp_path)
    for cmd, extra, csv in (
            ("baseline", ["--setting", "both"], "baseline.csv"),
            ("transfer", ["--traces", traces], "transfer.csv")):
        outs = [str(tmp_path / f"{cmd}{w}") for w in (1, 2)]
        for w, out in zip((1, 2), outs):
            assert main([cmd, "--config", cfg, "--controllers", "reno,learned",
                         "--checkpoint", ckpt, "--workers", str(w),
                         "--out", out] + extra) == 0
        a, b = (open(os.path.join(o, csv)).read() for o in outs)
        assert a == b and "learned," in a


def test_transfer_applies_constants_to_config_controller(tmp_path):
    cfg_path = _write_cfg(tmp_path, "controller: cubic\n"
                                    "controller_constants: {c: 0.1, beta: 0.5}\n")
    cfg = load_config(cfg_path)
    traces = _worst_traces(tmp_path)
    out = str(tmp_path / "t")
    assert main(["transfer", "--config", cfg_path, "--traces", traces,
                 "--controllers", "cubic,reno", "--out", out]) == 0
    want, default = [], []
    for src in ("a", "b"):
        trace = read_trace(os.path.join(traces, f"worst_{src}.trace"))
        for ctl, kw in (("cubic", {"c": 0.1, "beta": 0.5}), ("reno", {})):
            reps = [build_report(run_episode(cfg.sim, trace, make_controller(ctl, **k)))
                    for k in (kw, {})]
            want.append(f"{src},{ctl},{reps[0].utilization:.6f},"
                        f"{reps[0].mean_delay_ms:.6f}")
            default.append(f"{src},{ctl},{reps[1].utilization:.6f},"
                           f"{reps[1].mean_delay_ms:.6f}")
    got = [",".join(line.split(",")[:4]) for line in _body(out, "transfer.csv")]
    assert got == want
    assert got[0] != default[0]   # the constants change cubic's cells


# --- bad input at the boundary ------------------------------------------------

@pytest.mark.parametrize("header, value", [("1000", "48.0"), ("100", "nan"),
                                           ("100", "-5")])
def test_bad_trace_file_exits_2(tmp_path, capsys, header, value):
    path = tmp_path / "t.trace"
    path.write_text(f"# interval_ms={header}\n" + f"{value}\n" * 20)
    cfg = tmp_path / "files.yaml"
    cfg.write_text("sim: {episode_duration_s: 2.0}\n"
                   f"traces: {{source: files, paths: [{path}]}}\n")
    assert main(["baseline", "--config", str(cfg), "--controllers", "reno",
                 "--setting", "random", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("body", ["not a policy\n", "ccprobe-policy v1\n"])
def test_init_not_a_checkpoint_exits_2(tmp_path, capsys, body):
    cfg = _write_cfg(tmp_path)
    bogus = tmp_path / "bogus.ckpt"
    bogus.write_text(body)
    for argv in (["retrain", "--init", str(bogus)],
                 ["sweep-p", "--init", str(bogus),
                  "--pool-adv", _worst_traces(tmp_path)],
                 ["baseline", "--controllers", "learned",
                  "--checkpoint", str(bogus)]):
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "bogus.ckpt" in err


@pytest.mark.parametrize("flags", [["--bw-min", "5", "--bw-max", "1"],
                                   ["--delta", "0"],
                                   # exits 2 at every length, not only when
                                   # the walk happens to go below zero
                                   ["--bw-min", "-1"],
                                   ["--bw-min", "-1", "--length", "5"]])
def test_gen_trace_bad_budget_exits_2(tmp_path, capsys, flags):
    assert main(["gen-trace", "--out", str(tmp_path / "t")] + flags) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not os.listdir(tmp_path / "t")


@pytest.mark.parametrize("count", ["0", "-1"])
def test_workers_below_one_exits_2(tmp_path, capsys, count):
    # every count flag, not only --workers, is rejected while parsing
    for argv in (["gen-trace", "--workers"], ["gen-trace", "--n"],
                 ["gen-trace", "--length"], ["train", "--episodes"],
                 ["retrain", "--init", "x.ckpt", "--episodes"],
                 ["sweep-p", "--init", "x.ckpt", "--pool-adv", "adv",
                  "--episodes"]):
        with pytest.raises(SystemExit) as e:
            main(argv + [count, "--out", str(tmp_path / "o")])
        assert e.value.code == 2, argv
        assert f"must be >= 1, got {count}" in capsys.readouterr().err, argv
    assert not os.path.exists(tmp_path / "o")


# --- every batch of episodes goes through map_jobs -----------------------------

def _training_cfg(tmp_path, surface="env"):
    p = tmp_path / f"{surface}.yaml"
    p.write_text("sim: {episode_duration_s: 5.0}\ntraces: {n: 2}\n"
                 f"adversary: {{surface: {surface}, episodes: 8, rollouts: 3}}\n"
                 "train: {episodes: 8, population: 4}\nseed: 3\n")
    return str(p)


def _training_runs(tmp_path):
    """(argv without --out, output subdirectory, expected job functions) for
    every command that trains."""
    retrain = ["--init", _checkpoint(tmp_path), "--pool-adv",
               _worst_traces(tmp_path), "--episodes", "4"]
    env, feature = _training_cfg(tmp_path), _training_cfg(tmp_path, "feature")
    attack_jobs = {"clean_episode", "_adversary_return", "adversarial_episode"}
    return [
        (["attack", "--config", env, "--controller", "cubic"], "attack",
         attack_jobs),
        (["attack", "--config", feature, "--controller", "vegas"], "attack",
         attack_jobs),
        (["train", "--config", env], "train",
         {"_pool_return", "episode_return", "clean_episode"}),
        (["retrain", "--config", env] + retrain, "retrain",
         {"_mixed_return", "clean_episode"}),
        (["sweep-p", "--config", env] + retrain, "sweep",
         {"_mixed_return", "clean_episode"}),
    ]


def test_training_commands_pass_workers_to_map_jobs(tmp_path, monkeypatch):
    import ccprobe
    from ccprobe import netsim
    calls = []
    real = netsim.map_jobs

    def spy(fn, jobs, workers):
        jobs = list(jobs)
        # every objective and rollout job survives the trip to a worker
        fn2, jobs2 = pickle.loads(pickle.dumps((fn, jobs)))
        calls.append((getattr(fn, "func", fn).__name__, workers))
        return real(fn2, jobs2, 1)

    for mod in list(vars(ccprobe).values()):
        if mod is not netsim and hasattr(mod, "map_jobs"):
            monkeypatch.setattr(mod, "map_jobs", spy)
    for argv, sub, fns in _training_runs(tmp_path):
        calls.clear()
        assert main(argv + ["--out", str(tmp_path / sub), "--workers", "2"]) == 0
        assert {f for f, _ in calls} == fns and {w for _, w in calls} == {2}


def test_training_outputs_match_across_worker_counts(tmp_path):
    runs = _training_runs(tmp_path)
    outs = [str(tmp_path / f"w{w}") for w in (1, 2)]
    for w, out in zip((1, 2), outs):
        for argv, sub, _ in runs:
            assert main(argv + ["--out", os.path.join(out, sub),
                                "--workers", str(w)]) == 0
    files = sorted(os.path.relpath(os.path.join(d, f), outs[0])
                   for d, _, fs in os.walk(outs[0]) for f in fs)
    assert {f.rsplit(".", 1)[1] for f in files} == {"csv", "ckpt", "trace"}
    for rel in files:
        a, b = (open(os.path.join(o, rel), "rb").read() for o in outs)
        assert a == b, rel


# --- each batch forks its own children, all reaped before it returns ----------

def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_train_and_env_attack_fork_per_batch(tmp_path, monkeypatch, forked_pids):
    # each makes several batches: CEM generations, then the check episodes,
    # the evaluation, the clean baseline or the selection rollouts; a batch
    # of n jobs at 2 workers forks min(2, n) - 1 children
    import ccprobe
    from ccprobe import netsim
    batches, real = [], netsim.map_jobs

    def spy(fn, jobs, workers):
        jobs = list(jobs)
        batches.append(min(workers, len(jobs)))
        return real(fn, jobs, workers)

    for mod in list(vars(ccprobe).values()):
        if mod is not netsim and hasattr(mod, "map_jobs"):
            monkeypatch.setattr(mod, "map_jobs", spy)
    cfg = _training_cfg(tmp_path)
    for argv in (["train"], ["attack", "--controller", "cubic"]):
        forked_pids.clear(), batches.clear()
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / argv[0]),
                            "--workers", "2"]) == 0
        assert len(batches) >= 3 and set(batches) == {2}, argv
        assert len(forked_pids) == sum(m - 1 for m in batches), argv
        assert len(set(forked_pids)) == len(forked_pids), argv
        _assert_no_child_left()


def test_each_batch_forks_its_own_children(forked_pids):
    # no child is kept for a later batch, whether it needs fewer or more
    from ccprobe import netsim
    jobs = [(2, 3), (3, 2), (2, 2), (3, 3)]
    assert netsim.map_jobs(pow, jobs[:2], 4) == [8, 9]
    assert len(forked_pids) == 1
    assert netsim.map_jobs(pow, jobs, 4) == [8, 9, 4, 27]
    assert len(forked_pids) == 4
    assert netsim.map_jobs(pow, jobs[:2], 4) == [8, 9]
    assert len(forked_pids) == 5 and len(set(forked_pids)) == 5
    _assert_no_child_left()


def test_no_worker_outlives_a_command(tmp_path, monkeypatch, forked_pids):
    from ccprobe import adversary
    cfg = _write_cfg(tmp_path)
    baseline = ["baseline", "--config", cfg, "--controllers", "reno,lp",
                "--workers", "2"]
    assert main(baseline + ["--out", str(tmp_path / "ok")]) == 0
    assert len(forked_pids) == 1
    _assert_no_child_left()

    # exit 2 after the children have run the training episodes
    assert main(["train", "--config", _training_cfg(tmp_path), "--workers", "2",
                 "--out", str(tmp_path / "t"),
                 "--checkpoint-out", str(tmp_path / "missing" / "x.ckpt")]) == 2
    assert len(forked_pids) > 1
    _assert_no_child_left()

    # a job that raises only in a child: its message reaches the caller
    caller, real = os.getpid(), adversary.build_report

    def raise_in_worker(log):
        if os.getpid() != caller:
            raise RuntimeError(f"report failed in process {os.getpid()}")
        return real(log)

    monkeypatch.setattr(adversary, "build_report", raise_in_worker)
    forked_pids.clear()
    with pytest.raises(RuntimeError, match="report failed in process") as e:
        main(baseline + ["--out", str(tmp_path / "raise")])
    assert forked_pids == [int(str(e.value).rsplit(" ", 1)[1])]
    _assert_no_child_left()


def test_a_piped_attack_prints_each_line_once(tmp_path):
    # stdout into a pipe is block-buffered; a child that flushed the buffer
    # it inherited would print the caller's lines again
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    run = subprocess.run([sys.executable, "-m", "ccprobe", "attack", "--config",
                          _training_cfg(tmp_path), "--controller", "cubic",
                          "--workers", "2", "--out", str(tmp_path / "a")],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("calibrated tau") == 1, run.stdout


# --- bad config values and trace pools fail at the boundary -----------------

def _exits_2_before_any_episode(tmp_path, monkeypatch, capsys, argv):
    _no_episodes(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    return err


@pytest.mark.parametrize("doc,key", [
    ("adversary: {alpha: 0}", "alpha"), ("adversary: {window_h: 0}", "window_h"),
    ("adversary: {tau_ms: -1}", "tau"), ("adversary: {x_fraction: 2}", "x_fraction"),
    ("adversary: {rollouts: 0}", "rollouts"),
    ("train: {population: 0}", "population"), ("train: {hidden: -1}", "hidden"),
    ("train: {a_max: -1}", "a_max"), ("train: {elite_frac: 2}", "elite_frac"),
    ("train: {mix_p: 2}", "mix_p"),
    ("traces: {rise_intervals: -5}", "rise_intervals"),
    ("sim: [1, 2", "not valid YAML"), ("seed: abc", "seed"),
    ("seed: 1.5", "seed"), ("seed: -1", "seed"), ("traces: {n: 1.5}", "n")])
def test_bad_config_value_exits_2_at_load(tmp_path, monkeypatch, capsys, doc, key):
    # a value outside its domain, malformed YAML or a non-integer count
    p = tmp_path / "cfg.yaml"
    p.write_text(doc + "\n")
    err = _exits_2_before_any_episode(
        tmp_path, monkeypatch, capsys,
        ["baseline", "--config", str(p), "--controllers", "reno",
         "--setting", "clean"])
    assert key in err


def test_retrain_and_sweep_p_reject_an_unusable_trace_pool(tmp_path, monkeypatch,
                                                           capsys):
    cfg = _write_cfg(tmp_path)
    ckpt = _checkpoint(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    common = ["--config", cfg, "--init", ckpt, "--episodes", "16"]
    for argv, key in (
            (["retrain"], "adversarial traces required"),
            (["retrain", "--mix-p", "1.5", "--pool-adv", _worst_traces(tmp_path)],
             "mix_p must be in [0, 1]"),
            (["retrain", "--pool-adv", str(empty)], "holds no .trace file"),
            (["sweep-p", "--pool-adv", str(empty)], "holds no .trace file")):
        err = _exits_2_before_any_episode(tmp_path, monkeypatch, capsys,
                                          argv + common)
        assert key in err
