"""Config schema and CLI subcommands (small budgets, tmp outputs)."""

import json
import math
import os
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest
import yaml

from ccprobe import cli
from ccprobe.adversary import (AdversaryConfig, adversarial_episodes, calibrate_tau,
                               make_adversary_policy)
from ccprobe.cc import Cubic, make_controller
from ccprobe.cli import main
from ccprobe.config import ExperimentConfig, config_from_dict, load_config
from ccprobe.learned import LearnedController, PolicyNet, save_policy
from ccprobe.metrics import build_report, means
from ccprobe.netsim import (BandwidthTrace, ConfigError, read_trace, run_episode,
                            write_trace)
from ccprobe.tracegen import (SmoothnessBudget, gen_burst_trace, gen_random_trace,
                              gen_unconstrained)


def test_default_config_valid():
    cfg = ExperimentConfig()
    assert cfg.controller == "reno"
    assert cfg.config_hash() == ExperimentConfig().config_hash()


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"simm": {}})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"sim": {"tick": 1.0}})
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"adversary": {"surfaces": "env"}})


def test_removed_repetition_keys_rejected(tmp_path):
    # episodes are deterministic, so no key may ask for replays of one; and
    # every episode records its ACK RTT histogram, so none may switch it off
    for doc, text in (({"repetitions": 3}, "repetitions: 3\n"),
                      ({"sim": {"rng_seed": 1}}, "sim: {rng_seed: 1}\n"),
                      ({"sim": {"record_acks": False}},
                       "sim: {record_acks: false}\n")):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict(doc)
        p = tmp_path / "old.yaml"
        p.write_text(text)
        assert main(["baseline", "--config", str(p),
                     "--out", str(tmp_path / "x")]) == 2


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"sim": {"tick_ms": 0.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"adversary": {"surface": "kernel"}})
    with pytest.raises(ConfigError):
        config_from_dict({"traces": {"source": "nope"}})
    # a zero delay files ACKs under a tick already processed; 10.4 ms at 1 ms
    # ticks would measure every delay against a base RTT the sim never has
    for owd in (0, 10.4):
        with pytest.raises(ConfigError, match="one_way_delay_ms"):
            config_from_dict({"sim": {"one_way_delay_ms": owd}})
    # the tick loop counts whole packets of whole bytes
    for size in (0, -1500, 1500.5, 0.5, math.inf, math.nan, True, "1500"):
        with pytest.raises(ConfigError, match="packet_size"):
            config_from_dict({"sim": {"packet_size": size}})
    # a budget may not hand the link a negative capacity
    with pytest.raises(ConfigError, match="bw_min"):
        config_from_dict({"budget": {"bw_min": -1.0}})


def test_config_hash_tracks_content():
    a = config_from_dict({"seed": 1})
    b = config_from_dict({"seed": 2})
    assert a.config_hash() != b.config_hash()


def test_config_hash_is_pinned():
    # the hash every CSV's provenance line carries, of the default config and
    # of one with every section and scalar set away from its default
    assert ExperimentConfig().config_hash() == "00b1512155ab5ed9"
    doc = {
        "sim": {"tick_ms": 0.5, "one_way_delay_ms": 20.0, "queue_capacity_bdp": 1.5,
                "packet_size": 1200, "episode_duration_s": 5.0,
                "trace_interval_ms": 50.0},
        "reward": {"lam": 5.0, "gamma": 1.5, "b_max": 48.0},
        "budget": {"delta": 12.0, "window_k": 3, "bw_min": 2.0, "bw_max": 48.0},
        "traces": {"source": "files", "n": 3, "constant_mbps": 24.0,
                   "paths": ["a.trace", "b.trace"], "peak": 60.0, "trough": 6.0,
                   "rise_intervals": 10, "fall_intervals": 30},
        "adversary": {"surface": "feature", "reward_mode": "naive",
                      "x_fraction": 0.25, "perturb_mode": "random_noise",
                      "alpha": 2.0, "window_h": 4, "window_k": 2, "tau_ms": 7.5,
                      "episodes": 64, "rollouts": 3},
        "train": {"episodes": 128, "hidden": 16, "a_max": 1.0, "mix_p": 0.5,
                  "population": 16, "elite_frac": 0.5, "sigma0": 0.5,
                  "extra_noise": 0.1, "noise_decay": 0.8},
        "controller": "cubic", "controller_constants": {"c": 0.3, "beta": 0.8},
        "seed": 7, "output_dir": "elsewhere"}
    assert config_from_dict(doc).config_hash() == "df5e47cdfefcc97c"


def test_import_loads_no_code_generator_or_build_tools():
    # with the tick loop built, importing the CLI builds its record classes
    # without generating code (no dataclasses) and loads nothing that only a
    # build of the tick loop uses (no subprocess)
    probe = ("import sys, ccprobe.cli; "
             "print(sorted({'dataclasses', 'subprocess'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


_EVERY_COMMAND = """
import os, sys
from ccprobe.cli import main
d = sys.argv[1]
cfg = os.path.join(d, "c.yaml")
with open(cfg, "w") as f:
    f.write("sim: {episode_duration_s: 2.0}\\ntraces: {n: 2}\\n"
            "adversary: {episodes: 4, rollouts: 2}\\n"
            "train: {episodes: 4, population: 2, mix_p: 0.5}\\nseed: 3\\n")
feature = os.path.join(d, "f.yaml")
with open(feature, "w") as f:
    f.write("sim: {episode_duration_s: 2.0}\\ntraces: {n: 2}\\n"
            "adversary: {surface: feature, perturb_mode: random_noise, "
            "episodes: 4, rollouts: 2}\\n")
t = os.path.join(d, "t")
runs = [["gen-trace", "--n", "2", "--length", "20", "--out", t],
        ["gen-trace", "--mode", "unconstrained", "--length", "20",
         "--out", os.path.join(d, "u")],
        ["export", "--trace", os.path.join(t, "trace_000.trace"),
         "--dest", os.path.join(d, "mm")],
        ["baseline", "--config", cfg, "--controllers", "reno"],
        ["transfer", "--config", cfg, "--traces", t, "--controllers", "reno"],
        ["attack", "--config", cfg, "--controller", "cubic"],
        ["attack", "--config", feature, "--controller", "vegas"],
        ["train", "--config", cfg],
        ["retrain", "--config", cfg, "--init", os.path.join(d, "train", "learned.ckpt"),
         "--pool-adv", t, "--episodes", "4"]]
for argv in runs:
    if argv[0] not in ("gen-trace", "export"):
        argv += ["--out", os.path.join(d, argv[0])]
    assert main(argv) == 0, argv
print("numpy.random" in sys.modules)
"""


def test_no_command_loads_numpy_random(tmp_path):
    # every draw comes from `netsim.Rng`, so no command imports numpy's
    # Generator: gen-trace in both random modes, export, baseline, transfer,
    # attack on both surfaces, train and retrain, in one process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", _EVERY_COMMAND, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "False"


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
    traces = cli._build_traces(cfg)
    tau, _ = calibrate_tau(lambda: make_controller("vegas"), traces, cfg.sim)
    assert f"calibrated tau = {tau:.3f} ms" in capsys.readouterr().out
    rows = open(os.path.join(out, "attack_vegas.csv")).read().splitlines()
    model, condition, _, delay_ms = rows[2].split(",")[:4]
    assert (model, condition, delay_ms) == ("vegas", "baseline", f"{tau:.6f}")


@pytest.mark.parametrize("surface,target,last", [
    ("env", "cubic", "select_worst_trace"),
    ("feature", "vegas", "adversarial_episodes")])
def test_attack_runs_on_the_adversary_section(tmp_path, monkeypatch, surface, target,
                                              last):
    # each adversary function attack calls gets the config's `adversary`
    # section, field for field, but for tau, which it calibrates once
    bound = "x_fraction: 0.3, " if surface == "feature" else ""
    cfg_path = _write_cfg(tmp_path, f"adversary: {{surface: {surface}, {bound}"
                                    "alpha: 0.5, window_h: 3, window_k: 2, "
                                    "episodes: 8, rollouts: 3}\n"
                                    "train: {population: 4}\n")
    seen = []
    for name in ("train_adversary", "select_worst_trace", "adversarial_episodes"):
        def spy(adv, *args, real=getattr(cli, name), name=name, **kwargs):
            seen.append((name, dict(vars(adv))))
            return real(adv, *args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    assert main(["attack", "--config", cfg_path, "--controller", target,
                 "--out", str(tmp_path / "a")]) == 0
    cfg = load_config(cfg_path)
    tau, _ = calibrate_tau(lambda: make_controller(target), cli._build_traces(cfg),
                           cfg.sim)
    want = {**vars(cfg.adversary), "tau_ms": tau}
    assert seen == [("train_adversary", want), (last, want)]


@pytest.mark.parametrize("mode", ["random_noise", "clean"])
def test_policy_less_feature_attack_trains_no_policy(tmp_path, monkeypatch, mode):
    # a random-noise or clean intercept reads no policy, so attack trains and
    # writes none; its attack row is the one any policy would give
    cfg_path = _write_cfg(tmp_path, f"adversary:\n  surface: feature\n"
                                    f"  perturb_mode: {mode}\n  x_fraction: 0.3\n"
                                    f"  episodes: 8\n")
    monkeypatch.setattr(cli, "train_adversary",
                        lambda *a, **k: pytest.fail("trained a policy no row reads"))
    out = str(tmp_path / "a")
    assert main(["attack", "--config", cfg_path, "--controller", "vegas",
                 "--out", out]) == 0
    assert os.listdir(out) == ["attack_vegas.csv"]
    cfg = load_config(cfg_path)
    traces = cli._build_traces(cfg)
    policy = make_adversary_policy("feature")
    policy = policy.with_params(np.random.default_rng(0).normal(size=policy.n_params))
    adv = AdversaryConfig(0.3, mode, surface="feature", tau_ms=0.0)
    evals = adversarial_episodes(adv, cfg.budget, policy, None,
                                 lambda: make_controller("vegas"), cfg.sim,
                                 cfg.reward, range(len(traces)), clean_traces=traces)
    util, delay = means(evals, "utilization", "interval_delay_ms")
    rows = open(os.path.join(out, "attack_vegas.csv")).read().splitlines()
    assert rows[3].split(",")[:4] == ["vegas", "attack", f"{util:.6f}", f"{delay:.6f}"]


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


def test_transfer_requires_two_traces(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    empty = str(tmp_path / "none")
    os.makedirs(empty)
    assert main(["transfer", "--config", cfg, "--traces", empty,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and ">= 2 worst-trace artifacts" in err


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
    err = capsys.readouterr().err
    assert err.startswith("error: sim.packet_size must be ")
    assert err.endswith(f", got {size}\n")


def test_train_and_retrain_small(tmp_path):
    cfg = _write_cfg(tmp_path, "train:\n  episodes: 32\n  population: 16\n"
                               "  mix_p: 0\n")
    out = str(tmp_path / "tr")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    ckpt = os.path.join(out, "learned.ckpt")
    assert os.path.exists(ckpt)
    # retrain from it, benign-only pool
    out2 = str(tmp_path / "rt")
    assert main(["retrain", "--config", cfg, "--init", ckpt,
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
    for name in ("map_jobs", "calibrate_tau", "run_episode"):
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
    assert isinstance(ctl, Cubic) and ctl.cc_state.c == 0.5
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
        outs = [str(tmp_path / f"{cmd}{w}") for w in (1, 2, 3)]
        for w, out in zip((1, 2, 3), outs):
            assert main([cmd, "--config", cfg, "--controllers", "reno,learned",
                         "--checkpoint", ckpt, "--workers", str(w),
                         "--out", out] + extra) == 0
        a, b, c = (open(os.path.join(o, csv)).read() for o in outs)
        assert a == b == c and "learned," in a


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


# a well-formed hidden-16 checkpoint whose policy reads 6 features, not the
# learned controller's 5; it once failed deep in numpy, with a traceback
_SIX_FEATURES = ("ccprobe-policy v1\nfeatures a b c d e f\nhidden 16\na_max 2.0\n"
                 + "0.1\n" * PolicyNet(n_features=6, hidden=16).n_params)


@pytest.mark.parametrize("body", ["not a policy\n", "ccprobe-policy v1\n",
                                  pytest.param(_SIX_FEATURES, id="six-features")])
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


# each case the budget that gen-trace's removed --delta/--window-k/--bw-min/
# --bw-max flags once gave, now given as the config's budget section
@pytest.mark.parametrize("flags", [{"bw_min": 5, "bw_max": 1}, {"delta": 0},
                                   # exits 2 at every length, not only when
                                   # the walk happens to go below zero
                                   {"bw_min": -1}, {"bw_min": -1, "window_k": 3},
                                   # non-finite values, once constant traces
                                   # or an OverflowError traceback
                                   {"delta": math.nan}, {"bw_max": math.inf}])
def test_gen_trace_bad_budget_exits_2(tmp_path, capsys, flags):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"budget": flags}))
    out = tmp_path / "t"
    for length in ("5", "600"):
        assert main(["gen-trace", "--config", str(cfg), "--length", length,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # a field's own domain, or bw_min < bw_max
        assert err.count("\n") == 1 and err.startswith(("error: budget.",
                                                        "error: budget: "))
    assert not out.exists()


def test_gen_trace_reads_budget_and_burst_from_the_config(tmp_path):
    # the budget and burst shape baseline and attack use, not built-in ones
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("budget: {delta: 6, window_k: 2, bw_min: 10, bw_max: 20}\n"
                   "traces: {peak: 30, trough: 7, rise_intervals: 3, "
                   "fall_intervals: 5}\nseed: 4\n")
    budget = SmoothnessBudget(delta=6.0, window_k=2, bw_min=10.0, bw_max=20.0)
    for mode in ("random", "unconstrained", "burst"):
        out = str(tmp_path / mode)
        assert main(["gen-trace", "--config", str(cfg), "--mode", mode,
                     "--n", "2", "--length", "200", "--out", out]) == 0
        for i in range(2):
            tr = read_trace(os.path.join(out, f"trace_{i:03d}.trace"))
            if mode == "random":
                # trace files hold 6 decimals
                assert tr.values == pytest.approx(
                    gen_random_trace(200, budget, seed=4 + i).values, abs=5e-7)
            elif mode == "unconstrained":
                assert tr.values == pytest.approx(
                    gen_unconstrained(200, 10.0, 20.0, seed=4 + i).values, abs=5e-7)
            else:
                assert tr.values == pytest.approx(
                    gen_burst_trace(200, 30.0, 7.0, 3, 5).values, abs=5e-7)


@pytest.mark.parametrize("argv", [
    ["baseline", "--config", "{dir}"],
    ["export", "--trace", "{dir}", "--dest", "{tmp}/x.mahi"],
    ["retrain", "--init", "{dir}", "--config", "{cfg}"],
    ["baseline", "--controllers", "learned", "--checkpoint", "{dir}",
     "--config", "{cfg}"],
    ["transfer", "--traces", "{cfg}", "--config", "{cfg}"],
    ["gen-trace", "--out", "{cfg}"]],
    ids=["config-dir", "export-trace-dir", "retrain-init-dir",
         "checkpoint-dir", "transfer-traces-file", "out-file"])
def test_bad_input_path_exits_2(tmp_path, monkeypatch, capsys, argv):
    # a directory where a file belongs, or a file where a directory belongs:
    # one error line, not a traceback
    _no_episodes(monkeypatch)
    d = tmp_path / "d"
    d.mkdir()
    cfg = _write_cfg(tmp_path)
    argv = [a.format(dir=d, tmp=tmp_path, cfg=cfg) for a in argv]
    if "--out" not in argv and argv[0] != "export":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


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
    """(argv without --out, output subdirectory, expected `map_jobs` job
    functions) for every command that trains."""
    retrain = ["--init", _checkpoint(tmp_path), "--pool-adv",
               _worst_traces(tmp_path), "--episodes", "4"]
    env, feature = _training_cfg(tmp_path), _training_cfg(tmp_path, "feature")
    return [
        (["attack", "--config", env, "--controller", "cubic"], "attack",
         {"clean_episode"}),
        (["attack", "--config", feature, "--controller", "vegas"], "attack",
         {"clean_episode"}),
        (["train", "--config", env], "train", {"clean_episode"}),
        (["retrain", "--config", env] + retrain, "retrain", {"clean_episode"}),
        (["sweep-p", "--config", env] + retrain, "sweep", {"clean_episode"}),
    ]


def test_gen_trace_and_lp_case_outputs_match_across_worker_counts(
        tmp_path, capsys, started_threads):
    # both run their traces or episodes as one batch on --workers threads
    cfg = _write_cfg(tmp_path)
    runs = {"random": ["gen-trace", "--n", "3", "--length", "40"],
            "unconstrained": ["gen-trace", "--mode", "unconstrained", "--n", "3",
                              "--length", "40"],
            "lp": ["lp-case", "--checkpoint", _checkpoint(tmp_path)]}
    for sub, argv in runs.items():
        got = []
        for w in (1, 2):
            started_threads.clear()
            out = str(tmp_path / f"{sub}{w}")
            code = main(argv + ["--config", cfg, "--workers", str(w), "--out", out])
            printed = capsys.readouterr()
            assert len(started_threads) == w - 1, (sub, w)
            files = {f: open(os.path.join(out, f), "rb").read()
                     for f in sorted(os.listdir(out))}
            got.append((code, printed.out.replace(out, "OUT"), printed.err, files))
        assert got[0] == got[1], sub
    assert sorted(got[0][3]) == ["burst.trace", "lp_case.csv", "lp_case_learned.csv",
                                 "lp_case_lp.csv", "lp_case_reno.csv"]


def _spy_on_map_jobs(monkeypatch, spy):
    import ccprobe
    from ccprobe import netsim
    for mod in list(vars(ccprobe).values()):
        if mod is not netsim and hasattr(mod, "map_jobs"):
            monkeypatch.setattr(mod, "map_jobs", spy)
    return netsim.map_jobs


def test_training_commands_pass_workers_to_map_jobs(tmp_path, monkeypatch):
    # row jobs go through map_jobs with --workers; a lock-step adversarial
    # batch never does: each CEM generation's whole population (4) and the
    # attack's rollouts (3 selection rollouts, or 2 feature evaluations)
    # run as one call on the calling thread
    from ccprobe import adversary
    calls, slices = [], []
    caller = threading.current_thread()

    def spy(fn, jobs, workers):
        calls.append((getattr(fn, "func", fn).__name__, workers))
        return real(fn, jobs, workers)

    real = _spy_on_map_jobs(monkeypatch, spy)
    real_episodes = adversary.adversarial_episodes

    def episodes(adv, budget, policy, params, factory, config, reward, seeds,
                 *args, **kwargs):
        slices.append((len(seeds), threading.current_thread() is caller))
        return real_episodes(adv, budget, policy, params, factory, config, reward,
                             seeds, *args, **kwargs)

    monkeypatch.setattr(adversary, "adversarial_episodes", episodes)
    monkeypatch.setattr(cli, "adversarial_episodes", episodes)
    for argv, sub, fns in _training_runs(tmp_path):
        calls.clear(), slices.clear()
        assert main(argv + ["--out", str(tmp_path / sub), "--workers", "2"]) == 0
        assert {f for f, _ in calls} == fns and {w for _, w in calls} == {2}
        want = []
        if argv[0] == "attack":
            last = 3 if argv[2].endswith("env.yaml") else 2
            want = [(4, True), (4, True), (last, True)]
        assert slices == want, argv


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


# --- each batch starts its own threads, all joined before it returns ----------

def test_train_and_env_attack_start_threads_per_batch(tmp_path, monkeypatch,
                                                      started_threads,
                                                      no_thread_left):
    # each makes several batches: CEM generations or the clean baseline, then
    # the check episodes and the evaluation; a batch of n jobs at 2 workers
    # starts min(2, n) - 1 threads
    batches = []

    def spy(fn, jobs, workers):
        jobs = list(jobs)
        batches.append(min(workers, len(jobs)))
        return real(fn, jobs, workers)

    real = _spy_on_map_jobs(monkeypatch, spy)
    cfg = _training_cfg(tmp_path)
    for argv, least in ((["train"], 3), (["attack", "--controller", "cubic"], 1)):
        started_threads.clear(), batches.clear()
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / argv[0]),
                            "--workers", "2"]) == 0
        assert len(batches) >= least and set(batches) == {2}, argv
        assert len(started_threads) == sum(m - 1 for m in batches), argv
        assert len(set(map(id, started_threads))) == len(started_threads), argv
        assert no_thread_left(), argv


def test_each_batch_starts_its_own_threads(started_threads, no_thread_left):
    # no thread is kept for a later batch, whether it needs fewer or more
    from ccprobe import netsim
    jobs = [(2, 3), (3, 2), (2, 2), (3, 3)]
    assert netsim.map_jobs(pow, jobs[:2], 4) == [8, 9]
    assert len(started_threads) == 1
    assert netsim.map_jobs(pow, jobs, 4) == [8, 9, 4, 27]
    assert len(started_threads) == 4
    assert netsim.map_jobs(pow, jobs[:2], 4) == [8, 9]
    assert len(started_threads) == 5
    assert len(set(map(id, started_threads))) == 5
    assert not any(t.is_alive() for t in started_threads)
    assert no_thread_left()


def test_no_worker_outlives_a_command(tmp_path, monkeypatch, started_threads,
                                      no_thread_left):
    from ccprobe import metrics
    cfg = _write_cfg(tmp_path)
    baseline = ["baseline", "--config", cfg, "--controllers", "reno,lp",
                "--workers", "2"]
    assert main(baseline + ["--out", str(tmp_path / "ok")]) == 0
    assert len(started_threads) == 1 and no_thread_left()

    # exit 2 after the threads have run the training episodes
    assert main(["train", "--config", _training_cfg(tmp_path), "--workers", "2",
                 "--out", str(tmp_path / "t"),
                 "--checkpoint-out", str(tmp_path / "missing" / "x.ckpt")]) == 2
    assert len(started_threads) > 1 and no_thread_left()

    # a job that raises only on a worker thread: the exception itself
    # reaches the caller
    caller, real = threading.current_thread(), metrics.build_report

    class ReportFailed(Exception):
        pass

    def raise_in_worker(log, *args):
        if threading.current_thread() is not caller:
            raise ReportFailed(threading.current_thread().name)
        return real(log, *args)

    monkeypatch.setattr(metrics, "build_report", raise_in_worker)
    started_threads.clear()
    with pytest.raises(ReportFailed) as e:
        main(baseline + ["--out", str(tmp_path / "raise")])
    assert [t.name for t in started_threads] == [str(e.value)]
    assert no_thread_left()


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
    # a negative budget would train nothing and go on as if it had
    ("adversary: {episodes: -1}", "episodes must be >= 0"),
    ("train: {episodes: -1}", "episodes must be >= 0"),
    # the one spelling of each setting is the config's, never an enum value
    ("adversary: {surface: env_bandwidth}", "surface"),
    ("adversary: {reward_mode: NAIVE}", "reward_mode"),
    ("adversary: {perturb_mode: noise}", "perturb_mode"),
    ("train: {population: 0}", "population"), ("train: {hidden: -1}", "hidden"),
    ("train: {a_max: -1}", "a_max"), ("train: {elite_frac: 2}", "elite_frac"),
    ("train: {mix_p: 2}", "mix_p"),
    ("traces: {rise_intervals: -5}", "rise_intervals"),
    ("sim: [1, 2", "not valid YAML"), ("seed: abc", "seed"),
    ("seed: 1.5", "seed"), ("seed: -1", "seed"), ("traces: {n: 1.5}", "n"),
    ("budget: {delta: .nan}", "delta"), ("budget: {bw_max: .inf}", "bw_max"),
    ("budget: {window_k: 1.5}", "window_k"), ("budget: {window_k: true}", "window_k"),
    ("sim: {queue_capacity_bdp: .nan}", "queue_capacity_bdp"),
    ("sim: {queue_capacity_bdp: .inf}", "queue_capacity_bdp"),
    ("reward: {lam: .nan}", "lam"), ("reward: {lam: .inf}", "lam"),
    ("reward: {gamma: .nan}", "gamma"), ("reward: {gamma: .inf}", "gamma"),
    ("reward: {b_max: .nan}", "b_max"), ("reward: {b_max: .inf}", "b_max"),
    # once each record's own check, now the config table's
    ("reward: {gamma: 0.5}", "reward.gamma"), ("reward: {lam: -1}", "reward.lam"),
    ("reward: {b_max: 0}", "reward.b_max"), ("budget: {delta: 0}", "budget.delta"),
    ("budget: {window_k: 0}", "budget.window_k"), ("sim: {tick_ms: 0}", "sim.tick_ms"),
    ("adversary: {surface: feature, x_fraction: 1.0}", "adversary.x_fraction"),
    ("train: {mix_p: 1.5}", "train.mix_p"),
    # once a traceback
    ("sim: {trace_interval_ms: 0}", "sim.trace_interval_ms"),
    ("sim: {packet_size: 1e300}", "sim.packet_size"),
    ("sim: {episode_duration_s: 1e300}", "sim.episode_duration_s"),
    ("traces: {constant_mbps: abc}", "traces.constant_mbps"),
    ("traces: {paths: 1.5}", "traces.paths"),
    ("train: {extra_noise: -1}", "train.extra_noise"),
    ("train: {noise_decay: []}", "train.noise_decay"),
    ("output_dir: 0", "output_dir"),
    # once exit 1 after a run
    ("adversary: {tau_ms: .nan}", "adversary.tau_ms"),
    ("adversary: {alpha: .nan}", "adversary.alpha"),
    # once accepted: `true` ran as 1, the rest ran as given or went unread
    ("sim: {tick_ms: true}", "sim.tick_ms"), ("train: {sigma0: abc}", "train.sigma0"),
    ("train: {sigma0: .nan}", "train.sigma0"), ("adversary: {alpha: .inf}", "adversary.alpha"),
    ("budget: {delta: .inf}", "budget.delta"), ("traces: {trough: -1}", "traces.trough"),
    ("controller: abc", "controller"), ("controller_constants: []", "controller_constants"),
    ("train: {noise_decay: 1.5}", "train.noise_decay")])
def test_bad_config_value_exits_2_at_load(tmp_path, monkeypatch, capsys, doc, key):
    # a value outside its domain, malformed YAML or a non-integer count
    p = tmp_path / "cfg.yaml"
    p.write_text(doc + "\n")
    err = _exits_2_before_any_episode(
        tmp_path, monkeypatch, capsys,
        ["baseline", "--config", str(p), "--controllers", "reno",
         "--setting", "clean"])
    assert key in err


def test_negative_seed_flag_exits_2(tmp_path, monkeypatch, capsys):
    # --seed replaces the config's seed through the config's own checks
    err = _exits_2_before_any_episode(
        tmp_path, monkeypatch, capsys,
        ["baseline", "--seed", "-1", "--controllers", "reno", "--setting", "clean"])
    assert "seed must be >= 0" in err


def test_retrain_and_sweep_p_reject_an_unusable_trace_pool(tmp_path, monkeypatch,
                                                           capsys):
    cfg = _write_cfg(tmp_path)
    bad_p = tmp_path / "bad_p.yaml"
    bad_p.write_text("train: {mix_p: 1.5}\n")
    ckpt = _checkpoint(tmp_path)
    worst = _worst_traces(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    common = ["--init", ckpt, "--episodes", "16"]
    for argv, key in (
            (["retrain", "--config", cfg], "adversarial traces required"),
            (["sweep-p", "--config", cfg], "adversarial traces required"),
            (["retrain", "--config", str(bad_p), "--pool-adv", worst],
             "mix_p must be in [0, 1]"),
            (["sweep-p", "--config", str(bad_p), "--pool-adv", worst],
             "mix_p must be in [0, 1]"),
            (["retrain", "--config", cfg, "--pool-adv", str(empty)],
             "holds no .trace file"),
            (["sweep-p", "--config", cfg, "--pool-adv", str(empty)],
             "holds no .trace file")):
        err = _exits_2_before_any_episode(tmp_path, monkeypatch, capsys,
                                          argv + common)
        assert key in err


@pytest.mark.parametrize("mix_p", [0.2, 0.3])
def test_sweep_p_writes_retrains_outputs_at_the_configured_p(tmp_path,
                                                             monkeypatch, mix_p):
    # 0.2 is in P_GRID; 0.3 is not, and joins the sweep in sorted order
    cfg = _write_cfg(tmp_path, "train: {episodes: 128, population: 4, "
                               f"mix_p: {mix_p}}}\n")
    calls = {"adversarial_retrain": [], "evaluate_suite": []}
    for name in calls:
        def spy(*args, _real=getattr(cli.advtrain, name), _name=name):
            calls[_name].append(args)
            return _real(*args)
        monkeypatch.setattr(cli.advtrain, name, spy)
    argv = ["--config", cfg, "--init", _checkpoint(tmp_path),
            "--pool-adv", _worst_traces(tmp_path)]
    grid = sorted({*cli.P_GRID, mix_p})
    rt, sw = str(tmp_path / "rt"), str(tmp_path / "sw")
    for sub, out, ps in (("retrain", rt, [mix_p]), ("sweep-p", sw, grid)):
        for got in calls.values():
            got.clear()
        assert main([sub, *argv, "--out", out]) == 0
        # one CEM run per p, and one evaluation batch for every policy
        assert [args[1].mix_p for args in calls["adversarial_retrain"]] == ps
        [(policies, *_)] = calls["evaluate_suite"]
        assert len(policies) == len(ps) + 1

    assert sorted(os.listdir(rt)) == ["retrain_eval.csv", "retrained.ckpt"]
    for name in ("retrained.ckpt", "retrain_eval.csv"):
        assert (open(os.path.join(rt, name), "rb").read()
                == open(os.path.join(sw, name), "rb").read())
    sweep = [row.split(",") for row in _body(sw, "sweep_p.csv")]
    assert [float(row[0]) for row in sweep] == grid
    # at this budget every p retrains to a policy of its own, so outputs
    # taken from another p would differ
    assert len({tuple(row[1:]) for row in sweep}) == len(grid)
    after = {row[1]: row[2:] for row in
             (line.split(",") for line in _body(rt, "retrain_eval.csv"))
             if row[0] == "after"}
    assert sweep[grid.index(mix_p)][1:] == (after["random_baseline"]
                                            + after["adversarial"])
