"""The config table: every key's domain, and a fuzz of every key through the CLI."""

import copy
import inspect
import math

import yaml

from ccprobe import config
from ccprobe.cli import main

# values every key is driven with: numbers at and beyond the usual domains'
# edges, and each YAML type that is not the key's own
EDGE_VALUES = (0, -1, 1.5, 1e300, math.nan, math.inf, -math.inf, True, "abc",
               None, [], {})

# 2 s episodes, one trace, and CEM budgets of one generation of two
_BASE = {"sim": {"episode_duration_s": 2.0}, "traces": {"n": 1},
         "adversary": {"episodes": 2, "rollouts": 1},
         "train": {"episodes": 2, "population": 2}}
# the setting under which a key is read
_READ_UNDER = {
    "traces.paths": {"source": "files"},
    **{f"traces.{k}": {"source": "burst"}
       for k in ("peak", "trough", "rise_intervals", "fall_intervals")},
    **{f"adversary.{k}": {"surface": "feature"}
       for k in ("x_fraction", "perturb_mode")},
}
_COMMANDS = {
    "baseline": ["baseline", "--controllers", "reno", "--setting", "both"],
    "attack": ["attack", "--controller", "reno"],
    "train": ["train"],
}
# the commands that read a section's keys, or a top-level key
_READ_BY = {"sim": ("baseline",), "reward": ("attack", "train"),
            "budget": ("baseline", "attack"), "traces": ("baseline",),
            "adversary": ("attack",), "train": ("attack", "train"),
            "controller": ("baseline",), "controller_constants": ("baseline",),
            "seed": ("baseline",), "output_dir": ("baseline",)}
# the exit-1 lines for a result only a run can show
_RUN_RESULTS = ("no rollout satisfied the delay constraint", "CEM generation ")


def fuzz_cases():
    """(command, key, value, document) for every key of every section and
    of the top level under each of EDGE_VALUES, with each command that
    reads the key."""
    keys = [f"{section}.{key}" for section in ("sim", "reward", "budget", "traces",
                                               "adversary", "train")
            for key in inspect.signature(config._SECTIONS[section]).parameters]
    keys += ["controller", "controller_constants", "seed", "output_dir"]
    for key in keys:
        section, _, name = key.rpartition(".")
        for value in EDGE_VALUES:
            doc = copy.deepcopy(_BASE)
            if section:
                doc.setdefault(section, {}).update(_READ_UNDER.get(key, {}))
                doc[section][name] = value
            else:
                doc[name] = value
            for command in _READ_BY[section or name]:
                yield command, key, value, doc


def run_case(tmp_path, capsys, command, key, doc):
    """(exit code, stderr) of one fuzz case; outputs go under `tmp_path`,
    the config's output_dir there too."""
    path = tmp_path / "fuzz.yaml"
    path.write_text(yaml.safe_dump(doc))
    argv = _COMMANDS[command] + ["--config", str(path)]
    if key != "output_dir":
        argv += ["--out", str(tmp_path / "out")]
    code = main(argv)
    return code, capsys.readouterr().err


def test_every_key_fails_at_the_boundary_or_runs(tmp_path, monkeypatch, capsys):
    # exit 0; exit 2 on one line naming the key; or exit 1 on one line for a
    # result only a run can show. Never a traceback.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CCPROBE_OUT", raising=False)
    bad = []
    for command, key, value, doc in fuzz_cases():
        try:
            code, err = run_case(tmp_path, capsys, command, key, doc)
        except Exception as e:   # a traceback
            bad.append((command, key, value, f"{type(e).__name__}: {e}"))
            continue
        line = err if err.count("\n") == 1 else ""
        if (code == 0
                or code == 2 and line.startswith("error: ")
                and key.rpartition(".")[2] in line
                or code == 1 and any(r in line for r in _RUN_RESULTS)):
            continue
        bad.append((command, key, value, code, err))
    assert not bad, "\n".join(map(repr, bad))


def test_each_section_declares_exactly_its_record_parameters():
    # a new field without a domain fails here, before any config can set it
    for section, cls in config._SECTIONS.items():
        assert (list(config.DOMAINS[section])
                == list(inspect.signature(cls).parameters)), section
    assert (list(config.DOMAINS)
            == list(inspect.signature(config.ExperimentConfig).parameters))


def test_feature_keys_under_the_env_surface_exit_2(tmp_path, capsys):
    # the env attack reads neither key, so setting one is an error, not a no-op
    for doc in ({"adversary": {"x_fraction": 0.05}},
                {"adversary": {"surface": "env", "perturb_mode": "clean"}}):
        path = tmp_path / "env.yaml"
        path.write_text(yaml.safe_dump(doc))
        [key] = set(doc["adversary"]) - {"surface"}
        assert main(["attack", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"adversary.{key}" in err
        assert "surface" in err and "env" in err
    assert not (tmp_path / "o").exists()
    # under the feature surface both are read
    cfg = config.config_from_dict({"adversary": {"surface": "feature",
                                                 "x_fraction": 0.25,
                                                 "perturb_mode": "clean"}})
    assert (cfg.adversary.x_fraction, cfg.adversary.perturb_mode) == (0.25, "clean")


def test_a_collapsed_cem_generation_exits_1_on_one_line(tmp_path, capsys):
    # a b_max this large zeroes the throughput feature, so every candidate
    # returns the same: a run's result, not a value outside its domain
    path = tmp_path / "collapse.yaml"
    path.write_text(yaml.safe_dump({**_BASE, "reward": {"b_max": 1e300},
                                    "train": {"episodes": 4, "population": 2}}))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: CEM generation 1 of 2: population returns collapsed to zero "
        "variance\n")
