"""Self-tests of the benchmark's own arithmetic: python3 -m pytest -q perfbench"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from ccprobe.adversary import FeatureBound, FeatureIntercept  # noqa: E402
from ccprobe.cc import make_controller  # noqa: E402
from ccprobe.learned import LearnedController, PolicyNet  # noqa: E402
from ccprobe.netsim import BandwidthTrace, SimConfig  # noqa: E402

import ccprobe.cli  # noqa: E402,F401  (loads every module Instrumentation patches)
from run import (SUBCOMMANDS, file_digest, iteration_variants,  # noqa: E402
                 step_mismatches)
from tracing import (Instrumentation, Tracer, episode_key,  # noqa: E402
                     layer_metrics, percentile)
from workloads import WORKLOADS, Step  # noqa: E402


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


# --- span self time ------------------------------------------------------------------

def test_self_time_is_duration_minus_child_coverage():
    # parent [0, 10]; children [2, 5] and [6, 7] cover 4 s of it
    tr = Tracer(clock=_clock(0.0, 2.0, 5.0, 6.0, 7.0, 10.0))
    child = tr.wrap(lambda: None, "child")
    parent = tr.wrap(lambda: (child(), child()), "parent")
    parent()
    assert tr.get("parent").total_s == 10.0
    assert tr.get("parent").self_s == 6.0
    assert tr.get("child").calls == 2
    assert tr.get("child").self_s == 4.0


def test_grandchild_time_is_subtracted_only_from_its_parent():
    # a [0, 10] > b [1, 9] > c [2, 8]
    tr = Tracer(clock=_clock(0.0, 1.0, 2.0, 8.0, 9.0, 10.0))
    c = tr.wrap(lambda: None, "c")
    b = tr.wrap(lambda: c(), "b")
    a = tr.wrap(lambda: b(), "a")
    a()
    assert [tr.get(n).self_s for n in "abc"] == [2.0, 2.0, 6.0]


def test_nested_same_name_counts_one_call_and_splits_self_time():
    # a controller delegating to an inner one: outer [0, 10], inner [3, 4]
    tr = Tracer(clock=_clock(0.0, 3.0, 4.0, 10.0))
    inner = tr.wrap(lambda: None, "cc.on_ack")
    outer = tr.wrap(lambda: inner(), "cc.on_ack")
    outer()
    st = tr.get("cc.on_ack")
    assert (st.calls, st.total_s, st.self_s) == (1, 10.0, 10.0)


def test_recorded_spans_point_at_nearest_recorded_ancestor():
    tr = Tracer(clock=_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0), record=("cli.", "netsim."))
    ep = tr.wrap(lambda: None, "netsim.run_episode")
    hot = tr.wrap(lambda: ep(), "cc.on_ack")
    tr.wrap(lambda: hot(), "cli.baseline")()
    assert tr.spans == [("cli.baseline", 0.0, 5.0, -1),
                        ("netsim.run_episode", 2.0, 3.0, 0)]


def test_percentile_is_nearest_rank():
    assert percentile([], 50) == 0.0
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
    assert percentile(list(range(1, 11)), 90) == 9


# --- output digests ------------------------------------------------------------------

def test_digest_ignores_only_the_provenance_line(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    a.write_text("# config=aaaa seed=1\nx,y\n1,2\n")
    b.write_text("# config=bbbb seed=1\nx,y\n1,2\n")
    c.write_text("# config=aaaa seed=1\nx,y\n1,3\n")
    assert file_digest(str(a)) == file_digest(str(b))
    assert file_digest(str(a)) != file_digest(str(c))


def test_digest_keeps_other_first_lines(tmp_path):
    body = "# interval_ms=100\n1.000000\n"
    for name in ("t.trace", "plain.csv"):
        p = tmp_path / name
        p.write_text(body)
        assert file_digest(str(p)) == hashlib.sha256(body.encode()).hexdigest()


def test_step_mismatches_reports_missing_extra_and_changed():
    step = Step("attacks/*_cubic.*", ("attack",))
    expected = {"attacks/attack_cubic.csv": "1", "attacks/worst_cubic.trace": "2",
                "attacks/attack_vegas.csv": "3"}
    got = {"attacks/attack_cubic.csv": "1", "attacks/adv_train_cubic.csv": "4",
           "attacks/attack_vegas.csv": "x"}
    assert step_mismatches(step, got, expected) == [
        "attacks/adv_train_cubic.csv", "attacks/worst_cubic.trace"]
    assert step_mismatches(step, expected, expected) == []


def test_iteration_variants_are_consecutive_and_wrap():
    assert iteration_variants(3, 30) == [3, 4]
    assert iteration_variants(15, 30) == [15, 0]
    assert iteration_variants(20, 45) == [4, 5, 6]
    assert iteration_variants(7, 1) == [7]


# --- unique-episode keying -------------------------------------------------------------

TRACE = BandwidthTrace(100.0, [12.0, 24.0])


def test_key_ignores_rng_seed_only():
    assert (episode_key(SimConfig(rng_seed=0), TRACE, make_controller("reno"))
            == episode_key(SimConfig(rng_seed=7), TRACE, make_controller("reno")))
    base = episode_key(SimConfig(), TRACE, make_controller("reno"))
    for other in (
        episode_key(SimConfig(record_acks=False), TRACE, make_controller("reno")),
        episode_key(SimConfig(), BandwidthTrace(100.0, [12.0, 24.5]),
                    make_controller("reno")),
        episode_key(SimConfig(), TRACE, make_controller("cubic")),
        episode_key(SimConfig(), TRACE, make_controller("reno", initial_ssthresh=40)),
    ):
        assert other != base


def test_key_sees_policy_params_and_intercept_seed():
    def learned(w):
        return LearnedController(PolicyNet(n_features=5, hidden=0,
                                           params=[w, 0, 0, 0, 0, 0]))
    cfg = SimConfig()
    assert episode_key(cfg, TRACE, learned(0.5)) == episode_key(cfg, TRACE, learned(0.5))
    assert episode_key(cfg, TRACE, learned(0.5)) != episode_key(cfg, TRACE, learned(0.25))
    bound = FeatureBound(0.05)
    assert (episode_key(cfg, TRACE, make_controller("vegas"), FeatureIntercept(bound, seed=1))
            != episode_key(cfg, TRACE, make_controller("vegas"),
                           FeatureIntercept(bound, seed=2)))


def test_unique_episode_ratio_through_instrumentation():
    mods = {m: sys.modules[f"ccprobe.{m}"] for m in Instrumentation.MODULES}
    tracer = Tracer(keep_durations=("netsim.run_episode",))
    inst = Instrumentation(tracer, mods).install()
    try:
        run = mods["netsim"].run_episode
        for seed, name in ((0, "reno"), (1, "reno"), (0, "vegas")):
            cfg = SimConfig(episode_duration_s=0.2, rng_seed=seed)
            run(cfg, TRACE, make_controller(name))
    finally:
        inst.undo()
    assert mods["netsim"].run_episode is run.__wrapped__
    m = layer_metrics(tracer, len(inst.episode_keys), ())
    assert m["netsim.episodes"][0] == 3
    assert m["netsim.unique_episode_ratio"][0] == 2 / 3
    assert m["cc.on_ack.calls"][0] > 0


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    layer = set(layer_metrics(Tracer(), 0, SUBCOMMANDS))
    layer |= {"process.cpu_s", "process.tracing_overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
