"""End-to-end acceptance gate.

Each test prints an explicit [PASS]/[FAIL] line for its criterion (visible
with `pytest -s` or on failure). The expensive pipelines — per-controller
attacks and the learned-controller train/attack/retrain chain — run once in
module-scoped fixtures and are shared across criteria.
"""

import os
import random
import time
from functools import partial

import numpy as np
import pytest

from ccprobe.adversary import (AdversaryConfig, adversarial_episode, calibrate_tau,
                               make_adversary_policy, select_worst_trace,
                               train_adversary)
from ccprobe.advtrain import TracePool, adversarial_retrain, evaluate_suite
from ccprobe.cc import Lp, make_controller
from ccprobe.cem import CemConfig
from ccprobe.cli import burst_case, main
from ccprobe.config import ExperimentConfig
from ccprobe.learned import (LearnedController, PolicyNet, RewardParams,
                             train_controller)
from ccprobe.netsim import (BandwidthTrace, Observation, SimConfig, _lib,
                            obs_row, run_episode)
from ccprobe.tracegen import (SmoothnessBudget, check_feasible,
                              gen_random_trace)
from drivers import adv_step, c_double
from oracles import cwnd_smoothness, delay_penalty, naive_reward

BUDGET = SmoothnessBudget(delta=48.0, window_k=1, bw_min=1.0, bw_max=96.0)
REWARD = RewardParams()
EVAL_SIM = SimConfig(episode_duration_s=60.0)
TRAIN_SIM = SimConfig(episode_duration_s=15.0)
RULE_TARGETS = ("reno", "cubic", "vegas", "illinois", "lp")
# outputs do not depend on the worker count, so the fixtures use every core
WORKERS = os.cpu_count() or 1


def report(criterion, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {label}")
    assert ok, f"criterion {criterion}: {label}"


@pytest.fixture(scope="module")
def baseline_traces():
    return [gen_random_trace(EVAL_SIM.n_intervals, BUDGET, seed=i) for i in range(10)]


def run_attack(factory, baseline_traces, seed):
    """Delay-constrained env attack: calibrate, train, select. Returns
    (tau, worst, elapsed_s)."""
    t0 = time.time()
    tau, _ = calibrate_tau(factory, baseline_traces, TRAIN_SIM, WORKERS)
    adv = AdversaryConfig(surface="env", tau_ms=tau, episodes=160, rollouts=8)
    policy, _ = train_adversary(adv, BUDGET, None, factory, TRAIN_SIM,
                                reward=REWARD, cem=CemConfig(seed=seed))
    worst = select_worst_trace(adv, BUDGET, policy, factory, EVAL_SIM, REWARD,
                               seed=seed)
    return tau, worst, time.time() - t0


@pytest.fixture(scope="module")
def rule_attacks(baseline_traces):
    """{name: (baseline_util, tau, worst, train_seconds)} for the rule suite."""
    out = {}
    for i, name in enumerate(RULE_TARGETS):
        factory = partial(make_controller, name)
        _, reports = calibrate_tau(factory, baseline_traces, EVAL_SIM, WORKERS)
        utils = [r.utilization for r in reports]
        base = sum(utils) / len(utils)
        tau, worst, secs = run_attack(factory, baseline_traces, seed=1 + i)
        out[name] = (base, tau, worst, secs)
    return out


@pytest.fixture(scope="module")
def learned_stack(baseline_traces):
    """Pretrain, attack, and retrain (p=0.2 and p=1) the learned controller."""
    t0 = time.time()
    policy = PolicyNet(n_features=5, hidden=0)
    policy, _ = train_controller(policy, baseline_traces, 960, TRAIN_SIM,
                                 REWARD, CemConfig(seed=2), workers=WORKERS)
    factory = partial(LearnedController, policy, b_max=REWARD.b_max)
    tau, worst, _ = run_attack(factory, baseline_traces, seed=3)
    assert worst is not None, "no feasible adversarial trace against learned"
    adv_trace = BandwidthTrace(100.0, worst.capacities)
    sets = {"random": baseline_traces, "adv": [adv_trace]}
    before = {name: util for name, (util, _) in
              evaluate_suite([policy], sets, EVAL_SIM, REWARD, WORKERS)[0].items()}
    after = {}
    for p in (0.2, 1.0):
        pool = TracePool(benign=baseline_traces if p < 1 else [],
                         adversarial=[adv_trace], mix_p=p)
        newp, _ = adversarial_retrain(policy, pool, 320, TRAIN_SIM, REWARD,
                                      CemConfig(seed=4, sigma0=0.3), WORKERS)
        after[p] = {name: util for name, (util, _) in
                    evaluate_suite([newp], sets, EVAL_SIM, REWARD,
                                   WORKERS)[0].items()}
    return {"policy": policy, "tau": tau, "worst": worst,
            "adv_trace": adv_trace, "before": before, "after": after,
            "elapsed": time.time() - t0}


# --- criterion 1: reward-math oracles ---------------------------------------

def test_criterion_1_reward_oracles():
    from ccprobe.tracegen import avg_abs_slope
    t0 = time.time()
    rnd = random.Random(11)
    ok = True
    for _ in range(25):
        # per-interval controller reward
        thr = rnd.uniform(0, 96)
        loss = rnd.uniform(0, 5)
        mr = rnd.uniform(5, 100)
        srtt = mr * rnd.uniform(1, 4)
        obs = Observation(0, 0.0, 48.0, thr, loss, 0.0, srtt, mr, mr, 0.5, 1.0)
        d = (1.2 * mr / srtt) if 1.2 * mr < srtt else 1.0
        expect = (thr - 10.0 * loss) / 96.0 * d
        got = c_double(_lib.tl_controller_reward, obs_row(obs), REWARD.c_struct())
        ok &= abs(got - expect) <= 1e-9 * max(1, abs(expect))
        ok &= naive_reward(expect) == -expect
        # windowed delay penalty
        h = rnd.randint(1, 6)
        k = rnd.randint(1, h)
        tau = rnd.uniform(1, 20)
        hist = [rnd.uniform(0, 30) for _ in range(h)]
        pen = delay_penalty(hist, AdversaryConfig(tau_ms=tau, alpha=1.0,
                                                  window_h=h, window_k=k))
        want = -1.0 if (sum(hist) / h < tau and sum(hist[-k:]) / k < tau) else 0.0
        ok &= pen == want
        # trace slope
        vals = [rnd.uniform(1, 96) for _ in range(12)]
        kk = rnd.randint(1, 4)
        t = rnd.randint(kk, 11)
        brute = sum(abs(vals[i] - vals[i - 1])
                    for i in range(t - kk + 1, t + 1)) / kk
        ok &= abs(avg_abs_slope(vals, t, kk) - brute) <= 1e-9 * max(1, brute)
        # cwnd smoothness, both variants
        series = [(float(i) + rnd.random() * 0.3, rnd.uniform(1, 400))
                  for i in range(8)]
        lin, lg = cwnd_smoothness(series, 1)
        import math
        blin = sum(abs(series[i][1] - series[i - 1][1])
                   for i in range(1, 8)) / 7
        blg = sum(abs(math.log(series[i][1]) - math.log(series[i - 1][1]))
                  / (series[i][0] - series[i - 1][0]) for i in range(1, 8)) / 7
        ok &= abs(lin - blin) <= 1e-9 * max(1, blin)
        ok &= abs(lg - blg) <= 1e-9 * max(1, blg)
    elapsed = time.time() - t0
    report(1, f"reward/slope/smoothness oracles agree to 1e-9 "
              f"({elapsed:.2f}s < 1s)", ok and elapsed < 1.0)


# --- criterion 2: budget feasibility ----------------------------------------

def test_criterion_2_thousand_traces_feasible():
    t0 = time.time()
    ok = True
    for seed in range(900):
        tr = gen_random_trace(600, BUDGET, seed=seed)
        ok &= check_feasible(tr.values, BUDGET)
    # adversarially driven traces: random-parameter policies through the
    # same projection path
    from ccprobe.adversary import EnvBandwidthDriver
    rng = np.random.default_rng(0)
    for i in range(100):
        pol = make_adversary_policy("env")
        pol = pol.with_params(rng.normal(size=pol.n_params) * 3.0)
        drv = EnvBandwidthDriver(BUDGET, pol, seed=i)
        values = [drv.first_capacity()]
        for j in range(599):
            obs = Observation(j, float(j), values[-1], values[-1] * 0.8,
                              0.0, 0.0, 25.0, 20.0, 20.0, 0.8, 10.0)
            values.append(adv_step(drv, obs))
        ok &= check_feasible(values, BUDGET)
    elapsed = time.time() - t0
    report(2, f"1000 generated traces satisfy the budget "
              f"({elapsed:.1f}s < 10s)", ok and elapsed < 10.0)


# --- criteria 3 + 4: constraint enforcement and degradation ------------------

def test_criterion_3_delay_constraint_zero_exceptions(rule_attacks, learned_stack):
    ok = True
    for name, (_, tau, worst, _) in rule_attacks.items():
        ok &= worst is not None and worst.interval_delay_ms >= tau
    ok &= learned_stack["worst"].interval_delay_ms >= learned_stack["tau"]
    report(3, "every selected trace meets mean delay >= tau", ok)


def test_criterion_4_directional_degradation(rule_attacks):
    ok = True
    for name, (base, _, worst, secs) in rule_attacks.items():
        delta_pp = (worst.utilization - base) * 100 if worst else 0.0
        line_ok = worst is not None and delta_pp <= -3.0 and secs <= 600
        print(f"    {name}: baseline {base:.3f} -> attacked "
              f"{worst.utilization if worst else float('nan'):.3f} "
              f"({delta_pp:+.1f}pp, {secs:.0f}s)")
        ok &= line_ok
    report(4, "every rule-based controller degrades >= 3pp within budget", ok)


# --- criterion 5: naive-reward ambiguity -------------------------------------

def test_criterion_5_naive_mode_lowers_both(baseline_traces):
    factory = partial(make_controller, "vegas")
    clean_utils, clean_delays = [], []
    for tr in baseline_traces[:3]:
        log = run_episode(TRAIN_SIM, tr, factory())
        clean_utils.append(log.mean_utilization())
        clean_delays.append(log.mean_queuing_delay_ms())
    adv = AdversaryConfig(0.5, "adversarial", surface="feature",
                          reward_mode="naive", tau_ms=0.0, episodes=96)
    policy, _ = train_adversary(adv, BUDGET, None, factory, TRAIN_SIM, REWARD,
                                CemConfig(seed=5), clean_traces=baseline_traces[:3])
    utils, delays = [], []
    for i in range(3):
        ev = adversarial_episode(adv, BUDGET, policy, None, factory, TRAIN_SIM,
                                 REWARD, seed=i, clean_traces=baseline_traces[:3])
        utils.append(ev.utilization)
        delays.append(ev.interval_delay_ms)
    u0, u1 = sum(clean_utils) / 3, sum(utils) / 3
    d0, d1 = sum(clean_delays) / 3, sum(delays) / 3
    print(f"    vegas clean util={u0:.3f} delay={d0:.2f}ms; "
          f"naive-attacked util={u1:.3f} delay={d1:.2f}ms")
    report(5, "naive attack lowers both utilization and delay",
           u1 < u0 and d1 < d0)


# --- criterion 6: burst-trace case study -------------------------------------

def test_criterion_6_lp_burst_case(learned_stack):
    # one burst period, built as `lp-case` builds it
    sim, trace = burst_case(ExperimentConfig())
    lp = Lp()
    lp_log = run_episode(sim, trace, lp)
    learned = LearnedController(learned_stack["policy"], b_max=REWARD.b_max)
    ln_log = run_episode(sim, trace, learned)
    lp_util = lp_log.mean_utilization()
    ln_util = ln_log.mean_utilization()
    print(f"    lp util={lp_util:.3f} ({lp.indications} indications, "
          f"{lp_log.dropped} drops); learned util={ln_util:.3f}")
    report(6, "loss-free burst: lp backs off early, learned wins on utilization",
           lp.indications >= 1 and lp_log.dropped == 0 and ln_util > lp_util)


# --- criterion 7: cwnd smoothness ordering -----------------------------------

def test_criterion_7_smoothness_ordering(learned_stack):
    trace = learned_stack["adv_trace"]
    sim = SimConfig(episode_duration_s=60.0)

    def series_for(ctl):
        log = run_episode(sim, trace, ctl)
        return [(o.now_ms / 1000.0, max(o.cwnd, 1e-9)) for o in log.observations]

    s_learned = series_for(LearnedController(learned_stack["policy"],
                                             b_max=REWARD.b_max))
    s_cubic = series_for(make_controller("cubic"))
    s_vegas = series_for(make_controller("vegas"))
    lin_l, log_l = cwnd_smoothness(s_learned)
    lin_c, _ = cwnd_smoothness(s_cubic)
    lin_v, _ = cwnd_smoothness(s_vegas)
    _, log_scaled = cwnd_smoothness([(t, 10.0 * c) for t, c in s_learned])
    invariant = abs(log_l - log_scaled) <= 1e-9 * max(1.0, abs(log_l))
    print(f"    linear smoothness: learned={lin_l:.2f} cubic={lin_c:.2f} "
          f"vegas={lin_v:.2f}")
    report(7, "learned linear smoothness exceeds cubic and vegas; "
              "log metric x10-invariant",
           lin_l > lin_c and lin_l > lin_v and invariant)


# --- criteria 8 + 9: retraining ----------------------------------------------

def test_criterion_8_retraining_direction(learned_stack):
    before = learned_stack["before"]
    after = learned_stack["after"][0.2]
    adv_gain = (after["adv"] - before["adv"]) * 100
    rand_drop = (after["random"] - before["random"]) * 100
    print(f"    p=0.2: adv {before['adv']:.3f}->{after['adv']:.3f} "
          f"({adv_gain:+.1f}pp), random {before['random']:.3f}->"
          f"{after['random']:.3f} ({rand_drop:+.1f}pp), "
          f"{learned_stack['elapsed']:.0f}s total")
    report(8, "p=0.2 retraining: adversarial +>=3pp, random within -3pp, "
              "<= 20 min",
           adv_gain >= 3.0 and rand_drop >= -3.0
           and learned_stack["elapsed"] <= 1200)


def test_criterion_9_mixing_sweep_direction(learned_stack):
    r02 = learned_stack["after"][0.2]["random"]
    r10 = learned_stack["after"][1.0]["random"]
    print(f"    random-baseline util: p=0.2 {r02:.3f} vs p=1.0 {r10:.3f}")
    report(9, "p=1 strictly worse than p=0.2 on the random baseline",
           r10 < r02)


# --- criterion 10: determinism -----------------------------------------------

def test_criterion_10_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("sim:\n  episode_duration_s: 5.0\n"
                   "traces:\n  n: 2\nseed: 11\n")
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert main(["baseline", "--config", str(cfg), "--setting", "both",
                     "--controllers", "reno,cubic,lp", "--out", out,
                     "--workers", "2" if tag == "b" else "1"]) == 0
        assert main(["gen-trace", "--n", "3", "--length", "50",
                     "--out", os.path.join(out, "t"), "--seed", "11"]) == 0
        assert main(["lp-case", "--config", str(cfg),
                     "--out", os.path.join(out, "lp")]) == 0
        outs.append(out)
    ok = True
    for rel in ("baseline.csv", "t/trace_000.trace", "t/trace_002.trace",
                "lp/lp_case.csv", "lp/lp_case_lp.csv"):
        a = open(os.path.join(outs[0], rel), "rb").read()
        b = open(os.path.join(outs[1], rel), "rb").read()
        ok &= a == b
    report(10, "reruns produce byte-identical CSV bodies", ok)
