"""The names the benchmark's tracer looks up in ccprobe's modules.

`perfbench/tracing.py` wraps module-level functions by name with a bare
`getattr`, so a function it names that `src/` no longer defines breaks the
traced benchmark run. Installing and undoing its instrumentation, with no
episode run, catches that here. `perfbench/test_bench.py`, which runs outside
this suite, imports more names from ccprobe; each is resolved here too. The
tracer's rollout counter reads fields of `adversarial_episode`'s report, so
those fields, and which delay it tests tau on, are checked as well.
"""

import ast
import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_instrumentation_installs_and_undoes(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from tracing import Instrumentation, Tracer
    mods = {name: importlib.import_module(f"ccprobe.{name}")
            for name in Instrumentation.MODULES}
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    inst = Instrumentation(Tracer(), mods).install()
    assert inst.undo_list
    inst.undo()
    assert {name: dict(vars(mod)) for name, mod in mods.items()} == before


def test_perfbench_test_imports_resolve():
    with open(os.path.join(ROOT, "perfbench", "test_bench.py")) as f:
        tree = ast.parse(f.read())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.startswith("ccprobe.") for alias in node.names]
    assert ("ccprobe.adversary", "FeatureIntercept") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)
    # the adversary calls it makes with them, by position as it makes them;
    # FeatureBound's first parameter is the bound the intercept scales by
    adversary = importlib.import_module("ccprobe.adversary")
    intercept = adversary.FeatureIntercept(adversary.FeatureBound(0.05), seed=1)
    assert intercept.adv_state.x_fraction == 0.05


def _rollout_report_reads():
    """The attributes the tracer's rollout counter reads on the report that
    `adversary.adversarial_episode` returns."""
    with open(os.path.join(ROOT, "perfbench", "tracing.py")) as f:
        tree = ast.parse(f.read())
    [after] = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "rollout_after"]
    report = after.args.args[1].arg
    return {node.attr for node in ast.walk(after)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == report}


def test_rollout_counter_reads_report_fields():
    from ccprobe.metrics import EpisodeReport
    reads = _rollout_report_reads()
    assert reads and reads <= set(EpisodeReport.__slots__), reads


@pytest.mark.xfail(strict=True, reason="perfbench/tracing.py's rollout_after "
                   "tests the per-ACK mean_delay_ms against tau; its mending "
                   "is listed in ROADMAP.md for the next change to the benchmark")
def test_rollout_counter_tests_tau_on_the_per_interval_delay():
    # tau and select_worst_trace's filter are per-interval means, so a
    # rollout is feasible when the report's interval_delay_ms reaches tau
    assert _rollout_report_reads() == {"interval_delay_ms"}
