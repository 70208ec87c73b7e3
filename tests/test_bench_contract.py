"""The names the benchmark's tracer looks up in ccprobe's modules.

`perfbench/tracing.py` wraps module-level functions by name with a bare
`getattr`, so a function it names that `src/` no longer defines breaks the
traced benchmark run. Installing and undoing its instrumentation, with no
episode run, catches that here. `perfbench/test_bench.py`, which runs outside
this suite, imports more names from ccprobe; each is resolved here too.
"""

import ast
import importlib
import os

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
    # the adversary calls it makes with them, by position as it makes them
    adversary = importlib.import_module("ccprobe.adversary")
    adversary.FeatureIntercept(adversary.FeatureBound(0.05), seed=1)
