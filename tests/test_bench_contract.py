"""The names the benchmark's tracer looks up in ccprobe's modules.

`perfbench/tracing.py` wraps module-level functions by name with a bare
`getattr`, so a function it names that `src/` no longer defines breaks the
traced benchmark run. Installing and undoing its instrumentation, with no
episode run, catches that here.
"""

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
