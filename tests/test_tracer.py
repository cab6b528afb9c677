"""The benchmark's tracer against the library it wraps.

``perfbench/spans.py`` wraps library functions by module and attribute name
(its ``TRACED`` table) and puts the originals back on ``uninstall``. A
function that is renamed or moved out of its module breaks the traced
benchmark run, so the names are checked here, where the tests run, and not
only in a traced benchmark smoke. The file is read and run as a module of its
own: nothing is imported from ``perfbench`` and nothing is written there.
"""
import os
import sys
import types

import bubbletree.cli  # noqa: F401  (the benchmark imports both before it traces)
import bubbletree.fixtures  # noqa: F401

SPANS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")


def _spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    with open(SPANS) as fh:
        exec(compile(fh.read(), SPANS, "exec"), module.__dict__)
    return module


def _library() -> dict[str, types.ModuleType]:
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "bubbletree" or name.startswith("bubbletree."))}


def test_every_traced_name_resolves_and_uninstall_restores_every_binding():
    spans = _spans()
    for mod, name in spans.TRACED:
        assert callable(getattr(sys.modules[f"bubbletree.{mod}"], name, None)), (mod, name)

    modules = _library()
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert {f"bubbletree.{mod}.{name}" for mod, name in spans.TRACED} <= set(tracer.bound)
        for mod, name in spans.TRACED:  # each one wrapped at its own module
            key = f"bubbletree.{mod}"
            assert getattr(modules[key], name) is not before[key][name], (mod, name)
    finally:
        tracer.uninstall()
    assert _library() == modules
    for name, mod in modules.items():
        after = vars(mod)
        assert after.keys() == before[name].keys(), name
        rebound = [key for key, val in before[name].items() if after[key] is not val]
        assert rebound == [], (name, rebound)
