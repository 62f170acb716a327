"""The benchmark's tracer hooks resolve against this source tree.

perfbench/tracer.py patches evalcodes functions by name from outside the
package; a renamed or removed function must fail here, not only in a
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import evalcodes

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hook_targets(tracer):
    """(owner, attribute) of every hook."""
    return [tracer._resolve(importlib.import_module(f"evalcodes.{mod}"), path)
            for _, mod, path, _ in tracer.HOOKS]


def _bindings(tracer) -> dict:
    """Every attribute of the modules and classes a hook can patch."""
    owners = [importlib.import_module(f"evalcodes.{m}") for m in tracer.LAYERS] + [evalcodes]
    owners += [owner for owner, _ in _hook_targets(tracer)]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_hooks_resolve_and_uninstall_restores_the_originals():
    tracer = _load_tracer()
    before = _bindings(tracer)
    run = tracer.Tracer()
    try:
        run.install()  # raises AttributeError on a hook whose target is missing
        for owner, attr in _hook_targets(tracer):
            assert getattr(owner, attr).__wrapped__ is before[(id(owner), attr)]
    finally:
        run.uninstall()
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
