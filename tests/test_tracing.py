"""The benchmark's tracer still finds every foreman name it patches.

``perfbench/tracing.py`` wraps foreman functions by name, and a traced run
raises ``TracingError`` when one of them is gone.  This test installs the
tracer once, so a rename shows in the suite rather than only in a traced
run.  It reads ``perfbench/`` and writes nothing there.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_the_benchmark_tracer_finds_every_name_it_patches():
    tracing = _load_tracing()
    names = {mod for _, mod, _, _ in tracing.TARGETS} | {mod for mod, _ in tracing.REQUIRED_BINDINGS}
    modules = [importlib.import_module(name) for name in sorted(names)]
    before = [dict(vars(module)) for module in modules]
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises TracingError when a target or a caller binding is gone
    finally:
        tracer.uninstall()
    assert [dict(vars(module)) for module in modules] == before  # every binding is restored
