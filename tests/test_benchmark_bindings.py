"""The benchmark's tracer (``perfbench/tracing.py``) wraps library functions
by module and attribute name. A name it cannot find breaks only the traced
benchmark run, so every target is checked here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracing()
    missing = [
        f"{mod}.{attr}" for mod, attr, _ in tracing.MODULE_BINDINGS
        if not callable(getattr(importlib.import_module(f"secagg5g.{mod}"), attr, None))
    ]
    for mod, cls, attr, _ in tracing.CLASS_METHODS:
        owner = getattr(importlib.import_module(f"secagg5g.{mod}"), cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{mod}.{cls}.{attr}")
    assert missing == []
