"""Names that tools outside the package look up in it."""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"


def test_every_traced_layer_resolves():
    # The benchmark's tracer wraps each (module, function) of its LAYERS,
    # found with getattr, so a renamed or removed one breaks every traced
    # run.  Its source is compiled here, so no bytecode is written beside it.
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer.__dict__)
    assert tracer.LAYERS
    missing = [f"{module}.{name}" for module, name in tracer.LAYERS
               if not callable(getattr(importlib.import_module(f"hawkdeco.{module}"), name, None))]
    assert missing == []
