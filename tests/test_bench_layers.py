"""The benchmark tracer's layer map names only callables that cvshape still has.

perfbench/tracer.py binds each layer by name when a traced run starts, so a
deleted or renamed layer would otherwise fail only that run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_is_a_callable_of_cvshape():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for layer, _, _ in tracer.LAYERS:
        module_name, *path = layer.split(".")
        target = importlib.import_module(f"cvshape.{module_name}")
        for name in path:
            assert hasattr(target, name), f"{layer}: cvshape has no {name}"
            target = getattr(target, name)
        assert callable(target), f"{layer} is not callable"
