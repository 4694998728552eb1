"""Every function the benchmark's per-layer metrics name still exists.

The tracer wraps qdarwin's public functions by name, so a per-layer metric
``<layer>.<function>.<stat>`` in BENCHMARK.json stops the traced run when its
function is deleted or renamed.  The optimizer's evaluation counters are the
tracer's own and name no function.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
TRACER_COUNTERS = ("optimize.evals.", "optimize.batch_rows.")


def traced_functions():
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    names = {tuple(m["name"].split(".")[:2]) for m in metrics
             if m["name"].count(".") == 2 and not m["name"].startswith(TRACER_COUNTERS)}
    return sorted(names)


TRACED = traced_functions()


@pytest.mark.parametrize("layer,function", TRACED, ids=[".".join(n) for n in TRACED])
def test_per_layer_metric_names_a_public_function(layer, function):
    module = importlib.import_module(f"qdarwin.{layer}")
    fn = getattr(module, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
