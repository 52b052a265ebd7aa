"""The traced benchmark run wraps chromcat functions and methods by name.

``perfbench/layers.py::TARGETS`` lists them; a rename or deletion in the
package would break ``perfbench/run.py --trace 1`` without failing any other
test, so every target is resolved here the way the tracer resolves it.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(module, attr) for module, attr, _, _ in layers.TARGETS]


@pytest.mark.parametrize("module,attr", _targets())
def test_trace_target_resolves(module, attr):
    home = importlib.import_module(module)
    if "." in attr:
        # the tracer patches the method in the class's own namespace
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(home, cls_name))[meth])
    else:
        assert callable(getattr(home, attr))
