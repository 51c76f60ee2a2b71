"""Every function the benchmark's span tracer wraps still exists.

perfbench/tracer.py names lipkit functions and methods in LAYERS and
patches them when a traced round starts; a renamed or removed one
fails only there.  This reads LAYERS from the file, without running
the tracer, and resolves each name the way Tracer.install does: a
function on its lipkit module, a method in its class's own __dict__.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # install() also wraps these two methods on every round
    return tracer.LAYERS + (("scalar_field", "ScalarField.values", None),
                            ("metric_space", "MetricSpace.pairwise", None))


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in load_layers()])
def test_every_traced_name_resolves_on_lipkit(module, attr):
    mod = importlib.import_module(f"lipkit.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name)), attr
    else:
        assert callable(getattr(mod, attr)), attr
