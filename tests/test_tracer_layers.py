"""The benchmark's span tracer still fits lipkit.

perfbench/tracer.py names lipkit functions and methods in LAYERS and
patches them when a traced round starts; a renamed or removed one
fails only there.  This reads LAYERS from the file and resolves each
name the way Tracer.install does: a function on its lipkit module, a
method in its class's own __dict__.  The tracer also reads a field's
_cached array to count evaluations; one installed tracer checks that
only a lazy leaf counts.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from lipkit import (MetricSpace, Subset, Tabulated, frolik_pou,
                    mcshane_envelopes, witness_from_balls)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def load_layers():
    # install() also wraps these two methods on every round
    return load_tracer().LAYERS + (
        ("scalar_field", "ScalarField.values", None),
        ("metric_space", "MetricSpace.pairwise", None))


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in load_layers()])
def test_every_traced_name_resolves_on_lipkit(module, attr):
    mod = importlib.import_module(f"lipkit.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name)), attr
    else:
        assert callable(getattr(mod, attr)), attr


def test_only_a_lazy_leaf_counts_as_an_evaluation():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    f = Tabulated(space, [0.0, 0.5, 1.0, 0.5, 0.0])
    lower = mcshane_envelopes(Subset(space, [0, 2]), [0.0, 1.0], 1.0).lower
    pou = frolik_pou(witness_from_balls(space, [[(0, 1.5)], [(4, 1.5)]]))
    importlib.import_module("lipkit.cli")   # a module LAYERS names
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        (2.0 * f - f).values()
        pou.members[0].values()
        lower.values()
        lower.values()
    finally:
        tracer.uninstall()
    assert tracer.counts["scalar_field.evals"] == 1
    assert [span[0] for span in tracer.spans] == ["scalar_field.eval",
                                                  "extension.envelopes"]
