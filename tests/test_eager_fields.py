"""Fields that every caller reads at once hold their values from the
start.

A distance to a set and a ball union are read as soon as they are
built, by every caller, so they are computed in their builders: reading
one later is no evaluation for the benchmark's tracer, which counts the
cache misses of ScalarField.values.  Only ScalarField itself fills the
_cached array; a field whose values come from elsewhere hands them to
the constructor (values=), as index_subordinate does.
"""

import ast
import importlib
from pathlib import Path

import pytest

from lipkit import DistanceTo, MetricSpace
from lipkit.partition_of_unity import _BallUnion

from test_tracer_layers import load_tracer

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(ROOT.glob("src/lipkit/*.py"))


def test_a_distance_and_a_ball_union_are_no_evaluation():
    space = MetricSpace.from_grid(0.0, 2.0, 0.5)
    fields = [DistanceTo(space, [0, 3]),
              _BallUnion(space, [0, 4], [0.75, 1.5], 0)]
    importlib.import_module("lipkit.cli")   # a module LAYERS names
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        got = [f.values().tolist() for f in fields]
    finally:
        tracer.uninstall()
    assert tracer.counts["scalar_field.evals"] == 0
    assert got == [[0.0, 0.5, 0.5, 0.0, 0.5], [0.75, 0.25, 0.5, 1.0, 1.5]]


def cached_writes(source):
    """The lines that assign an attribute named _cached."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr == "_cached":
                    lines.append(node.lineno)
    return lines


def test_the_scan_finds_a_cached_write():
    assert cached_writes("a._cached = 1\nb = a._cached\n"
                         "x, c.d._cached = 1, 2\ne._cached += 1\n") \
        == [1, 3, 4]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_only_scalar_field_writes_the_cache(path):
    if path.name == "scalar_field.py":
        assert cached_writes(path.read_text(encoding="utf-8"))
    else:
        assert cached_writes(path.read_text(encoding="utf-8")) == []
