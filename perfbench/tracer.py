"""Span tracing of lipkit's layers from outside the package.

install() wraps public functions of each lipkit module (and
MetricSpace.validate / MetricSpace.pairwise / ScalarField.values) with
spans: name, start, end, parent.  Every module namespace that holds the
original function gets the wrapper, so calls between lipkit modules
are traced too.  Spans stay in memory; per-layer metrics are computed
from them at the end, with self time = duration minus the time that
child spans cover.  uninstall() restores the originals.  Nothing under
src/ changes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import weakref
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); a dotted attribute is a method.
# Several functions share a span name when they do one layer's job.
LAYERS = (
    ("metric_space", "MetricSpace.validate", "metric_space.validate"),
    ("io", "load_space", "io.load"),
    ("io", "load_subset", "io.load"),
    ("io", "values_on_subset", "io.load"),
    ("io", "field_on_space", "io.load"),
    ("io", "load_local_witness", "io.load"),
    ("io", "load_pointwise_witness", "io.load"),
    ("io", "load_cover", "io.load"),
    ("io", "load_mapping", "io.load"),
    ("io", "save_values_csv", "io.write"),
    ("io", "save_wide_csv", "io.write"),
    ("io", "write_certificates", "io.write"),
    ("scalar_field", "pointwise_lip", "scalar_field.pointwise_lip"),
    ("scalar_field", "global_lip", "scalar_field.global_lip"),
    ("extension", "mcshane_envelopes", "extension.envelopes"),
    ("extension", "pointwise_envelopes", "extension.envelopes"),
    ("extension", "Envelope._compute_values", "extension.envelopes"),
    ("extension", "extend_to_interval", "extension.extend"),
    ("extension", "pointwise_extend_to_interval", "extension.extend"),
    ("extension", "duality_check", "extension.duality"),
    ("extension", "generate_pointwise_witness", "extension.pointwise_witness"),
    ("certify", "check_k_lipschitz", "certify.check_k_lipschitz"),
    ("certify", "random_k_extension", "certify.random_extension"),
    ("certify", "pou_report", "certify.pou_report"),
    ("certify", "certify_local_witness", "certify.local_witness"),
    ("partition_of_unity", "frolik_pou", "partition_of_unity.frolik_pou"),
    ("partition_of_unity", "index_subordinate",
     "partition_of_unity.index_subordinate"),
    ("local_lipschitz", "generate_local_witness",
     "local_lipschitz.generate_local_witness"),
    ("local_lipschitz", "decompose", "local_lipschitz.decompose"),
    ("local_lipschitz", "modulus_witness", "local_lipschitz.modulus_witness"),
    ("local_lipschitz", "ModulusWitness.certify",
     "local_lipschitz.modulus_witness"),
    ("local_lipschitz", "local_extend", "local_lipschitz.local_extend"),
    ("selection", "select", "selection.select"),
    ("selection", "decreasing_approx", "selection.decreasing_approx"),
    ("cli", "main", "cli.self"),
)

# Span names whose self time is reported, each as "<name>_s".
TIMED = sorted({name for _, _, name in LAYERS}
               | {"metric_space.pairwise", "scalar_field.eval"})

COUNTS = ("metric_space.validate_calls", "metric_space.dense_mb",
          "io.bytes_written", "scalar_field.evals",
          "scalar_field.pointwise_lip_calls", "certify.pairs_checked",
          "partition_of_unity.members", "selection.levels")


class Tracer:
    """Records nested spans; one instance per traced pass."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self._patched = []
        self._dense_seen = weakref.WeakSet()

    # -- recording --

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def close(self, depth=None):
        """Close the innermost span, or every span above depth."""
        depth = len(self.stack) - 1 if depth is None else depth
        while len(self.stack) > depth:
            self.spans[self.stack.pop()][2] = perf_counter()

    def call(self, name, fn, args, kwargs):
        # Inline open/close: no extra Python frame between the caller and
        # fn, so traced recursion fails no earlier than it must, and the
        # finally below makes no Python call near the recursion limit.
        spans, stack = self.spans, self.stack
        spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
        stack.append(len(spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            spans[stack.pop()][2] = perf_counter()

    # -- wrappers --

    def _wrap(self, name, fn):
        tracer = self
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            if counter is not None:
                counter(tracer.counts, args, out)
            return out
        return traced

    def _wrap_values(self, fn):
        """ScalarField.values: a span only for cache misses."""
        tracer = self

        @functools.wraps(fn)
        def values(field):
            if field._cached is not None:
                return field._cached
            tracer.counts["scalar_field.evals"] += 1
            return tracer.call("scalar_field.eval", fn, (field,), {})
        return values

    def _wrap_pairwise(self, fn):
        """MetricSpace.pairwise: a span when the matrix is computed, and
        8 n^2 bytes the first time a space hands out its dense matrix."""
        tracer = self

        @functools.wraps(fn)
        def pairwise(space):
            if space not in tracer._dense_seen:
                tracer._dense_seen.add(space)
                tracer.counts["metric_space.dense_mb"] += 8e-6 * space.n ** 2
            if space._matrix is not None:
                return space._matrix
            return tracer.call("metric_space.pairwise", fn, (space,), {})
        return pairwise

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "lipkit" or name.startswith("lipkit.")]
        for mod_name, attr, span in LAYERS:
            mod = sys.modules[f"lipkit.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch_method(cls, meth, self._wrap(span, cls.__dict__[meth]))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(span, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapper)
        sf = sys.modules["lipkit.scalar_field"].ScalarField
        self._patch_method(sf, "values", self._wrap_values(sf.values))
        ms = sys.modules["lipkit.metric_space"].MetricSpace
        self._patch_method(ms, "pairwise", self._wrap_pairwise(ms.pairwise))

    def _patch_method(self, cls, name, wrapper):
        self._patched.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- results --

    def self_times(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _parent), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def layer_metrics(self):
        own = self.self_times()
        metrics = {f"{name}_s": own.get(name, 0.0) for name in TIMED}
        metrics.update({name: float(self.counts.get(name, 0.0))
                        for name in COUNTS})
        return metrics

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _count_validate(counts, args, out):
    counts["metric_space.validate_calls"] += 1


def _count_written(counts, args, out):
    counts["io.bytes_written"] += os.path.getsize(args[0])


def _count_pairs(counts, args, out):
    counts["certify.pairs_checked"] += out.details.get("pairs", 0)


def _count_pointwise(counts, args, out):
    counts["scalar_field.pointwise_lip_calls"] += 1


def _count_members(counts, args, out):
    counts["partition_of_unity.members"] += len(out)


def _count_levels(counts, args, out):
    counts["selection.levels"] += len(getattr(out, "chosen_levels", ()))


_COUNTERS = {
    "metric_space.validate": _count_validate,
    "io.write": _count_written,
    "certify.check_k_lipschitz": _count_pairs,
    "scalar_field.pointwise_lip": _count_pointwise,
    "partition_of_unity.frolik_pou": _count_members,
    "selection.select": _count_levels,
}
