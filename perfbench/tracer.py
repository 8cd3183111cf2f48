"""Spans at folclass's layer boundaries, recorded from the benchmark's own code.

The traced pass replaces the module attributes through which one layer calls
the next with wrappers that open and close a span; nothing in the package is
edited.  A span is named after the boundary it wraps (``cli.verify_soundness``
is the call from ``cli`` into ``verify_soundness``) and its self time belongs
to the layer it calls into.  Spans nest strictly, because one repetition runs
in one thread, so the part of a span its children cover is the sum of their
durations.

Spans are kept in memory and written out when the repetition ends.  The first
``keep`` spans of each name are kept whole (name, start, end, parent, run id);
after that a name is only aggregated (calls, total, self), which bounds memory
on the ~260k per-call spans of ``oracle-gf4``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter
from statistics import median

# Boundary wrapped (``module.attribute`` in folclass) -> layer its self time
# belongs to.
BOUNDARIES = {
    "cli.main": "cli",
    "cli.verify_soundness": "enumerator",
    "cli.verify_completeness": "enumerator",
    "cli.case_c_corollaries": "enumerator",
    "enumerator.classify": "classifier",
    "enumerator.instantiate": "classifier",
    "enumerator.is_valid_foliation": "derivation",
    "classifier.instantiate": "classifier",
    "classifier.failed_conditions": "derivation",
    "classifier.extension_field": "finite_field",
    "classifier.embed": "finite_field",
    "cartier.cartier_iter": "cartier",
}

# Spans the workloads open around their own direct calls into a layer.
DIRECT_SPANS = {
    "enumerator.enumerate_triples": "enumerator",
    "derivation.delta_squared": "derivation",
    "derivation.oracle_delta_squared": "derivation",
    "derivation.is_valid_foliation": "derivation",
    "cartier.verify_nonvanishing.symbolic": "polynomial",
    "cartier.verify_nonvanishing.char2": "polynomial",
    "cartier.verify_nonvanishing.char3": "polynomial",
}

# Constructors and products counted (not timed) on every traced repetition.
COUNTED = {
    "polynomial.poly_init_calls": ("polynomial", "Poly", "__init__"),
    "polynomial.poly_mul_calls": ("polynomial", "Poly", "__mul__"),
    "finite_field.element_init_calls": ("finite_field", "FieldElement", "__init__"),
}

# Metric that carries each layer's total self time.
LAYER_SELF = {
    "cli": "cli.self_s",
    "enumerator": "enumerator.layer_self_s",
    "classifier": "classifier.layer_self_s",
    "derivation": "derivation.layer_self_s",
    "finite_field": "finite_field.layer_self_s",
    "polynomial": "polynomial.bipoly_pow_s",
    "cartier": "cartier.layer_self_s",
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("finite_field.tables_s", "s", "lower"),
    ("finite_field.extension_s", "s", "lower"),
    ("finite_field.extension_calls", "count", "lower"),
    ("enumerator.scan_self_s", "s", "lower"),
    ("enumerator.candidates_per_s", "1/s", "higher"),
    ("enumerator.pool_child_cpu_s", "s", "lower"),
    ("enumerator.soundness_self_s", "s", "lower"),
    ("enumerator.generate_s", "s", "lower"),
    ("classifier.classify_s", "s", "lower"),
    ("classifier.classify_calls", "count", "lower"),
    ("classifier.match_ratio", "ratio", "higher"),
    ("derivation.validity_s", "s", "lower"),
    ("derivation.validity_calls", "count", "lower"),
    ("derivation.formula_s", "s", "lower"),
    ("derivation.oracle_s", "s", "lower"),
    ("derivation.oracle_triples_per_s", "1/s", "higher"),
    ("polynomial.poly_init_calls", "count", "lower"),
    ("polynomial.poly_mul_calls", "count", "lower"),
    ("finite_field.element_init_calls", "count", "lower"),
    ("polynomial.bipoly_pow_s", "s", "lower"),
    ("cartier.iter_s", "s", "lower"),
    ("cartier.input_terms", "count", "lower"),
    ("cartier.trace_s.symbolic", "s", "lower"),
    ("cartier.trace_s.char2", "s", "lower"),
    ("cartier.trace_s.char3", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("enumerator.layer_self_s", "s", "lower"),
    ("classifier.layer_self_s", "s", "lower"),
    ("derivation.layer_self_s", "s", "lower"),
    ("finite_field.layer_self_s", "s", "lower"),
    ("cartier.layer_self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)


class _Span:
    """Reusable context manager for one span name."""

    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.open(self.name)

    def __exit__(self, *exc):
        self.tracer.close()


class Tracer:
    """The spans and counts of one traced repetition."""

    def __init__(self, run_id, clock=time.perf_counter, keep=1000):
        self.run_id = run_id
        self.clock = clock
        self.keep = keep
        self.stack = []  # open spans: [span id, name, start, time covered by children]
        self.spans = []  # kept spans: (id, name, start, end, parent id, run id)
        self.totals = {}  # name -> [calls, total s, self s]
        self.counts = Counter()
        self._next_id = 0

    def span(self, name):
        return _Span(self, name)

    def open(self, name):
        self._next_id += 1
        self.stack.append([self._next_id, name, self.clock(), 0.0])

    def close(self):
        span_id, name, start, covered = self.stack.pop()
        end = self.clock()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - covered
        if total[0] <= self.keep:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.run_id))

    def calls(self, *names):
        return sum(self.totals[n][0] for n in names if n in self.totals)

    def total_s(self, *names):
        return sum(self.totals[n][1] for n in names if n in self.totals)

    def self_s(self, *names):
        return sum(self.totals[n][2] for n in names if n in self.totals)

    def layer_self_s(self, layer):
        return self.self_s(*(n for n, owner in {**BOUNDARIES, **DIRECT_SPANS}.items() if owner == layer))

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["id", "name", "start", "end", "parent", "run_id"],
                    "spans": self.spans,
                    "aggregates": {
                        n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in self.totals.items()
                    },
                    "counts": dict(self.counts),
                },
                fh,
            )


class NullTracer:
    """Stands in for Tracer on untraced repetitions."""

    def span(self, name):
        return contextlib.nullcontext()


def _counted_matches(tracer, fn):
    def classify(*args, **kwargs):
        matches = fn(*args, **kwargs)
        tracer.counts["classifier.matches"] += len(matches)
        return matches

    return classify


def _counted_input_terms(tracer, fn):
    def cartier_iter(h, *args, **kwargs):
        tracer.counts["cartier.input_terms"] += len(h.terms)
        return fn(h, *args, **kwargs)

    return cartier_iter


def install(tracer):
    """Wrap every boundary and counted constructor for the rest of the process."""
    for boundary in BOUNDARIES:
        module, attr = boundary.split(".")
        owner = importlib.import_module(f"folclass.{module}")
        fn = getattr(owner, attr)
        if boundary == "enumerator.classify":
            fn = _counted_matches(tracer, fn)
        elif boundary == "cartier.cartier_iter":
            fn = _counted_input_terms(tracer, fn)
        setattr(owner, attr, _spanned(tracer.span(boundary), fn))
    for counter, (module, cls, attr) in COUNTED.items():
        owner = getattr(importlib.import_module(f"folclass.{module}"), cls)
        setattr(owner, attr, _counted(tracer.counts, counter, getattr(owner, attr)))


def _spanned(span, fn):
    def traced(*args, **kwargs):
        with span:
            return fn(*args, **kwargs)

    return traced


def _counted(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def layer_metrics(tracer, wall_s, tables_s, child_cpu_s, candidates):
    """Per-layer metrics of one traced repetition (all but trace.overhead_s,
    which needs the untraced repetition beside it)."""
    t = tracer
    scan_self = t.self_s("cli.verify_completeness")
    oracle_s = t.total_s("derivation.oracle_delta_squared")
    instantiate_calls = t.calls("classifier.instantiate")
    validity = ("enumerator.is_valid_foliation", "classifier.failed_conditions", "derivation.is_valid_foliation")
    extension = ("classifier.extension_field", "classifier.embed")
    layer_self = {metric: t.layer_self_s(layer) for layer, metric in LAYER_SELF.items()}
    return {
        "finite_field.tables_s": tables_s,
        "finite_field.extension_s": t.total_s(*extension),
        "finite_field.extension_calls": t.calls(*extension),
        "enumerator.scan_self_s": scan_self,
        "enumerator.candidates_per_s": candidates / scan_self if scan_self else 0.0,
        "enumerator.pool_child_cpu_s": child_cpu_s,
        "enumerator.soundness_self_s": t.self_s("cli.verify_soundness"),
        "enumerator.generate_s": t.total_s("enumerator.enumerate_triples"),
        "classifier.classify_s": t.total_s("enumerator.classify"),
        "classifier.classify_calls": t.calls("enumerator.classify"),
        "classifier.match_ratio": t.counts["classifier.matches"] / instantiate_calls if instantiate_calls else 0.0,
        "derivation.validity_s": t.total_s(*validity),
        "derivation.validity_calls": t.calls(*validity),
        "derivation.formula_s": t.total_s("derivation.delta_squared"),
        "derivation.oracle_s": oracle_s,
        "derivation.oracle_triples_per_s": t.calls("derivation.oracle_delta_squared") / oracle_s if oracle_s else 0.0,
        **{name: t.counts[name] for name in COUNTED},
        "cartier.iter_s": t.total_s("cartier.cartier_iter"),
        "cartier.input_terms": t.counts["cartier.input_terms"],
        **{
            f"cartier.trace_s.{mode}": t.total_s(f"cartier.verify_nonvanishing.{mode}")
            for mode in ("symbolic", "char2", "char3")
        },
        **layer_self,
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(layer_self.values()),
    }


def combine(traced, untraced_walls):
    """Median of each per-layer metric over the traced repetitions of a run,
    with the tracing overhead against the untraced ones beside them."""
    out = {name: median(rep[name] for rep in traced) for name, _unit, _better in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = out["trace.wall_s"] - median(untraced_walls)
    return {name: out[name] for name, _unit, _better in PER_LAYER}
