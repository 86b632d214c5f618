"""Span recorder for the traced benchmark run.

The program is not instrumented.  Instead :class:`Tracer` replaces the
public callables listed in :data:`TRACED` at the place the program looks
them up -- a class attribute for methods, every ``repro.*`` module
binding for functions -- with wrappers that record one span per call
(name, start, end, parent span, operation id) plus counts taken at the
same boundary.  Spans stay in memory until :meth:`Tracer.dump`.

Only the serial trial backend is traced: spans nest on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _check_counts(tracer, args, kwargs, result):
    us, vs = np.asarray(args[1]), np.asarray(args[2])
    tracer.count("incremental.check.rows", np.union1d(us, vs).size)
    tracer.count("incremental.check.passed", int(bool(result.satisfied)))


def _derive_counts(tracer, args, kwargs, result):
    tracer.count("worldstore.derive.dirty", result.n_dirty)
    tracer.count("worldstore.derive.worlds", args[0].n_samples)


def _rebase_counts(tracer, args, kwargs, result):
    tracer.count("worldstore.rebase.dirty", result["n_dirty_worlds"] or 0)
    tracer.count("worldstore.rebase.worlds", args[0].n_samples)


def _select_counts(tracer, args, kwargs, result):
    tracer.count("selection.candidates", len(result))


#: (module, attribute path, span name, count hook).  A dotted attribute
#: is a method, patched on its class; a plain one is a function, patched
#: in every loaded ``repro`` module that binds it.
TRACED = (
    ("repro.core.chameleon", "Chameleon.anonymize", "chameleon.anonymize", None),
    ("repro.core.chameleon", "build_selection_context", "genobf.context", None),
    ("repro.core.genobf", "compute_relevance", "relevance.compute", None),
    ("repro.core.parallel", "SerialTrialEngine.run_probe", "parallel.probe", None),
    ("repro.core.parallel", "run_trial", "parallel.trial", None),
    ("repro.core.parallel", "reduce_probe", "parallel.reduce", None),
    ("repro.core.selection", "select_candidate_edges", "selection.select",
     _select_counts),
    ("repro.core.noise", "perturb_probabilities", "noise.perturb", None),
    ("repro.privacy.incremental", "DegreeUncertaintyCache.__init__",
     "incremental.build", None),
    ("repro.privacy.incremental", "DegreeUncertaintyCache.check_edge_arrays",
     "incremental.check", _check_counts),
    ("repro.privacy.incremental", "DegreeUncertaintyCache.check_base",
     "incremental.check_base", None),
    ("repro.privacy.incremental", "DegreeUncertaintyCache.apply_edge_arrays",
     "incremental.apply", None),
    ("repro.reliability.worldstore", "WorldStore.__init__", "worldstore.build",
     None),
    ("repro.reliability.worldstore", "WorldStore.warm", "worldstore.build", None),
    ("repro.reliability.worldstore", "WorldStore.derive", "worldstore.derive",
     _derive_counts),
    ("repro.reliability.worldstore", "WorldStore.discrepancy",
     "worldstore.discrepancy", None),
    ("repro.reliability.worldstore", "WorldStore.rebase", "worldstore.rebase",
     _rebase_counts),
    ("repro.ugraph.io", "read_edge_list", "ugraph.read", None),
    ("repro.ugraph.operations", "apply_edge_updates", "ugraph.apply_edge_updates",
     None),
    ("repro.stream.recertify", "IncrementalRecertifier.apply", "stream.apply",
     None),
    ("repro.stream.recertify", "repair_violations", "stream.repair", None),
)


class Tracer:
    """Installs the wrappers, records spans and counts, and aggregates."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.operation = 0

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = (
                    span_id, parent, tracer.operation, name, start, end
                )
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every :data:`TRACED` callable (undo with :meth:`uninstall`)."""
        for module_name, attr, name, hook in TRACED:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(cls.__dict__[method],
                                                    name, hook))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, hook)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") \
                        and loaded.__dict__.get(attr) is original:
                    self._patch(loaded, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """Per-span totals, per-layer self times and the derived counts.

        Every traced span name and layer is present, zero when the run
        never entered it.
        """
        names = {name for __, __, name, __ in TRACED}
        inclusive = dict.fromkeys(names, 0.0)
        calls = dict.fromkeys(names, 0)
        layer_self = dict.fromkeys((n.split(".")[0] for n in names), 0.0)
        child_time = [0.0] * len(self.spans)
        for span_id, parent, __, name, start, end in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        for span_id, __, __, name, start, end in self.spans:
            layer_self[name.split(".")[0]] += end - start - child_time[span_id]

        counts = self.counts

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out = {f"{name}_s": total for name, total in inclusive.items()}
        out.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
        out.update({
            "incremental.check.calls": calls["incremental.check"],
            "incremental.check.rows": share(
                counts["incremental.check.rows"], calls["incremental.check"]),
            "incremental.check.pass_ratio": share(
                counts["incremental.check.passed"], calls["incremental.check"]),
            "worldstore.derive.dirty_ratio": share(
                counts["worldstore.derive.dirty"],
                counts["worldstore.derive.worlds"]),
            "worldstore.rebase.dirty_ratio": share(
                counts["worldstore.rebase.dirty"],
                counts["worldstore.rebase.worlds"]),
            "ugraph.apply_edge_updates.calls": calls["ugraph.apply_edge_updates"],
            "parallel.trials": calls["parallel.trial"],
            "parallel.probes": calls["parallel.probe"],
            "selection.candidates": counts["selection.candidates"],
            "stream.repair.calls": calls["stream.repair"],
            "trace.spans": len(self.spans),
        })
        return out

    def dump(self, path) -> None:
        """Write every span (seconds relative to the first) as JSON."""
        origin = self.spans[0][4] if self.spans else 0.0
        rows = [
            {"id": s, "parent": p, "op": op, "name": name,
             "start": start - origin, "end": end - origin}
            for s, p, op, name, start, end in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"spans": rows, "counts": dict(self.counts)}, handle)
