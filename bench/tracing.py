"""Outside-in span tracing of the bellbound layers.

The tracer replaces module attributes the package calls through (for example
``harness.substream`` or ``SchmidtVector.__post_init__``) with wrappers that
record one span per call: name, parent span, root span, start and end.  Spans
stay in memory in a flat ``array('q')`` while the run is traced, and are
written out at the end.  The original attributes are always put back.

Tracing is for serial runs only: spans recorded in forked workers would be
lost with the worker.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from array import array

import numpy as np

_FIELDS = 5  # name id, parent id, root id, start ns, end ns
CLOSED_FORM = (
    "concurrence", "effective_rank", "k_value", "gamma_value", "bell_value_formula",
    "upper_bound", "lower_bound", "is_nonlocal_certified",
)
# per-layer metric -> the spans whose self time it sums
PER_STATE_US = {
    "harness.substream_us": ("harness.substream",),
    "schmidt_state.sample_us": ("schmidt_state.sample_haar", "schmidt_state.sample_simplex"),
    "schmidt_state.validate_us": ("schmidt_state.SchmidtVector.__post_init__",),
    "bounds.closed_form_us": tuple(f"bounds.{name}" for name in CLOSED_FORM),
    "harness.self_us": ("harness.run_sweep", "harness.verify_oracle"),
}
PER_GRID_CALL_US = {
    "bell_operators.build_us": ("bell_operators.build_a", "bell_operators.build_b"),
    "bell_operators.validate_us": ("bell_operators.HermitianObservable.__post_init__",
                                   "bell_operators.BellOperator.__post_init__"),
    "bell_operators.assemble_us": ("bell_operators.assemble_bell",),
    "bell_operators.expectation_us": ("bell_operators.expectation",),
    "bell_operators.search_us": ("bell_operators.max_expectation_grid",),
}


def traced_attributes(bb):
    """(owner, attribute, span name) for every call boundary that is traced.

    A function is wrapped in each namespace it is called through: the package
    binds names with ``from .x import f``, so ``harness.concurrence`` and
    ``bounds.concurrence`` are separate bindings of one function.
    """
    h, b, s, bo, cli = bb.harness, bb.bounds, bb.schmidt_state, bb.bell_operators, bb.cli
    out = [(cli, "main", "cli.main")]
    out += [(h, name, f"harness.{name}") for name in ("run_sweep", "verify_oracle", "substream")]
    out += [(h, name, f"schmidt_state.{name}") for name in ("sample_haar", "sample_simplex")]
    out += [(s, name, f"schmidt_state.{name}") for name in ("sample_haar", "sample_simplex")]
    out.append((s.SchmidtVector, "__post_init__", "schmidt_state.SchmidtVector.__post_init__"))
    for module in (h, b, s):
        out += [(module, name, f"bounds.{name}") for name in CLOSED_FORM if hasattr(module, name)]
    out.append((b, "classical_bound", "bounds.classical_bound"))
    out.append((h, "max_expectation_grid", "bell_operators.max_expectation_grid"))
    out += [(bo, name, f"bell_operators.{name}")
            for name in ("build_a", "build_b", "assemble_bell", "expectation")]
    out.append((bo.HermitianObservable, "__post_init__",
                "bell_operators.HermitianObservable.__post_init__"))
    out.append((bo.BellOperator, "__post_init__", "bell_operators.BellOperator.__post_init__"))
    return out


class Tracer:
    """In-memory span recorder; use :meth:`installed` around a serial run."""

    def __init__(self, bb):
        self._bb = bb
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) // _FIELDS
            parent = stack[-1]
            spans.extend((nid, parent, stack[1] if parent >= 0 else sid, clock(), 0))
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid * _FIELDS + 4] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced attribute; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in traced_attributes(self._bb):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def table(self) -> np.ndarray:
        """Spans as an (N, 5) int64 array: name, parent, root, start, end."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self nanoseconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are serial, so children never overlap.
        """
        t = self.table()
        if not len(t):
            return {}
        dur = (t[:, 4] - t[:, 3]).astype(np.float64)
        has_parent = t[:, 1] >= 0
        child = np.bincount(t[has_parent, 1], weights=dur[has_parent], minlength=len(t))
        self_ns = dur - child
        k = len(self.names)
        counts = np.bincount(t[:, 0], minlength=k)
        totals = np.bincount(t[:, 0], weights=dur, minlength=k)
        selfs = np.bincount(t[:, 0], weights=self_ns, minlength=k)
        return {
            name: {"calls": int(counts[i]), "total_ns": float(totals[i]), "self_ns": float(selfs[i])}
            for i, name in enumerate(self.names)
        }

    def durations_ns(self, name: str) -> np.ndarray:
        """Durations of every span with this name, in call order."""
        t = self.table()
        if name not in self._name_ids or not len(t):
            return np.zeros(0)
        rows = t[t[:, 0] == self._name_ids[name]]
        return (rows[:, 4] - rows[:, 3]).astype(np.float64)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        t = self.table()
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (nid, parent, root, start, end) in enumerate(t.tolist()):
                fh.write(
                    f'{{"id":{sid},"parent":{parent},"root":{root},'
                    f'"name":{json.dumps(self.names[nid])},"start_ns":{start},"end_ns":{end}}}\n'
                )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the spans of a traced run.

    Sweep-side self times are per drawn state (one `substream` call each);
    oracle-side ones are per `max_expectation_grid` call.  A layer the run
    never called reads 0.
    """
    summary = tracer.summary()

    def calls(names):
        return sum(summary[n]["calls"] for n in names if n in summary)

    def self_us(names, per):
        return sum(summary[n]["self_ns"] for n in names if n in summary) / per / 1e3 if per else 0.0

    states = calls(["harness.substream"])
    grids = calls(["bell_operators.max_expectation_grid"])
    out = {k: self_us(names, states) for k, names in PER_STATE_US.items()}
    out.update({k: self_us(names, grids) for k, names in PER_GRID_CALL_US.items()})
    out["bounds.calls_per_sample"] = (
        calls(PER_STATE_US["bounds.closed_form_us"]) / states if states else 0.0)
    if grids:
        out["bell_operators.expectation_calls"] = calls(["bell_operators.expectation"]) / grids
        out["bell_operators.observables_built"] = calls(
            ["bell_operators.HermitianObservable.__post_init__"]) / grids
        grid_ms = tracer.durations_ns("bell_operators.max_expectation_grid") / 1e6
        out["bell_operators.call_ms_p50"] = float(np.median(grid_ms))
        out["bell_operators.call_ms_p95"] = float(np.sort(grid_ms)[math.ceil(0.95 * grids) - 1])
    bound_ms = tracer.durations_ns("bounds.classical_bound") / 1e6
    if len(bound_ms):
        out["bounds.classical_bound_ms"] = float(np.median(bound_ms))
    return out
