"""Span recording from outside the program, for the traced run.

The tracer replaces a fixed set of public functions with thin wrappers
while one traced operation runs, then puts the originals back.  Each call
of a wrapped function becomes one span ``(op, layer, start, end, parent)``
kept in memory; nothing is written until :meth:`Tracer.write` at the end.

A function is wrapped "at the name callers look up": a module-level
function is replaced in every loaded ``repro`` module that holds it under
that name (callers that did ``from x import f`` look ``f`` up in their own
module), and a method is replaced on its class.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time in one op is the sum over its spans.  The
part of the op's wall time that no top-level span covers is
``unattributed``.  :func:`attribute` computes both from the recorded
intervals and checks that self times plus ``unattributed`` add up to the
op's wall time.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Wrapped layer → ``(module, qualified attribute)`` of the original.
#: Method targets are ``Class.method``; function targets are replaced in
#: every ``repro`` module that binds the same object under that name.
TARGETS: dict[str, tuple[str, str]] = {
    "lattice.join": ("repro.lattice.generation", "join_phase"),
    "lattice.prune": ("repro.lattice.generation", "prune_phase"),
    "lattice.edge": ("repro.lattice.generation", "edge_generation"),
    "hierarchy.generalize": ("repro.hierarchy.base", "CompiledHierarchy.generalize_codes"),
    "groupby.group_by": ("repro.relational.groupby", "group_by_codes"),
    "anonymity.scan": ("repro.core.anonymity", "FrequencyEvaluator.scan"),
    "anonymity.rollup": ("repro.core.anonymity", "FrequencyEvaluator.rollup"),
    "anonymity.delta_scan": ("repro.core.anonymity", "FrequencyEvaluator.delta_scan"),
    "outofcore.merge": ("repro.core.outofcore", "merge_partials"),
    "incremental.append": ("repro.incremental.session", "IncrementalSession.append"),
    "incremental.run": ("repro.incremental.session", "IncrementalSession.run"),
}


def _group_by_rows(args: tuple, kwargs: dict) -> int:
    """Rows fed into one ``group_by_codes(code_arrays, radices)`` call."""
    code_arrays = args[0] if args else kwargs["code_arrays"]
    return int(len(code_arrays[0])) if len(code_arrays) else 0


@dataclass
class Span:
    op: int
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    rows: int = 0


@dataclass
class OpAttribution:
    """One traced op's wall time split into per-layer self times."""

    wall: float
    self_seconds: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    rows: dict[str, int] = field(default_factory=dict)
    unattributed: float = 0.0
    #: |wall − (Σ self + unattributed)|: zero for a well-formed span tree.
    gap: float = 0.0
    #: A span that ends outside its parent or the op, or a negative self
    #: time, would make the split meaningless.
    well_formed: bool = True


class Tracer:
    """Install wrappers around :data:`TARGETS` for the span of one op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._op = -1
        self._saved: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _wrap(self, layer: str, original: Callable) -> Callable:
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        count_rows = _group_by_rows if layer == "groupby.group_by" else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            span = Span(self._op, layer, 0.0, 0.0, stack[-1] if stack else -1)
            if count_rows is not None:
                span.rows = count_rows(args, kwargs)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self, op: int) -> None:
        """Wrap every target; spans recorded until :meth:`remove` get ``op``."""
        self._op = op
        for layer, (module_name, attribute) in TARGETS.items():
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._saved.append((owner, method, original))
                setattr(owner, method, self._wrap(layer, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(layer, original)
            for name, loaded in list(sys.modules.items()):
                if not name.startswith("repro") or loaded is None:
                    continue
                if getattr(loaded, attribute, None) is original:
                    self._saved.append((loaded, attribute, original))
                    setattr(loaded, attribute, wrapper)

    def remove(self) -> None:
        """Put every original back (reverse order restores nested saves)."""
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()
        self._op = -1

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON line (called once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "op": span.op,
                            "layer": span.layer,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "rows": span.rows,
                        }
                    )
                    + "\n"
                )


def attribute(
    spans: list[Span], op: int, op_start: float, op_end: float
) -> OpAttribution:
    """Split one op's wall time ``[op_start, op_end]`` by layer."""
    tolerance = 1e-6
    wall = op_end - op_start
    result = OpAttribution(wall=wall)
    children_seconds: dict[int, float] = {}
    top_level = 0.0
    mine = [(index, span) for index, span in enumerate(spans) if span.op == op]
    for index, span in mine:
        duration = span.end - span.start
        if span.parent < 0:
            top_level += duration
            inside = span.start >= op_start - tolerance and span.end <= op_end + tolerance
        else:
            parent = spans[span.parent]
            children_seconds[span.parent] = children_seconds.get(span.parent, 0.0) + duration
            inside = (
                span.start >= parent.start - tolerance
                and span.end <= parent.end + tolerance
            )
        result.well_formed &= inside
    total_self = 0.0
    for index, span in mine:
        self_time = (span.end - span.start) - children_seconds.get(index, 0.0)
        result.well_formed &= self_time >= -tolerance
        total_self += self_time
        result.self_seconds[span.layer] = result.self_seconds.get(span.layer, 0.0) + self_time
        result.calls[span.layer] = result.calls.get(span.layer, 0) + 1
        result.rows[span.layer] = result.rows.get(span.layer, 0) + span.rows
    result.unattributed = wall - top_level
    result.well_formed &= result.unattributed >= -tolerance
    result.gap = abs(wall - (total_self + result.unattributed))
    return result
