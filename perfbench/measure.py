"""What one workload run measured, and the small statistics it needs."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Per-layer metrics printed by a traced run, with their units, in the
#: order ``BENCHMARK.json`` lists them.  Every workload prints every name;
#: a layer that is not on a workload's path reads 0.
LAYER_METRICS: dict[str, str] = {
    "lattice.join_s": "s",
    "lattice.prune_s": "s",
    "lattice.edge_s": "s",
    "lattice.candidates": "count",
    "lattice.checked_share": "ratio",
    "hierarchy.generalize_s": "s",
    "hierarchy.generalize_calls": "count",
    "groupby.group_by_s": "s",
    "groupby.calls": "count",
    "groupby.rows_in": "rows",
    "anonymity.scan_s": "s",
    "anonymity.scans": "count",
    "anonymity.rollup_s": "s",
    "anonymity.rollups": "count",
    "anonymity.rollup_share": "ratio",
    "anonymity.delta_scan_s": "s",
    "anonymity.delta_scans": "count",
    "outofcore.merge_s": "s",
    "outofcore.merge_calls": "count",
    "incremental.append_s": "s",
    "incremental.run_s": "s",
    "incremental.reuse_share": "ratio",
    "service.submit_s": "s",
    "service.queue_s": "s",
    "service.spawn_s": "s",
    "service.child_s": "s",
    "service.collect_s": "s",
    "service.rejected": "count",
    "service.retries": "count",
    "service.late_p50_s": "s",
    "service.late_max_s": "s",
    "unattributed_s": "s",
    "traced_op_p50_s": "s",
    "trace_overhead_s": "s",
    "attribution_gap_s": "s",
}


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """Everything one run of one workload measured."""

    #: Name of the workload's latency metric in the report
    #: (``search_p50_s``, ``append_p50_s`` or ``job_p50_s``).
    op_name: str
    #: Wall time of every untraced op.
    op_seconds: list[float] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Per-layer metrics (traced runs only).
    layers: dict[str, Metric] = field(default_factory=dict)
    #: Extra report lines (capacity, rate, attribution warnings, ...).
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set of this process (and, optionally, its waited children)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # Linux reports KiB


def repeat_setup(
    outcome: Outcome, repeats: int, setup: Callable[[], Any], teardown: Callable[[Any], None]
) -> Any:
    """Run ``setup`` ``repeats`` times, timing each; keep the last state.

    Earlier states are torn down before the next set-up starts, so peak
    memory is that of one state, not of all of them.
    """
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
            state = None
        started = time.perf_counter()
        state = setup()
        outcome.setup_seconds.append(time.perf_counter() - started)
    return state
