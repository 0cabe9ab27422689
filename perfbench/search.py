"""The in-process workloads: two closed-loop searches and the append loop.

``adults-q8``
    Synthetic Adults (45,222 rows), QI = first 8 attributes, k=2, Basic
    Incognito.  Many candidates and many scans of a small table: the
    lattice and per-call overhead dominate.
``landsend-1m``
    Synthetic Lands End (1,000,000 rows), QI = 5, k=2, Basic Incognito.
    Few scans of a large table: the scan kernel dominates.
``landsend-append``
    The same 1,000,000 rows as a 500k base plus 10 appends of 50k through
    :class:`~repro.incremental.IncrementalSession` (basic).  One op is
    ``append(delta)`` + ``run()``: delta scans merged into remembered sets.

One client runs ops back to back (closed loop) until ``seconds`` have
passed.  A search op builds a fresh :class:`PreparedTable` from the
already generated table and searches it, so no memo leaks between ops.
Every workload runs the default execution config with no cache.  In a
traced run, ops alternate between traced and untraced (for the append
loop, whole passes over the deltas alternate), so the difference of their
medians is the tracing overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from perfbench import checks
from perfbench.measure import LAYER_METRICS, Metric, Outcome, median, peak_rss_mb, repeat_setup
from perfbench.tracer import TARGETS, Tracer, attribute
from repro.core.incognito import basic_incognito
from repro.core.problem import PreparedTable
from perfbench import data
from repro.incremental import IncrementalSession

K = 2

#: Workload sizes: ``full`` is what the benchmark measures; ``small`` keeps
#: the benchmark's own tests fast.
SIZES: dict[str, dict[str, dict[str, int]]] = {
    "adults-q8": {
        "full": {"rows": 45_222, "qi": 8},
        "small": {"rows": 3_000, "qi": 5},
    },
    "landsend-1m": {
        "full": {"rows": 1_000_000, "qi": 5},
        "small": {"rows": 20_000, "qi": 4},
    },
    "landsend-append": {
        "full": {"rows": 1_000_000, "qi": 5, "base": 500_000, "appends": 10},
        "small": {"rows": 20_000, "qi": 4, "base": 10_000, "appends": 5},
    },
}

#: Set-up repetitions per run (``setup_s`` is their median).
SETUP_REPEATS = {"adults-q8": 5, "landsend-1m": 3, "landsend-append": 3}


@dataclass
class Released:
    """What one op hands back for checking."""

    result: Any
    table: Any
    #: Ops with equal keys must return equal results (append: the version).
    key: int = 0


@dataclass
class SearchState:
    table: Any
    hierarchies: dict
    qi: tuple


@dataclass
class AppendState:
    hierarchies: dict
    qi: tuple
    base: Any
    deltas: list
    session: Any = None
    #: Index of the next delta to append to ``session``.
    position: int = 0


def _dataset(name: str, rows: int, qi_size: int, seed: int) -> SearchState:
    generate = data.adults if name.startswith("adults") else data.landsend
    return SearchState(*generate(rows, qi_size, seed))


# ----------------------------------------------------------------------
# the two search workloads
# ----------------------------------------------------------------------
def search_op(state: SearchState, index: int) -> Released:
    problem = PreparedTable(state.table, state.hierarchies, state.qi)
    return Released(basic_incognito(problem, K), state.table)


# ----------------------------------------------------------------------
# the append workload
# ----------------------------------------------------------------------
def _append_setup(size: dict[str, int], seed: int) -> AppendState:
    sample = _dataset("landsend", size["rows"], size["qi"], seed)
    base_rows = size["base"]
    step = (size["rows"] - base_rows) // size["appends"]
    state = AppendState(
        sample.hierarchies,
        sample.qi,
        sample.table.take(np.arange(base_rows)),
        [
            sample.table.take(np.arange(base_rows + i * step, base_rows + (i + 1) * step))
            for i in range(size["appends"])
        ],
    )
    _new_session(state)
    return state


def _new_session(state: AppendState) -> None:
    """Start over from the base version and run it (full scans, not an op)."""
    state.session = None
    session = IncrementalSession(PreparedTable(state.base, state.hierarchies, state.qi), K)
    session.run()
    state.session = session
    state.position = 0


def append_prepare(state: AppendState, index: int) -> None:
    if state.position == len(state.deltas):
        _new_session(state)


def append_op(state: AppendState, index: int) -> Released:
    session = state.session
    session.append(state.deltas[state.position])
    state.position += 1
    result = session.run()
    return Released(result, session.dataset.problem.table, key=state.position)


# ----------------------------------------------------------------------
# the shared closed loop
# ----------------------------------------------------------------------
@dataclass
class Loop:
    setup: Callable[[], Any]
    op: Callable[[Any, int], Released]
    #: Untimed work before op ``index`` (starting the next append pass).
    prepare: Callable[[Any, int], None] = lambda state, index: None
    #: Traced run: does op ``index`` run traced?
    traced: Callable[[int], bool] = lambda index: index % 2 == 0
    repeats: int = 3


@dataclass
class _OpRecord:
    index: int
    key: int
    wall: float
    traced: bool
    counters: dict = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0


def build_loop(workload: str, size_name: str, seed: int) -> Loop:
    size = SIZES[workload][size_name]
    repeats = SETUP_REPEATS[workload]
    if workload == "landsend-append":
        appends = size["appends"]
        return Loop(
            setup=lambda: _append_setup(size, seed),
            op=append_op,
            prepare=append_prepare,
            traced=lambda index: (index // appends) % 2 == 0,
            repeats=repeats,
        )
    return Loop(
        setup=lambda: _dataset(workload, size["rows"], size["qi"], seed),
        op=search_op,
        repeats=repeats,
    )


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size_name: str,
    *,
    default_seed: int,
    trace_path: Any = None,
) -> Outcome:
    loop = build_loop(workload, size_name, seed)
    outcome = Outcome("append_p50_s" if workload == "landsend-append" else "search_p50_s")
    state = repeat_setup(outcome, loop.repeats, loop.setup, lambda state: None)
    tracer = Tracer() if trace else None
    references: dict[int, str] = {}
    records: list[_OpRecord] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        loop.prepare(state, index)
        traced = tracer is not None and loop.traced(index)
        if traced:
            tracer.install(index)
        start = time.perf_counter()
        try:
            released = loop.op(state, index)
        finally:
            end = time.perf_counter()
            if traced:
                tracer.remove()
        summary = checks.result_summary(released.result)
        record = _OpRecord(
            index, released.key, end - start, traced,
            released.result.stats.as_dict(), start, end,
        )
        records.append(record)
        outcome.attempted += 1
        _check_op(
            outcome, workload, size_name, seed, default_seed, references, released, summary,
        )
        if index == 0:
            outcome.notes.append(
                f"op 0: {len(summary['nodes'])} anonymous nodes, nodes.checked="
                f"{summary['nodes.checked']}, frequency.table_scans="
                f"{summary['frequency.table_scans']}, rows={released.table.num_rows}"
            )
            nodes = released.result.anonymous_nodes
            reason = checks.check_k_anonymous(released.table, state.hierarchies, nodes, K)
            if reason is not None:
                outcome.fail(f"op 0: recount: {reason}")
        del released
        index += 1

    outcome.op_seconds = [r.wall for r in records if not r.traced]
    outcome.peak_rss_mb = peak_rss_mb()
    if tracer is not None:
        outcome.layers = _layer_metrics(tracer, records, outcome)
        if trace_path is not None:
            tracer.write(trace_path)
    return outcome


def _check_op(
    outcome: Outcome,
    workload: str,
    size_name: str,
    seed: int,
    default_seed: int,
    references: dict[int, str],
    released: Released,
    summary: dict,
) -> None:
    """Compare one op's digest with the run's first equal-key op and the record."""
    found = checks.digest(summary)
    expected = references.setdefault(released.key, found)
    if seed == default_seed:
        recorded = checks.recorded_digest(f"{workload}/{size_name}/{released.key}")
        if recorded is not None:
            expected = recorded
    if found != expected:
        outcome.fail(
            f"op {outcome.attempted - 1} (key {released.key}): digest {found[:12]} "
            f"!= expected {expected[:12]} ({len(summary['nodes'])} nodes, "
            f"checked={summary['nodes.checked']}, scans={summary['frequency.table_scans']})"
        )


def _layer_metrics(tracer: Tracer, records: list[_OpRecord], outcome: Outcome) -> dict[str, Metric]:
    traced = [r for r in records if r.traced]
    splits = [attribute(tracer.spans, r.index, r.start, r.end) for r in traced]
    samples = len(splits)
    values: dict[str, float] = {name: 0.0 for name in LAYER_METRICS}

    def per_op(read: Callable[[Any, _OpRecord], float]) -> float:
        return median([read(split, record) for split, record in zip(splits, traced)])

    for layer in TARGETS:
        values[f"{layer}_s"] = per_op(lambda s, r, layer=layer: s.self_seconds.get(layer, 0.0))
    calls = {
        "hierarchy.generalize_calls": "hierarchy.generalize",
        "groupby.calls": "groupby.group_by",
        "anonymity.scans": "anonymity.scan",
        "anonymity.rollups": "anonymity.rollup",
        "anonymity.delta_scans": "anonymity.delta_scan",
        "outofcore.merge_calls": "outofcore.merge",
    }
    for name, layer in calls.items():
        values[name] = per_op(lambda s, r, layer=layer: s.calls.get(layer, 0))
    values["groupby.rows_in"] = per_op(lambda s, r: s.rows.get("groupby.group_by", 0))

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values["anonymity.rollup_share"] = per_op(
        lambda s, r: share(
            s.calls.get("anonymity.rollup", 0),
            s.calls.get("anonymity.rollup", 0)
            + s.calls.get("anonymity.scan", 0)
            + s.calls.get("anonymity.delta_scan", 0),
        )
    )
    values["lattice.candidates"] = per_op(lambda s, r: r.counters.get("nodes.generated", 0))
    values["lattice.checked_share"] = per_op(
        lambda s, r: share(r.counters.get("nodes.checked", 0), r.counters.get("nodes.generated", 0))
    )
    values["incremental.reuse_share"] = per_op(
        lambda s, r: share(
            r.counters.get("incremental.base_rows_reused", 0),
            r.counters.get("incremental.base_rows_reused", 0)
            + r.counters.get("incremental.delta_rows_scanned", 0),
        )
    )
    values["unattributed_s"] = per_op(lambda s, r: s.unattributed)
    values["traced_op_p50_s"] = median([r.wall for r in traced])
    values["trace_overhead_s"] = _overhead(records)
    values["attribution_gap_s"] = max((s.gap for s in splits), default=0.0)
    broken = sum(not s.well_formed for s in splits)
    if broken:
        outcome.notes.append(f"attribution check FAILED on {broken} of {samples} traced ops")
    else:
        outcome.notes.append(
            f"attribution check: self times + unattributed_s = op wall time on all "
            f"{samples} traced ops (max gap {values['attribution_gap_s']:.2e} s)"
        )
    return {
        name: Metric(value, LAYER_METRICS[name], samples) for name, value in values.items()
    }


def _overhead(records: list[_OpRecord]) -> float:
    """Median traced minus median untraced op time, paired by op key."""
    differences = []
    for key in sorted({r.key for r in records}):
        traced = [r.wall for r in records if r.key == key and r.traced]
        plain = [r.wall for r in records if r.key == key and not r.traced]
        if traced and plain:
            differences.append(median(traced) - median(plain))
    return median(differences)
