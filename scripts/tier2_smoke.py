#!/usr/bin/env python
"""Tier-2 smoke: run the CI-sized Figure-10 workload end to end and
validate the emitted ``BENCH_incognito.json``.

Exercises the whole stack — datasets, relational engine, all six search
algorithms, the bench harness, trace spans, and the JSON export — then
structurally validates the document and sanity-checks the counters the
paper's evaluation depends on.  A second quick run with ``--workers 2``
and no ``--parallel-mode`` checks the default parallel backend: it must
be ``threads`` and must account exactly like the serial run.

Usage::

    PYTHONPATH=src python scripts/tier2_smoke.py [--keep DIR]

Exit status 0 on success, 1 with a problem listing otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.bench import run_figures
from repro.bench.export import BENCH_FILENAME, validate_bench_document
from repro.obs import (
    chrome_trace_json,
    folded_stacks,
    parse_folded,
    read_json_lines,
)


def smoke(out_dir: Path) -> list[str]:
    """Run the quick workload into ``out_dir``; return problems found."""
    json_path = out_dir / BENCH_FILENAME
    trace_path = out_dir / "trace.jsonl"
    metrics_path = out_dir / "metrics.json"
    code = run_figures.main(
        [
            "--quick",
            "--out", str(out_dir),
            "--json", str(json_path),
            "--trace", str(trace_path),
            "--metrics-out", str(metrics_path),
        ]
    )
    if code != 0:
        return [f"run_figures --quick exited {code}"]
    if not json_path.exists():
        return [f"{json_path} was not written"]

    document = json.loads(json_path.read_text())
    problems = [
        f"schema: {error}" for error in validate_bench_document(document)
    ]

    runs = document.get("runs", [])
    # Six Figure-10 algorithms per QI size, plus the serial/shards pair of
    # the quick shard-scaling workload, plus the from-scratch/incremental
    # pair of the quick incremental workload, plus one service run per
    # runner-concurrency width.
    expected = (
        len(run_figures.QUICK_QI_SIZES) * 6
        + 2
        + 2
        + len(run_figures.SERVICE_WIDTHS)
    )
    if len(runs) != expected:
        problems.append(f"expected {expected} runs, got {len(runs)}")

    for run in runs:
        where = f"{run.get('algorithm')}@qid={run.get('x_value')}"
        if run.get("solutions", -1) < 0:
            problems.append(f"{where}: solutions must be non-negative")
        if run.get("figure") == "service":
            # Batch-level measurement: jobs run in subprocesses, so the
            # structural counters are legitimately zero — the throughput
            # and job-latency instruments are the contract instead.
            if run.get("raw_counters", {}).get("service.jobs_per_second", 0) <= 0:
                problems.append(f"{where}: no service throughput recorded")
            latency = run.get("metrics", {}).get("latency.job_total_seconds", {})
            if latency.get("count", 0) != run_figures.QUICK_SERVICE_JOBS:
                problems.append(f"{where}: job latency count != job count")
            continue
        counters = run.get("counters", {})
        if counters.get("nodes_checked", 0) <= 0:
            problems.append(f"{where}: nodes_checked must be positive")
        # Every algorithm evaluates at least one frequency set somehow.
        evaluations = (
            counters.get("table_scans", 0)
            + counters.get("rollups", 0)
            + counters.get("projections", 0)
        )
        if evaluations <= 0:
            problems.append(f"{where}: no frequency-set evaluations recorded")

    basics = [r for r in runs if r["algorithm"] == "Basic Incognito"]
    if not basics:
        problems.append("no Basic Incognito runs in the document")
    elif all(r["counters"]["rollups"] == 0 for r in basics):
        problems.append("Basic Incognito never rolled up (rollup path dead?)")

    shard_runs = {
        r["algorithm"]: r for r in runs if r["figure"] == "shard"
    }
    if set(shard_runs) != {
        "Basic Incognito (serial)", "Basic Incognito (shards)"
    }:
        problems.append(
            f"shard workload runs missing/mislabelled: {sorted(shard_runs)}"
        )
    else:
        serial, sharded = (
            shard_runs["Basic Incognito (serial)"],
            shard_runs["Basic Incognito (shards)"],
        )
        # Shard-parallel evaluation must be invisible in the structural
        # accounting: same search, same scans, same frequency-set rows.
        if serial["counters"] != sharded["counters"]:
            problems.append(
                "shard-mode structural counters diverge from serial: "
                f"{serial['counters']} vs {sharded['counters']}"
            )
        if serial["solutions"] != sharded["solutions"]:
            problems.append(
                "shard-mode solution count diverges from serial"
            )

    incremental_runs = {
        r["algorithm"]: r for r in runs if r["figure"] == "incremental"
    }
    if set(incremental_runs) != {
        "Basic Incognito (from scratch)", "Basic Incognito (incremental)"
    }:
        problems.append(
            "incremental workload runs missing/mislabelled: "
            f"{sorted(incremental_runs)}"
        )
    else:
        scratch, delta = (
            incremental_runs["Basic Incognito (from scratch)"],
            incremental_runs["Basic Incognito (incremental)"],
        )
        # Delta maintenance must be invisible in the structural accounting:
        # same search trajectory, same scans, same frequency-set rows.
        if scratch["counters"] != delta["counters"]:
            problems.append(
                "incremental structural counters diverge from scratch: "
                f"{scratch['counters']} vs {delta['counters']}"
            )
        if scratch["solutions"] != delta["solutions"]:
            problems.append(
                "incremental solution count diverges from from-scratch"
            )
        if delta["raw_counters"].get("incremental.delta_scans", 0) <= 0:
            problems.append(
                "incremental run recorded no delta scans (delta path dead?)"
            )

    spans = read_json_lines(trace_path.read_text().splitlines())
    if not spans:
        problems.append("--trace produced no spans")
    else:
        names = {span["name"] for span in spans}
        for required in ("scan", "rollup", "groupby", "bench.run"):
            if required not in names:
                problems.append(f"trace has no {required!r} spans")
        if max(span["depth"] for span in spans) < 2:
            problems.append("trace spans never nested two levels deep")
        problems.extend(check_chrome_export(spans))
        problems.extend(check_folded_export(spans))

    problems.extend(check_metrics_dump(metrics_path))
    problems.extend(check_default_backend(out_dir / "workers2", runs))
    return problems


def _parity_counters(run: dict) -> dict:
    """The counters a parallel run must share with the serial run.

    Binary search is the one documented divergence: a parallel run
    evaluates probe heights in blocks of ``workers`` nodes and may scan a
    few speculative nodes, so only its ``nodes.*`` counters (and its
    answer) must match.
    """
    prefixes = (
        ("nodes.",)
        if run.get("algorithm") == "Binary Search"
        else ("nodes.", "frequency.")
    )
    return {
        key: value
        for key, value in run.get("raw_counters", {}).items()
        if key.startswith(prefixes)
    }


def check_default_backend(out_dir: Path, serial_runs: list[dict]) -> list[str]:
    """``--workers 2`` alone must run on threads with serial parity."""
    json_path = out_dir / BENCH_FILENAME
    code = run_figures.main(
        ["--quick", "--workers", "2", "--out", str(out_dir),
         "--json", str(json_path)]
    )
    if code != 0:
        return [f"run_figures --quick --workers 2 exited {code}"]
    document = json.loads(json_path.read_text())
    problems = [
        f"workers=2 schema: {error}"
        for error in validate_bench_document(document)
    ]
    config = document.get("config", {})
    if (config.get("parallel_mode"), config.get("workers")) != ("threads", 2):
        problems.append(
            "--workers 2 did not default to threads x 2: "
            f"parallel_mode={config.get('parallel_mode')!r}, "
            f"workers={config.get('workers')!r}"
        )
    parallel_runs = {
        (r.get("figure"), r.get("algorithm"), r.get("x_value")): r
        for r in document.get("runs", [])
    }
    for serial in serial_runs:
        key = (serial.get("figure"), serial.get("algorithm"), serial.get("x_value"))
        where = f"workers=2 {key[1]}@{key[2]} ({key[0]})"
        run = parallel_runs.get(key)
        if run is None:
            problems.append(f"{where}: missing")
            continue
        if key[0] in ("fig10", "incremental"):
            # These runs use the region default: they must have dispatched
            # batches, and no fault may have demoted them off threads.
            raw = run.get("raw_counters", {})
            if raw.get("parallel.tasks", 0) <= 0:
                problems.append(f"{where}: dispatched no parallel tasks")
            faults = sorted(k for k in raw if k.startswith("fault."))
            if faults:
                problems.append(f"{where}: fault counters {faults}")
        if run.get("solutions") != serial.get("solutions"):
            problems.append(
                f"{where}: {run.get('solutions')} solutions, "
                f"serial found {serial.get('solutions')}"
            )
        if _parity_counters(run) != _parity_counters(serial):
            problems.append(
                f"{where}: structural counters diverge from serial: "
                f"{_parity_counters(run)} vs {_parity_counters(serial)}"
            )
    return problems


def check_chrome_export(spans: list[dict]) -> list[str]:
    """The Chrome trace export must be valid, complete, and nested."""
    problems: list[str] = []
    try:
        document = json.loads(chrome_trace_json(spans))
    except ValueError as error:  # pragma: no cover - defensive
        return [f"chrome export is not valid JSON: {error}"]
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["chrome export has no traceEvents"]
    # Replay B/E events per (pid, tid) lane: every E closes the innermost
    # open B of the same name, and every lane ends balanced.
    stacks: dict[tuple, list[str]] = {}
    for index, event in enumerate(events):
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in event:
                problems.append(f"chrome event {index} missing {field!r}")
                return problems
        if event["ph"] not in ("B", "E"):
            problems.append(
                f"chrome event {index} has unexpected ph {event['ph']!r}"
            )
            continue
        stack = stacks.setdefault((event["pid"], event["tid"]), [])
        if event["ph"] == "B":
            stack.append(event["name"])
        elif not stack or stack[-1] != event["name"]:
            problems.append(
                f"chrome event {index}: E {event['name']!r} does not close "
                f"the innermost open span "
                f"({stack[-1] if stack else 'nothing open'!r})"
            )
            return problems
        else:
            stack.pop()
    for lane, stack in stacks.items():
        if stack:
            problems.append(f"chrome lane {lane} left spans open: {stack}")
    if min(event["ts"] for event in events) != 0.0:
        problems.append("chrome timestamps are not rebased to zero")
    return problems


def check_folded_export(spans: list[dict]) -> list[str]:
    """Folded self-times must round-trip the root spans' durations."""
    problems: list[str] = []
    folded = parse_folded(folded_stacks(spans))
    if not folded:
        return ["folded export produced no stacks"]
    if any(value < 0 for value in folded.values()):
        problems.append("folded export contains negative self time")
    # Flamegraph invariant: total self time equals total root wall-clock
    # (children's time is part of their root's duration), to within the
    # ±1µs rounding each emitted line may contribute.
    by_id = {span["span_id"]: span for span in spans}
    root_micros = sum(
        (span["ended"] - span["started"]) * 1e6
        for span in spans
        if span.get("parent_id") not in by_id
        and span.get("started") is not None
        and span.get("ended") is not None
    )
    total = sum(folded.values())
    if abs(total - root_micros) > len(folded) + 1:
        problems.append(
            f"folded self-times sum to {total}us but root spans cover "
            f"{root_micros:.0f}us — durations do not round-trip"
        )
    return problems


def check_metrics_dump(metrics_path: Path) -> list[str]:
    """--metrics-out must produce well-formed quantile summaries."""
    if not metrics_path.exists():
        return [f"{metrics_path} was not written"]
    metrics = json.loads(metrics_path.read_text())
    problems: list[str] = []
    for required in ("latency.scan_seconds", "dist.frequency_set_rows"):
        if required not in metrics:
            problems.append(f"metrics dump is missing {required!r}")
    for name, summary in metrics.items():
        if summary.get("count", 0) == 0:
            continue
        for field in ("count", "sum", "min", "max", "p50", "p90", "p99"):
            if field not in summary:
                problems.append(f"metrics {name!r} missing {field!r}")
                break
        else:
            if not summary["min"] <= summary["p50"] <= summary["max"]:
                problems.append(f"metrics {name!r} quantiles out of range")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--keep",
        type=Path,
        default=None,
        metavar="DIR",
        help="write artifacts to DIR and keep them (default: temp dir)",
    )
    args = parser.parse_args(argv)

    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
        problems = smoke(args.keep)
    else:
        with tempfile.TemporaryDirectory(prefix="tier2_smoke_") as tmp:
            problems = smoke(Path(tmp))

    if problems:
        print("tier-2 smoke FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("tier-2 smoke OK", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
