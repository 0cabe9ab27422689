"""Realistic-size benchmark of the Incognito reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adults-q8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one report

``--trace 0`` measures the end-to-end metrics (``op_p50_s``, ``setup_s``,
``peak_rss_mb``) with nothing wrapped.  ``--trace 1`` is the separate
traced run: it wraps each layer's public functions from this directory
and prints the per-layer metrics.  Each run prints a human-readable
report (every metric with its unit and sample count), then, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Every workload ``--workload all`` runs.  ``BENCHMARK.json`` lists all but
#: ``landsend-1m``, which stays runnable by name (see ``README.md``).
WORKLOADS = ("adults-q8", "landsend-1m", "landsend-append", "service-jobs")

#: The seed whose per-op result digests are recorded in ``digests.json``.
DEFAULT_SEED = 1

#: Seconds one workload may take under ``--workload all`` before it is
#: treated as hung.
COMMAND_TIMEOUT = 600


def _load_program() -> float:
    """Import the program from this checkout's ``src``; return seconds taken."""
    started = time.perf_counter()
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(ROOT))
    import repro

    location = Path(repro.__file__).resolve()
    if SOURCE not in location.parents:
        raise ImportError(f"repro imported from {location}, not from {SOURCE}")
    import perfbench.search  # noqa: F401  (imports the program's layers)
    import perfbench.service  # noqa: F401

    return time.perf_counter() - started


def _format(value: float) -> str:
    return f"{value:.6g}"


def run_one(args: argparse.Namespace, import_seconds: float) -> dict:
    from perfbench import search, service
    from perfbench.measure import LAYER_METRICS, median, percentile

    trace_path = WORK / "traces" / f"{args.workload}.jsonl"
    if args.workload == "service-jobs":
        outcome = service.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size,
            default_seed=DEFAULT_SEED,
            work_dir=WORK / f"service-{time.time_ns()}",
            source_dir=SOURCE,
        )
    else:
        outcome = search.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size,
            default_seed=DEFAULT_SEED, trace_path=trace_path,
        )

    print(f"== {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    ops = outcome.op_seconds
    setup = import_seconds + median(outcome.setup_seconds)
    error_rate = outcome.failed / max(1, outcome.attempted)
    report = [
        (outcome.op_name, median(ops), "s", len(ops)),
        ("setup_s", setup, "s", len(outcome.setup_seconds)),
        ("peak_rss_mb", outcome.peak_rss_mb, "MB", 1),
        ("error_rate", error_rate, "ratio", outcome.attempted),
    ]
    if outcome.op_name == "job_p50_s" and len(ops) >= 100:
        report.insert(1, ("job_p90_s", percentile(ops, 0.9), "s", len(ops)))
    if args.trace:
        report += [
            (name, metric.value, metric.unit, metric.samples)
            for name, metric in outcome.layers.items()
        ]
    for name, value, unit, samples in report:
        print(f"  {name:<28} {_format(value):>14} {unit:<6} n={samples}")
    if ops:
        print(f"  op seconds: min {min(ops):.4f}, median {median(ops):.4f}, "
              f"max {max(ops):.4f}")
    print(f"  setup_s = import {import_seconds:.4f} s + median of "
          f"{len(outcome.setup_seconds)} set-ups "
          f"({', '.join(f'{s:.4f}' for s in outcome.setup_seconds)} s)")
    for note in outcome.notes:
        print(f"  {note}")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")

    if args.trace:
        metrics = {
            name: {"value": outcome.layers[name].value, "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
    else:
        metrics = {
            "op_p50_s": {"value": median(ops), "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": outcome.peak_rss_mb, "unit": "MB"},
        }
    return {
        "correct": outcome.failed == 0 and bool(ops),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in its own process (so peak RSS is per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        completed = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=COMMAND_TIMEOUT
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} exited with code {completed.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "small"), default="full",
        help="small: reduced inputs for the benchmark's own tests",
    )
    parser.add_argument(
        "--capacity", action="store_true",
        help="service-jobs only: measure the server's capacity (jobs/s) and exit",
    )
    args = parser.parse_args(argv)

    try:
        import_seconds = _load_program()
    except ImportError as error:
        print(f"perfbench: cannot import the program from {SOURCE}: {error}", file=sys.stderr)
        return 2

    if args.capacity:
        from perfbench import service

        rate = service.measure_capacity(SOURCE, WORK / f"capacity-{time.time_ns()}",
                                        args.seed, args.size)
        print(f"service capacity: {rate:.3f} jobs/s")
        return 0
    result = run_all(args) if args.workload == "all" else run_one(args, import_seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        if WORK.exists() and not any(WORK.iterdir()):
            shutil.rmtree(WORK, ignore_errors=True)
