"""The ``service-jobs`` workload: a live job server under an open loop.

Set-up writes the seeded Adults table to sqlite, computes the expected
result once in-process with ``runner.run_job_inline``, and starts
``python -m repro serve <dir>`` with default flags, waiting until
``/healthz`` answers.  One client then submits jobs at fixed due times
(``rate`` jobs per second, round-robin over four tenants) for ``seconds``
seconds, whether or not earlier jobs finished.  A job's latency runs from
when it was due, not from when it was sent, so a late generator still
counts against the server; how late the generator ran is reported too.

Each job is checked: it must succeed and ``runner.comparable`` of its
result must equal the in-process reference.  A 429/503 refusal, a
``failed`` or ``cancelled`` job, or a wrong result is a failed op.

The traced run splits each job's latency along its timeline, from the
job record's ``submitted_at``/``started_at``/``finished_at`` and the
``attempt_start``/``attempt_finished`` lines of its ``runner.log``:
generator lateness, submit, queue, spawn (process start and imports),
child (load, search, checkpoint, write) and collect.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sqlite3
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from perfbench import checks, data
from perfbench.measure import LAYER_METRICS, Metric, Outcome, median, peak_rss_mb, repeat_setup
from repro.hierarchy.spec import hierarchy_to_spec
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.jobs import JobSpec
from repro.service.runner import comparable, run_job_inline

K = 2
TENANTS = 4
SETUP_REPEATS = 3

#: ``rate`` is half the server's measured capacity at that size: a closed
#: burst of 16 full-size jobs on 2 CPUs with the default ``--max-running
#: 2`` completed at 1.3 to 1.5 jobs/s (``run.py --workload service-jobs
#: --capacity`` measures it again).
SIZES: dict[str, dict[str, Any]] = {
    "full": {"rows": 45_222, "qi": 5, "rate": 0.7, "capacity": 1.4},
    "small": {"rows": 2_000, "qi": 3, "rate": 2.0, "capacity": 4.0},
}

#: Seconds to wait for the last jobs after the submit window closes.
COLLECT_TIMEOUT = 90.0

#: Slack for comparing unix timestamps taken by different processes.
TIMELINE_TOLERANCE = 1e-3


@dataclass
class Server:
    process: subprocess.Popen
    directory: Path
    client: ServiceClient
    spec: dict[str, Any]
    reference: dict[str, Any]
    table: Any
    hierarchies: dict


@dataclass
class Job:
    due: float
    sent: float
    job_id: str


def _write_sqlite(table: Any, path: Path) -> None:
    names = table.schema.names
    columns = [table.column(name).to_list() for name in names]
    connection = sqlite3.connect(path)
    try:
        quoted = ",".join(f'"{name}"' for name in names)
        connection.execute(f"CREATE TABLE adults ({quoted})")
        marks = ",".join("?" * len(names))
        connection.executemany(f"INSERT INTO adults VALUES ({marks})", zip(*columns))
        connection.commit()
    finally:
        connection.close()


def prepare_job(work: Path, seed: int, size: dict[str, Any]) -> tuple[Any, dict, dict, dict]:
    """Write the seeded table to sqlite; return (table, hierarchies, spec, reference).

    ``reference`` is ``runner.comparable`` of the job run in-process.
    """
    work.mkdir(parents=True)
    table, hierarchies, qi = data.adults(size["rows"], size["qi"], seed)
    database = work / "adults.sqlite"
    _write_sqlite(table, database)
    spec = {
        "dataset": f"sqlite:{database}#adults",
        "k": K,
        "algorithm": "basic",
        "qi": list(qi),
        "hierarchies": {name: hierarchy_to_spec(hierarchy) for name, hierarchy in hierarchies.items()},
    }
    reference = comparable(run_job_inline(JobSpec.from_json(spec)))
    return table, hierarchies, spec, reference


def start_server(
    work: Path, seed: int, size: dict[str, Any], source_dir: Path
) -> Server:
    """Generate the data, compute the reference, start the server."""
    table, hierarchies, spec, reference = prepare_job(work, seed, size)
    data_dir = work / "data"
    env = dict(os.environ, PYTHONPATH=str(source_dir))
    with (work / "server.log").open("w") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(data_dir)],
            cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
    try:
        deadline = time.monotonic() + 60.0
        while not (data_dir / "server.json").exists():
            if process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start; see {work / 'server.log'}")
            time.sleep(0.01)
        client = ServiceClient.from_server_info(data_dir, timeout=30.0)
        client.wait_reachable(60.0, poll=0.01)
    except BaseException:
        _stop(process)
        raise
    return Server(process, work, client, spec, reference, table, hierarchies)


def _stop(process: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then wait; kill if it does not exit."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(30.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def stop_server(server: Server) -> None:
    _stop(server.process)


def _submit_open_loop(
    server: Server, rate: float, seconds: float, outcome: Outcome, late: list[float]
) -> tuple[list[Job], int]:
    """Submit one job per due time; return the accepted jobs and the refusals."""
    jobs = []
    refused = 0
    count = max(1, math.ceil(seconds * rate))
    first_due = time.time() + 0.05
    for index in range(count):
        due = first_due + index / rate
        pause = due - time.time()
        if pause > 0:
            time.sleep(pause)
        sent = time.time()
        late.append(sent - due)
        spec = dict(server.spec, tenant=f"tenant-{index % TENANTS}")
        outcome.attempted += 1
        try:
            status, document = server.client.submit(spec)
        except ServiceUnavailable as error:
            outcome.fail(f"job {index}: submit failed: {error}")
            continue
        if status != 202:
            refused += 1
            outcome.fail(f"job {index}: refused with HTTP {status}: {document.get('error')}")
            continue
        jobs.append(Job(due, sent, document["id"]))
    return jobs, refused


def _wait_terminal(server: Server, jobs: list[Job]) -> dict[str, dict[str, Any]]:
    records: dict[str, dict[str, Any]] = {}
    deadline = time.monotonic() + COLLECT_TIMEOUT
    pending = [job.job_id for job in jobs]
    while pending and time.monotonic() < deadline:
        still = []
        for job_id in pending:
            status, document = server.client.job(job_id)
            if status == 200 and document.get("state") in ("succeeded", "failed", "cancelled"):
                records[job_id] = document
            else:
                still.append(job_id)
        pending = still
        if pending:
            time.sleep(0.05)
    return records


def _attempt_times(job_dir: Path) -> tuple[float, float] | None:
    """(attempt_start, attempt_finished) unix times of the job's last attempt."""
    start = finish = None
    try:
        lines = (job_dir / "runner.log").read_text().splitlines()
    except FileNotFoundError:
        return None
    for line in lines:
        event = json.loads(line)
        if event.get("event") == "attempt_start":
            start = event["ts"]
        elif event.get("event") == "attempt_finished":
            finish = event["ts"]
    if start is None or finish is None:
        return None
    return start, finish


def _measure(
    server: Server,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size_name: str,
    default_seed: int,
    outcome: Outcome,
    late: list[float],
) -> None:
    """Submit the open loop, then check every job and record its latency."""
    size = SIZES[size_name]
    expected = server.reference
    if seed == default_seed:
        recorded = checks.recorded_digest(f"{workload}/{size_name}/0")
        if recorded is not None and recorded != checks.digest(expected):
            outcome.notes.append("in-process reference differs from the recorded digest")
            expected = None
    reason = checks.check_k_anonymous(
        server.table,
        server.hierarchies,
        [_node_from_label(label) for label in server.reference["anonymous_nodes"]],
        K,
    )
    jobs, refused = _submit_open_loop(server, size["rate"], seconds, outcome, late)
    records = _wait_terminal(server, jobs)
    if reason is not None:
        outcome.fail(f"reference recount: {reason}")
    timelines = []
    for job in jobs:
        record = records.get(job.job_id)
        if record is None:
            outcome.fail(f"{job.job_id}: not terminal after {COLLECT_TIMEOUT:.0f}s")
            continue
        if record["state"] != "succeeded":
            outcome.fail(f"{job.job_id}: {record['state']}: {record.get('cause')}")
            continue
        status, result = server.client.result(job.job_id)
        if status != 200 or expected is None or comparable(result) != expected:
            outcome.fail(f"{job.job_id}: result differs from the in-process reference")
            continue
        outcome.op_seconds.append(record["finished_at"] - job.due)
        timelines.append((job, record))
    if trace:
        outcome.layers = _layer_metrics(server, timelines, late, refused, outcome)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size_name: str,
    *,
    default_seed: int,
    work_dir: Path,
    source_dir: Path,
) -> Outcome:
    size = SIZES[size_name]
    outcome = Outcome("job_p50_s")
    setups = iter(range(SETUP_REPEATS))
    late: list[float] = []
    try:
        server = repeat_setup(
            outcome,
            SETUP_REPEATS,
            lambda: start_server(work_dir / f"setup-{next(setups)}", seed, size, source_dir),
            stop_server,
        )
        try:
            _measure(server, workload, seed, seconds, trace, size_name, default_seed,
                     outcome, late)
        finally:
            stop_server(server)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    outcome.peak_rss_mb = peak_rss_mb(children=True)
    outcome.notes.append(
        f"open loop at {size['rate']} jobs/s = half the measured capacity of "
        f"{size['capacity']} jobs/s; generator late p50 {median(late):.4f} s, "
        f"max {max(late, default=0.0):.4f} s"
    )
    return outcome


def _node_from_label(label: str) -> Any:
    """Parse ``runner.result_payload``'s ``"a=1, b=0"`` node labels."""
    from repro.lattice.node import LatticeNode

    items = [part.split("=") for part in label.split(", ")]
    return LatticeNode(tuple(name for name, _ in items), tuple(int(level) for _, level in items))


def _layer_metrics(
    server: Server,
    timelines: list[tuple[Job, dict]],
    late: list[float],
    refused: int,
    outcome: Outcome,
) -> dict[str, Metric]:
    values = {name: 0.0 for name in LAYER_METRICS}
    parts: dict[str, list[float]] = {
        name: [] for name in ("submit", "queue", "spawn", "child", "collect", "unattributed")
    }
    out_of_order = 0
    retries = 0
    for job, record in timelines:
        retries += max(0, int(record.get("attempt", 1)) - 1)
        attempt = _attempt_times(server.directory / "data" / "jobs" / job.job_id)
        if attempt is None:
            outcome.notes.append(f"{job.job_id}: runner.log lacks attempt times")
            continue
        attempt_start, attempt_finished = attempt
        wall = record["finished_at"] - job.due
        segments = {
            "submit": record["submitted_at"] - job.sent,
            "queue": record["started_at"] - record["submitted_at"],
            "spawn": attempt_start - record["started_at"],
            "child": attempt_finished - attempt_start,
            "collect": record["finished_at"] - attempt_finished,
        }
        # Each segment ends where the next begins; a negative one means the
        # timestamps are out of order and the split cannot be trusted.
        out_of_order += any(value < -TIMELINE_TOLERANCE for value in segments.values())
        segments["unattributed"] = wall - (job.sent - job.due) - sum(segments.values())
        for name, value in segments.items():
            parts[name].append(value)
    for name in ("submit", "queue", "spawn", "child", "collect"):
        values[f"service.{name}_s"] = median(parts[name])
    values["unattributed_s"] = median(parts["unattributed"])
    values["service.rejected"] = refused
    values["service.retries"] = retries
    values["service.late_p50_s"] = median(late)
    values["service.late_max_s"] = max(late, default=0.0)
    values["traced_op_p50_s"] = median([record["finished_at"] - job.due for job, record in timelines])
    # Nothing is wrapped during the window (the timeline is read afterwards),
    # so the traced run adds no work to a job; the segments and
    # unattributed_s add up to the latency by construction (gap 0).
    values["trace_overhead_s"] = 0.0
    samples = len(timelines)
    if out_of_order:
        outcome.notes.append(f"attribution check FAILED: {out_of_order} of {samples} "
                             f"job timelines are out of order")
    else:
        outcome.notes.append(
            f"attribution check: late + submit + queue + spawn + child + collect + "
            f"unattributed_s = job latency, segments in order, on {samples} jobs"
        )
    return {name: Metric(value, LAYER_METRICS[name], samples) for name, value in values.items()}


def measure_capacity(source_dir: Path, work_dir: Path, seed: int, size_name: str, jobs: int = 16) -> float:
    """Jobs per second when ``jobs`` jobs are submitted at once (closed burst)."""
    size = SIZES[size_name]
    server = start_server(work_dir / "capacity", seed, size, source_dir)
    try:
        started = time.time()
        ids = []
        for index in range(jobs):
            spec = dict(server.spec, tenant=f"tenant-{index % jobs}")
            status, document = server.client.submit(spec)
            if status != 202:
                raise RuntimeError(f"capacity burst refused with HTTP {status}")
            ids.append(document["id"])
        records = _wait_terminal(server, [Job(started, started, job_id) for job_id in ids])
        finished = max(record["finished_at"] for record in records.values())
        return jobs / (finished - started)
    finally:
        stop_server(server)
        shutil.rmtree(work_dir, ignore_errors=True)
