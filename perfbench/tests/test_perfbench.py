"""End-to-end tests of the benchmark itself, at reduced input size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import search, service  # noqa: E402
from perfbench.run import DEFAULT_SEED, WORK, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORT_LINE = re.compile(r"^  (\S+)\s+(-?[0-9.e+-]+|nan|inf)\s+(\S+)\s+n=(\d+)$")
LATENCY = {
    "adults-q8": "search_p50_s",
    "landsend-1m": "search_p50_s",
    "landsend-append": "append_p50_s",
    "service-jobs": "job_p50_s",
}


def _run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _sections(stdout: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Per workload: every printed metric line as name -> (unit, samples)."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: dict[str, tuple[str, int]] = {}
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = sections.setdefault(line.split()[1], {})
            continue
        match = REPORT_LINE.match(line)
        if match:
            current[match.group(1)] = (match.group(3), int(match.group(4)))
    return sections


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_prints_every_metric(trace: int) -> None:
    completed = _run("all", trace, "--size", "small")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    sections = _sections(completed.stdout)
    assert set(sections) == set(WORKLOADS)
    for workload, printed in sections.items():
        for metric in declared:
            assert result["metrics"][f"{workload}/{metric['name']}"]["unit"] == metric["unit"]
        # The human report: every metric by name, with its unit and sample count.
        expected = {LATENCY[workload], "setup_s", "peak_rss_mb", "error_rate"}
        if trace:
            expected |= {metric["name"] for metric in declared}
        assert expected <= set(printed), expected - set(printed)
        assert all(samples >= 1 for _, samples in printed.values())
    assert "attribution check FAILED" not in completed.stdout


def test_capacity_probe() -> None:
    completed = _run("service-jobs", 0, "--size", "small", "--capacity")
    assert completed.returncode == 0, completed.stderr
    assert re.fullmatch(r"service capacity: [0-9.]+ jobs/s", completed.stdout.strip())


def _drop_one_node(original, corrupt_call: int):
    calls = []

    def search_then_corrupt(problem, k):
        result = original(problem, k)
        calls.append(1)
        if len(calls) == corrupt_call:
            result.anonymous_nodes = result.anonymous_nodes[1:]
        return result

    return search_then_corrupt


@pytest.mark.parametrize(
    ("seed", "corrupt_call"),
    [
        (DEFAULT_SEED + 1, 2),  # caught by comparison with the run's first op
        (DEFAULT_SEED, 1),  # first op wrong: caught by the recorded digest
    ],
)
def test_dropped_node_counts_as_failed_op(monkeypatch, seed: int, corrupt_call: int) -> None:
    monkeypatch.setattr(
        search, "basic_incognito", _drop_one_node(search.basic_incognito, corrupt_call)
    )
    outcome = search.run("adults-q8", seed, 0.5, False, "small", default_seed=DEFAULT_SEED)
    assert outcome.attempted >= 3
    assert outcome.failed == 1
    assert "digest" in outcome.failures[0]


def test_wrong_service_result_counts_as_failed_op(monkeypatch) -> None:
    original = service.run_job_inline

    def wrong_reference(spec):
        payload = original(spec)
        payload["anonymous_nodes"] = payload["anonymous_nodes"][1:]
        return payload

    monkeypatch.setattr(service, "run_job_inline", wrong_reference)
    work = WORK / "test-service"
    outcome = service.run(
        "service-jobs", DEFAULT_SEED + 1, 1.0, False, "small",
        default_seed=DEFAULT_SEED, work_dir=work, source_dir=ROOT / "src",
    )
    assert outcome.attempted >= 1
    assert outcome.failed == outcome.attempted
    assert not work.exists()


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("adults-q8", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
