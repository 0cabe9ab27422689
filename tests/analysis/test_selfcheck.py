"""The merged tree is lint-clean, and the gate actually bites.

Three properties:

* ``src/repro`` has zero *active* findings — the CI ``--strict`` gate on
  the real tree, run in-process;
* the obs registry and ``SearchStats`` agree about the counter namespace;
* mutating one counter literal (the CI canary: ``cache.hits`` →
  ``cache.hitz`` in ``fscache.py``) makes RA002 fire — the gate cannot
  silently pass a renamed counter.
"""

import io
import json
from pathlib import Path

from repro.analysis import active, all_rules, analyze_paths
from repro.analysis.__main__ import main
from repro.analysis.reporting import render_json
from repro.core.stats import _COUNTER_KEYS
from repro.obs.registry import default_registry

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"


def test_src_tree_has_no_active_findings():
    findings = analyze_paths([SRC])
    assert active(findings) == [], "\n".join(
        finding.render() for finding in active(findings)
    )


def test_sanctioned_suppressions_are_present_and_justified():
    findings = analyze_paths([SRC])
    suppressed = [finding for finding in findings if finding.suppressed]
    # The sanctioned sites: the worker-resident problem's write in
    # init_worker (one call below the shards initializer) and its read in
    # run_chunk, the atomic-write primitive's own temp-file open, and the tracer's
    # wall-clock anchor (the one deliberate time.time() that lets spans
    # from different processes stitch onto a shared clock).
    assert {(f.rule, Path(f.path).name) for f in suppressed} == {
        ("RA003", "worker.py"),
        ("RA004", "atomicio.py"),
        ("RA001", "trace.py"),
    }
    assert all(finding.justification for finding in suppressed)


def test_registry_and_stats_agree():
    registry = default_registry()
    for dotted in _COUNTER_KEYS.values():
        assert registry.allows_counter(dotted), dotted
    for span in ("scan", "rollup", "project", "groupby", "parallel.batch"):
        assert registry.allows_span(span), span
    for metric in (
        "latency.scan_seconds",
        "worker.rss_bytes",
        "dist.frequency_set_rows",
    ):
        assert registry.allows_metric(metric), metric
    assert not registry.allows_metric("latency.nope_seconds")
    document = registry.as_document()
    assert set(document) == {
        "counters",
        "counter_prefixes",
        "metrics",
        "spans",
    }
    assert document["counters"] == sorted(document["counters"])
    assert document["metrics"] == sorted(document["metrics"])


def test_renamed_counter_literal_fails_ra002(tmp_path):
    """The CI canary, in miniature: rename one literal, RA002 must fire."""
    source = (SRC / "core" / "fscache.py").read_text()
    assert 'incr("cache.hits")' in source
    mutated = tmp_path / "fscache.py"
    mutated.write_text(source.replace('"cache.hits"', '"cache.hitz"'))
    findings = active(analyze_paths([mutated]))
    assert any(
        finding.rule == "RA002" and "cache.hitz" in finding.message
        for finding in findings
    )


def test_cli_strict_exit_codes(tmp_path, capsys):
    clean = Path(__file__).parent / "fixtures" / "clean.py"
    dirty = Path(__file__).parent / "fixtures" / "ra004_plain_write.py"
    assert main([str(clean), "--strict"]) == 0
    assert main([str(dirty)]) == 0  # advisory mode never gates
    assert main([str(dirty), "--strict"]) == 1
    assert main(["--list-rules"]) == 0
    capsys.readouterr()
    assert main([str(dirty), "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["active"] == 1
    assert document["findings"][0]["rule"] == "RA004"


def test_json_reporter_round_trips():
    findings = analyze_paths(
        [Path(__file__).parent / "fixtures" / "ra002_unknown_counter.py"]
    )
    buffer = io.StringIO()
    render_json(findings, buffer)
    document = json.loads(buffer.getvalue())
    assert document["active"] == 1
    assert document["suppressed"] == 0
    assert document["findings"][0]["rule"] == "RA002"
