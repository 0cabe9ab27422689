"""Each fixture under ``fixtures/`` trips exactly its intended rule."""

from pathlib import Path

import pytest

from repro.analysis import active, all_rules, analyze_paths, rules_by_id

FIXTURES = Path(__file__).parent / "fixtures"

CASES = [
    ("ra001_unseeded.py", {"RA001"}),
    ("ra002_unknown_counter.py", {"RA002"}),
    ("ra002_unknown_metric.py", {"RA002"}),
    ("ra003_shared_state.py", {"RA003"}),
    ("ra003_helper_global.py", {"RA003"}),
    ("ra004_plain_write.py", {"RA004"}),
    ("ra005_undocumented_flag.py", {"RA005"}),
    ("ra006_lock_across_join.py", {"RA006"}),
    ("ra007_blocking_coroutine.py", {"RA007"}),
    ("ra008_leaked_segment.py", {"RA008"}),
    ("ra009_rename_before_fsync.py", {"RA009"}),
    ("clean.py", set()),
]


@pytest.mark.parametrize("name,expected", CASES, ids=[c[0] for c in CASES])
def test_fixture_trips_exactly_its_rule(name, expected):
    findings = active(analyze_paths([FIXTURES / name]))
    assert {finding.rule for finding in findings} == expected
    if expected:
        # One deliberate violation per fixture, pinpointed to a line.
        assert len(findings) == 1
        assert findings[0].line > 0
        assert findings[0].path.endswith(name)


def test_fixture_directory_as_a_whole():
    findings = active(analyze_paths([FIXTURES]))
    assert {finding.rule for finding in findings} == {
        "RA001",
        "RA002",
        "RA003",
        "RA004",
        "RA005",
        "RA006",
        "RA007",
        "RA008",
        "RA009",
    }


NEW_RULE_FIXTURES = [
    ("ra006_lock_across_join.py", "RA006"),
    ("ra007_blocking_coroutine.py", "RA007"),
    ("ra008_leaked_segment.py", "RA008"),
    ("ra009_rename_before_fsync.py", "RA009"),
]


@pytest.mark.parametrize(
    "name,rule", NEW_RULE_FIXTURES, ids=[c[1] for c in NEW_RULE_FIXTURES]
)
def test_new_rule_fixture_has_a_suppressed_twin(name, rule):
    """Each concurrency/lifecycle fixture carries one firing case and
    one justified-suppression case of its own rule."""
    findings = analyze_paths([FIXTURES / name])
    firing = [f for f in findings if f.rule == rule and not f.suppressed]
    suppressed = [f for f in findings if f.rule == rule and f.suppressed]
    assert len(firing) == 1
    assert len(suppressed) == 1
    assert suppressed[0].justification


def test_rule_ids_are_unique_and_described():
    rules = all_rules()
    ids = [rule.rule_id for rule in rules]
    assert len(ids) == len(set(ids))
    for rule in rules:
        assert rule.title and rule.rationale


def test_rules_by_id_selects_and_rejects():
    selected = rules_by_id(["RA004", "RA001"])
    assert [rule.rule_id for rule in selected] == ["RA004", "RA001"]
    with pytest.raises(ValueError, match="RA999"):
        rules_by_id(["RA999"])


def test_syntax_error_surfaces_as_ra000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    findings = active(analyze_paths([bad]))
    assert [finding.rule for finding in findings] == ["RA000"]
