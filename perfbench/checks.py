"""Output checks that do not trust the code under test.

Every op's result is reduced to a digest of what a user would act on: the
sorted set of k-anonymous nodes plus the ``nodes.checked`` and
``frequency.table_scans`` counters.  The benchmark compares each digest
with the run's own first op and, on the default seed, with the digest
recorded in ``digests.json``.  Once per run, one minimal node's released
quasi-identifier tuples are re-counted with :class:`collections.Counter`
straight from the raw column values and the abstract hierarchies, so the
k-anonymity claim is checked without the program's group-by or compiled
hierarchies.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Any, Mapping

DIGESTS_FILE = Path(__file__).with_name("digests.json")

#: Rows re-counted per block by :func:`recount_min_group`.
RECOUNT_BLOCK_ROWS = 65_536


def result_summary(result: Any) -> dict[str, Any]:
    """The checked part of one search result."""
    counters = result.stats.as_dict()
    return {
        "nodes": sorted(node.label() for node in result.anonymous_nodes),
        "nodes.checked": int(counters["nodes.checked"]),
        "frequency.table_scans": int(counters["frequency.table_scans"]),
    }


def digest(document: Any) -> str:
    """Stable sha256 of a JSON-serialisable document."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def recorded_digest(key: str) -> str | None:
    """The digest recorded for ``key`` (workload/size/seed/op), if any."""
    if not DIGESTS_FILE.exists():
        return None
    return json.loads(DIGESTS_FILE.read_text()).get(key)


def minimal_node(nodes: list[Any]) -> Any:
    """The lowest node by total height, ties broken by label."""
    return min(nodes, key=lambda node: (sum(node.levels), node.label()))


def recount_min_group(
    table: Any, hierarchies: Mapping[str, Any], node: Any
) -> tuple[int, int]:
    """Re-count ``node``'s generalized QI tuples; return (min count, rows).

    Each column's raw values are generalized with the abstract
    ``Hierarchy.generalize`` (one call per distinct value), then the
    released tuples are counted with :class:`collections.Counter`, a block
    of rows at a time so the check adds little to the run's peak memory.
    """
    columns = []
    for attribute, level in node.items():
        column = table.column(attribute)
        hierarchy = hierarchies[attribute]
        generalized = [hierarchy.generalize(value, level) for value in column.values]
        columns.append((generalized, column.codes))
    counts: Counter = Counter()
    for start in range(0, table.num_rows, RECOUNT_BLOCK_ROWS):
        stop = start + RECOUNT_BLOCK_ROWS
        block = [
            [generalized[code] for code in codes[start:stop].tolist()]
            for generalized, codes in columns
        ]
        counts.update(zip(*block))
    return min(counts.values()), sum(counts.values())


def check_k_anonymous(
    table: Any, hierarchies: Mapping[str, Any], nodes: list[Any], k: int
) -> str | None:
    """None when a minimal released node really is k-anonymous, else why not."""
    if not nodes:
        return "no anonymous node was returned"
    node = minimal_node(nodes)
    smallest, rows = recount_min_group(table, hierarchies, node)
    if rows != table.num_rows:
        return f"{node.label()}: recount covers {rows} of {table.num_rows} rows"
    if smallest < k:
        return f"{node.label()}: smallest released group has {smallest} < k={k} rows"
    return None
