"""Pin the candidate graphs and counters one Incognito search produces.

Basic Incognito runs on a small fixed Adults input while every candidate
graph that ``graph_generation`` hands the search is recorded: the node
order, each node's direct-generalization order and the edge list.  Those
orders fix the BFS entry order and so the batches the evaluator sees.  The
digest, the released nodes and every ``nodes.*`` / ``frequency.*`` counter
below were recorded from the ``LatticeNode``-based generator; an encoding
change inside generation or the search must reproduce them bit for bit.
"""

import hashlib

import pytest

import repro.core.incognito as incognito
from repro.core.incognito import basic_incognito
from repro.core.problem import PreparedTable
from repro.datasets.adults import ADULTS_QI, adults_hierarchies, adults_table
from repro.lattice.node import LatticeNode

ROWS = 3_000
QI_SIZE = 6

GRAPH_SHA256 = "b40c72351c3f4f773c42a639384c0d3369257c56c9f4dc86514ebbd38b8d895c"
GRAPH_NODES = [92, 213, 277, 183, 48]
GRAPH_EDGES = [109, 315, 484, 363, 105]
ANONYMOUS_SHA256 = "59cf1ee1118cec38084b888e0b5786c9996b7bd0f0f1ee03c16a92889332ab7e"
ANONYMOUS_COUNT = 48
COUNTERS = {
    "frequency.peak_rows": 275,
    "frequency.rollup_source_rows": 3152,
    "frequency.rollups": 40,
    "frequency.rows": 8327,
    "frequency.table_scans": 168,
    "nodes.checked": 208,
    "nodes.checked_by_size.1": 10,
    "nodes.checked_by_size.2": 34,
    "nodes.checked_by_size.3": 56,
    "nodes.checked_by_size.4": 60,
    "nodes.checked_by_size.5": 38,
    "nodes.checked_by_size.6": 10,
    "nodes.generated": 832,
    "nodes.marked": 5,
}


def _label(node) -> str:
    return ",".join(f"{a}={l}" for a, l in node.items())


def run_recorded(rows: int = ROWS, qi_size: int = QI_SIZE):
    """Basic Incognito, k=2, recording every graph ``graph_generation`` builds.

    ``run_recorded(45_222, 8)`` is the full-size adults-q8 search; its
    graph digest is the fingerprint quoted in CHANGES.md.
    """
    qi = ADULTS_QI[:qi_size]
    hierarchies = adults_hierarchies()
    problem = PreparedTable(
        adults_table(rows), {name: hierarchies[name] for name in qi}, qi
    )
    original = incognito.graph_generation
    records: list[str] = []
    sizes: list[tuple[int, int]] = []

    def recording(survivors, order):
        graph = original(survivors, order)
        lines = [f"graph {len(records)}"]
        for node in graph.nodes:
            ups = graph.direct_generalizations(node)
            lines.append(_label(node) + " -> " + " | ".join(map(_label, ups)))
        for start, end in graph.edges():
            lines.append(f"edge {_label(start)} {_label(end)}")
        records.append("\n".join(lines))
        sizes.append((len(graph), graph.num_edges()))
        return graph

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incognito, "graph_generation", recording)
        result = basic_incognito(problem, 2)
    return records, sizes, result


@pytest.fixture(scope="module")
def pinned_run():
    return run_recorded()


class TestSearchPin:
    def test_graph_digest(self, pinned_run):
        records, sizes, _ = pinned_run
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        assert [nodes for nodes, _ in sizes] == GRAPH_NODES
        assert [edges for _, edges in sizes] == GRAPH_EDGES
        assert digest == GRAPH_SHA256

    def test_anonymous_nodes(self, pinned_run):
        _, _, result = pinned_run
        released = result.anonymous_nodes
        assert released == sorted(released, key=LatticeNode.sort_key)
        labels = sorted(_label(node) for node in released)
        assert len(labels) == ANONYMOUS_COUNT
        digest = hashlib.sha256("\n".join(labels).encode()).hexdigest()
        assert digest == ANONYMOUS_SHA256

    def test_counters(self, pinned_run):
        _, _, result = pinned_run
        snapshot = result.stats.counters.as_dict()
        pinned = {
            name: value
            for name, value in snapshot.items()
            if name.startswith(("nodes.", "frequency."))
        }
        assert pinned == COUNTERS
