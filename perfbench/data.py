"""Seeded inputs: a fixed synthetic population in a seeded row order.

The repository's generators re-draw which values are popular with every
seed, which moves the cost of a search by about 20% from seed to seed,
and even drawing the rows with replacement from one fixed population
moves ``nodes.checked`` and ``frequency.table_scans`` by up to 15%: at
k=2 a search turns on which rare tuples the draw happens to repeat.  So
each population is generated once with the generator's own default seed,
and ``--seed`` only shuffles its rows.  Different seeds are different
tables (row order, and with it the order of every scan and of the
base/delta split of the append workload), the output checks see tables
the recorded digests were not made from, and a search does the same work
on every seed, so run-to-run spread measures the program and the host.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.datasets.adults import ADULTS_QI, adults_hierarchies, adults_table
from repro.datasets.landsend import LANDSEND_QI, landsend_hierarchies, landsend_table
from repro.relational.table import Table


def shuffle_rows(population: Table, seed: int) -> Table:
    """``population``'s rows in an order drawn from ``seed``."""
    order = np.random.default_rng(seed).permutation(population.num_rows)
    return Table(population.schema, [column.take(order) for column in population.columns()])


def adults(rows: int, qi_size: int, seed: int) -> tuple[Table, dict[str, Any], tuple[str, ...]]:
    """Synthetic Adults: (table, hierarchies of the QI, QI = first ``qi_size`` attributes)."""
    qi = ADULTS_QI[:qi_size]
    hierarchies = adults_hierarchies()
    return shuffle_rows(adults_table(rows), seed), {a: hierarchies[a] for a in qi}, qi


def landsend(rows: int, qi_size: int, seed: int) -> tuple[Table, dict[str, Any], tuple[str, ...]]:
    """Synthetic Lands End: (table, hierarchies of the QI, QI = first ``qi_size`` attributes)."""
    qi = LANDSEND_QI[:qi_size]
    hierarchies = landsend_hierarchies()
    return shuffle_rows(landsend_table(rows), seed), {a: hierarchies[a] for a in qi}, qi
