"""Dataset connectors: reference parsing and problem resolution."""

from __future__ import annotations

import sqlite3

import pytest

from repro.datasets.adults import ADULTS_QI
from repro.datasets.landsend import LANDSEND_QI
from repro.service.connectors import (
    ConnectorError,
    describe_connectors,
    load_problem,
    load_table,
    parse_ref,
    register_memory_dataset,
    spill_memory_dataset,
    unregister_memory_dataset,
)
from repro.service.jobs import JobSpec
from tests.service.conftest import (
    HIERARCHY_SPECS,
    QI,
    small_table,
    write_dataset_csv,
)


class TestParseRef:
    def test_full_reference_with_params(self):
        assert parse_ref("builtin:adults?rows=2000&qi=4") == (
            "builtin",
            "adults",
            {"rows": "2000", "qi": "4"},
        )

    def test_bare_name_is_builtin_shorthand(self):
        assert parse_ref("adults") == ("builtin", "adults", {})

    def test_sqlite_fragment_stays_in_target(self):
        kind, target, params = parse_ref("sqlite:/tmp/db.sqlite#people")
        assert (kind, target, params) == ("sqlite", "/tmp/db.sqlite#people", {})

    def test_case_and_whitespace_normalised(self):
        assert parse_ref("  CSV:/data/x.csv ")[0] == "csv"

    @pytest.mark.parametrize(
        "bad", ["", "   ", "ftp:/x", "csv:", "memory:", None, 7]
    )
    def test_rejects_malformed_references(self, bad):
        with pytest.raises(ConnectorError):
            parse_ref(bad)


class TestMemoryConnector:
    def test_register_load_unregister(self):
        register_memory_dataset("conn-t1", small_table())
        try:
            assert "conn-t1" in describe_connectors()["memory_datasets"]
            table = load_table("memory:conn-t1")
            assert table.num_rows == small_table().num_rows
        finally:
            unregister_memory_dataset("conn-t1")
        with pytest.raises(ConnectorError, match="no memory dataset"):
            load_table("memory:conn-t1")

    def test_empty_name_rejected(self):
        with pytest.raises(ConnectorError):
            register_memory_dataset("", small_table())

    def test_spill_rewrites_to_csv(self, tmp_path):
        register_memory_dataset("conn-spill", small_table())
        try:
            spec = JobSpec(
                dataset="memory:conn-spill",
                k=2,
                qi=tuple(QI),
                hierarchies=HIERARCHY_SPECS,
            )
            spilled = spill_memory_dataset(spec, tmp_path / "job")
        finally:
            unregister_memory_dataset("conn-spill")
        assert spilled.dataset == f"csv:{tmp_path / 'job' / 'dataset.csv'}"
        # The spilled problem is the registered table, byte for byte —
        # and resolvable after the registry entry (or process) is gone.
        problem = load_problem(spilled)
        assert problem.table.num_rows == small_table().num_rows
        assert list(problem.quasi_identifier) == QI

    def test_spill_passes_non_memory_through(self, tmp_path):
        spec = JobSpec(dataset="builtin:adults", k=2)
        assert spill_memory_dataset(spec, tmp_path) is spec

    def test_spill_unregistered_is_an_error(self, tmp_path):
        spec = JobSpec(dataset="memory:never-registered", k=2)
        with pytest.raises(ConnectorError):
            spill_memory_dataset(spec, tmp_path)


class TestCsvConnector:
    def test_load_problem_with_hierarchy_spec(self, tmp_path):
        ref = write_dataset_csv(tmp_path)
        spec = JobSpec(
            dataset=ref, k=2, qi=tuple(QI), hierarchies=HIERARCHY_SPECS
        )
        problem = load_problem(spec)
        assert list(problem.quasi_identifier) == QI
        assert problem.table.num_rows == 12

    def test_qi_defaults_to_hierarchy_keys(self, tmp_path):
        ref = write_dataset_csv(tmp_path)
        spec = JobSpec(dataset=ref, k=2, hierarchies=HIERARCHY_SPECS)
        assert list(load_problem(spec).quasi_identifier) == list(
            HIERARCHY_SPECS
        )

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ConnectorError, match="does not exist"):
            load_table(f"csv:{tmp_path / 'absent.csv'}")

    def test_missing_hierarchies_is_an_error(self, tmp_path):
        ref = write_dataset_csv(tmp_path)
        with pytest.raises(ConnectorError, match="hierarchies"):
            load_problem(JobSpec(dataset=ref, k=2))

    def test_unknown_qi_column_is_an_error(self, tmp_path):
        ref = write_dataset_csv(tmp_path)
        spec = JobSpec(
            dataset=ref,
            k=2,
            qi=("age", "nope"),
            hierarchies=HIERARCHY_SPECS,
        )
        with pytest.raises(ConnectorError, match="nope"):
            load_problem(spec)


class TestSqliteConnector:
    @pytest.fixture
    def database(self, tmp_path):
        path = tmp_path / "data.sqlite"
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE people (age TEXT, sex TEXT)")
        connection.executemany(
            "INSERT INTO people VALUES (?, ?)",
            [(age, sex) for age, sex in zip(
                ["21", "22", "31", "32"], ["M", "F", "M", "F"]
            )],
        )
        connection.commit()
        connection.close()
        return path

    def test_load_table(self, database):
        table = load_table(f"sqlite:{database}#people")
        assert table.num_rows == 4
        assert list(table.schema.names) == ["age", "sex"]

    def test_load_problem(self, database):
        spec = JobSpec(
            dataset=f"sqlite:{database}#people",
            k=2,
            hierarchies=HIERARCHY_SPECS,
        )
        assert load_problem(spec).table.num_rows == 4

    def test_missing_table_name_is_an_error(self, database):
        with pytest.raises(ConnectorError, match="must name a table"):
            load_table(f"sqlite:{database}")

    def test_unknown_table_is_an_error(self, database):
        with pytest.raises(ConnectorError, match="not found"):
            load_table(f"sqlite:{database}#ghosts")

    def test_missing_database_is_an_error(self, tmp_path):
        with pytest.raises(ConnectorError, match="does not exist"):
            load_table(f"sqlite:{tmp_path / 'absent.sqlite'}#people")


class TestBuiltinParams:
    def test_unknown_builtin_is_an_error(self):
        with pytest.raises(ConnectorError, match="unknown builtin"):
            load_problem(JobSpec(dataset="builtin:census", k=2))

    @pytest.mark.parametrize("ref", [
        "builtin:adults?rows=abc",
        "builtin:adults?rows=0",
        "builtin:adults?qi=-1",
    ])
    def test_bad_parameters_are_errors(self, ref):
        with pytest.raises(ConnectorError):
            load_problem(JobSpec(dataset=ref, k=2))

    @pytest.mark.parametrize("name, full_qi", [
        ("adults", ADULTS_QI),
        ("landsend", LANDSEND_QI),
    ])
    def test_missing_qi_param_means_every_attribute(self, name, full_qi):
        problem = load_problem(JobSpec(dataset=f"builtin:{name}?rows=2000", k=2))
        assert problem.quasi_identifier == tuple(full_qi)
        assert problem.num_rows == 2000

    def test_load_table_refuses_builtin(self):
        with pytest.raises(ConnectorError):
            load_table("builtin:adults")
