"""Tests for the bulk loader, LoadedDBMS, and ExternalFilesDBMS."""

import pytest

from repro import (
    CSV_ENGINE_PROFILE,
    DBMS_X_PROFILE,
    ExternalFilesDBMS,
    LoadedDBMS,
    PostgresRaw,
    VirtualFS,
)
from repro.errors import CSVFormatError
from repro.simcost.clock import CostEvent
from repro.simcost.model import CostModel
from repro.storage.loader import BulkLoader
from repro.workloads.micro import generate_micro_csv, micro_schema
from tests.conftest import PEOPLE_CSV, create_table, people_schema


class TestBulkLoader:
    def test_load_produces_queryable_heap(self, people_vfs):
        db = LoadedDBMS(vfs=people_vfs)
        elapsed = db.load_csv("people", "people.csv", people_schema())
        assert elapsed > 0
        assert db.query("SELECT count(*) FROM people").scalar() == 5

    def test_load_charges_full_conversion(self, people_vfs):
        model = CostModel()
        loader = BulkLoader(people_vfs, model)
        rows, _ = loader.load("people.csv", "people.heap", people_schema())
        assert rows == 5
        # Every attribute of every row converted: 2 ints per row.
        assert model.count(CostEvent.CONVERT_INT) == 10
        assert model.count(CostEvent.CONVERT_FLOAT) == 5
        assert model.count(CostEvent.CONVERT_DATE) == 5
        assert model.count(CostEvent.SERIALIZE) == 25
        assert model.count(CostEvent.DISK_WRITE) > 0

    def test_load_builds_statistics(self, people_vfs):
        db = LoadedDBMS(vfs=people_vfs)
        db.load_csv("people", "people.csv", people_schema())
        stats = db.catalog.get("people").stats
        assert stats.row_count == 5
        assert stats.column("age").min_value == 25
        assert stats.column("age").max_value == 35

    def test_load_rejects_ragged_rows(self, vfs):
        vfs.create("bad.csv", b"1,2\n3\n")
        loader = BulkLoader(vfs, CostModel())
        with pytest.raises(CSVFormatError):
            loader.load("bad.csv", "bad.heap", micro_schema(2))

    def test_reload_overwrites(self, people_vfs):
        model = CostModel()
        loader = BulkLoader(people_vfs, model)
        loader.load("people.csv", "p.heap", people_schema())
        rows, _ = loader.load("people.csv", "p.heap", people_schema())
        assert rows == 5


class TestLoadedDBMS:
    def test_load_time_on_engine_clock(self, people_vfs):
        db = LoadedDBMS(vfs=people_vfs)
        elapsed = db.load_csv("people", "people.csv", people_schema())
        assert db.elapsed() == pytest.approx(elapsed)

    def test_queries_do_not_reconvert(self, people_vfs):
        db = LoadedDBMS(vfs=people_vfs)
        db.load_csv("people", "people.csv", people_schema())
        conversions = db.model.count(CostEvent.CONVERT_INT)
        db.query("SELECT age FROM people")
        assert db.model.count(CostEvent.CONVERT_INT) == conversions
        assert db.model.count(CostEvent.DESERIALIZE) > 0

    def test_buffer_pool_warms_up(self, people_vfs):
        db = LoadedDBMS(vfs=people_vfs)
        db.load_csv("people", "people.csv", people_schema())
        db.query("SELECT age FROM people")
        misses_first = db.pool.misses
        db.query("SELECT age FROM people")
        assert db.pool.misses == misses_first
        assert db.pool.hits > 0

    def test_restart_clears_buffer_pool(self, people_vfs):
        db = LoadedDBMS(vfs=people_vfs)
        db.load_csv("people", "people.csv", people_schema())
        db.query("SELECT age FROM people")
        db.restart()
        misses = db.pool.misses
        db.query("SELECT age FROM people")
        assert db.pool.misses > misses

    def test_deform_width_prefix(self, people_vfs):
        # Deserialization is charged up to the largest needed attribute
        # (heap tuples deform left-to-right, like selective tokenizing).
        db_low = LoadedDBMS(vfs=people_vfs)
        db_low.load_csv("people", "people.csv", people_schema())
        fresh = VirtualFS()
        fresh.create("people.csv", PEOPLE_CSV)
        db_high = LoadedDBMS(vfs=fresh)
        db_high.load_csv("people", "people.csv", people_schema())

        base_low = db_low.model.count(CostEvent.DESERIALIZE)
        db_low.query("SELECT id FROM people")          # attr 0
        low = db_low.model.count(CostEvent.DESERIALIZE) - base_low
        base_high = db_high.model.count(CostEvent.DESERIALIZE)
        db_high.query("SELECT birth FROM people")      # attr 4
        high = db_high.model.count(CostEvent.DESERIALIZE) - base_high
        assert low < high

    def test_dbms_x_profile_prices_differ(self, people_vfs):
        postgres = LoadedDBMS(vfs=people_vfs)
        postgres.load_csv("people", "people.csv", people_schema())
        fresh = VirtualFS()
        fresh.create("people.csv", PEOPLE_CSV)
        dbms_x = LoadedDBMS(profile=DBMS_X_PROFILE, vfs=fresh)
        dbms_x.load_csv("people", "people.csv", people_schema())
        q = "SELECT sum(age) FROM people"
        pg_time = postgres.query(q).elapsed
        dx_time = dbms_x.query(q).elapsed
        assert dx_time < pg_time  # faster commercial executor (§5.1.4)


class TestExternalFilesDBMS:
    def test_instant_registration(self, people_vfs):
        db = ExternalFilesDBMS(vfs=people_vfs)
        create_table(db, "people", "people.csv", people_schema())
        assert db.elapsed() == 0.0

    def test_correct_results(self, people_vfs):
        db = ExternalFilesDBMS(vfs=people_vfs)
        create_table(db, "people", "people.csv", people_schema())
        result = db.query("SELECT name FROM people WHERE age = 25 "
                          "ORDER BY name")
        assert result.column("name") == ["bob", "erin"]

    def test_every_query_reparses_everything(self, people_vfs):
        db = ExternalFilesDBMS(vfs=people_vfs)
        create_table(db, "people", "people.csv", people_schema())
        db.query("SELECT id FROM people")
        first = db.model.count(CostEvent.CONVERT_INT)
        db.query("SELECT id FROM people")
        # No learning: the same full conversion cost again (§3.1).
        assert db.model.count(CostEvent.CONVERT_INT) == 2 * first
        # And the straw-man converts ALL attributes, not just id.
        assert first == 10  # 2 int attrs x 5 rows

    def test_no_statistics_for_optimizer(self, people_vfs):
        db = ExternalFilesDBMS(vfs=people_vfs)
        create_table(db, "people", "people.csv", people_schema())
        db.query("SELECT id FROM people")
        assert db.catalog.get("people").stats is None
        assert db.use_statistics is False

    def test_ragged_lines_skipped(self, vfs):
        vfs.create("ragged.csv", b"1,2\n3\n4,5\n")
        db = ExternalFilesDBMS(vfs=vfs)
        create_table(db, "r", "ragged.csv", micro_schema(2))
        assert db.query("SELECT count(*) FROM r").scalar() == 2

    def test_lines_wider_than_the_schema_are_read(self, vfs):
        """Two declared columns over a three-field file: every line is
        a row, its third field ignored — as PostgresRaw reads it."""
        vfs.create("wide.csv", b"1,2,9\n3,4,9\n5,6,9\n")
        db = ExternalFilesDBMS(vfs=vfs)
        create_table(db, "w", "wide.csv", micro_schema(2))
        assert db.query("SELECT a1, a2 FROM w").rows == [
            (1, 2), (3, 4), (5, 6)]

    def test_csv_engine_profile_default(self, people_vfs):
        db = ExternalFilesDBMS(vfs=people_vfs)
        assert db.model.profile is CSV_ENGINE_PROFILE

    def test_updates_visible_without_invalidation(self, people_vfs):
        db = ExternalFilesDBMS(vfs=people_vfs)
        create_table(db, "people", "people.csv", people_schema())
        assert db.query("SELECT count(*) FROM people").scalar() == 5
        people_vfs.append_bytes("people.csv",
                                b"6,frank,41,175.0,1983-02-11\n")
        assert db.query("SELECT count(*) FROM people").scalar() == 6


def _external_engines(vfs):
    """The straw-man as its own engine and as ``CREATE EXTERNAL TABLE``
    inside PostgresRaw, next to PostgresRaw's own scan: the three must
    agree on what a raw file says."""
    external = ExternalFilesDBMS(vfs=vfs)
    create_table(external, "t", "t.csv", micro_schema(2))
    inside = PostgresRaw(vfs=vfs)
    inside.query("CREATE EXTERNAL TABLE t (a1 INTEGER, a2 INTEGER) "
                 "USING csv OPTIONS (path 't.csv')")
    raw = PostgresRaw(vfs=vfs)
    create_table(raw, "t", "t.csv", micro_schema(2))
    return {"external": external, "external table": inside, "raw": raw}


class TestExternalAgreesWithRaw:
    def test_prefix_schema_gives_the_same_rows(self, vfs):
        vfs.create("t.csv", b"1,2,x\n3,4,y\n5,,z\n")
        answers = {name: db.query("SELECT a1, a2 FROM t").rows
                   for name, db in _external_engines(vfs).items()}
        assert answers == {name: [(1, 2), (3, 4), (5, None)]
                           for name in answers}

    def test_bad_value_is_the_same_error(self, vfs):
        vfs.create("t.csv", b"1,2\n3,4\n5,x\n7,8\n")
        errors = {}
        for name, db in _external_engines(vfs).items():
            with pytest.raises(CSVFormatError) as caught:
                db.query("SELECT a1, a2 FROM t")
            context = caught.value.context
            errors[name] = (context.get("column"), context.get("row_number"))
        assert errors == {name: ("a2", 2) for name in errors}

    def test_loader_names_the_bad_value(self, vfs):
        vfs.create("t.csv", b"1,2\n3,4\n5,x\n")
        with pytest.raises(CSVFormatError, match="cannot parse 'x'") as caught:
            LoadedDBMS(vfs=vfs).load_csv("t", "t.csv", micro_schema(2))
        assert caught.value.context["column"] == "a2"
        assert caught.value.context["row_number"] == 2
