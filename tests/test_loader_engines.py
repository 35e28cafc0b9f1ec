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

    def test_narrower_schema_loads_the_prefix(self, vfs):
        """Lines wider than the schema load their first declared
        columns, converting and sampling only those."""
        vfs.create("wide.csv", b"1,2,x\n3,4,y\n")
        model = CostModel()
        rows, stats = BulkLoader(vfs, model).load("wide.csv", "w.heap",
                                                   micro_schema(2))
        assert rows == 2
        assert model.count(CostEvent.CONVERT_INT) == 4
        assert model.count(CostEvent.STATS_SAMPLE) == 4
        assert stats.column("a2").max_value == 4

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

    def test_ragged_line_fails_the_query(self, vfs):
        """A short line is malformed under the default ``on_error
        'fail'``, as PostgresRaw and the loader read it: the query
        fails naming the line and the missing column."""
        vfs.create("ragged.csv", b"1,2\n3\n4,5\n")
        db = ExternalFilesDBMS(vfs=vfs)
        create_table(db, "r", "ragged.csv", micro_schema(2))
        with pytest.raises(CSVFormatError, match="short row") as caught:
            db.query("SELECT count(*) FROM r")
        assert caught.value.context["row_number"] == 1
        assert caught.value.context["column"] == "a2"

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


#: every engine over one CSV file: the straw-man as its own engine and
#: as ``CREATE EXTERNAL TABLE`` inside PostgresRaw, the loaded DBMS and
#: PostgresRaw's own scan
ENGINES = ("external", "external table", "loaded", "raw")


def _answers(data: bytes, sql: str = "SELECT * FROM t",
             columns: str = "a1 INTEGER, a2 INTEGER", on_error=None,
             scans: int = 2):
    """Each engine's answer to ``sql`` run ``scans`` times over its own
    ``t.csv`` holding ``data``: the last scan's rows, or the
    :class:`CSVFormatError` (raised by the query, or by the load) as
    ``(row_number, column)``; and the ``__rejects__/t`` sidecar. The
    loaded DBMS always loads under ``on_error 'fail'``, so it answers
    only without a policy."""
    answers = {}
    for name in ENGINES:
        if name == "loaded" and on_error is not None:
            continue
        vfs = VirtualFS()
        vfs.create("t.csv", data)
        options = "" if on_error is None else f", on_error '{on_error}'"
        try:
            if name == "loaded":
                db = LoadedDBMS(vfs=vfs)
                db.query(f"CREATE TABLE t ({columns}) USING heap "
                         "OPTIONS (path 't.csv')")
            else:
                db = (ExternalFilesDBMS if name == "external"
                      else PostgresRaw)(vfs=vfs)
                kind = "EXTERNAL TABLE" if name == "external table" \
                    else "TABLE"
                db.query(f"CREATE {kind} t ({columns}) USING csv "
                         f"OPTIONS (path 't.csv'{options})")
            for _ in range(scans):
                answer = db.query(sql).rows
        except CSVFormatError as exc:
            answer = (exc.context.get("row_number"),
                      exc.context.get("column"))
        answers[name] = answer, (vfs.read_bytes("__rejects__/t")
                                 if vfs.exists("__rejects__/t") else None)
    return answers


def _same(answers):
    """The one answer every engine gave."""
    assert len(set(map(repr, answers.values()))) == 1, answers
    return next(iter(answers.values()))


class TestExternalAgreesWithRaw:
    """One answer to a dirty file from every engine: each reads a line
    through one record path and the table's ``on_error`` policy."""

    def test_prefix_schema_gives_the_same_rows(self):
        assert _same(_answers(b"1,2,x\n3,4,y\n5,,z\n")) == (
            [(1, 2), (3, 4), (5, None)], None)

    def test_wider_lines_warm_read_only_the_last_declared_field(self):
        """A warm scan whose map knows where the last declared column
        starts still ends it at the next delimiter, not the line's
        end."""
        assert _same(_answers(b"1,ab,x\n3,cd,y\n", "SELECT a2 FROM t",
                              "a1 INTEGER, a2 VARCHAR", scans=3)) == (
            [("ab",), ("cd",)], None)

    @pytest.mark.parametrize("data", [b"1,2\n3\n5,6\n", b"1,2\n\n5,6\n"],
                             ids=["short line", "blank line"])
    def test_short_line_fails_every_engine(self, data):
        answers = _answers(data)
        assert {row for (row, _), _ in answers.values()} == {1}
        # The engines that parse whole lines name the missing column.
        for name in ("external", "external table", "loaded"):
            assert answers[name] == ((1, "a2"), None)

    def test_bad_value_is_the_same_error(self):
        assert _same(_answers(b"1,2\n3,4\n5,x\n7,8\n")) == (
            (2, "a2"), None)

    @pytest.mark.parametrize("data", [b"1,2\n3,x\n5,6\n",
                                      b"1,2\n3\n5,6\n", b"1,2\n\n5,6\n"],
                             ids=["bad value", "short line", "blank line"])
    def test_skip_rejects_the_line_into_the_same_sidecar(self, data):
        (rows, rejects) = _same(_answers(data, on_error="skip"))
        assert rows == [(1, 2), (5, 6)]
        assert rejects.startswith(b"1\t") and rejects.count(b"\n") == 1

    @pytest.mark.parametrize("data, row", [
        (b"1,2\n3,x\n5,6\n", (3, None)), (b"1,2\n3\n5,6\n", (3, None)),
        (b"1,2\n\n5,6\n", (None, None))],
        ids=["bad value", "short line", "blank line"])
    def test_null_turns_the_missing_value_null(self, data, row):
        assert _same(_answers(data, on_error="null")) == (
            [(1, 2), row, (5, 6)], None)

    def test_untouched_bad_value_is_the_one_divergence(self):
        """Under ``'fail'`` the engines that convert every column fail
        on a value the query never touches, which PostgresRaw's
        selective parsing never reads; under a tolerant policy the
        line is redone over the touched columns alone, as PostgresRaw
        reads it."""
        data, sql = b"1,2\n3,x\n", "SELECT a1 FROM t"
        answers = _answers(data, sql)
        assert answers.pop("raw") == ([(1,), (3,)], None)
        assert _same(answers) == ((1, "a2"), None)
        assert _same(_answers(data, sql, on_error="skip")) == (
            [(1,), (3,)], None)

    def test_loader_names_the_bad_value(self, vfs):
        vfs.create("t.csv", b"1,2\n3,4\n5,x\n")
        with pytest.raises(CSVFormatError, match="cannot parse 'x'") as caught:
            LoadedDBMS(vfs=vfs).load_csv("t", "t.csv", micro_schema(2))
        assert caught.value.context["column"] == "a2"
        assert caught.value.context["row_number"] == 2
