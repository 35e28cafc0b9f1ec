"""CREATE TABLE AS SELECT: instant materialization through the heap
adapter.

CTAS runs the query through the normal planner (so it can itself be
routed to a rollup), infers a schema from the result values (falling
back to expression types for empty/all-NULL columns), and lands the
rows in a heap file like any loaded table — queryable immediately,
DESCRIBE-able, and DROP-able.
"""

from __future__ import annotations

import pytest

import repro
from repro import LoadedDBMS, PostgresRaw, VirtualFS
from repro.errors import CatalogError

from conftest import PEOPLE_CSV, create_table, people_schema


@pytest.fixture
def raw() -> PostgresRaw:
    fs = VirtualFS()
    fs.create("people.csv", PEOPLE_CSV)
    db = PostgresRaw(vfs=fs)
    create_table(db, "people", "people.csv", people_schema())
    return db


class TestCtasBasics:
    def test_roundtrip_preserves_rows_and_order(self, raw):
        direct = raw.query(
            "SELECT name, age FROM people WHERE age > 26 ORDER BY age")
        result = raw.query("CREATE TABLE adults AS "
                           "SELECT name, age FROM people WHERE age > 26 "
                           "ORDER BY age")
        assert result.rows == [("CREATE TABLE adults AS SELECT (3 rows)",)]
        # heap storage preserves the SELECT's output order
        assert raw.query("SELECT name, age FROM adults").rows == direct.rows

    def test_registered_as_heap(self, raw):
        raw.query("CREATE TABLE t2 AS SELECT id, name FROM people")
        info = raw.catalog.get("t2")
        assert info.format == "heap"
        show = raw.query("SHOW TABLES")
        assert ("t2", "heap", 2, info.path) in show.rows

    def test_inferred_types(self, raw):
        raw.query("CREATE TABLE summary AS "
                  "SELECT age, count(*) AS n, sum(height) AS h, "
                  "avg(height) AS a, min(name) AS who, max(birth) AS b "
                  "FROM people GROUP BY age")
        types = dict((name, dtype) for name, dtype, _null
                     in raw.query("DESCRIBE summary").rows)
        assert types["age"] == "BIGINT"  # int values widen to BIGINT
        assert types["n"] == "BIGINT"
        assert types["h"] == "FLOAT"
        assert types["a"] == "FLOAT"
        assert types["who"].startswith("VARCHAR")
        assert types["b"] == "DATE"

    def test_empty_result_falls_back_to_expression_types(self, raw):
        raw.query("CREATE TABLE none_found AS "
                  "SELECT name, age, count(*) AS n FROM people "
                  "WHERE age > 100 GROUP BY name, age")
        types = dict((name, dtype) for name, dtype, _null
                     in raw.query("DESCRIBE none_found").rows)
        assert types["n"] == "BIGINT"  # count() even with no rows
        assert types["age"] == "INTEGER"  # source column type
        assert raw.query("SELECT count(*) FROM none_found").scalar() == 0

    def test_queryable_with_predicates_and_aggregates(self, raw):
        raw.query("CREATE TABLE t AS SELECT name, age FROM people")
        assert raw.query(
            "SELECT count(*) FROM t WHERE age = 25").scalar() == 2
        assert raw.query(
            "SELECT name FROM t WHERE age > 30").rows == [("carol",)]

    def test_duplicate_name_rejected_before_side_effects(self, raw):
        with pytest.raises(CatalogError, match="already registered"):
            raw.query("CREATE TABLE people AS SELECT id FROM people")

    def test_if_not_exists_skips(self, raw):
        raw.query("CREATE TABLE t AS SELECT id FROM people")
        result = raw.query(
            "CREATE TABLE IF NOT EXISTS t AS SELECT name FROM people")
        assert "skipped" in result.rows[0][0]
        assert raw.query("DESCRIBE t").rows[0][0] == "id"

    def test_duplicate_result_columns_need_aliases(self, raw):
        with pytest.raises(CatalogError, match="alias"):
            raw.query("CREATE TABLE t AS SELECT age, age FROM people")

    def test_drop_ctas_table(self, raw):
        raw.query("CREATE TABLE t AS SELECT id FROM people")
        path = raw.catalog.get("t").path
        assert raw.vfs.exists(path)
        raw.query("DROP TABLE t")
        assert not raw.catalog.has("t")
        with pytest.raises(CatalogError):
            raw.query("SELECT * FROM t")

    def test_session_path(self, raw):
        session = repro.connect(engine=raw)
        session.execute("CREATE TABLE t AS SELECT name FROM people "
                        "WHERE id < 3")
        cur = session.execute("SELECT count(*) FROM t")
        assert cur.fetchone() == (2,)
        session.close()


class TestCtasEngines:
    def test_loaded_engine_reuses_buffer_pool(self):
        fs = VirtualFS()
        fs.create("people.csv", PEOPLE_CSV)
        db = LoadedDBMS(vfs=fs)
        db.load_csv("people", "people.csv", people_schema())
        db.query("CREATE TABLE t AS SELECT name, age FROM people")
        assert db.query("SELECT count(*) FROM t").scalar() == 5
        # the engine's own pool served the materialization
        assert db.materialization_pool() is db.pool

    def test_raw_engine_gets_private_pool(self, raw):
        raw.query("CREATE TABLE t AS SELECT name FROM people")
        assert not hasattr(raw, "pool")  # PostgresRaw stays bufferless
        assert raw.materialization_pool() is raw.materialization_pool()

    def test_ctas_of_aggregate_routes_through_rollup(self, raw):
        raw.query("SELECT id, name, age, height, birth FROM people")
        expected = raw.query(
            "SELECT age, count(*) AS n FROM people GROUP BY age")
        raw.query("CREATE ROLLUP by_age ON people (age) AGG (count(*))")
        raw.query("CREATE TABLE age_counts AS "
                  "SELECT age, count(*) AS n FROM people GROUP BY age")
        assert raw.counters().get("rollup_hits") == 1
        assert raw.query(
            "SELECT age, n FROM age_counts").rows == expected.rows
