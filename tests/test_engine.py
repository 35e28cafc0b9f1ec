"""End-to-end tests for the PostgresRaw engine (SQL level)."""

import datetime
import gc
import tracemalloc
import weakref

import pytest

import repro
from repro import (
    INTEGER,
    PostgresRaw,
    PostgresRawConfig,
    Schema,
    VirtualFS,
    varchar,
)
from repro.api import InterfaceError
from repro.errors import CatalogError, ExecutionError, PlanningError
from repro.formats.csvfmt import write_csv
from repro.formats.jsonl import write_jsonl
from repro.simcost.model import CostModel
from tests.conftest import PEOPLE_CSV, create_table, people_schema


class TestRegistration:
    def test_register_requires_existing_file(self, vfs):
        db = PostgresRaw(vfs=vfs)
        with pytest.raises(CatalogError):
            create_table(db, "t", "missing.csv", people_schema())

    def test_duplicate_registration_rejected(self, people_vfs):
        db = PostgresRaw(vfs=people_vfs)
        create_table(db, "people", "people.csv", people_schema())
        with pytest.raises(CatalogError):
            create_table(db, "people", "people.csv", people_schema())

    def test_registration_touches_no_data(self, people_vfs):
        db = PostgresRaw(vfs=people_vfs)
        create_table(db, "people", "people.csv", people_schema())
        # NoDB's whole point: zero data access until the first query.
        assert db.elapsed() == 0.0

    def test_create_table_returns_catalog_entry(self, people_vfs):
        db = PostgresRaw(vfs=people_vfs)
        info = create_table(db, "people", "people.csv", people_schema())
        assert db.catalog.has("people")
        assert info.schema.arity == 5


class TestQueries:
    def test_projection(self, people_raw):
        result = people_raw.query("SELECT name FROM people")
        assert result.column("name") == ["alice", "bob", "carol", "dave",
                                         "erin"]

    def test_star(self, people_raw):
        result = people_raw.query("SELECT * FROM people")
        assert len(result.columns) == 5
        assert result.rows[0][:3] == (1, "alice", 30)

    def test_where_on_date(self, people_raw):
        result = people_raw.query(
            "SELECT name FROM people WHERE birth >= DATE '1998-01-01'")
        assert sorted(result.column("name")) == ["alice", "bob", "erin"]

    def test_arithmetic_projection(self, people_raw):
        result = people_raw.query(
            "SELECT name, age * 2 AS dbl FROM people WHERE id = 1")
        assert result.rows == [("alice", 60)]

    def test_aggregates(self, people_raw):
        result = people_raw.query(
            "SELECT count(*), min(age), max(age), avg(height) FROM people")
        row = result.rows[0]
        assert row[0] == 5
        assert row[1] == 25 and row[2] == 35
        assert row[3] == pytest.approx((170.5 + 182.0 + 165.2 + 190.1
                                        + 158.7) / 5)

    def test_group_by_order_by(self, people_raw):
        result = people_raw.query(
            "SELECT age, count(*) AS n FROM people GROUP BY age "
            "ORDER BY n DESC, age ASC")
        assert result.rows[0] == (25, 2)

    def test_having(self, people_raw):
        result = people_raw.query(
            "SELECT age, count(*) AS n FROM people GROUP BY age "
            "HAVING count(*) > 1")
        assert result.rows == [(25, 2)]

    def test_limit(self, people_raw):
        result = people_raw.query(
            "SELECT name FROM people ORDER BY age DESC LIMIT 2")
        assert result.column("name") == ["carol", "alice"]

    def test_select_alias_in_order_by(self, people_raw):
        result = people_raw.query(
            "SELECT name, age + 100 AS score FROM people "
            "ORDER BY score DESC LIMIT 1")
        assert result.rows == [("carol", 135)]

    def test_case_expression(self, people_raw):
        result = people_raw.query(
            "SELECT name, CASE WHEN age < 27 THEN 'young' ELSE 'older' END "
            "AS bucket FROM people ORDER BY id")
        assert result.rows[0] == ("alice", "older")
        assert result.rows[1] == ("bob", "young")

    def test_query_result_helpers(self, people_raw):
        result = people_raw.query("SELECT count(*) FROM people")
        assert result.scalar() == 5
        assert len(result) == 1
        dicts = people_raw.query(
            "SELECT id, name FROM people WHERE id = 1").as_dicts()
        assert dicts == [{"id": 1, "name": "alice"}]

    def test_unknown_table(self, people_raw):
        with pytest.raises(CatalogError):
            people_raw.query("SELECT x FROM nope")

    def test_unknown_column(self, people_raw):
        with pytest.raises(PlanningError):
            people_raw.query("SELECT nonexistent FROM people")

    def test_elapsed_virtual_time_increases(self, people_raw):
        first = people_raw.query("SELECT name FROM people")
        assert first.elapsed > 0
        assert people_raw.elapsed() >= first.elapsed

    def test_counters_exposed(self, people_raw):
        result = people_raw.query("SELECT name FROM people")
        assert result.counters.get("tuple_overhead") == 5

    def test_explain(self, people_raw):
        plan = people_raw.explain("SELECT name FROM people WHERE id = 1")
        assert plan["op"] == "Project"
        scan = plan["input"]
        assert scan["op"] == "Scan"
        assert scan["access"] == "RawCsvAccess"
        assert scan["pushed_predicates"] == 1


class TestAdaptivity:
    def test_second_query_faster(self, people_raw):
        q = "SELECT name, age FROM people"
        first = people_raw.query(q)
        second = people_raw.query(q)
        assert second.elapsed < first.elapsed

    def test_auxiliary_bytes_grow_then_drop(self, people_raw):
        people_raw.query("SELECT name, age FROM people")
        aux = people_raw.auxiliary_bytes("people")
        assert aux["positional_map"] > 0
        assert aux["cache"] > 0
        people_raw.drop_auxiliary("people")
        aux = people_raw.auxiliary_bytes("people")
        assert aux == {"positional_map": 0, "cache": 0}

    def test_drop_auxiliary_keeps_answers_correct(self, people_raw):
        q = "SELECT name FROM people WHERE age = 25"
        before = people_raw.query(q).rows
        people_raw.drop_auxiliary("people")
        assert people_raw.query(q).rows == before

    def test_stats_appear_after_queries(self, people_raw):
        assert people_raw.catalog.get("people").stats is None
        people_raw.query("SELECT age FROM people")
        stats = people_raw.catalog.get("people").stats
        assert stats is not None and stats.has_column("age")


class TestConfigurationVariants:
    @pytest.mark.parametrize("config", [
        PostgresRawConfig(enable_positional_map=False, enable_cache=False),
        PostgresRawConfig(enable_positional_map=True, enable_cache=False),
        PostgresRawConfig(enable_positional_map=False, enable_cache=True),
        PostgresRawConfig(enable_statistics=False),
        PostgresRawConfig(row_block_size=2),
        PostgresRawConfig(pm_budget_bytes=128, cache_budget_bytes=128),
    ], ids=["baseline", "pm-only", "cache-only", "no-stats",
            "tiny-blocks", "tiny-budgets"])
    def test_all_variants_agree(self, people_vfs, config):
        reference = PostgresRaw(vfs=people_vfs)
        create_table(reference, "people", "people.csv", people_schema())
        variant = PostgresRaw(config=config, vfs=people_vfs)
        create_table(variant, "people", "people.csv", people_schema())
        queries = [
            "SELECT name FROM people WHERE age < 30",
            "SELECT age, count(*) FROM people GROUP BY age",
            "SELECT name FROM people WHERE age < 30",  # repeat (warm)
        ]
        for q in queries:
            assert sorted(variant.query(q).rows) == sorted(
                reference.query(q).rows)


class TestMultiTable:
    def test_join_and_semijoin(self, vfs):
        vfs.create("dept.csv", b"1,eng\n2,sales\n3,legal\n")
        vfs.create("emp.csv", b"1,ann,1\n2,bo,1\n3,cy,2\n")
        db = PostgresRaw(vfs=vfs)
        create_table(db, "dept", "dept.csv",
                     Schema([("d_id", INTEGER), ("d_name", varchar())]))
        create_table(db, "emp", "emp.csv",
                     Schema([("e_id", INTEGER), ("e_name", varchar()),
                             ("e_dept", INTEGER)]))
        joined = db.query(
            "SELECT d_name, count(*) AS n FROM emp, dept "
            "WHERE e_dept = d_id GROUP BY d_name ORDER BY n DESC")
        assert joined.rows == [("eng", 2), ("sales", 1)]
        semi = db.query(
            "SELECT d_name FROM dept WHERE EXISTS "
            "(SELECT * FROM emp WHERE e_dept = d_id) ORDER BY d_name")
        assert semi.column("d_name") == ["eng", "sales"]
        anti = db.query(
            "SELECT d_name FROM dept WHERE NOT EXISTS "
            "(SELECT * FROM emp WHERE e_dept = d_id)")
        assert anti.rows == [("legal",)]

    def test_self_join_with_aliases(self, people_vfs):
        db = PostgresRaw(vfs=people_vfs)
        create_table(db, "people", "people.csv", people_schema())
        result = db.query(
            "SELECT a.name, b.name FROM people a, people b "
            "WHERE a.age = b.age AND a.id < b.id")
        assert result.rows == [("bob", "erin")]


class TestEngineClose:
    """``close()`` tears every table's auxiliary state down through its
    format adapter, so nothing depends on the cycle collector."""

    @staticmethod
    def _engine(vfs, rows=2000, **config_kwargs):
        if not vfs.exists("t.csv"):
            vfs.create("t.csv", write_csv([[str(i), str(i % 7)]
                                           for i in range(rows)]))
        engine = PostgresRaw(config=PostgresRawConfig(**config_kwargs),
                             vfs=vfs)
        engine.query("CREATE TABLE t (a INTEGER, b INTEGER) USING csv "
                     "OPTIONS (path 't.csv')")
        return engine

    def test_closed_engine_frees_structures_without_the_collector(self):
        """Under ``gc.disable()`` only reference counting reclaims: the
        closed, dropped engine object itself must die, the cache's and
        map's arrays must die at ``close()``, and the prewarmer it
        attached to the shared VFS must stop charging the dead
        engine's clock."""
        vfs = VirtualFS()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            engine = self._engine(vfs)
            engine.query("SELECT a FROM t WHERE b < 3")
            engine.enable_fs_interface("t")
            # Every back-reference to the engine — its router, its
            # scheduler, a closed session, a partitioned table's access
            # method — must be weak, or the engine itself outlives del.
            for f in range(2):
                vfs.create(f"p-{f}.csv", b"1,2\n3,4\n")
            engine.query("CREATE TABLE p (a INTEGER, b INTEGER) USING csv "
                         "OPTIONS (path 'p-*.csv')")
            session = engine.connect()
            assert session.execute("SELECT count(*) FROM p").fetchall() \
                == [(4,)]
            session.close()
            del session
            alive = weakref.ref(engine)
            cached = weakref.ref(
                engine.cache_of("t").peek(1, 0).typed_data()[0])
            chunk = weakref.ref(next(iter(
                engine.positional_map_of("t")._chunks.values())))
            clock = engine.clock
            before = (clock.now(), dict(clock.counters))
            engine.close()
            del engine
            assert alive() is None
            assert cached() is None
            assert chunk() is None
            # Another program reads the file the closed engine watched.
            vfs.open("t.csv", CostModel()).read_at(0, vfs.size("t.csv"))
            assert (clock.now(), dict(clock.counters)) == before
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("close", [True, False])
    @pytest.mark.parametrize("path", ["t.csv", "t.jsonl", "t-*.csv"])
    def test_dropped_engine_frees_its_tables_without_the_collector(
            self, path, close):
        """A table's catalog entry, its access method (a partitioned
        table's file's too), the cache object and the warm cache arrays
        die by reference counting once the engine is dropped — closed
        first or not: an access method refers back to its entry
        weakly."""
        vfs = VirtualFS()
        rows = [(i, i % 7) for i in range(300)]
        fmt = path.rsplit(".", 1)[1]
        for name in (["t-0.csv", "t-1.csv"] if "*" in path else [path]):
            if fmt == "csv":
                vfs.create(name, write_csv([list(map(str, r))
                                            for r in rows]))
            else:
                write_jsonl([{"a": a, "b": b} for a, b in rows], vfs, name)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            engine = PostgresRaw(vfs=vfs)
            engine.query(f"CREATE TABLE t (a INTEGER, b INTEGER) USING "
                         f"{fmt} OPTIONS (path '{path}')")
            for _ in range(2):
                engine.query("SELECT a FROM t WHERE b < 3")
            info = engine.catalog.get("t")
            access = info.access
            parts = getattr(access, "parts", None)
            file_access = parts[0].access if parts else access
            alive = {
                "entry": weakref.ref(info),
                "access": weakref.ref(access),
                "file access": weakref.ref(file_access),
                "cache": weakref.ref(file_access.cache),
                "arrays": weakref.ref(
                    file_access.cache.peek(0, 0).typed_data()[0]),
            }
            del info, access, parts, file_access
            if close:
                engine.close()
            del engine
            assert {name: ref() is None for name, ref in alive.items()} \
                == dict.fromkeys(alive, True)
        finally:
            if was_enabled:
                gc.enable()

    def test_dropped_session_frees_itself_and_its_engine(self):
        """A session dropped without ``close()`` keeps its cached
        statements, and they refer back to it weakly: with the collector
        off, session and engine die by reference counting, and a
        statement kept past its session fails with a typed error."""
        vfs = VirtualFS()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            engine = self._engine(vfs, rows=20)
            session = engine.connect()
            assert session.execute("SELECT count(*) FROM t WHERE b < 3") \
                .fetchall() == [(9,)]
            kept = session.prepare("SELECT a FROM t")
            alive = {"engine": weakref.ref(engine),
                     "session": weakref.ref(session)}
            del engine, session
            assert {name: ref() is None for name, ref in alive.items()} \
                == dict.fromkeys(alive, True)
            with pytest.raises(InterfaceError, match="session"):
                kept.execute()
        finally:
            if was_enabled:
                gc.enable()

    def test_orphaned_access_method_fails_cleanly(self):
        """An access method kept past its engine has no table left to
        serve: a scan fails with a typed error, not an AttributeError."""
        engine = self._engine(VirtualFS(), rows=10)
        access = engine.catalog.get("t").access
        del engine
        gc.collect()
        with pytest.raises(ExecutionError, match="dropped"):
            list(access.scan_batches([0], None))

    def test_close_releases_memory_of_every_engine(self):
        """N engines built, queried and closed in one process: what
        they still hold is a small fraction of what one held warm."""
        vfs = VirtualFS()
        self._engine(vfs).close()   # shared file + imports outside
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            engines = []
            for _ in range(4):
                engine = self._engine(vfs)
                engine.query("SELECT a, b FROM t")
                engines.append(engine)
            warm = tracemalloc.get_traced_memory()[0]
            for engine in engines:
                engine.close()
            closed = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert closed < 0.5 * warm

    def test_queries_after_close_rebuild(self):
        engine = self._engine(VirtualFS(), row_block_size=64)
        sql = "SELECT a FROM t WHERE b = 3"
        expected = engine.query(sql).rows
        engine.query(sql)
        engine.close()
        assert engine.positional_map_of("t").known_line_count == 0
        assert engine.cache_of("t").bytes_used == 0
        assert engine.query(sql).rows == expected
        assert engine.query(sql).rows == expected
        engine.close()  # idempotent

    def test_partitioned_children_torn_down_and_rebuilt(self):
        vfs = VirtualFS()
        for day in range(3):
            vfs.create(f"ev-{day}.csv", write_csv(
                [[str(day * 10 + i), str(i)] for i in range(10)]))
        engine = PostgresRaw(vfs=vfs)
        engine.query("CREATE TABLE ev (id INTEGER, v INTEGER) USING csv "
                     "OPTIONS (path 'ev-*.csv')")
        sql = "SELECT id FROM ev WHERE v < 4"
        expected = engine.query(sql).rows
        children = [part.access for part in engine.catalog.get("ev")
                    .access.parts]
        engine.close()
        assert engine.catalog.get("ev").access.parts == []
        assert all(child.pm.known_line_count == 0 for child in children)
        assert engine.query(sql).rows == expected

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_scan_abandoned_after_close_leaves_table_queryable(self, fmt,
                                                               workers):
        """A file inside one row block, indexed before ``close()``: the
        first scan after it re-indexes every line in its one group and
        is abandoned before it learns the file length. The row count
        from before ``close()`` must not let the next scan take those
        line starts for a complete index."""
        vfs = VirtualFS()
        rows = [(i, i % 7) for i in range(40)]
        if fmt == "csv":
            vfs.create("t.csv", write_csv([list(map(str, r))
                                           for r in rows]))
        else:
            write_jsonl([{"a": a, "b": b} for a, b in rows], vfs, "t.jsonl")
        engine = PostgresRaw(vfs=vfs, config=PostgresRawConfig(
            row_block_size=64, scan_workers=workers))
        engine.query(f"CREATE TABLE t (a INTEGER, b INTEGER) USING {fmt} "
                     f"OPTIONS (path 't.{fmt}')")
        assert engine.query("SELECT count(*) FROM t").rows == [(40,)]
        engine.close()
        cursor = repro.connect(engine).execute("SELECT a, b FROM t")
        assert cursor.fetchmany(3) == rows[:3]
        cursor.close()
        for _ in range(2):
            assert engine.query("SELECT a FROM t").rows == \
                [(a,) for a, _ in rows]

    def test_scan_streaming_across_close_fails_cleanly(self):
        engine = self._engine(VirtualFS(), row_block_size=16)
        cursor = repro.connect(engine).execute("SELECT a FROM t")
        assert len(cursor.fetchmany(40)) == 40
        engine.close()
        with pytest.raises(repro.api.OperationalError,
                           match="vanished"):
            cursor.fetchall()
        # Nothing was filed under the wrong row numbers.
        assert engine.query("SELECT a FROM t").rows == \
            [(i,) for i in range(2000)]
