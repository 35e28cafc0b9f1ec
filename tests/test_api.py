"""The repro.api session/cursor façade: prepared statements, parameter
binding, streaming fetch, EXPLAIN, exceptions, and the legacy shim."""

import datetime
import warnings

import pytest

import repro
from repro import PostgresRaw, PostgresRawConfig, QueryResult, VirtualFS
from repro.api import (
    InterfaceError,
    OperationalError,
    ProgrammingError,
)
from repro.errors import ReproError, UnknownColumnError
from repro.simcost.clock import CostEvent
from repro.workloads.micro import generate_micro_csv

from conftest import create_table, people_schema


@pytest.fixture
def session(people_vfs):
    db = PostgresRaw(vfs=people_vfs)
    create_table(db, "people", "people.csv", people_schema())
    with repro.connect(engine=db) as s:
        yield s


class TestSessionBasics:
    def test_connect_creates_engine_when_omitted(self):
        vfs = VirtualFS()
        vfs.create("t.csv", b"1\n2\n")
        s = repro.connect(vfs=vfs)
        assert isinstance(s.engine, PostgresRaw)
        s.execute("CREATE TABLE t (a1 INTEGER) USING csv "
                  "OPTIONS (path 't.csv')")
        assert s.execute("SELECT a1 FROM t").fetchall() == [(1,), (2,)]

    def test_connect_rejects_vfs_with_explicit_engine(self, people_raw):
        with pytest.raises(InterfaceError):
            repro.connect(engine=people_raw, vfs=VirtualFS())

    def test_execute_matches_legacy_query(self, session):
        sql = "SELECT name, age FROM people WHERE age > 26 ORDER BY id"
        assert (session.execute(sql).fetchall()
                == session.engine.query(sql).rows)

    def test_fetchone_fetchmany_fetchall(self, session):
        cur = session.execute("SELECT id FROM people ORDER BY id")
        assert cur.fetchone() == (1,)
        assert cur.fetchmany(2) == [(2,), (3,)]
        assert cur.fetchall() == [(4,), (5,)]
        assert cur.fetchone() is None
        assert cur.fetchall() == []

    def test_cursor_iteration(self, session):
        cur = session.execute("SELECT id FROM people WHERE id <= 2")
        assert sorted(cur) == [(1,), (2,)]

    def test_description_and_rowcount(self, session):
        cur = session.execute("SELECT id, name FROM people")
        assert [d[0] for d in cur.description] == ["id", "name"]
        assert cur.rowcount == -1  # stream still open
        rows = cur.fetchall()
        assert cur.rowcount == len(rows) == 5

    def test_arraysize_default_fetchmany(self, session):
        cur = session.execute("SELECT id FROM people ORDER BY id")
        assert cur.fetchmany() == [(1,)]
        cur.arraysize = 3
        assert cur.fetchmany() == [(2,), (3,), (4,)]

    def test_session_query_returns_eager_result(self, session):
        result = session.query("SELECT count(*) FROM people")
        assert isinstance(result, QueryResult)
        assert result.scalar() == 5
        assert result.plan["op"] == "Project"
        assert result.counters  # the query's own cost ledger

    def test_closed_cursor_and_session_raise(self, session):
        cur = session.execute("SELECT id FROM people")
        cur.close()
        with pytest.raises(InterfaceError):
            cur.fetchone()
        session.close()
        with pytest.raises(InterfaceError):
            session.cursor()

    def test_fetch_before_execute_raises(self, session):
        with pytest.raises(InterfaceError):
            session.cursor().fetchone()

    def test_session_close_closes_cursors(self, people_raw):
        s = repro.connect(engine=people_raw)
        cur = s.execute("SELECT id FROM people")
        cur.fetchone()  # stream live
        s.close()
        assert cur.closed
        assert s not in people_raw.sessions
        # The live job was cancelled: no slot left occupied.
        assert people_raw.shared_scheduler().in_flight == 0

    def test_one_shot_cursors_do_not_accumulate(self, session):
        """A long-lived session doing execute().fetchone() per query
        must not pile up jobs or scheduler slots: fully consumed
        results are finished by the fetch probe."""
        for _ in range(10):
            row = session.execute("SELECT count(*) FROM people").fetchone()
            assert row == (5,)
        assert session._jobs == set()
        assert session.scheduler.in_flight == 0


class TestParameters:
    def test_qmark_binding(self, session):
        cur = session.execute(
            "SELECT name FROM people WHERE age = ? AND id < ?", (25, 5))
        assert sorted(cur.fetchall()) == [("bob",)]

    def test_string_and_date_params(self, session):
        assert session.execute(
            "SELECT id FROM people WHERE name = ?",
            ("carol",)).fetchall() == [(3,)]
        assert session.execute(
            "SELECT name FROM people WHERE birth < ?",
            (datetime.date(1995, 1, 1),)).fetchall() == [("carol",)]

    def test_wrong_param_count(self, session):
        with pytest.raises(ProgrammingError):
            session.execute("SELECT id FROM people WHERE age = ?", ())
        with pytest.raises(ProgrammingError):
            session.execute("SELECT id FROM people", (1,))

    def test_const_conjunct_parameter(self, session):
        sql = "SELECT count(*) FROM people WHERE ? = 1"
        assert session.execute(sql, (1,)).fetchone() == (5,)
        assert session.execute(sql, (2,)).fetchone() == (0,)

    def test_param_in_projection(self, session):
        cur = session.execute("SELECT id + ? FROM people WHERE id = 1",
                              (100,))
        assert cur.fetchone() == (101,)

    def test_const_conjunct_gate_evaluates_once(self, session):
        counters = session.engine.clock.counters
        sql = "SELECT count(*) FROM people WHERE ? = 1"
        # False gate: the scan below is never pulled — no tokenizing.
        tokenize_before = counters.get(CostEvent.TOKENIZE, 0)
        assert session.query(sql, (2,)).scalar() == 0
        assert counters.get(CostEvent.TOKENIZE, 0) == tokenize_before
        # True gate: the predicate is charged once per execution, not
        # once per row.
        predicate_before = counters.get(CostEvent.PREDICATE_EVAL, 0)
        assert session.query(sql, (1,)).scalar() == 5
        assert counters.get(CostEvent.PREDICATE_EVAL, 0) \
            == predicate_before + 1


class TestPreparedStatements:
    def test_reexecution_zero_parse_plan(self, session):
        stmt = session.prepare("SELECT name FROM people WHERE id = ?")
        assert stmt.execute((1,)).fetchall() == [("alice",)]
        clock = session.engine.clock
        overhead_before = clock.counters.get(CostEvent.QUERY_OVERHEAD, 0)
        parses_before = session.stats["parses"]
        plans_before = session.stats["plans"]
        assert stmt.execute((4,)).fetchall() == [("dave",)]
        assert stmt.execute((2,)).fetchall() == [("bob",)]
        # Zero parse/plan work: the per-query setup counter never moved
        # and the session performed no further parses or plans.
        assert clock.counters.get(CostEvent.QUERY_OVERHEAD, 0) \
            == overhead_before
        assert session.stats["parses"] == parses_before
        assert session.stats["plans"] == plans_before

    def test_statement_cache_hit_on_repeated_sql(self, session):
        sql = "SELECT id FROM people WHERE age = ?"
        session.execute(sql, (25,)).fetchall()
        hits_before = session.stats["statement_cache_hits"]
        parses_before = session.stats["parses"]
        session.execute(sql, (30,)).fetchall()
        assert session.stats["statement_cache_hits"] == hits_before + 1
        assert session.stats["parses"] == parses_before

    def test_statement_cache_lru_eviction(self, people_raw):
        s = repro.connect(engine=people_raw, statement_cache_size=2)
        for i in range(4):
            s.execute(f"SELECT id FROM people WHERE id = {i}").fetchall()
        assert len(s._statements) == 2

    def test_statement_cache_disabled(self, people_raw):
        s = repro.connect(engine=people_raw, statement_cache_size=0)
        sql = "SELECT id FROM people"
        s.execute(sql).fetchall()
        s.execute(sql).fetchall()
        assert s.stats["statement_cache_hits"] == 0
        assert s.stats["parses"] == 2

    def test_replan_on_stats_arrival(self, session):
        """§4.4 statistics are collected *during* the first execution —
        after the plan was frozen at prepare time. The statement must
        notice the catalog stats epoch moving and transparently
        re-plan (no re-parse, no query_overhead) exactly once."""
        engine = session.engine
        stmt = session.prepare("SELECT name FROM people WHERE id = ?")
        epoch_at_prepare = stmt.stats_epoch
        assert session.stats["replans"] == 0
        assert stmt.execute((1,)).fetchall() == [("alice",)]
        # The scan installed stats for id/name: the epoch moved.
        assert engine.catalog.stats_epoch > epoch_at_prepare
        overhead_before = engine.clock.counters.get(
            CostEvent.QUERY_OVERHEAD, 0)
        parses_before = session.stats["parses"]
        assert stmt.execute((2,)).fetchall() == [("bob",)]
        assert session.stats["replans"] == 1
        assert stmt.stats_epoch == engine.catalog.stats_epoch
        # Re-plan is not a re-prepare: no parse, no per-query overhead.
        assert session.stats["parses"] == parses_before
        assert engine.clock.counters.get(CostEvent.QUERY_OVERHEAD, 0) \
            == overhead_before
        # Stable epoch => no further re-plans.
        assert stmt.execute((3,)).fetchall() == [("carol",)]
        assert session.stats["replans"] == 1

    def test_replan_updates_cached_plan_for_explain(self, session):
        stmt = session.prepare("EXPLAIN SELECT count(*) FROM people "
                               "WHERE age > 30")
        stmt.execute(()).fetchall()
        # Execute the underlying shape so statistics arrive.
        session.query("SELECT count(*) FROM people WHERE age > 30")
        replans_before = session.stats["replans"]
        stmt.execute(()).fetchall()
        assert session.stats["replans"] == replans_before + 1

    def test_statement_cache_replan_is_transparent(self, session):
        """String-SQL execution through the statement cache re-plans
        too, and keeps returning correct rows."""
        sql = "SELECT name FROM people WHERE age >= ?"
        first = session.execute(sql, (30,)).fetchall()
        assert session.execute(sql, (30,)).fetchall() == first
        assert session.stats["replans"] >= 1

    def test_stats_epoch_monotone_across_table_drop(self, session):
        """Dropping a table must strictly advance the catalog epoch:
        plans cached before the drop re-plan on their next execution
        (binding a re-registered table's new access method, or failing
        cleanly), and later stats arrivals can never sum back to a
        previously seen value."""
        catalog = session.engine.catalog
        session.query("SELECT id, name FROM people")  # install stats
        before_drop = catalog.stats_epoch
        assert before_drop > 0
        catalog.drop("people")
        assert catalog.stats_epoch > before_drop

    def test_fully_consumed_result_allows_immediate_rebind(self, session):
        """The module-docstring pattern: an aggregate's single row is
        fetched, which drains the stream — the probe finishes the job
        so the very next execute with new parameters is not 'busy'."""
        stmt = session.prepare("SELECT count(*) FROM people WHERE id < ?")
        cur = stmt.execute((3,))
        assert cur.fetchone() == (2,)
        assert cur.rowcount == 1  # finished, not a zombie stream
        assert stmt.execute((6,)).fetchone() == (5,)

    def test_busy_statement_rejects_rebind(self, session):
        stmt = session.prepare("SELECT id FROM people WHERE id <> ?")
        cur = stmt.execute((1,))
        assert cur.fetchone() is not None  # stream live
        with pytest.raises(OperationalError):
            stmt.execute((2,))
        cur.close()
        assert stmt.execute((2,)).fetchall() == [(1,), (3,), (4,), (5,)]

    def test_string_sql_conflict_falls_back_to_private_plan(self, session):
        sql = "SELECT id FROM people WHERE id <> ?"
        c1 = session.execute(sql, (1,))
        assert c1.fetchone() == (2,)
        hits_before = session.stats["statement_cache_hits"]
        c2 = session.execute(sql, (2,))  # different params, c1 still live
        # The fallback pays a private parse/plan; it must not also be
        # reported as a statement-cache hit.
        assert session.stats["statement_cache_hits"] == hits_before
        assert c2.fetchall() == [(1,), (3,), (4,), (5,)]
        assert c1.fetchall() == [(3,), (4,), (5,)]

    def test_foreign_statement_rejected(self, session, people_raw):
        other = repro.connect(engine=people_raw)
        stmt = other.prepare("SELECT id FROM people")
        with pytest.raises(InterfaceError):
            session.cursor().execute(stmt)

    def test_executemany(self, session):
        cur = session.cursor()
        cur.executemany("SELECT name FROM people WHERE age = ?",
                        [(25,), (30,), (99,)])
        assert cur.rowcount == 3  # bob+erin, alice, nobody
        parses = session.stats["parses"]
        cur.executemany("SELECT name FROM people WHERE age = ?", [(35,)])
        assert cur.rowcount == 1
        assert session.stats["parses"] == parses  # prepared once


class TestStreaming:
    def make_session(self, rows=2000, block=64):
        vfs = VirtualFS()
        schema = generate_micro_csv(vfs, "m.csv", rows=rows, nattrs=6,
                                    seed=11)
        engine = PostgresRaw(
            config=PostgresRawConfig(row_block_size=block), vfs=vfs)
        create_table(engine, "m", "m.csv", schema)
        return repro.connect(engine=engine), engine

    def test_fetchmany_never_materializes_full_scan(self):
        session, engine = self.make_session()
        block = engine.stream_block_rows()
        cur = session.execute("SELECT a1, a2 FROM m")
        fetched = []
        while True:
            chunk = cur.fetchmany(10)
            if not chunk:
                break
            fetched.extend(chunk)
            # Never more than one scan block beyond the fetch request.
            assert cur.peak_buffered_rows <= block + 10
        assert len(fetched) == 2000
        assert cur.peak_buffered_rows <= block + 10
        assert fetched == engine.query("SELECT a1, a2 FROM m").rows

    def test_abandoned_stream_keeps_engine_usable(self):
        session, engine = self.make_session()
        cur = session.execute("SELECT a1 FROM m")
        cur.fetchmany(5)
        cur.close()  # abandon mid-scan: partial PM/cache state is fine
        assert session.query("SELECT count(*) FROM m").scalar() == 2000

    def test_streaming_result_matches_eager(self):
        session, engine = self.make_session(rows=500, block=32)
        sql = "SELECT a1 FROM m WHERE a2 < 500000000"
        streamed = list(session.execute(sql))
        assert streamed == engine.query(sql).rows

    def test_per_query_counters_sum_to_session(self):
        session, engine = self.make_session(rows=300, block=32)
        r1 = session.query("SELECT a1 FROM m")
        r2 = session.query("SELECT a2 FROM m WHERE a1 > 0")
        total = session.counters()
        for event, units in r1.counters.items():
            assert total.get(event, 0) >= units
        # Session ledger covers at least both queries' execution work.
        assert total["tuple_form"] >= (r1.counters.get("tuple_form", 0)
                                       + r2.counters.get("tuple_form", 0))
        assert session.elapsed() >= r1.elapsed + r2.elapsed - 1e-9


class TestExplain:
    def test_cursor_explain_rows_and_plan(self, session):
        cur = session.execute(
            "EXPLAIN SELECT name FROM people WHERE id = 2")
        assert [d[0] for d in cur.description] == ["QUERY PLAN"]
        lines = [row[0] for row in cur.fetchall()]
        assert any("Scan" in line and "people" in line for line in lines)
        assert cur.plan == session.engine.explain(
            "SELECT name FROM people WHERE id = 2")

    def test_legacy_query_explain(self, people_raw):
        result = people_raw.query("EXPLAIN SELECT count(*) FROM people")
        assert result.columns == ["QUERY PLAN"]
        assert any("Aggregate" in row[0] for row in result.rows)
        assert result.plan["op"] == "Project"

    def test_explain_executes_nothing(self, session):
        tokenize_before = session.engine.clock.counters.get(
            CostEvent.TOKENIZE, 0)
        session.execute("EXPLAIN SELECT name FROM people").fetchall()
        assert session.engine.clock.counters.get(CostEvent.TOKENIZE, 0) \
            == tokenize_before

    def test_explain_accepts_params(self, session):
        cur = session.execute("EXPLAIN SELECT id FROM people WHERE id = ?",
                              (1,))
        assert cur.fetchall()

    def test_explain_needs_no_params(self, session):
        # EXPLAIN never executes, so the plan of a parameterized
        # statement is inspectable without inventing dummy values.
        cur = session.execute("EXPLAIN SELECT id FROM people WHERE id = ?")
        assert any("Scan" in row[0] for row in cur.fetchall())


class TestErrors:
    def test_bad_sql_is_programming_error(self, session):
        with pytest.raises(ProgrammingError):
            session.execute("SELEC id FROM people")

    def test_unknown_table_is_programming_error(self, session):
        with pytest.raises(ProgrammingError):
            session.execute("SELECT x FROM nope")

    def test_api_errors_are_repro_errors(self, session):
        with pytest.raises(ReproError):
            session.execute("SELECT x FROM nope")

    def test_query_result_column_error_lists_columns(self):
        result = QueryResult(columns=["a", "b"], rows=[(1, 2)])
        with pytest.raises(UnknownColumnError) as err:
            result.column("zz")
        assert "zz" in str(err.value)
        assert "a, b" in str(err.value)
        assert err.value.available == ["a", "b"]

    def test_cursor_column_index_shares_error(self, session):
        cur = session.execute("SELECT id, name FROM people")
        assert cur.column_index("name") == 1
        with pytest.raises(UnknownColumnError) as err:
            cur.column_index("zz")
        assert err.value.available == ["id", "name"]

    def test_execution_error_surfaces_at_fetch(self, session):
        cur = session.execute("SELECT 1 / (id - 1) FROM people")
        with pytest.raises(repro.api.OperationalError):
            cur.fetchall()

    def test_failed_execute_detaches_previous_result(self, session):
        cur = session.execute("SELECT id FROM people ORDER BY id")
        assert cur.fetchone() == (1,)
        with pytest.raises(ProgrammingError):
            cur.execute("SELEC bogus")
        # The old stream must be gone, not silently served.
        with pytest.raises(InterfaceError):
            cur.fetchone()
        assert cur.description is None

    def test_plain_python_error_maps_and_fails_job(self, session):
        # '<' between int column and str parameter raises a plain
        # TypeError inside evaluation; it must surface as a DB-API
        # error and the job must be failed, not quietly "finished".
        cur = session.execute("SELECT id FROM people WHERE id < ?",
                              ("oops",))
        with pytest.raises(repro.api.OperationalError):
            cur.fetchall()
        with pytest.raises(repro.api.OperationalError):
            cur.fetchone()  # still failed on retry
        assert cur.rowcount == -1

    def test_victim_failure_not_raised_to_driving_cursor(self, people_raw):
        s = repro.connect(engine=people_raw, max_in_flight=1)
        bad = s.execute("SELECT id FROM people WHERE id < ?", ("oops",))
        good = s.execute("SELECT id FROM people")  # queued behind bad
        # Fetching the queued query drives (and fails) the victim; the
        # failure belongs to the victim's cursor only.
        assert len(good.fetchall()) == 5
        with pytest.raises(repro.api.OperationalError):
            bad.fetchall()


class TestLegacyShim:
    def test_query_still_primary(self, people_raw):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # query() must not warn
            assert people_raw.query("SELECT count(*) FROM people"
                                    ).scalar() == 5
