"""DDL front end: CREATE/DROP/SHOW/DESCRIBE through the adapter registry.

Covers the statement-dispatch split (Database.query and Session.execute
share one path), the format registry's error taxonomy (CatalogError /
ParseError with token positions, never tracebacks of other kinds), the
DROP lifecycle (auxiliary teardown + stats-epoch bump so prepared
statements re-plan).
"""

from __future__ import annotations

import pytest

import repro
from repro import (
    INTEGER,
    ExternalFilesDBMS,
    LoadedDBMS,
    PostgresRaw,
    PostgresRawConfig,
    Schema,
    VirtualFS,
    varchar,
)
from repro.api.exceptions import ProgrammingError
from repro.api.session import DDLStatement
from repro.errors import CatalogError, ParseError
from repro.formats.registry import available_formats, get_format
from repro.sql.parser import parse
from tests.conftest import create_table

PEOPLE = b"1,alice,30\n2,bob,25\n3,carol,35\n"
CREATE_PEOPLE = ("CREATE TABLE people (id INTEGER, name VARCHAR, "
                 "age INTEGER) USING csv OPTIONS (path 'people.csv')")


@pytest.fixture
def fs() -> VirtualFS:
    vfs = VirtualFS()
    vfs.create("people.csv", PEOPLE)
    return vfs


@pytest.fixture
def raw(fs) -> PostgresRaw:
    return PostgresRaw(vfs=fs)


class TestCreateTable:
    def test_create_select_roundtrip_database(self, raw):
        result = raw.query(CREATE_PEOPLE)
        assert result.rows == [("CREATE TABLE people",)]
        assert raw.query("SELECT name FROM people WHERE age > 26"
                         ).rows == [("alice",), ("carol",)]

    def test_create_select_roundtrip_session(self, raw):
        session = repro.connect(engine=raw)
        session.execute(CREATE_PEOPLE)
        cur = session.execute("SELECT count(*) FROM people")
        assert cur.fetchone() == (3,)
        session.close()

    def test_create_records_format_and_options(self, raw):
        raw.query(CREATE_PEOPLE)
        info = raw.catalog.get("people")
        assert info.format == "csv"
        assert info.options["path"] == "people.csv"
        assert info.external is False

    def test_using_omitted_sniffs_extension(self, raw):
        raw.query("CREATE TABLE people (id INTEGER, name VARCHAR, "
                  "age INTEGER) OPTIONS (path 'people.csv')")
        assert raw.catalog.get("people").format == "csv"

    def test_delimiter_option(self, fs):
        fs.create("pipe.tbl", b"1|x\n2|y\n")
        db = PostgresRaw(vfs=fs)
        db.query("CREATE TABLE t (a INTEGER, b VARCHAR) USING csv "
                 "OPTIONS (path 'pipe.tbl', delimiter '|')")
        assert db.query("SELECT b FROM t WHERE a = 2").rows == [("y",)]

    def test_external_table_binds_strawman(self, raw):
        raw.query("CREATE EXTERNAL TABLE people (id INTEGER, "
                  "name VARCHAR, age INTEGER) USING csv "
                  "OPTIONS (path 'people.csv')")
        info = raw.catalog.get("people")
        assert info.external is True
        assert type(info.access).__name__ == "ExternalAccess"
        # No auxiliary structures ever exist for the straw-man binding.
        assert raw.auxiliary_bytes("people") == {"positional_map": 0,
                                                 "cache": 0}
        assert raw.query("SELECT count(*) FROM people").scalar() == 3

    def test_create_on_external_engine(self, fs):
        db = ExternalFilesDBMS(vfs=fs)
        db.query(CREATE_PEOPLE)
        assert type(db.catalog.get("people").access).__name__ == \
            "ExternalAccess"
        assert db.query("SELECT max(age) FROM people").scalar() == 35

    def test_create_heap_on_loaded_engine(self, fs):
        db = LoadedDBMS(vfs=fs)
        db.query("CREATE TABLE people (id INTEGER, name VARCHAR, "
                 "age INTEGER) USING heap OPTIONS (path 'people.csv')")
        info = db.catalog.get("people")
        assert info.format == "heap"
        assert info.path.endswith(".heap")
        assert info.extra["source_path"] == "people.csv"
        assert info.stats is not None  # built at load time
        assert db.query("SELECT sum(age) FROM people").scalar() == 90

    def test_not_null_and_type_args(self, raw):
        raw.query("CREATE TABLE t (id INTEGER NOT NULL, "
                  "name VARCHAR(8), score DECIMAL(6, 2)) "
                  "USING csv OPTIONS (path 'people.csv')")
        described = raw.query("DESCRIBE t")
        assert described.columns == ["column", "type", "nullable"]
        assert described.rows == [("id", "INTEGER", "NO"),
                                  ("name", "VARCHAR(8)", "YES"),
                                  ("score", "DECIMAL(6,2)", "YES")]


class TestShowAndDescribe:
    def test_show_tables(self, raw):
        assert raw.query("SHOW TABLES").rows == []
        raw.query(CREATE_PEOPLE)
        result = raw.query("SHOW TABLES")
        assert result.columns == ["table", "format", "columns", "path"]
        assert result.rows == [("people", "csv", 3, "people.csv")]

    def test_show_tables_through_cursor(self, raw):
        raw.query(CREATE_PEOPLE)
        session = repro.connect(engine=raw)
        cur = session.execute("SHOW TABLES")
        assert cur.description[0][0] == "table"
        assert cur.fetchall() == [("people", "csv", 3, "people.csv")]

    def test_describe_unknown_table(self, raw):
        with pytest.raises(CatalogError):
            raw.query("DESCRIBE nothing")


class TestErrorPaths:
    def test_duplicate_table(self, raw):
        raw.query(CREATE_PEOPLE)
        with pytest.raises(CatalogError, match="already registered"):
            raw.query(CREATE_PEOPLE)

    def test_unknown_using_format(self, raw):
        with pytest.raises(CatalogError, match="unknown format"):
            raw.query("CREATE TABLE t (a INTEGER) USING parquet "
                      "OPTIONS (path 'people.csv')")

    def test_unknown_format_error_lists_registered(self, raw):
        with pytest.raises(CatalogError, match="csv"):
            raw.query("CREATE TABLE t (a INTEGER) USING nope "
                      "OPTIONS (path 'people.csv')")

    def test_unknown_option_key(self, raw):
        with pytest.raises(CatalogError, match="does not accept"):
            raw.query("CREATE TABLE t (a INTEGER) USING csv "
                      "OPTIONS (path 'people.csv', compression 'zstd')")

    def test_missing_required_path(self, raw):
        with pytest.raises(CatalogError, match="requires option"):
            raw.query("CREATE TABLE t (a INTEGER) USING csv")

    def test_missing_file(self, raw):
        with pytest.raises(CatalogError, match="does not exist"):
            raw.query("CREATE TABLE t (a INTEGER) USING csv "
                      "OPTIONS (path 'nope.csv')")

    def test_bad_delimiter(self, raw):
        with pytest.raises(CatalogError, match="single byte"):
            raw.query("CREATE TABLE t (a INTEGER) USING csv "
                      "OPTIONS (path 'people.csv', delimiter '||')")

    def test_schema_file_arity_mismatch(self, raw):
        """Declaring more columns than the file carries fails at CREATE
        (every scan would fail); declaring fewer is prefix-compatible."""
        with pytest.raises(CatalogError, match="3 field"):
            raw.query("CREATE TABLE t (a INTEGER, b VARCHAR, "
                      "c INTEGER, d INTEGER) USING csv "
                      "OPTIONS (path 'people.csv')")
        raw.query("CREATE TABLE t (a INTEGER) USING csv "
                  "OPTIONS (path 'people.csv')")  # prefix: fine

    def test_unknown_type_is_parse_error_with_position(self, raw):
        with pytest.raises(ParseError) as excinfo:
            raw.query("CREATE TABLE t (a WIBBLE) USING csv "
                      "OPTIONS (path 'people.csv')")
        assert "position" in str(excinfo.value)
        assert excinfo.value.token is not None
        assert excinfo.value.token.position > 0

    def test_reserved_word_refused_as_column_name(self, raw):
        """A keyword-named column could never be referenced in a
        SELECT, so CREATE refuses it up front with a position."""
        with pytest.raises(ParseError, match="reserved word"):
            raw.query("CREATE TABLE t (options INTEGER) USING csv "
                      "OPTIONS (path 'people.csv')")

    def test_malformed_options_value(self, raw):
        with pytest.raises(ParseError, match="position"):
            raw.query("CREATE TABLE t (a INTEGER) USING csv "
                      "OPTIONS (path people)")

    def test_duplicate_option_key(self, raw):
        with pytest.raises(ParseError, match="duplicate option"):
            raw.query("CREATE TABLE t (a INTEGER) USING csv "
                      "OPTIONS (path 'a.csv', path 'b.csv')")

    def test_no_columns_and_no_header_format(self, raw):
        with pytest.raises(CatalogError, match="cannot infer a schema"):
            raw.query("CREATE TABLE t USING csv "
                      "OPTIONS (path 'people.csv')")

    def test_drop_unknown_table(self, raw):
        with pytest.raises(CatalogError, match="unknown table"):
            raw.query("DROP TABLE ghost")

    def test_session_surfaces_programming_error(self, raw):
        """Through the DB-API layer the same failures arrive as
        ProgrammingError, not raw tracebacks."""
        session = repro.connect(engine=raw)
        with pytest.raises(ProgrammingError):
            session.execute("CREATE TABLE t (a INTEGER) USING parquet "
                            "OPTIONS (path 'people.csv')")
        with pytest.raises(ProgrammingError):
            session.execute("DROP TABLE ghost")

    def test_ddl_takes_no_parameters(self, raw):
        session = repro.connect(engine=raw)
        with pytest.raises(ProgrammingError, match="no parameters"):
            session.execute("SHOW TABLES", (1,))

    def test_heap_requires_buffer_pool(self, raw):
        with pytest.raises(CatalogError, match="buffer pool"):
            raw.query("CREATE TABLE t (a INTEGER) USING heap "
                      "OPTIONS (path 'people.csv')")

    def test_raw_formats_refused_by_loaded_engine(self, fs):
        db = LoadedDBMS(vfs=fs)
        with pytest.raises(CatalogError, match="in situ"):
            db.query(CREATE_PEOPLE)


class TestDropLifecycle:
    def test_drop_tears_down_auxiliary_state(self, raw):
        raw.query(CREATE_PEOPLE)
        raw.query("SELECT name FROM people WHERE age > 26")  # warm up
        positional_map = raw.positional_map_of("people")
        cache = raw.cache_of("people")
        assert positional_map.bytes_used > 0
        assert cache.bytes_used > 0
        raw.query("DROP TABLE people")
        assert positional_map.bytes_used == 0
        assert positional_map.known_line_count == 0
        assert cache.bytes_used == 0
        assert "people" not in raw.catalog

    def test_drop_detaches_prewarmer(self, raw):
        raw.query(CREATE_PEOPLE)
        prewarmer = raw.enable_fs_interface("people")
        assert prewarmer._attached
        raw.query("DROP TABLE people")
        assert not prewarmer._attached

    def test_drop_and_reregister_under_warm_cache(self, fs):
        """The warm-cache drop test: structures built by queries on the
        first incarnation are gone after DROP; a re-registered table
        with the same name starts cold and correct."""
        db = PostgresRaw(vfs=fs, config=PostgresRawConfig(row_block_size=2))
        db.query(CREATE_PEOPLE)
        warm = db.query("SELECT name FROM people WHERE age > 26")
        assert db.auxiliary_bytes("people")["cache"] > 0
        db.query("DROP TABLE people")
        db.query(CREATE_PEOPLE)
        assert db.auxiliary_bytes("people") == {"positional_map": 0,
                                                "cache": 0}
        cold = db.query("SELECT name FROM people WHERE age > 26")
        assert cold.rows == warm.rows
        # The re-registered table's first scan is cold again: it pays
        # newline discovery, which a warm map makes free.
        assert cold.counters.get("newline_scan", 0) > 0

    def test_drop_bumps_stats_epoch(self, raw):
        raw.query(CREATE_PEOPLE)
        raw.query("SELECT id FROM people")  # install statistics
        before = raw.catalog.stats_epoch
        raw.query("DROP TABLE people")
        assert raw.catalog.stats_epoch > before

    def test_prepared_statement_replans_after_drop_and_reregister(
            self, raw):
        """A plan cached before DROP must not keep scanning the old
        access method: the epoch bump forces a re-plan that binds the
        re-registered table's fresh structures."""
        session = repro.connect(engine=raw)
        session.execute(CREATE_PEOPLE)
        old_access = raw.catalog.get("people").access
        stmt = session.prepare("SELECT name FROM people WHERE age > 26")
        assert stmt.execute().fetchall() == [("alice",), ("carol",)]
        session.execute("DROP TABLE people")
        session.execute(CREATE_PEOPLE)
        replans_before = session.stats["replans"]
        assert stmt.execute().fetchall() == [("alice",), ("carol",)]
        assert session.stats["replans"] == replans_before + 1
        scan = stmt.planned.root
        while hasattr(scan, "child"):
            scan = scan.child
        assert scan.access is raw.catalog.get("people").access
        assert scan.access is not old_access

    def test_drop_under_live_warm_scan_fails_cleanly(self, fs):
        """A cursor navigating the positional map when its table is
        dropped surfaces a clean OperationalError on the next fetch —
        not an internal unpack crash, not silent wrong rows."""
        from repro.api.exceptions import OperationalError

        db = PostgresRaw(vfs=fs, config=PostgresRawConfig(row_block_size=2))
        db.query(CREATE_PEOPLE)
        db.query("SELECT id, name, age FROM people")  # build the map
        session = repro.connect(engine=db)
        cursor = session.execute("SELECT id FROM people")
        assert cursor.fetchone() == (1,)
        session.execute("DROP TABLE people")
        with pytest.raises(OperationalError, match="re-run the query"):
            while cursor.fetchone() is not None:
                pass
        cursor.close()

    def test_prepared_statement_fails_cleanly_after_plain_drop(self, raw):
        session = repro.connect(engine=raw)
        session.execute(CREATE_PEOPLE)
        stmt = session.prepare("SELECT name FROM people")
        assert len(stmt.execute().fetchall()) == 3
        session.execute("DROP TABLE people")
        with pytest.raises(ProgrammingError, match="unknown table"):
            stmt.execute()


class TestDeclarationInSql:
    def test_helper_and_query_declare_the_same_table(self, fs):
        """The tests' ``create_table`` helper runs the same CREATE TABLE
        text through ``run_ddl``: the same table, with no charge, where
        ``query`` of that text charges its ``query_overhead`` only."""
        via_helper = PostgresRaw(vfs=fs)
        info = create_table(via_helper, "people", "people.csv", Schema(
            [("id", INTEGER), ("name", varchar()), ("age", INTEGER)]))
        assert via_helper.elapsed() == 0.0
        via_query = PostgresRaw(vfs=fs)
        declared = via_query.query(CREATE_PEOPLE)
        assert declared.counters == {"query_overhead": 1}
        assert info.format == via_query.catalog.get("people").format
        assert [(c.name, c.dtype.name) for c in info.schema.columns] == [
            (c.name, c.dtype.name)
            for c in via_query.catalog.get("people").schema.columns]
        q = "SELECT name, age FROM people WHERE id <> 2 ORDER BY age"
        assert via_helper.query(q).rows == via_query.query(q).rows == [
            ("alice", 30), ("carol", 35)]


class TestStatementKinds:
    def test_parse_returns_ddl_nodes(self):
        from repro.sql.ast_nodes import (
            CreateTable, DescribeTable, DropTable, ShowTables, is_ddl)

        create = parse(CREATE_PEOPLE)
        assert isinstance(create, CreateTable)
        assert create.format == "csv"
        assert create.options == {"path": "people.csv"}
        assert [c.name for c in create.columns] == ["id", "name", "age"]
        assert isinstance(parse("DROP TABLE t"), DropTable)
        assert isinstance(parse("SHOW TABLES"), ShowTables)
        assert isinstance(parse("DESCRIBE t;"), DescribeTable)
        for sql in (CREATE_PEOPLE, "DROP TABLE t", "SHOW TABLES"):
            assert is_ddl(parse(sql))
        assert not is_ddl(parse("SELECT 1 FROM t"))

    def test_session_prepare_returns_ddl_statement(self, raw):
        session = repro.connect(engine=raw)
        stmt = session.prepare(CREATE_PEOPLE)
        assert isinstance(stmt, DDLStatement)
        stmt.execute()
        assert raw.catalog.has("people")

    def test_ddl_not_statement_cached(self, raw):
        """Each execution of DDL text hits the live catalog — a CREATE
        re-run must raise duplicate, not silently reuse a cached no-op."""
        session = repro.connect(engine=raw)
        session.execute(CREATE_PEOPLE)
        hits_before = session.stats["statement_cache_hits"]
        with pytest.raises(ProgrammingError, match="already registered"):
            session.execute(CREATE_PEOPLE)
        assert session.stats["statement_cache_hits"] == hits_before

    def test_registry_is_open(self):
        assert {"csv", "fits", "heap", "jsonl"} <= set(available_formats())
        assert get_format("CSV").name == "csv"  # case-insensitive


class TestIfExistsGuards:
    """IF NOT EXISTS / IF EXISTS through the whole stack: lexer keyword,
    parser clause (with token positions on malformed input), and the
    session DDL path returning a skipped status instead of raising."""

    def test_create_if_not_exists_skips_duplicate(self, raw):
        raw.query(CREATE_PEOPLE)
        result = raw.query(
            "CREATE TABLE IF NOT EXISTS people (id INTEGER) "
            "USING csv OPTIONS (path 'people.csv')")
        assert result.rows == [("CREATE TABLE people skipped (exists)",)]
        # the original 3-column schema survives
        assert raw.catalog.get("people").schema.arity == 3

    def test_create_if_not_exists_creates_when_absent(self, raw):
        result = raw.query(
            "CREATE TABLE IF NOT EXISTS people (id INTEGER, "
            "name VARCHAR, age INTEGER) USING csv "
            "OPTIONS (path 'people.csv')")
        assert result.rows == [("CREATE TABLE people",)]
        assert raw.catalog.has("people")

    def test_drop_if_exists_skips_absent(self, raw):
        result = raw.query("DROP TABLE IF EXISTS nope")
        assert result.rows == [("DROP TABLE nope skipped (absent)",)]

    def test_drop_if_exists_drops_present(self, raw):
        raw.query(CREATE_PEOPLE)
        assert raw.query("DROP TABLE IF EXISTS people").rows == [
            ("DROP TABLE people",)]
        assert not raw.catalog.has("people")

    def test_drop_without_guard_still_raises(self, raw):
        with pytest.raises(CatalogError, match="unknown table"):
            raw.query("DROP TABLE nope")

    def test_session_path_honours_guards(self, raw):
        session = repro.connect(engine=raw)
        session.execute(CREATE_PEOPLE)
        cur = session.execute(
            "CREATE TABLE IF NOT EXISTS people (id INTEGER) "
            "USING csv OPTIONS (path 'people.csv')")
        assert cur.fetchone() == ("CREATE TABLE people skipped (exists)",)
        session.execute("DROP TABLE IF EXISTS people")
        cur = session.execute("DROP TABLE IF EXISTS people")
        assert cur.fetchone() == ("DROP TABLE people skipped (absent)",)

    def test_create_if_without_not_exists_positions_error(self, raw):
        sql = ("CREATE TABLE IF EXISTS people (id INTEGER) "
               "USING csv OPTIONS (path 'people.csv')")
        with pytest.raises(ParseError) as excinfo:
            raw.query(sql)
        assert "NOT EXISTS" in str(excinfo.value)
        assert excinfo.value.token.position == sql.index("EXISTS")

    def test_drop_if_without_exists_positions_error(self, raw):
        sql = "DROP TABLE IF people"
        with pytest.raises(ParseError) as excinfo:
            raw.query(sql)
        assert "EXISTS" in str(excinfo.value)
        assert excinfo.value.token.position == sql.index("people")
