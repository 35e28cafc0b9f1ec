"""JSON-Lines adapter: the registry's openness proof.

The differential harness queries the same logical data as CSV and as
JSONL and demands identical results; the adaptive-structure tests
assert the NoDB mechanisms carry over — warm scans stop tokenizing and
converting (binary cache), the positional map's line index kills
newline discovery, and its value-position chunks shrink tokenization
even with the cache disabled.
"""

from __future__ import annotations

import datetime

import pytest

import repro
from repro import (
    DATE,
    FLOAT,
    INTEGER,
    PostgresRaw,
    PostgresRawConfig,
    Schema,
    VirtualFS,
    varchar,
)
from repro.errors import JSONLFormatError
from repro.formats.jsonl import member_spans, value_end, write_jsonl
from repro.sql.catalog import Column

from tests.test_batch_differential import nul_outcome

ROWS = [
    {"id": 1, "name": "alice", "height": 170.5, "born": "2001-05-20",
     "note": "plain"},
    {"id": 2, "name": "bob, jr.", "height": 182.0, "born": "1998-11-02",
     "note": 'quoted "x"'},
    {"id": 3, "name": "carol", "height": 165.2, "born": "1990-01-15",
     "note": None},
    {"id": 4, "name": "dave", "height": 190.1, "born": "1996-07-30",
     "note": "brackets ] }"},
    {"id": 5, "name": "erin", "height": 158.7, "born": "1999-03-08",
     "note": "x"},
]


def schema() -> Schema:
    return Schema([
        ("id", INTEGER),
        ("name", varchar()),
        ("height", FLOAT),
        ("born", DATE),
        ("note", varchar()),
    ])


def csv_payload() -> bytes:
    lines = []
    for row in ROWS:
        note = row["note"] if row["note"] is not None else ""
        lines.append(f"{row['id']};{row['name']};{row['height']};"
                     f"{row['born']};{note}")
    return ("\n".join(lines) + "\n").encode()


def make_pair(config=None, jsonl_config=None):
    """One engine over the CSV rendering, one over the JSONL rendering
    of the same logical rows."""
    csv_vfs = VirtualFS()
    csv_vfs.create("t.csv", csv_payload())
    csv_db = PostgresRaw(vfs=csv_vfs, config=config)
    csv_db.query("CREATE TABLE t (id INTEGER, name VARCHAR, "
                 "height FLOAT, born DATE, note VARCHAR) USING csv "
                 "OPTIONS (path 't.csv', delimiter ';')")
    jsonl_vfs = VirtualFS()
    write_jsonl(ROWS, jsonl_vfs, "t.jsonl")
    jsonl_db = PostgresRaw(vfs=jsonl_vfs, config=jsonl_config or config)
    jsonl_db.query("CREATE TABLE t (id INTEGER, name VARCHAR, "
                   "height FLOAT, born DATE, note VARCHAR) USING jsonl "
                   "OPTIONS (path 't.jsonl')")
    return csv_db, jsonl_db


QUERIES = [
    "SELECT id, name FROM t",
    "SELECT name, height FROM t WHERE id > 2",
    "SELECT count(*), avg(height) FROM t WHERE born < DATE '1999-01-01'",
    "SELECT note FROM t WHERE id = 2",
    "SELECT id, height FROM t WHERE id IN (1, 4) ORDER BY height DESC",
    "SELECT name FROM t WHERE height BETWEEN 160 AND 185 ORDER BY name",
    "SELECT id, name FROM t WHERE name LIKE '%o%' ORDER BY id DESC",
    # column-vs-column, LIKE/NOT LIKE masks and CASE aggregates (the
    # shapes vectorized for TPC-H Q4/Q12/Q14) through the JSONL scan
    "SELECT id FROM t WHERE id < height AND name < note",
    "SELECT id FROM t WHERE name NOT LIKE '%a%' AND id * 40 <> height",
    "SELECT id FROM t WHERE note LIKE '%x%' OR name = note",
    "SELECT sum(CASE WHEN name LIKE '%a%' THEN height ELSE 0 END), "
    "count(CASE WHEN id < height THEN 1 END) FROM t WHERE id <> height",
]


class TestDifferential:
    @pytest.mark.parametrize("query", QUERIES)
    def test_same_results_as_csv(self, query):
        csv_db, jsonl_db = make_pair()
        assert jsonl_db.query(query).rows == csv_db.query(query).rows

    def test_same_results_cold_and_warm(self):
        _csv_db, jsonl_db = make_pair()
        for query in QUERIES:
            cold = jsonl_db.query(query).rows
            warm = jsonl_db.query(query).rows
            assert warm == cold

    def test_small_blocks_differential(self):
        config = PostgresRawConfig(row_block_size=2)
        csv_db, jsonl_db = make_pair(config, config)
        for query in QUERIES:
            assert jsonl_db.query(query).rows == csv_db.query(query).rows

    def test_json_null_is_sql_null(self):
        """One place the renderings legitimately differ: CSV has no
        NULL strings (empty text is ``""``), JSON does (``null``)."""
        _csv_db, jsonl_db = make_pair()
        assert jsonl_db.query("SELECT id FROM t WHERE note IS NULL"
                              ).rows == [(3,)]
        assert jsonl_db.query("SELECT count(*) FROM t "
                              "WHERE note IS NOT NULL").scalar() == 4

    def test_key_order_may_vary_per_line(self):
        vfs = VirtualFS()
        vfs.create("v.jsonl",
                   b'{"a": 1, "b": "x"}\n'
                   b'{"b": "y", "a": 2}\n'
                   b'{"a": 3}\n')
        db = PostgresRaw(vfs=vfs)
        db.query("CREATE TABLE v (a INTEGER, b VARCHAR) USING jsonl "
                 "OPTIONS (path 'v.jsonl')")
        result = db.query("SELECT a, b FROM v")
        assert result.rows == [(1, "x"), (2, "y"), (3, None)]
        # Warm: same answer off the adaptive structures.
        assert db.query("SELECT a, b FROM v").rows == result.rows


class TestAdaptiveStructures:
    def test_warm_scan_counters_drop(self):
        """The acceptance bar: the second identical query tokenizes and
        parses (converts) nothing — values come from the binary cache,
        line spans from the positional map."""
        _csv_db, jsonl_db = make_pair()
        query = "SELECT name, height FROM t WHERE id > 1"
        cold = jsonl_db.query(query)
        warm = jsonl_db.query(query)
        assert warm.rows == cold.rows
        assert cold.counters.get("tokenize", 0) > 0
        assert warm.counters.get("tokenize", 0) == 0
        assert cold.counters.get("convert_int", 0) > 0
        assert warm.counters.get("convert_int", 0) == 0
        assert warm.counters.get("convert_float", 0) == 0
        assert cold.counters.get("newline_scan", 0) > 0
        assert warm.counters.get("newline_scan", 0) == 0

    def test_positional_map_reuse_without_cache(self):
        """Cache off, map on: the second query still re-converts, but
        known value positions mean it tokenizes only the value bytes it
        needs instead of whole lines."""
        config = PostgresRawConfig(enable_cache=False)
        _csv_db, jsonl_db = make_pair(jsonl_config=config)
        query = "SELECT height FROM t WHERE id > 0"
        cold = jsonl_db.query(query)
        warm = jsonl_db.query(query)
        assert warm.rows == cold.rows
        assert 0 < warm.counters.get("tokenize", 0) < \
            cold.counters.get("tokenize", 0)
        # Same conversions both times: the saving is tokenization.
        assert warm.counters.get("convert_float") == \
            cold.counters.get("convert_float")
        assert warm.counters.get("newline_scan", 0) == 0

    def test_line_index_and_chunks_populated(self):
        _csv_db, jsonl_db = make_pair()
        jsonl_db.query("SELECT id FROM t WHERE height > 160")
        positional_map = jsonl_db.positional_map_of("t")
        assert positional_map.known_line_count == len(ROWS)
        assert positional_map.has_file_length
        indexed = positional_map.indexed_attrs(0)
        assert 0 in indexed and 2 in indexed  # id and height values
        assert jsonl_db.cache_of("t").bytes_used > 0

    def test_statistics_arrive_from_jsonl_scans(self):
        _csv_db, jsonl_db = make_pair()
        assert jsonl_db.catalog.get("t").stats is None
        jsonl_db.query("SELECT id FROM t")
        stats = jsonl_db.catalog.get("t").stats
        assert stats is not None
        assert stats.version > 0
        assert jsonl_db.catalog.stats_epoch > 0

    def test_appended_rows_visible(self):
        _csv_db, jsonl_db = make_pair()
        assert jsonl_db.query("SELECT count(*) FROM t").scalar() == 5
        jsonl_db.vfs.append_bytes(
            "t.jsonl",
            b'{"id": 6, "name": "frank", "height": 175.0, '
            b'"born": "1983-02-11", "note": "new"}\n')
        assert jsonl_db.query("SELECT count(*) FROM t").scalar() == 6
        assert jsonl_db.query("SELECT name FROM t WHERE id = 6"
                              ).rows == [("frank",)]

    def test_streaming_cursor_abandons_cleanly(self):
        _csv_db, jsonl_db = make_pair(
            jsonl_config=PostgresRawConfig(row_block_size=2))
        session = repro.connect(engine=jsonl_db)
        cursor = session.execute("SELECT id FROM t")
        assert cursor.fetchmany(2) == [(1,), (2,)]
        cursor.close()  # abandon mid-file; partial structures retained
        assert jsonl_db.query("SELECT count(*) FROM t").scalar() == 5


class TestRegistryOpenness:
    def test_registered_via_public_registry(self):
        from repro.formats.registry import available_formats, get_format

        assert "jsonl" in available_formats()
        adapter = get_format("jsonl")
        assert adapter.extensions == (".jsonl", ".ndjson")

    def test_extension_sniffing(self):
        vfs = VirtualFS()
        write_jsonl([{"a": 1}], vfs, "data.jsonl")
        db = PostgresRaw(vfs=vfs)
        db.query("CREATE TABLE j (a INTEGER) OPTIONS (path 'data.jsonl')")
        assert db.catalog.get("j").format == "jsonl"

    def test_loaded_engine_refuses_jsonl(self):
        from repro import LoadedDBMS
        from repro.errors import CatalogError

        vfs = VirtualFS()
        write_jsonl([{"a": 1}], vfs, "data.jsonl")
        db = LoadedDBMS(vfs=vfs)
        with pytest.raises(CatalogError):
            db.query("CREATE TABLE j (a INTEGER) USING jsonl "
                     "OPTIONS (path 'data.jsonl')")


class TestTokenizer:
    def test_member_spans_basics(self):
        line = b'{"a": 1, "b": "x, y", "c": [1, {"d": 2}]}'
        spans, scanned = member_spans(line)
        assert scanned == len(line)
        assert line[slice(*spans["a"])] == b"1"
        assert line[slice(*spans["b"])] == b'"x, y"'
        assert line[slice(*spans["c"])] == b'[1, {"d": 2}]'

    def test_escaped_quotes_and_unicode(self):
        line = b'{"s": "he said \\"hi\\"", "t": "\\u00e9"}'
        spans, _ = member_spans(line)
        assert line[slice(*spans["s"])] == b'"he said \\"hi\\""'

    def test_value_end_matches_member_spans(self):
        line = b'{"a": [1, [2, 3]], "b": true, "c": "x}"}'
        spans, _ = member_spans(line)
        for start, end in spans.values():
            assert value_end(line, start) == end

    def test_malformed_lines_raise(self):
        unterminated = b'{"a": "x'
        for bad in (b"[1, 2]", b'{"a": }', b'{"a" 1}', unterminated):
            with pytest.raises(JSONLFormatError):
                member_spans(bad)

    def test_malformed_row_surfaces_as_data_error(self):
        vfs = VirtualFS()
        vfs.create("bad.jsonl", b'{"a": 1}\nnot json\n')
        db = PostgresRaw(vfs=vfs)
        db.query("CREATE TABLE b (a INTEGER) USING jsonl "
                 "OPTIONS (path 'bad.jsonl')")
        with pytest.raises(JSONLFormatError):
            db.query("SELECT a FROM b")

    def test_date_values_round_trip(self):
        _csv_db, jsonl_db = make_pair()
        rows = jsonl_db.query("SELECT born FROM t WHERE id = 1").rows
        assert rows == [(datetime.date(2001, 5, 20),)]


class TestSchemaShapes:
    def test_unterminated_last_line(self):
        vfs = VirtualFS()
        vfs.create("u.jsonl", b'{"a": 1}\n{"a": 2}')  # no trailing \n
        db = PostgresRaw(vfs=vfs)
        db.query("CREATE TABLE u (a INTEGER) USING jsonl "
                 "OPTIONS (path 'u.jsonl')")
        assert db.query("SELECT a FROM u").rows == [(1,), (2,)]
        assert db.query("SELECT a FROM u").rows == [(1,), (2,)]  # warm

    def test_empty_file(self):
        vfs = VirtualFS()
        vfs.create("e.jsonl", b"")
        db = PostgresRaw(vfs=vfs)
        db.query("CREATE TABLE e (a INTEGER) USING jsonl "
                 "OPTIONS (path 'e.jsonl')")
        assert db.query("SELECT count(*) FROM e").scalar() == 0

    def test_mixed_case_keys_match_schema(self):
        vfs = VirtualFS()
        vfs.create("m.jsonl", b'{"Amount": 7}\n')
        db = PostgresRaw(vfs=vfs)
        db.catalog  # engine built
        db.query("CREATE TABLE m (amount INTEGER) USING jsonl "
                 "OPTIONS (path 'm.jsonl')")
        assert db.query("SELECT amount FROM m").rows == [(7,)]


class TestNumericFastPath:
    """The batch materializer converts clean bare numeric tokens through
    one byte-matrix astype instead of a per-row Python loop. Dirty rows
    (nulls, quoted numbers, huge widths) must fall back per value with
    identical results and identical plain-Python value types."""

    def test_mixed_clean_dirty_and_wide_values(self):
        lines = [
            b'{"a": 1, "b": 1.5}',
            b'{"a": -22, "b": -0.25}',
            b'{"a": null, "b": 2e3}',
            b'{"a": "333", "b": null}',   # quoted: JSON-decoded path
            b'{"a": 4444, "b": 0.125}',
            # 70-digit integer: wider than the 64-byte matrix cap, the
            # whole column falls back for this block
            b'{"a": ' + b"9" * 70 + b', "b": 3.5}',
        ]
        vfs = VirtualFS()
        vfs.create("wide.jsonl", b"\n".join(lines) + b"\n")
        db = PostgresRaw(vfs=vfs)
        db.query("CREATE TABLE w (a BIGINT, b FLOAT) USING jsonl "
                 "OPTIONS (path 'wide.jsonl')")
        rows = db.query("SELECT a, b FROM w").rows
        assert rows == [(1, 1.5), (-22, -0.25), (None, 2000.0),
                        (333, None), (4444, 0.125),
                        (int("9" * 70), 3.5)]
        for a, b in rows:
            assert a is None or type(a) is int
            assert b is None or type(b) is float

    def test_fast_path_matches_scalar_scan(self):
        lines = [('{"a": %d, "b": %s}' % (i, i / 8)).encode()
                 for i in range(64)]
        vfs = VirtualFS()
        vfs.create("n.jsonl", b"\n".join(lines) + b"\n")
        db = PostgresRaw(vfs=vfs)
        db.query("CREATE TABLE n (a INTEGER, b FLOAT) USING jsonl "
                 "OPTIONS (path 'n.jsonl')")
        rows = db.query("SELECT a, b FROM n WHERE a >= 0").rows
        assert rows == [(i, i / 8) for i in range(64)]


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("region", ["streaming", "indexed"])
@pytest.mark.parametrize("on_error", ["fail", "skip", "null"])
def test_nul_padded_numeric_matches_csv_twin(on_error, region, workers):
    """``{"a": 5\\x00}`` raises / is skipped / is NULLed exactly like
    ``5\\x00`` in the CSV rendering of the same rows — same messages,
    row numbers, ``rows_rejected`` and quarantine records."""
    assert nul_outcome("jsonl", on_error, region, scan_workers=workers) \
        == nul_outcome("csv", on_error, region, scan_workers=workers)
