"""JSON-Lines adapter: the registry's openness proof.

The lockstep harness's ``twin`` axis (``tests/oracle/digest.py``)
queries the same logical rows as CSV and as JSONL — lines mixing member
order, key case, whitespace, missing members and nested extras — and
demands the same rows, row numbers, cache contents, statistics and
every priced counter but byte geometry, cold, warm and after file
changes, under every error policy and worker count; here on pinned
scenarios (dirty rows under each policy, budgets, kernels, appends).
Also here: fixed differentials, NUL-padded numbers, the tokenizer and
the block structural index against the per-line walk, trailing data
and VARCHAR decoding; the adaptive-structure tests
assert the NoDB mechanisms carry over — warm scans stop tokenizing and
converting (binary cache), the positional map's line index kills
newline discovery, and its value-position chunks shrink tokenization
even with the cache disabled.
"""

from __future__ import annotations

import dataclasses
import datetime
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import (
    DATE,
    FLOAT,
    INTEGER,
    PostgresRaw,
    Schema,
    VirtualFS,
    varchar,
)
from repro.core.positional_map import NO_POS
from repro.errors import JSONLFormatError
from repro.formats.jsonl import (
    block_member_spans,
    member_spans,
    value_end,
    write_jsonl,
)
from repro.sql.catalog import Column
from tests.oracle.digest import (
    AXIS,
    Append,
    Query,
    Scenario,
    build_engine,
    check,
    nul_outcome,
    random_query,
    seeded,
    worker_axes,
)

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


def make_pair(**config):
    """One engine over the CSV rendering, one over the JSONL rendering
    of the same logical rows."""
    jsonl = "".join(json.dumps(row) + "\n" for row in ROWS).encode()
    return (build_engine({"t": (schema(), csv_payload())},
                         options=", delimiter ';'", **config),
            build_engine({"t": (schema(), jsonl)}, "jsonl", **config))


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
        csv_db, jsonl_db = make_pair(row_block_size=2)
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
        _csv_db, jsonl_db = make_pair(enable_cache=False)
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
        _csv_db, jsonl_db = make_pair(row_block_size=2)
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

    def test_trailing_data_after_object_raises(self):
        with pytest.raises(JSONLFormatError,
                           match="trailing data after object at byte 9"):
            member_spans(b'{"a": 1} {"a": 2}')
        with pytest.raises(JSONLFormatError, match="at byte 2"):
            member_spans(b"{}x")
        spans, scanned = member_spans(b'{"a": 1} \t\r')
        assert spans == {"a": (6, 7)} and scanned == 11

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


# ---------------------------------------------------------------------------
# The block structural index against the per-line walk
# ---------------------------------------------------------------------------
#: schema keys the index is asked for (lower-cased, as the scan asks)
INDEX_KEYS = ["id", "name", "x", "ünï"]

json_values = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["true", "false", "null"]),
    # raw non-ASCII, escaped quotes / backslashes / control characters
    st.text(max_size=6).map(lambda s: json.dumps(s, ensure_ascii=False)),
    st.text(max_size=4).map(json.dumps),            # \uXXXX escapes
    st.sampled_from(['[1, [2, "]"]]', '{"k": {"j": "}"}}', "[]", "{}",
                     '"a, b: {c}"', r'"\"\""', r'"a\\"', r'"\", \"k\": 1"',
                     r'"a\"', '1"a,b"', '"a"1']),
)
padding = st.sampled_from(["", "", " ", "\t", "\r", " \t "])
#: member names: ``json.dumps`` of a name (maybe ASCII-escaped), or a
#: raw JSON string — same-width look-alikes, escapes in the name
member_keys = st.one_of(
    st.tuples(st.sampled_from(["id", "ID", "Name", "name", "x", "y", "z",
                               "ab", "ünï", "Ünï"]), st.booleans()).map(
        lambda nb: json.dumps(nb[0], ensure_ascii=nb[1])),
    st.sampled_from([r'"x\""', r'"x\"', r'"\\"', '"a" "b"']))
#: same-width stand-ins for the template's names
LOOK_ALIKES = {'"id"': ['"ID"', '"ab"'], '"name"': ['"Name"', '"nope"'],
               '"x"': ['"y"', '"z"']}
LAYOUTS = ["template"] * 4 + ["shuffled", "missing", "renamed", "extra",
                              "duplicate", "empty"]
BREAKS = ["unterminated", "no_colon", "trailing_comma", "no_value",
          "bare_space", "two_strings", "not_a_member", "leading_bytes",
          "trailing_bytes", "second_object", "bracket_close"]


@st.composite
def jsonl_lines(draw):
    """One line: mostly the template layout ``id, name, x``, otherwise a
    variant or a malformed line, with random padding everywhere."""
    kind = draw(st.sampled_from(LAYOUTS + BREAKS + ["garbage"]))
    if kind == "garbage":
        return draw(st.binary(max_size=12)).replace(b"\n", b" ")
    keys = [json.dumps(name, ensure_ascii=draw(st.booleans()))
            for name in ("id", "name", "x")]
    if draw(st.integers(0, 9)) == 0:
        keys[0] = '"ID"'                             # mixed case
    if kind == "shuffled":
        keys = draw(st.permutations(keys))
    elif kind == "missing":
        keys.pop(draw(st.integers(0, 2)))
    elif kind == "renamed":
        at = draw(st.integers(0, 2))
        keys[at] = draw(st.sampled_from(LOOK_ALIKES.get(keys[at], ['"k"']))
                        | member_keys)
    elif kind == "extra":
        keys.insert(draw(st.integers(0, 3)), draw(member_keys))
    elif kind == "duplicate":
        keys.append(draw(st.sampled_from(['"id"', '"ID"', '"x"'])))
    elif kind in ("empty", "not_a_member"):
        keys = []
    pad = lambda: draw(padding)  # noqa: E731
    members = []
    for key in keys:
        value = draw(json_values)
        if not members and kind == "no_value":
            value = ""
        elif not members and kind == "bare_space":
            value = "1 2"
        elif not members and kind == "two_strings":
            value = '"a" "b"'
        members.append(f"{key}{pad()}:{pad()}{value}")
    body = f"{pad()},{pad()}".join(members)
    if kind == "not_a_member":
        body = draw(st.sampled_from(['"a"', "1", "x", '"a" 1', "1: 2"]))
    elif kind == "trailing_comma":
        body += ","
    line = f"{pad()}{{{pad()}{body}{pad()}}}{pad()}"
    if kind == "unterminated":
        line = line[:line.rfind('"')] if '"' in line else '{"a": "x'
    elif kind == "no_colon":
        line = line.replace(":", " ", 1) if ":" in line else '{"a" 1}'
    elif kind == "leading_bytes":
        line = "x" + line
    elif kind == "trailing_bytes":
        line += "x"
    elif kind == "second_object":
        line += ' {"id": 2}'
    elif kind == "bracket_close":
        line = line[:line.rfind("}")] + "]" + line[line.rfind("}") + 1:]
    return line.encode("utf-8")


def assert_index_matches_walk(lines, starts, ends, fast):
    for i, line in enumerate(lines):
        try:
            spans, _ = member_spans(line)
        except JSONLFormatError:
            # malformed: the per-line walk must get it, to raise
            assert not fast[i], line
            continue
        if fast[i]:
            for k, key in enumerate(INDEX_KEYS):
                expected = spans.get(key, (NO_POS, NO_POS))
                assert (starts[k, i], ends[k, i]) == expected, (line, key)


class TestBlockIndex:
    @given(st.lists(jsonl_lines(), min_size=1, max_size=40), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_fast_lines_equal_member_spans(self, lines, template_first):
        if template_first:    # the template layout is the call's template
            lines = [b'{"id": 0, "name": "t", "x": 1}'] + lines
        starts, ends, fast = block_member_spans(lines, keys=INDEX_KEYS)
        assert starts.shape == ends.shape == (len(INDEX_KEYS), len(lines))
        assert_index_matches_walk(lines, starts, ends, fast)

    @given(st.lists(st.tuples(st.binary(max_size=6), jsonl_lines()),
                    min_size=1, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_bytes_between_lines_are_ignored(self, pieces):
        """Lines cut out of a buffer whose gaps hold arbitrary bytes
        (quotes and braces included, as the unread rows of an indexed
        block may) index exactly like the lines alone."""
        buffer, line_starts, line_ends = b"", [], []
        for gap, line in pieces:
            buffer += gap
            line_starts.append(len(buffer))
            buffer += line
            line_ends.append(len(buffer))
        lines = [line for _, line in pieces]
        got = block_member_spans(buffer, np.array(line_starts),
                                 np.array(line_ends), INDEX_KEYS)
        alone = block_member_spans(lines, keys=INDEX_KEYS)
        for a, b in zip(got, alone):
            assert np.array_equal(a, b)

    def test_template_layout_resolves_in_one_pass(self):
        """Every line with the first well-formed line's member layout is
        resolved, whatever whitespace pads it; every other line — another
        member order or count, escaped, nested, malformed — is left to
        the walk."""
        lines = [b'{"escaped": "q\\"x"}',                  # not the template
                 b'{"id": 1, "name": "a", "x": 2.5}',
                 b'{"x": true, "id": 2}',
                 b'\t{ "id" :3 ,"name":"b c" , "x": null }\r',
                 b'{"x": 1, "name": "d", "id": 4}',
                 b"{}",
                 b'{"id": 5, "name": "q\\"x", "x": 1}',   # escape
                 b'{"id": 6, "name": [1, 2], "x": 1}',     # nested
                 b'{"id": 7} {"id": 8}',                   # trailing data
                 b'{"id": 9, "name": "c", "x": 3}']
        starts, ends, fast = block_member_spans(lines, keys=INDEX_KEYS)
        assert fast.tolist() == [False, True, False, True, False,
                                 False, False, False, False, True]
        assert_index_matches_walk(lines, starts, ends, fast)
        assert lines[3][starts[1, 3]:ends[1, 3]] == b'"b c"'

    def test_only_identical_key_bytes_match_the_template(self):
        """Same member count and key widths are not enough: ``"ab"`` and
        ``"ID"`` are not ``"id"`` byte for byte. A shorter key at the end
        of the buffer is not compared past it."""
        lines = [b'{"id": 1, "x": 2}', b'{"ab": 3, "x": 4}',
                 b'{"ID": 5, "x": 6}', b'{"id": 7, "x": 8}']
        starts, ends, fast = block_member_spans(lines, keys=INDEX_KEYS)
        assert fast.tolist() == [True, False, False, True]
        assert_index_matches_walk(lines, starts, ends, fast)
        lines = [b'{"a_much_longer_member_name": 1}', b'{"a": 2}']
        starts, ends, fast = block_member_spans(lines, keys=["a"])
        assert fast.tolist() == [True, False]

    @pytest.mark.parametrize("line", [b'{"a": "\\u00e9"}', b'{"a": [1]}'])
    def test_no_resolvable_line_resolves_nothing(self, line):
        starts, ends, fast = block_member_spans([line] * 3, keys=INDEX_KEYS)
        assert not fast.any()
        assert (starts == NO_POS).all() and (ends == NO_POS).all()

    @pytest.mark.parametrize("bad", [
        b'{"id":,"x":1}', b'{"id": 1 2}', b'{"id": "a" 1}', b'{"id": 1"a,b"}',
        b'x{"id": 1}', b'{"id": 1}x', b'{"id": 1} {"id": 2}', b'{"a\\": 1}',
        b'{1: 2}', b'{"id": 1]', b'{"id": 1,}', b'{"id" 1}', b'{"id": "x}',
        b"{,}", b'{"id"}', b'{"id": 1, "x": 2'])
    def test_malformed_lines_take_the_walk(self, bad):
        """A malformed line is never resolved — whatever layout the
        group's other lines share — so the per-line walk raises."""
        with pytest.raises(JSONLFormatError):
            member_spans(bad)
        lines = [b'{"id": 1}', bad, b'{"id": 3}']
        starts, ends, fast = block_member_spans(lines, keys=INDEX_KEYS)
        assert fast.tolist() == [True, False, True]

    def test_repeated_key_last_wins_and_keys_fold_case(self):
        lines = [b'{"ID": 1, "id": 2, "X": 3}'] * 3
        starts, ends, fast = block_member_spans(lines, keys=INDEX_KEYS)
        assert fast.all()
        assert [lines[0][s:e] for s, e in zip(starts[:, 0], ends[:, 0])
                if s != NO_POS] == [b"2", b"3"]


# ---------------------------------------------------------------------------
# Engine level: a mixed-layout file against its CSV twin
# ---------------------------------------------------------------------------
def mixed_workload(on_error: str) -> Scenario:
    """A table with unparseable values (``dirty``) under ``on_error``:
    four random statements, cold, then warm. Its JSONL twin mixes
    member order, key case, whitespace, missing members and nested
    extras line by line (``render_jsonl``)."""
    table, schema, rng = seeded(595)
    table = dataclasses.replace(table, dirty=True)
    queries = [random_query(rng, schema) for _ in range(4)]
    return Scenario((table,), tuple(Query(sql) for sql in queries * 2),
                    (("row_block_size", 8), ("on_error", on_error)))


@pytest.mark.parametrize("on_error", ["fail", "skip", "null"])
def test_mixed_layouts_match_csv_twin_at_any_worker_count(on_error):
    """The CSV file answers as the row-at-a-time oracle does; its JSONL
    twin with the same rows, row numbers, counters but byte geometry,
    statistics and quarantine records; and the JSONL table the same at
    1 and 4 workers."""
    scenario = mixed_workload(on_error)
    check(scenario, [AXIS["oracle"], AXIS["twin"]])
    runs = check(dataclasses.replace(scenario, layout="jsonl"),
                 worker_axes(1, 4))
    digests = next(iter(runs.values()))
    # the dirty values really reach the policy
    assert any(isinstance(step["outcome"], tuple) for step in digests) \
        == (on_error == "fail")
    assert bool(digests[-1]["rejects"]) == (on_error == "skip")


# ---------------------------------------------------------------------------
# Trailing data after the object: an error, never a silently dropped row
# ---------------------------------------------------------------------------
TRAILING_LINES = [b'{"a": 0}', b'{"a": 1} {"a": 2}', b'{"a": 3}xyz',
                  b'{"a": 4} \t']


@pytest.mark.parametrize("on_error", ["fail", "skip", "null"])
def test_trailing_data_follows_the_error_policy(on_error):
    """Cold (streaming region) and warm (indexed region) alike."""
    vfs = VirtualFS()
    vfs.create("t.jsonl", b"\n".join(TRAILING_LINES) + b"\n")
    engine = PostgresRaw(vfs=vfs)
    engine.query("CREATE TABLE t (a INTEGER) USING jsonl OPTIONS "
                 f"(path 't.jsonl', on_error '{on_error}')")
    for _ in range(2):
        if on_error == "fail":
            with pytest.raises(JSONLFormatError,
                               match="trailing data after object at byte 9"
                               ) as info:
                engine.query("SELECT a FROM t")
            assert info.value.context["row_number"] == 1
            continue
        rows = engine.query("SELECT a FROM t").rows
        if on_error == "skip":
            assert rows == [(0,), (4,)]
        else:
            assert rows == [(0,), (None,), (None,), (4,)]
    if on_error == "skip":
        records = vfs.read_bytes("__rejects__/t").split(b"\n")[:-1]
        assert [record.split(b"\t")[:2] for record in records] == [
            [b"1", b"trailing data after object at byte 9"],
            [b"2", b"trailing data after object at byte 8"]]


# ---------------------------------------------------------------------------
# VARCHAR tokens without escapes are decoded without json.loads
# ---------------------------------------------------------------------------
def test_plain_varchar_decode_equals_json_loads():
    tokens = [b'""', b'"plain"', '"héllo 日本"'.encode(), b'"\xff\xfe ok"',
              b'"\xe2"', b'"a\\"b"', b'"\\u00e9\\n"', b'"\x7f"']
    vfs = VirtualFS()
    vfs.create("s.jsonl", b"".join(b'{"s": %s}\n' % token
                                   for token in tokens))
    engine = PostgresRaw(vfs=vfs)
    engine.query("CREATE TABLE s (s VARCHAR) USING jsonl "
                 "OPTIONS (path 's.jsonl')")
    expected = [(json.loads(token.decode("utf-8", "replace")),)
                for token in tokens]
    assert engine.query("SELECT s FROM s").rows == expected
    assert engine.query("SELECT s FROM s").rows == expected      # warm


def test_varchar_control_character_still_raises():
    vfs = VirtualFS()
    vfs.create("s.jsonl", b'{"s": "ok"}\n{"s": "tab\there"}\n')
    engine = PostgresRaw(vfs=vfs)
    engine.query("CREATE TABLE s (s VARCHAR) USING jsonl "
                 "OPTIONS (path 's.jsonl')")
    with pytest.raises(JSONLFormatError, match="bad string value") as info:
        engine.query("SELECT s FROM s")
    assert info.value.context["row_number"] == 1


# ---------------------------------------------------------------------------
# One block compute: a JSONL table charges what its CSV twin charges
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("budget", [None, 8000])
@pytest.mark.parametrize("kernels", [True, False])
@pytest.mark.parametrize("workers", [1, 4])
def test_jsonl_charges_what_its_csv_twin_charges(workers, kernels, budget):
    """Cold, warm, under a cache budget and after an append: same rows,
    same non-geometry counters, same §4.4 samples (each round of the
    twin axis) — over mixed column types, and over the wide micro table
    the budget cannot hold."""
    table, schema, rng = seeded(4403, "random" if budget is None
                                else "micro")
    queries = [Query(random_query(rng, schema)) for _ in range(5)]
    config = {"row_block_size": 32, "stats_sample_target": 7,
              "scan_workers": workers, "scan_kernels": kernels,
              "cache_budget_bytes": budget}
    check(Scenario((table,), (*queries, *queries, Append(45, 1), *queries),
                   tuple(config.items())), [AXIS["twin"]])
    if budget is not None:      # the budget really evicts
        engine = build_engine({"t": table.generate()}, "jsonl", **config)
        for query in queries:
            engine.query(query.sql)
        assert engine.cache_of("t").evictions > 0
