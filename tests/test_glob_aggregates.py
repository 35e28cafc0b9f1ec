"""Bare aggregates over a globbed table scan every file, as one file does.

An unfiltered, ungrouped ``SELECT count(*), min(..), max(..)`` over a
``path 'ev-*.csv'`` table is planned and priced like any other scan:
cold or warm, it reads every partition, and its rows, counters (bar the
zero-priced ``files_*`` ones) and virtual clock equal those of the same
rows declared as one file. No plan-time answer from the per-file zone
maps replaces the scan, so the partitioned-vs-one-file cost parity of
the lockstep harness's ``glob`` axis holds for these queries too. New,
appended and all-NULL files change the answers exactly as they change
the data.

One byte per file boundary is the exception. A warm block read over
the line index covers the block's lines up to, not including, the last
one's newline; the next block's read starts a byte later, and the VFS
charges that one-byte forward gap as read-through
(``disk_read_warm``). One file has such a gap at every block boundary;
a glob whose block boundaries are file boundaries has none there — the
newline ends a file nobody reads on. So ``min(tag), max(tag)`` over
three files reads ``files - 1`` bytes less than over one, and every
other counter is equal.
"""

from __future__ import annotations

import math

import pytest

from repro import PostgresRaw, PostgresRawConfig, VirtualFS


ROWS = [
    (1, "a", 10), (2, "b", None), (3, "a", 7), (4, "c", 2),
    (5, "b", 30), (6, "a", 4), (7, "c", 15), (8, "b", 9),
    (9, "a", 1), (10, "c", 22), (11, "b", 6), (12, "a", 11),
]

BARE = "SELECT count(*), min(id), max(id), min(v), max(v) FROM ev"


def to_csv(rows) -> bytes:
    return "".join(
        f"{i},{t},{'' if v is None else v}\n" for i, t, v in rows
    ).encode()


def build(files=3, workers=1, rows=ROWS):
    """``rows`` split over ``files`` CSV files behind one glob (one
    file: declared by its own name). Four rows per block, so every
    file boundary is a block boundary and the two layouts price the
    same work."""
    per = len(rows) // files
    vfs = VirtualFS()
    if files == 1:
        vfs.create("ev.csv", to_csv(rows))
        path = "ev.csv"
    else:
        for f in range(files):
            vfs.create(f"ev-{f}.csv", to_csv(rows[f * per:(f + 1) * per]))
        path = "ev-*.csv"
    db = PostgresRaw(vfs=vfs, config=PostgresRawConfig(
        scan_workers=workers, row_block_size=4))
    db.query("CREATE TABLE ev (id INTEGER, tag VARCHAR, v INTEGER) "
             f"USING csv OPTIONS (path '{path}')")
    return db


def core_counters(result):
    return {k: v for k, v in result.counters.items()
            if not k.startswith("files_")}


class TestBareAggregatesOverGlobs:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_warm_repeat_scans_every_file(self, workers):
        db = build(workers=workers)
        cold = db.query(BARE)
        warm = db.query(BARE)
        assert cold.counters.get("files_scanned") == 3
        assert warm.counters.get("files_scanned") == 3
        assert warm.rows == cold.rows == [(12, 1, 12, 1, 30)]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_cost_parity_with_one_file(self, workers):
        one = build(files=1, workers=workers)
        part = build(files=3, workers=workers)
        queries = [
            BARE,
            "SELECT min(v) FROM ev",
            "SELECT count(*) FROM ev",
            "SELECT max(id), count(*) FROM ev",
        ]
        for sql in queries + queries:  # cold, then warm
            expected, got = one.query(sql), part.query(sql)
            assert got.rows == expected.rows, sql
            assert core_counters(got) == core_counters(expected), sql
            assert math.isclose(got.elapsed, expected.elapsed,
                                rel_tol=1e-9), sql

    def test_filtered_grouped_and_summed_queries_match_one_file(self):
        one, part = build(files=1), build(files=3)
        part.query(BARE)
        one.query(BARE)
        for sql in (
                "SELECT count(*) FROM ev WHERE v > 5",
                "SELECT tag, count(*) FROM ev GROUP BY tag ORDER BY tag",
                "SELECT count(*), sum(v) FROM ev",
        ):
            assert part.query(sql).rows == one.query(sql).rows, sql
        assert part.query("SELECT count(*), sum(v) FROM ev").rows == [
            (12, 117)]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_warm_reads_differ_by_the_boundary_newlines(self, workers):
        one, part = build(files=1, workers=workers), build(workers=workers)
        one.query(BARE)
        part.query(BARE)
        sql = "SELECT min(tag), max(tag) FROM ev"
        expected, got = core_counters(one.query(sql)), core_counters(
            part.query(sql))
        assert (expected.pop("disk_read_warm") - got.pop("disk_read_warm")
                == 3 - 1)
        assert got == expected

    def test_varchar_extremes(self):
        db = build()
        db.query(BARE)
        sql = "SELECT min(tag), max(tag) FROM ev"
        assert db.query(sql).rows == db.query(sql).rows == [("a", "c")]

    def test_limit_zero_returns_no_row(self):
        db = build()
        db.query(BARE)
        assert db.query("SELECT count(*) FROM ev LIMIT 0").rows == []

    def test_new_partition_file_is_counted(self):
        db = build()
        db.query(BARE)
        db.query(BARE)
        db.vfs.create("ev-9.csv", to_csv([(99, "z", 50)]))
        fresh = db.query(BARE)
        assert fresh.counters.get("files_scanned") == 4
        assert fresh.rows == [(13, 1, 99, 1, 50)]
        assert db.query(BARE).rows == fresh.rows

    def test_appended_rows_are_counted(self):
        db = build()
        db.query(BARE)
        db.vfs.append_bytes("ev-1.csv", to_csv([(77, "q", 40)]))
        fresh = db.query(BARE)
        assert fresh.rows == [(13, 1, 77, 1, 40)]
        assert db.query(BARE).rows == fresh.rows

    def test_all_null_column_aggregates_to_null(self):
        db = build(files=3, rows=[(1, "a", None), (2, "b", None),
                                  (3, "c", None)])
        sql = "SELECT min(v), max(v), count(*) FROM ev"
        cold = db.query(sql)
        warm = db.query(sql)
        assert warm.rows == cold.rows == [(None, None, 3)]
