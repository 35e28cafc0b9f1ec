"""Tests for external updates (§4.5): appends, rewrites, new files."""

import pytest

from repro import PostgresRaw, PostgresRawConfig, VirtualFS
from repro.simcost.clock import CostEvent
from repro.workloads.micro import (
    append_micro_rows,
    generate_micro_csv,
    micro_schema,
)
from tests.conftest import create_table
from tests.oracle import OracleRaw

ATTRS = 6


@pytest.fixture
def db():
    vfs = VirtualFS()
    generate_micro_csv(vfs, "t.csv", rows=50, nattrs=ATTRS, seed=1)
    engine = PostgresRaw(config=PostgresRawConfig(row_block_size=16),
                         vfs=vfs)
    create_table(engine, "t", "t.csv", micro_schema(ATTRS))
    return engine


class TestAppends:
    def test_appended_rows_immediately_visible(self, db):
        assert db.query("SELECT count(*) FROM t").scalar() == 50
        append_micro_rows(db.vfs, "t.csv", rows=20, nattrs=ATTRS, seed=2)
        assert db.query("SELECT count(*) FROM t").scalar() == 70

    def test_append_before_any_query(self, db):
        append_micro_rows(db.vfs, "t.csv", rows=5, nattrs=ATTRS, seed=2)
        assert db.query("SELECT count(*) FROM t").scalar() == 55

    def test_append_preserves_old_values(self, db):
        before = db.query("SELECT a1 FROM t").rows
        append_micro_rows(db.vfs, "t.csv", rows=10, nattrs=ATTRS, seed=2)
        after = db.query("SELECT a1 FROM t").rows
        assert after[:50] == before

    def test_append_extends_structures_not_rebuilds(self, db):
        db.query("SELECT a1, a2 FROM t")
        pm = db.positional_map_of("t")
        pointers_before = pm.pointer_count
        append_micro_rows(db.vfs, "t.csv", rows=20, nattrs=ATTRS, seed=2)
        db.query("SELECT a1, a2 FROM t")
        # Old pointers survived; new ones were added for the tail.
        assert pm.pointer_count > pointers_before
        assert pm.known_line_count == 70

    def test_append_scan_streams_only_the_tail(self, db):
        db.query("SELECT a1 FROM t")
        streamed_before = db.model.count(CostEvent.NEWLINE_SCAN)
        old_size = db.vfs.size("t.csv")
        append_micro_rows(db.vfs, "t.csv", rows=10, nattrs=ATTRS, seed=2)
        new_size = db.vfs.size("t.csv")
        db.query("SELECT a1 FROM t")
        streamed = db.model.count(CostEvent.NEWLINE_SCAN) - streamed_before
        # Streaming re-reads from the last known line start, which is
        # far less than the whole file.
        assert streamed <= (new_size - old_size) + 200

    def test_multiple_appends(self, db):
        for i in range(3):
            append_micro_rows(db.vfs, "t.csv", rows=10, nattrs=ATTRS,
                              seed=10 + i)
            expected = 50 + 10 * (i + 1)
            assert db.query("SELECT count(*) FROM t").scalar() == expected

    @pytest.mark.parametrize("batch", [True, False])
    def test_wide_rescan_after_append_grows_last_block(self, batch):
        """Regression: an append that grows the last positional-map
        block must not break merging newly discovered positions into
        the shorter pre-append columns (the oracle's flush too)."""
        vfs = VirtualFS()
        generate_micro_csv(vfs, "t.csv", rows=50, nattrs=ATTRS, seed=1)
        engine = (PostgresRaw if batch else OracleRaw)(
            config=PostgresRawConfig(row_block_size=16), vfs=vfs)
        create_table(engine, "t", "t.csv", micro_schema(ATTRS))
        wide = "SELECT a1, a2, a3, a4 FROM t"
        before = engine.query(wide).rows
        append_micro_rows(engine.vfs, "t.csv", rows=3, nattrs=ATTRS,
                          seed=9)
        engine.query("SELECT a1 FROM t")  # narrow scan re-indexes a1
        after = engine.query(wide).rows
        assert after[:50] == before
        assert len(after) == 53


class TestRewrites:
    def test_rewrite_invalidates_structures(self, db):
        db.query("SELECT a1 FROM t")
        assert db.positional_map_of("t").pointer_count > 0
        generate_micro_csv(db.vfs, "t.csv", rows=30, nattrs=ATTRS, seed=9)
        assert db.query("SELECT count(*) FROM t").scalar() == 30
        # Structures were rebuilt for the new content.
        assert db.positional_map_of("t").known_line_count == 30

    def test_rewrite_with_different_values(self, db):
        db.query("SELECT a1 FROM t")
        db.vfs.write_bytes("t.csv", b"1,2,3,4,5,6\n")
        result = db.query("SELECT a1, a6 FROM t")
        assert result.rows == [(1, 6)]

    def test_shrinking_rewrite(self, db):
        db.query("SELECT a1 FROM t")
        db.vfs.write_bytes("t.csv", b"7,8,9,10,11,12\n")
        assert db.query("SELECT count(*) FROM t").scalar() == 1


class TestNewFiles:
    def test_new_file_instantly_queryable(self, db):
        generate_micro_csv(db.vfs, "fresh.csv", rows=10, nattrs=ATTRS,
                           seed=5)
        create_table(db, "fresh", "fresh.csv", micro_schema(ATTRS))
        assert db.query("SELECT count(*) FROM fresh").scalar() == 10

    def test_two_new_tables_join(self, db):
        from repro import INTEGER, Schema, varchar
        db.vfs.create("lookup.csv", b"1,one\n2,two\n3,three\n")
        db.vfs.create("facts.csv", b"10,1\n20,1\n30,3\n")
        create_table(db, "lookup", "lookup.csv",
                     Schema([("k", INTEGER), ("label", varchar())]))
        create_table(db, "facts", "facts.csv",
                     Schema([("v", INTEGER), ("fk", INTEGER)]))
        joined = db.query(
            "SELECT label, sum(v) AS total FROM lookup, facts "
            "WHERE fk = k GROUP BY label ORDER BY total DESC")
        assert joined.rows == [("one", 30), ("three", 30)] or \
            joined.rows == [("three", 30), ("one", 30)]
        semi = db.query(
            "SELECT label FROM lookup WHERE EXISTS "
            "(SELECT * FROM facts WHERE fk = k) ORDER BY label")
        assert semi.column("label") == ["one", "three"]
