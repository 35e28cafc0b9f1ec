"""Tests for RawCsvAccess — the in-situ scan and its mechanisms (§4).

These tests assert the paper's *mechanisms* as exact counter values:
selective tokenizing touches fewer characters, the positional map
eliminates re-tokenization, the cache eliminates file access, selective
parsing converts SELECT attributes only for qualifying tuples.
"""

import pytest

from repro import PostgresRaw, PostgresRawConfig, VirtualFS
from repro.core.blockscan import BlockScan
from repro.core.scan_batch import _CsvBlockLines
from repro.simcost.clock import CostEvent
from repro.sql.scanapi import ScanPredicate
from repro.workloads.micro import (
    append_micro_rows,
    generate_micro_csv,
    micro_schema,
)
from tests.conftest import create_table
from tests.oracle import OracleRaw, scan_rows
from tests.oracle.digest import structures

ROWS = 300
ATTRS = 12
BLOCK = 64


#: eager-indexing workloads (config, queries), one per way a scan meets
#: the positional map
EAGER_REGIONS = {
    # a cold scan: stream groups only
    "streaming": ({}, ["SELECT a9, a6 FROM m WHERE a3 < 500000000",
                       "SELECT a12 FROM m WHERE a10 > 200000000"]),
    # indexed blocks tokenized forward from a map knowing a prefix
    "partial map": ({}, ["SELECT a2 FROM m WHERE a1 < 700000000",
                         "SELECT a9, a6 FROM m WHERE a3 < 500000000",
                         "SELECT a12 FROM m WHERE a10 > 200000000"]),
    # the budget evicts the first blocks' older chunks (a2..a8): a6 is
    # tokenized backward from a9
    "evicted map": (dict(pm_budget_bytes=11_000, enable_cache=False),
                    ["SELECT a7 FROM m", "SELECT a12 FROM m",
                     "SELECT a6 FROM m"]),
}


def make_engine(engine=PostgresRaw, **config_kwargs):
    vfs = VirtualFS()
    generate_micro_csv(vfs, "m.csv", ROWS, ATTRS, seed=11)
    config = PostgresRawConfig(row_block_size=BLOCK, **config_kwargs)
    db = engine(config=config, vfs=vfs)
    create_table(db, "m", "m.csv", micro_schema(ATTRS))
    return db, db.catalog.get("m").access


def ground_truth(vfs, path="m.csv"):
    rows = []
    for line in vfs.read_bytes(path).decode().splitlines():
        rows.append([int(v) for v in line.split(",")])
    return rows


def predicate_lt(attr, threshold):
    return ScanPredicate(
        attrs=[attr],
        fn=lambda values, a=attr, t=threshold: values[a] < t,
        n_terms=1)


class TestCorrectness:
    def test_full_projection_matches_ground_truth(self):
        db, access = make_engine()
        truth = ground_truth(db.vfs)
        got = list(scan_rows(access, list(range(ATTRS)), None))
        assert got == [tuple(row) for row in truth]

    def test_subset_projection(self):
        db, access = make_engine()
        truth = ground_truth(db.vfs)
        got = list(scan_rows(access, [3, 7], None))
        assert got == [(row[3], row[7]) for row in truth]

    def test_projection_order_respected(self):
        db, access = make_engine()
        truth = ground_truth(db.vfs)
        got = list(scan_rows(access, [7, 3], None))
        assert got == [(row[7], row[3]) for row in truth]

    def test_predicate_filters(self):
        db, access = make_engine()
        truth = ground_truth(db.vfs)
        threshold = 500_000_000
        got = list(scan_rows(access, [1], predicate_lt(0, threshold)))
        assert got == [(row[1],) for row in truth if row[0] < threshold]

    def test_repeated_scans_identical(self):
        # First scan streams, later scans run over the indexed region.
        db, access = make_engine()
        runs = [list(scan_rows(access, [2, 9], None)) for _ in range(4)]
        assert runs[0] == runs[1] == runs[2] == runs[3]

    def test_alternating_attribute_sets(self):
        db, access = make_engine()
        truth = ground_truth(db.vfs)
        for attrs in ([0, 5], [11], [4, 2, 8], [5, 0], [7]):
            got = list(scan_rows(access, attrs, None))
            assert got == [tuple(row[a] for a in attrs) for row in truth]

    def test_predicate_after_warm_cache(self):
        db, access = make_engine()
        truth = ground_truth(db.vfs)
        threshold = 300_000_000
        list(scan_rows(access, [0, 4], None))  # warm cache for attrs 0 and 4
        got = list(scan_rows(access, [4], predicate_lt(0, threshold)))
        assert got == [(row[4],) for row in truth if row[0] < threshold]

    def test_abandoned_scan_then_full_scan(self):
        # A LIMIT-style abandoned generator leaves a partial map; the
        # next scan must still produce the complete correct answer.
        db, access = make_engine()
        truth = ground_truth(db.vfs)
        gen = scan_rows(access, [1], None)
        for _ in range(10):
            next(gen)
        gen.close()
        assert access.row_count is None
        got = list(scan_rows(access, [1], None))
        assert got == [(row[1],) for row in truth]
        assert access.row_count == ROWS

    def test_empty_file(self):
        vfs = VirtualFS()
        vfs.create("e.csv", b"")
        db = PostgresRaw(vfs=vfs)
        create_table(db, "e", "e.csv", micro_schema(3))
        access = db.catalog.get("e").access
        assert list(scan_rows(access, [0], None)) == []
        assert access.row_count == 0

    def test_unterminated_last_line(self):
        vfs = VirtualFS()
        vfs.create("u.csv", b"1,2\n3,4")  # no trailing newline
        db = PostgresRaw(vfs=vfs)
        create_table(db, "u", "u.csv", micro_schema(2))
        access = db.catalog.get("u").access
        assert list(scan_rows(access, [0, 1], None)) == [(1, 2), (3, 4)]
        # Second scan: last line's span is computed from the file length.
        assert list(scan_rows(access, [0, 1], None)) == [(1, 2), (3, 4)]


class TestSelectiveTokenizing:
    def test_prefix_scan_tokenizes_less(self):
        db_low, access_low = make_engine()
        db_high, access_high = make_engine()
        list(scan_rows(access_low, [1], None))
        list(scan_rows(access_high, [ATTRS - 1], None))
        low = db_low.model.count(CostEvent.TOKENIZE)
        high = db_high.model.count(CostEvent.TOKENIZE)
        assert low < high

    def test_newline_scan_charged_only_while_streaming(self):
        db, access = make_engine()
        list(scan_rows(access, [1], None))
        streamed = db.model.count(CostEvent.NEWLINE_SCAN)
        assert streamed >= db.vfs.size("m.csv")
        list(scan_rows(access, [1], None))
        assert db.model.count(CostEvent.NEWLINE_SCAN) == streamed


class TestPositionalMapMechanism:
    def test_second_scan_avoids_tokenizing(self):
        db, access = make_engine()
        list(scan_rows(access, [5], None))
        after_first = db.model.count(CostEvent.TOKENIZE)
        list(scan_rows(access, [5], None))
        # Attr 5's span is fully known (start of 5 and of 6 recorded):
        # zero additional tokenization; values come from the cache.
        assert db.model.count(CostEvent.TOKENIZE) == after_first

    def test_map_jump_for_nearby_attribute(self):
        # After querying attr 5, attr 6 can start from 5's position
        # instead of tokenizing the prefix 0..6.
        db, access = make_engine(enable_cache=False)
        list(scan_rows(access, [5], None))
        t0 = db.model.count(CostEvent.TOKENIZE)
        list(scan_rows(access, [6], None))
        jump_cost = db.model.count(CostEvent.TOKENIZE) - t0

        db2, access2 = make_engine(enable_cache=False)
        list(scan_rows(access2, [6], None))
        fresh_cost = db2.model.count(CostEvent.TOKENIZE)
        assert jump_cost < fresh_cost

    def test_backward_parsing_used(self):
        # Attr 9 indexed; asking for attr 8 should tokenize backward
        # from 9, far cheaper than forward from the line start.
        db, access = make_engine(enable_cache=False)
        list(scan_rows(access, [9], None))
        t0 = db.model.count(CostEvent.TOKENIZE)
        list(scan_rows(access, [8], None))
        backward_cost = db.model.count(CostEvent.TOKENIZE) - t0
        db2, access2 = make_engine(enable_cache=False)
        list(scan_rows(access2, [8], None))
        assert backward_cost < db2.model.count(CostEvent.TOKENIZE)

    def test_map_population_is_adaptive(self):
        db, access = make_engine()
        pm = access.pm
        assert pm.pointer_count == 0
        list(scan_rows(access, [3], None))
        pointers_after_q1 = pm.pointer_count
        assert pointers_after_q1 > 0
        list(scan_rows(access, [7], None))
        assert pm.pointer_count > pointers_after_q1

    def test_pm_budget_respected_during_scans(self):
        db, access = make_engine(pm_budget_bytes=2000)
        for attr in range(0, ATTRS, 2):
            list(scan_rows(access, [attr], None))
            assert access.pm.chunk_bytes <= 2000

    def test_disabled_pm_keeps_tokenizing(self):
        db, access = make_engine(enable_positional_map=False,
                                 enable_cache=False,
                                 enable_statistics=False)
        list(scan_rows(access, [5], None))
        first = db.model.count(CostEvent.TOKENIZE)
        list(scan_rows(access, [5], None))
        second = db.model.count(CostEvent.TOKENIZE) - first
        assert second == first  # no learning at all (Baseline)


class TestCacheMechanism:
    def test_fully_cached_scan_does_no_io(self):
        db, access = make_engine()
        list(scan_rows(access, [2, 6], None))
        io_before = (db.model.count(CostEvent.DISK_READ_COLD)
                     + db.model.count(CostEvent.DISK_READ_WARM))
        result = list(scan_rows(access, [2, 6], None))
        io_after = (db.model.count(CostEvent.DISK_READ_COLD)
                    + db.model.count(CostEvent.DISK_READ_WARM))
        assert io_after == io_before
        assert len(result) == ROWS
        assert db.model.count(CostEvent.CACHE_READ) >= 2 * ROWS

    def test_cached_scan_does_no_conversion(self):
        db, access = make_engine()
        list(scan_rows(access, [2], None))
        conv_before = db.model.count(CostEvent.CONVERT_INT)
        list(scan_rows(access, [2], None))
        assert db.model.count(CostEvent.CONVERT_INT) == conv_before

    def test_partial_cache_reads_only_missing(self):
        db, access = make_engine()
        list(scan_rows(access, [2], None))
        io_before = db.model.count(CostEvent.DISK_READ_WARM)
        list(scan_rows(access, [2, 3], None))  # attr 3 missing -> file access
        assert db.model.count(CostEvent.DISK_READ_WARM) > io_before

    def test_cache_budget_respected(self):
        db, access = make_engine(cache_budget_bytes=1500)
        for attr in range(ATTRS):
            list(scan_rows(access, [attr], None))
            assert access.cache.bytes_used <= 1500

    def test_cache_disabled_always_reads_file(self):
        db, access = make_engine(enable_cache=False)
        list(scan_rows(access, [2], None))
        io_before = (db.model.count(CostEvent.DISK_READ_COLD)
                     + db.model.count(CostEvent.DISK_READ_WARM))
        list(scan_rows(access, [2], None))
        io_after = (db.model.count(CostEvent.DISK_READ_COLD)
                    + db.model.count(CostEvent.DISK_READ_WARM))
        assert io_after > io_before


class TestSelectiveParsing:
    def test_select_attrs_converted_only_for_qualifying_rows(self):
        db, access = make_engine(enable_statistics=False)
        threshold = 100_000_000  # ~10% selectivity
        truth = ground_truth(db.vfs)
        qualifying = sum(1 for row in truth if row[0] < threshold)
        list(scan_rows(access, [5], predicate_lt(0, threshold)))
        conversions = db.model.count(CostEvent.CONVERT_INT)
        # attr 0 converted for every row; attr 5 only for qualifying.
        assert conversions == ROWS + qualifying

    def test_hundred_percent_selectivity_converts_all(self):
        db, access = make_engine(enable_statistics=False)
        list(scan_rows(access, [5], predicate_lt(0, 2 * 10 ** 9)))
        assert db.model.count(CostEvent.CONVERT_INT) == 2 * ROWS


class TestStatistics:
    def test_stats_collected_for_requested_attrs_only(self):
        db, access = make_engine()
        list(scan_rows(access, [3], None))
        stats = db.catalog.get("m").stats
        assert stats is not None
        assert stats.has_column("a4")       # attr 3 is a4
        assert not stats.has_column("a1")
        assert stats.row_count == ROWS

    def test_stats_augmented_incrementally(self):
        db, access = make_engine()
        list(scan_rows(access, [3], None))
        list(scan_rows(access, [6], None))
        stats = db.catalog.get("m").stats
        assert stats.has_column("a4") and stats.has_column("a7")

    def test_no_resampling_of_known_attrs(self):
        db, access = make_engine()
        list(scan_rows(access, [3], None))
        samples = db.model.count(CostEvent.STATS_SAMPLE)
        list(scan_rows(access, [3], None))
        assert db.model.count(CostEvent.STATS_SAMPLE) == samples

    def test_stats_disabled(self):
        db, access = make_engine(enable_statistics=False)
        list(scan_rows(access, [3], None))
        assert db.catalog.get("m").stats is None
        assert db.model.count(CostEvent.STATS_SAMPLE) == 0

    def test_stats_min_max_plausible(self):
        db, access = make_engine()
        truth = ground_truth(db.vfs)
        list(scan_rows(access, [0], None))
        column = db.catalog.get("m").stats.column("a1")
        actual = [row[0] for row in truth]
        assert min(actual) <= column.min_value <= column.max_value
        assert column.max_value <= max(actual)


class TestEagerPrefixIndexing:
    def test_eager_keeps_positions_along_the_way(self):
        # §4.2: "if a query requires attributes in positions 10 and 15,
        # all positions from 1 to 15 may be kept".
        db, access = make_engine(eager_prefix_indexing=True)
        list(scan_rows(access, [8], None))
        indexed = access.pm.indexed_attrs(0)
        assert set(range(1, 9)) <= set(indexed)

    def test_lazy_keeps_only_requested(self):
        db, access = make_engine(eager_prefix_indexing=False)
        list(scan_rows(access, [8], None))
        indexed = set(access.pm.indexed_attrs(0))
        assert 8 in indexed or 9 in indexed
        assert 2 not in indexed

    def test_eager_runs_the_block_scan(self, monkeypatch):
        """Eager indexing is an attribute set of the block scan, not a
        reason to leave it: a cold eager scan computes stream groups."""
        groups = []
        compute = BlockScan._compute_stream_group

        def counted(scan, *args):
            groups.append(scan.index_attrs)
            return compute(scan, *args)

        monkeypatch.setattr(BlockScan, "_compute_stream_group", counted)
        db, access = make_engine(eager_prefix_indexing=True)
        assert db.query("SELECT a9 FROM m WHERE a3 < 500000000").rows
        assert groups and all(list(attrs) == list(range(1, ATTRS))
                              for attrs in groups)

    @pytest.mark.parametrize("region", [*EAGER_REGIONS, "append"])
    def test_eager_structures_equal_the_oracle(self, region, monkeypatch):
        """Both regions keep what the row-at-a-time oracle keeps — in
        results, map and cache: a cold scan; indexed blocks tokenized
        forward from a map that knows a prefix, or backward from one a
        budget left knowing only later attributes; and indexed blocks
        grown by an append, whose tail streams."""
        backward = []
        derive = _CsvBlockLines._derive_backward

        def counted(lines, *args):
            backward.append(args[0])
            return derive(lines, *args)

        monkeypatch.setattr(_CsvBlockLines, "_derive_backward", counted)
        config, queries = EAGER_REGIONS.get(region,
                                            EAGER_REGIONS["partial map"])
        engines = [make_engine(engine, eager_prefix_indexing=True,
                               **config)[0]
                   for engine in (PostgresRaw, OracleRaw)]
        for sql in queries:
            if region == "append":
                for db in engines:
                    append_micro_rows(db.vfs, "m.csv", rows=40,
                                      nattrs=ATTRS, seed=5)
            rows = [db.query(sql).rows for db in engines]
            assert rows[0] == rows[1], sql
            assert structures(engines[0], "m") == \
                structures(engines[1], "m")
        assert bool(backward) == (region == "evicted map")
