"""PM/cache eviction under batching (§4.2/§4.3 Maintenance).

Tight ``pm_budget_bytes`` / ``cache_budget_bytes`` force evictions (and
PM spill when enabled) *while* batch-mode scans are in flight; partial
cache blocks force mixed cached/converted rows inside one block. None
of it may change answers — evictions cost time, never correctness —
and the batch path must behave exactly like the scalar oracle.
"""

import random

import pytest

from repro import PostgresRaw, PostgresRawConfig, VirtualFS
from repro.sql.scanapi import ScanPredicate
from repro.workloads.micro import generate_micro_csv, micro_schema
from tests.conftest import create_table
from tests.oracle import OracleRaw, scan_rows

ROWS = 240
ATTRS = 10


def make_pair(**config_kwargs):
    """Engine and row-at-a-time oracle twin over identical files."""
    engines = []
    for engine in (PostgresRaw, OracleRaw):
        vfs = VirtualFS()
        generate_micro_csv(vfs, "m.csv", ROWS, ATTRS, seed=77)
        config = PostgresRawConfig(row_block_size=16,
                                   enable_statistics=False,
                                   **config_kwargs)
        db = engine(config=config, vfs=vfs)
        create_table(db, "m", "m.csv", micro_schema(ATTRS))
        engines.append(db)
    return engines


def ground_truth(db):
    return [[int(v) for v in line.split(",")]
            for line in db.vfs.read_bytes("m.csv").decode().splitlines()]


def predicate_lt(attr, threshold):
    return ScanPredicate(
        attrs=[attr],
        fn=lambda values, a=attr, t=threshold: values[a] < t,
        n_terms=1)


def run_and_compare(db_batch, db_scalar, attrs, predicate, truth,
                    expected_fn):
    access_b = db_batch.catalog.get("m").access
    access_s = db_scalar.catalog.get("m").access
    got_b = list(scan_rows(access_b, attrs, predicate))
    got_s = list(scan_rows(access_s, attrs, predicate))
    expected = expected_fn(truth)
    assert got_b == expected, "batch diverged from ground truth"
    assert got_s == expected, "scalar diverged from ground truth"


class TestCacheEvictionUnderBatching:
    def test_tight_cache_budget_mid_scan(self):
        """The budget is far smaller than one query's conversions, so
        eviction fires during every scan; results must stay exact."""
        db_b, db_s = make_pair(cache_budget_bytes=600)
        truth = ground_truth(db_b)
        workload = [
            ([2, 5], None),
            ([5], predicate_lt(2, 500_000_000)),
            ([0, 7, 9], None),
            ([2, 5], None),
        ]
        for attrs, pred in workload:
            if pred is None:
                expected = lambda t, a=attrs: [
                    tuple(row[x] for x in a) for row in t]
            else:
                expected = lambda t, a=attrs: [
                    tuple(row[x] for x in a) for row in t
                    if row[2] < 500_000_000]
            run_and_compare(db_b, db_s, attrs, pred, truth, expected)
            assert db_b.cache_of("m").bytes_used <= 600
            assert db_b.cache_of("m").evictions > 0 or attrs == [2, 5]
        assert db_b.cache_of("m").evictions > 0

    def test_numeric_inserts_never_walk_values(self, monkeypatch):
        """Both regions hand the cache the converted array: on an
        all-numeric NULL-free table no insert — streamed on the first
        scan, from the indexed region on the second — stores value by
        value, evictions or not."""
        from repro.core.cache import CacheBlock

        walked = []
        set_one = CacheBlock._set

        def counting(block, row, value):
            walked.append(row)
            set_one(block, row, value)

        monkeypatch.setattr(CacheBlock, "_set", counting)
        db_b, _ = make_pair(cache_budget_bytes=3000)
        truth = ground_truth(db_b)
        access = db_b.catalog.get("m").access
        assert list(scan_rows(access, [1, 4], None)) == \
            [(row[1], row[4]) for row in truth]
        assert list(scan_rows(access, [4, 6, 8],
                              predicate_lt(2, 500_000_000))) \
            == [(row[4], row[6], row[8]) for row in truth
                if row[2] < 500_000_000]
        cache = db_b.cache_of("m")
        assert cache.evictions > 0
        assert db_b.counters()["cache_write"] > 2 * ROWS
        assert walked == []

    def test_partial_block_masks_after_selective_warmup(self):
        """A selective query caches only qualifying rows; the next full
        query must merge cache hits with fresh conversions inside every
        block (partial-block masks)."""
        db_b, db_s = make_pair()
        truth = ground_truth(db_b)
        threshold = 400_000_000
        pred = predicate_lt(0, threshold)
        run_and_compare(
            db_b, db_s, [3], pred, truth,
            lambda t: [(row[3],) for row in t if row[0] < threshold])
        # Attr 3 is now cached only for qualifying rows: every block
        # holds a partial mask. The unfiltered scan must still be exact.
        run_and_compare(db_b, db_s, [3], None, truth,
                        lambda t: [(row[3],) for row in t])
        cache = db_b.cache_of("m")
        # At least one block must have been genuinely partial.
        assert any(0 < block.filled < len(block.mask)
                   for block in cache._blocks.values()) or \
            all(block.complete for block in cache._blocks.values())

    def test_eviction_then_refetch_is_exact(self):
        db_b, db_s = make_pair(cache_budget_bytes=400)
        truth = ground_truth(db_b)
        rng = random.Random(5)
        for _ in range(6):
            attrs = rng.sample(range(ATTRS), rng.randint(1, 3))
            run_and_compare(
                db_b, db_s, attrs, None, truth,
                lambda t, a=tuple(attrs): [
                    tuple(row[x] for x in a) for row in t])


class TestPmEvictionUnderBatching:
    def test_tight_pm_budget_mid_scan(self):
        db_b, db_s = make_pair(pm_budget_bytes=256, enable_cache=False)
        truth = ground_truth(db_b)
        for attr in (1, 4, 7, 9, 2):
            run_and_compare(
                db_b, db_s, [attr], None, truth,
                lambda t, a=attr: [(row[a],) for row in t])
            assert db_b.positional_map_of("m").chunk_bytes <= 256
        assert db_b.positional_map_of("m").evictions > 0

    def test_pm_spill_round_trip(self):
        """With spilling, evicted chunks go to the VFS and are read
        back on demand; batch scans must hit the same spilled chunks
        the scalar path does and produce exact results."""
        db_b, db_s = make_pair(pm_budget_bytes=256, pm_spill_enabled=True,
                               enable_cache=False)
        truth = ground_truth(db_b)
        for attr in (1, 4, 7, 9):
            run_and_compare(
                db_b, db_s, [attr], None, truth,
                lambda t, a=attr: [(row[a],) for row in t])
        # Force re-use of spilled chunks: re-query early attributes.
        for attr in (1, 4):
            run_and_compare(
                db_b, db_s, [attr], None, truth,
                lambda t, a=attr: [(row[a],) for row in t])
        pm = db_b.positional_map_of("m")
        assert pm.evictions > 0
        assert pm.spill_loads > 0

    def test_combined_budgets_and_predicates(self):
        db_b, db_s = make_pair(pm_budget_bytes=512,
                               cache_budget_bytes=512)
        truth = ground_truth(db_b)
        rng = random.Random(11)
        for _ in range(6):
            attr = rng.randrange(ATTRS)
            wattr = rng.randrange(ATTRS)
            threshold = rng.randrange(10 ** 9)
            pred = predicate_lt(wattr, threshold)
            run_and_compare(
                db_b, db_s, [attr], pred, truth,
                lambda t, a=attr, w=wattr, th=threshold: [
                    (row[a],) for row in t if row[w] < th])
            assert db_b.positional_map_of("m").chunk_bytes <= 512
            assert db_b.cache_of("m").bytes_used <= 512
