"""Differential fuzzing of the rollup router.

Twin engines over identical bytes are kept in *lockstep*: every scan
one engine performs is mirrored on the other, so their adaptive state
(positional map, cache, statistics — and therefore their raw plans)
never diverges. Only one twin holds rollups; every generated query must
then come back bit-identical (values and order) from both, whether the
router hit, missed with an annotation, or stayed out of the way.

Phases: random dims/aggs/predicates/HAVING/ORDER/LIMIT; staleness after
an append (fallback, then idle rebuild); rename and drop lifecycle.
Runs at scan_workers=1 and 4.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    FLOAT,
    INTEGER,
    PostgresRaw,
    PostgresRawConfig,
    Schema,
    VirtualFS,
    varchar,
)
from repro.core.tuner import IdleTuner

from conftest import create_table

REGIONS = ["east", "west", "north", "south"]
PRODUCTS = ["apple", "pear", "fig", "plum", "kiwi", "date"]

ROLLUPS = [
    ("r_all", "data", "region, product, dayno",
     "count(*), sum(qty), avg(price), min(qty), max(price), count(qty), "
     "min(price)"),
    ("r_region", "data", "region", "count(*), sum(qty), avg(qty)"),
]

# the build query each CREATE ROLLUP runs, mirrored on the baseline so
# the twins' scan-driven state stays identical
BUILD_MIRRORS = [
    "SELECT region, product, dayno, count(*), sum(qty), sum(price), "
    "count(price), min(qty), max(price), count(qty), min(price) "
    "FROM data GROUP BY region, product, dayno",
    "SELECT region, count(*), sum(qty), count(qty) "
    "FROM data GROUP BY region",
]

AGG_POOL = [
    "count(*)", "sum(qty)", "count(qty)", "min(qty)", "max(price)",
    "avg(price)", "avg(qty)", "min(price)",
]

WHERE_POOL = [
    "region = 'east'", "dayno > 2", "product <> 'apple'",
    "region = 'west' AND dayno < 4", "qty > 50", "price < 5.0",
    "region = 'nowhere'",
]


def data_schema() -> Schema:
    return Schema([
        ("region", varchar()),
        ("product", varchar()),
        ("dayno", INTEGER),
        ("qty", INTEGER),
        ("price", FLOAT),
    ])


def generate_csv(rows: int, seed: int) -> bytes:
    rng = random.Random(seed)
    out = []
    for _ in range(rows):
        qty = "" if rng.random() < 0.1 else str(rng.randint(0, 100))
        out.append(f"{rng.choice(REGIONS)},{rng.choice(PRODUCTS)},"
                   f"{rng.randint(1, 5)},{qty},"
                   f"{rng.randint(1, 999) / 100.0}\n")
    return "".join(out).encode()


def make_engine(data: bytes, workers: int) -> PostgresRaw:
    fs = VirtualFS()
    fs.create("data.csv", data)
    db = PostgresRaw(vfs=fs, config=PostgresRawConfig(
        scan_workers=workers, row_block_size=32))
    create_table(db, "data", "data.csv", data_schema())
    return db


def random_query(rng: random.Random, table: str = "data") -> str:
    dims = rng.sample(["region", "product", "dayno"],
                      k=rng.choice([0, 1, 1, 2, 2, 3]))
    aggs = rng.sample(AGG_POOL, k=rng.randint(1, 3))
    items = dims + [f"{agg} AS a{i}" for i, agg in enumerate(aggs)]
    sql = f"SELECT {', '.join(items)} FROM {table}"
    if rng.random() < 0.35:
        sql += f" WHERE {rng.choice(WHERE_POOL)}"
    if dims:
        sql += f" GROUP BY {', '.join(dims)}"
        if rng.random() < 0.2:
            sql += " HAVING count(*) > 1"
    if rng.random() < 0.3:
        sql += " ORDER BY a0 DESC LIMIT 5"
    return sql


class Twins:
    """Lockstep pair: run everything on both, compare bit-for-bit."""

    def __init__(self, workers: int, seed: int = 11, rows: int = 240):
        data = generate_csv(rows, seed)
        self.baseline = make_engine(data, workers)
        self.routed = make_engine(data, workers)
        warm = "SELECT region, product, dayno, qty, price FROM data"
        self.baseline.query(warm)
        self.routed.query(warm)

    def create_rollups(self):
        for (name, table, dims, aggs), mirror in zip(ROLLUPS,
                                                     BUILD_MIRRORS):
            self.routed.query(
                f"CREATE ROLLUP {name} ON {table} ({dims}) AGG ({aggs})")
            self.baseline.query(mirror)

    def check(self, sql: str) -> dict:
        expected = self.baseline.query(sql)
        got = self.routed.query(sql)
        assert got.columns == expected.columns, sql
        assert got.rows == expected.rows, sql
        return got.plan

    def append(self, extra: bytes):
        self.baseline.vfs.append_bytes("data.csv", extra)
        self.routed.vfs.append_bytes("data.csv", extra)


@pytest.fixture(params=[1, 4], ids=["workers1", "workers4"])
def twins(request) -> Twins:
    pair = Twins(workers=request.param)
    pair.create_rollups()
    return pair


class TestRollupFuzz:
    def test_differential_random_queries(self, twins):
        rng = random.Random(4207)
        plans = [twins.check(random_query(rng)) for _ in range(40)]
        hits = twins.routed.counters().get("rollup_hits", 0)
        misses = twins.routed.counters().get("rollup_misses", 0)
        # the workload must actually exercise both router outcomes
        assert hits >= 5, (hits, misses)
        assert misses >= 5, (hits, misses)
        assert any(p.get("rollup") in ("r_all", "r_region")
                   for p in plans)

    def test_staleness_append_then_rebuild(self, twins):
        rng = random.Random(99)
        twins.check("SELECT region, count(*) FROM data GROUP BY region")
        twins.append(generate_csv(24, seed=77))
        plans = [twins.check(random_query(rng)) for _ in range(12)]
        assert any("stale" in str(p.get("rollup")) for p in plans)
        assert not any(p.get("rollup") in ("r_all", "r_region")
                       for p in plans)
        # idle rebuild on the routed twin; mirror its build scans
        report = IdleTuner(twins.routed).exploit_idle_time_for_rollups(1e9)
        assert sorted(report.rebuilt) == ["r_all", "r_region"]
        for mirror in BUILD_MIRRORS:
            twins.baseline.query(mirror)
        plans = [twins.check(random_query(rng)) for _ in range(12)]
        assert any(p.get("rollup") in ("r_all", "r_region")
                   for p in plans)

    def test_rename_lifecycle(self, twins):
        twins.baseline.query("ALTER TABLE data RENAME TO events")
        twins.routed.query("ALTER TABLE data RENAME TO events")
        rng = random.Random(5)
        plans = [twins.check(random_query(rng, table="events"))
                 for _ in range(12)]
        assert any(p.get("rollup") in ("r_all", "r_region")
                   for p in plans)

    def test_drop_lifecycle(self, twins):
        rng = random.Random(8)
        twins.routed.query("DROP ROLLUP r_region")
        for _ in range(8):
            twins.check(random_query(rng))
        twins.routed.query("DROP ROLLUP r_all")
        plans = [twins.check(random_query(rng)) for _ in range(8)]
        assert all("rollup" not in p for p in plans)

    def test_drop_table_then_recreate_never_routes(self, twins):
        twins.routed.query("DROP TABLE data")
        twins.baseline.query("DROP TABLE data")
        data = generate_csv(60, seed=13)
        twins.baseline.vfs.write_bytes("data.csv", data)
        twins.routed.vfs.write_bytes("data.csv", data)
        create_table(twins.baseline, "data", "data.csv", data_schema())
        create_table(twins.routed, "data", "data.csv", data_schema())
        rng = random.Random(21)
        plans = [twins.check(random_query(rng)) for _ in range(8)]
        assert all("rollup" not in p for p in plans)
