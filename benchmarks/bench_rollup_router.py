"""Rollup router: priced-cost collapse for hot aggregate patterns.

Positional maps and caches amortize *access*; rollups amortize
*computation*. Once a hot GROUP BY pattern is materialized, the router
answers it from a heap of group rows instead of re-aggregating the raw
file, so the priced (virtual-clock) cost collapses by the data-to-group
ratio while the answer stays bit-identical.

The smoke case is the CI tripwire: a routed hot aggregate must cost
>= 10x less than the same query on a router-less twin, and a cold,
non-covered query on the rollup-bearing engine must still answer
identically (the router never changes results, only costs).
"""

import random

from figshared import create_table, header, table

from repro import (
    FLOAT,
    INTEGER,
    PostgresRaw,
    PostgresRawConfig,
    Schema,
    VirtualFS,
    varchar,
)

ROWS = 20_000
REGIONS = ["east", "west", "north", "south"]
PRODUCTS = [f"p{i:02d}" for i in range(12)]

HOT = ("SELECT region, product, count(*), sum(qty), avg(price) "
       "FROM sales GROUP BY region, product")
COLD = ("SELECT qty, count(*) FROM sales WHERE qty < 3 GROUP BY qty")


def sales_csv(rows: int, seed: int = 17) -> bytes:
    rng = random.Random(seed)
    return "".join(
        f"{rng.choice(REGIONS)},{rng.choice(PRODUCTS)},"
        f"{rng.randint(0, 99)},{rng.randint(100, 9999) / 100.0}\n"
        for _ in range(rows)
    ).encode()


def make_engine(data: bytes) -> PostgresRaw:
    vfs = VirtualFS()
    vfs.create("sales.csv", data)
    db = PostgresRaw(vfs=vfs, config=PostgresRawConfig())
    create_table(db, "sales", "sales.csv", Schema([
        ("region", varchar()),
        ("product", varchar()),
        ("qty", INTEGER),
        ("price", FLOAT),
    ]))
    return db


def build_twins():
    """Identically-warmed engines; only one carries the rollup."""
    data = sales_csv(ROWS)
    baseline, routed = make_engine(data), make_engine(data)
    for db in (baseline, routed):
        db.query("SELECT region, product, qty, price FROM sales")
        db.query(HOT)  # warm raw aggregate: best case for the baseline
    routed.query("CREATE ROLLUP hot ON sales (region, product) "
                 "AGG (count(*), sum(qty), avg(price))")
    return baseline, routed


def test_rollup_router_smoke(benchmark):
    baseline, routed = build_twins()

    raw = baseline.query(HOT)
    hit = routed.query(HOT)
    assert hit.plan.get("rollup") == "hot"
    assert hit.rows == raw.rows  # bit-identical: values and order
    collapse = raw.elapsed / hit.elapsed
    assert collapse >= 10, (
        f"routed hot aggregate only {collapse:.1f}x cheaper "
        f"({hit.elapsed:.6f}s vs {raw.elapsed:.6f}s)")

    # a query the rollup cannot cover is untouched: annotated miss,
    # same answer, and the miss deliberation itself is unpriced
    cold_raw = baseline.query(COLD)
    cold = routed.query(COLD)
    assert cold.plan.get("rollup", "").startswith("none (")
    assert cold.rows == cold_raw.rows
    assert routed.counters().get("rollup_misses") == 1

    header("Rollup router smoke (priced virtual seconds)",
           f"{ROWS} rows -> {routed.rollups.get('hot').row_count} "
           f"group rows; hot pattern collapses, cold pattern unharmed")
    table(["query", "raw twin (s)", "routed (s)", "ratio"],
          [["hot GROUP BY", raw.elapsed, hit.elapsed,
            f"{collapse:.0f}x"],
           ["cold (miss)", cold_raw.elapsed, cold.elapsed,
            f"{cold_raw.elapsed / cold.elapsed:.2f}x"]])

    benchmark.pedantic(lambda: routed.query(HOT), rounds=3, iterations=1)


def test_reaggregation_sweep(benchmark):
    """Dimension-subset probes: coarser groupings re-aggregate the same
    rollup, so every covered shape collapses, not just the exact one."""
    baseline, routed = build_twins()
    shapes = [
        ("region, product", HOT),
        ("region", "SELECT region, count(*), sum(qty) FROM sales "
                   "GROUP BY region"),
        ("product", "SELECT product, count(*), sum(qty) FROM sales "
                    "GROUP BY product"),
        ("(global)", "SELECT count(*), sum(qty) FROM sales"),
    ]
    rows = []
    for label, sql in shapes:
        raw = baseline.query(sql)
        hit = routed.query(sql)
        assert hit.plan.get("rollup") == "hot", sql
        assert hit.rows == raw.rows, sql
        rows.append([label, raw.elapsed, hit.elapsed,
                     f"{raw.elapsed / hit.elapsed:.0f}x"])
        assert raw.elapsed / hit.elapsed >= 10, sql

    header("Re-aggregation over dimension subsets",
           "one rollup serves every coarser grouping bit-identically")
    table(["grouping", "raw twin (s)", "routed (s)", "ratio"], rows)

    benchmark.pedantic(
        lambda: routed.query(shapes[1][1]), rounds=3, iterations=1)
