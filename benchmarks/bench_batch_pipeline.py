"""The columnar scan and operator pipeline — real wall clock.

Every other bench in this directory measures *virtual* seconds on the
cost model; this one measures the Python interpreter, because the
columnar pipeline's point is keeping per-row interpreter work out of
the hot loop. What it asserts are contracts, not speedups over a
row-at-a-time twin (that twin is a test oracle, ``tests/oracle/``, and
the tier-1 differential suites hold it to identical rows, structures
and counters): §4.4 statistics cost at most 1.3x a first query without
them, and the TPC-H shapes stay fully columnar
(``rows_materialized == 0``), cold and warm.
"""

import time

from figshared import build_tpch, create_table, header, table, tpch_raw

from repro import PostgresRaw, PostgresRawConfig, VirtualFS
from repro.workloads.micro import generate_micro_csv, micro_schema
from repro.workloads.tpch import tpch_query

ROWS = 4000
ATTRS = 30
REPEATS = 5
PROJECTED = list(range(0, ATTRS, 3))


def build(**config_kwargs) -> PostgresRaw:
    vfs = VirtualFS()
    generate_micro_csv(vfs, "m.csv", ROWS, ATTRS, seed=3)
    db = PostgresRaw(config=PostgresRawConfig(**config_kwargs), vfs=vfs)
    create_table(db, "m", "m.csv", micro_schema(ATTRS))
    return db


def test_statistics_overhead_smoke(benchmark):
    """§4.4 statistics ride along with the scan: the first query on a
    fresh table with ``enable_statistics=True`` (the default) may cost
    at most 1.3x the same query with statistics off. Sampling is a
    bottom-k sample keyed by row position: a block's keys are one
    vectorized hash, and only the values whose key enters the sample
    become Python objects — neither a per-value walk (which measured
    4.1x) nor one random draw per value (Algorithm R, which measured
    ~1.7x). Rows and every priced counter other than ``stats_sample``
    are the same either way."""
    sql = ("SELECT " + ", ".join(f"a{i + 1}" for i in PROJECTED)
           + " FROM m WHERE a1 < 500000000")
    first_query = {}
    outcome = {}
    for statistics in (True, False):
        timings = []
        for _ in range(REPEATS):
            db = build(enable_statistics=statistics)
            start = time.perf_counter()
            result = db.query(sql)
            timings.append(time.perf_counter() - start)
        first_query[statistics] = min(timings)
        counters = dict(result.counters)
        sampled = counters.pop("stats_sample", 0)
        outcome[statistics] = (result.rows, counters)
        assert (sampled > ROWS) == statistics
    assert outcome[True] == outcome[False]

    ratio = first_query[True] / first_query[False]
    header("On-the-fly statistics, first query (wall clock)",
           "sampling rides along with the scan, column at a time")
    table(["statistics", "first query ms", "vs off"],
          [["off", first_query[False] * 1e3, 1.0],
           ["on", first_query[True] * 1e3, ratio]])
    assert ratio <= 1.3, (
        f"first query with statistics costs {ratio:.2f}x the same "
        "query without (bar: 1.3x)")

    benchmark.pedantic(lambda: build().query(sql), rounds=3,
                       iterations=1)


# ---------------------------------------------------------------------------
# TPC-H Q1-style aggregate sweep (PR 3): the columnar operator tree
# ---------------------------------------------------------------------------
_Q1_CUTOFFS = ("1995-06-17", "1997-06-17", "1998-12-01")  # selectivity sweep


def _q1_sql(cutoff: str) -> str:
    return f"""
        SELECT l_returnflag, l_linestatus,
               sum(l_quantity), sum(l_extendedprice),
               sum(l_extendedprice * (1 - l_discount)),
               avg(l_quantity), avg(l_discount), count(*)
        FROM lineitem
        WHERE l_shipdate <= DATE '{cutoff}'
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """


def _tpch_engine() -> PostgresRaw:
    vfs, data = build_tpch(scale_factor=0.002)
    return tpch_raw(vfs, data, PostgresRawConfig(enable_statistics=False))


def _warm_columnar(engine: PostgresRaw, sql: str, label: str) -> float:
    """Run ``sql`` cold then warm; assert equal rows and a fully
    columnar plan (``rows_materialized == 0``), cold and warm. Returns
    the warm wall-clock seconds."""
    cold = engine.query(sql)
    start = time.perf_counter()
    warm = engine.query(sql)
    elapsed = time.perf_counter() - start
    assert warm.rows == cold.rows, label
    for result in (cold, warm):
        assert result.rows_materialized == 0, label
    return elapsed


def test_q1_aggregate_sweep_smoke(benchmark):
    """Vectorized GROUP BY aggregation on TPC-H Q1 shapes across a
    shipdate-selectivity sweep: the whole plan stays columnar
    (``rows_materialized == 0``) cold and warm — the tripwire for
    operator-level regressions; warm wall clock is reported."""
    engine = _tpch_engine()
    rows = []
    for cutoff in _Q1_CUTOFFS:
        label = f"shipdate <= {cutoff}"
        rows.append([label, _warm_columnar(engine, _q1_sql(cutoff),
                                           label) * 1e3])

    header("TPC-H Q1-style aggregate sweep (wall clock, warm)",
           "vectorized grouped accumulation, no row materialized")
    table(["query", "warm ms"], rows)

    benchmark.pedantic(lambda: engine.query(_q1_sql(_Q1_CUTOFFS[-1])),
                       rounds=3, iterations=1)


def test_q4_q12_q14_stay_columnar_smoke(benchmark):
    """The semi-join (Q4), CASE-aggregate (Q12, Q14), LIKE (Q14) and
    column-vs-column (Q4, Q12) shapes next to Q1: no row materialized
    anywhere in the plan, cold or warm — the tripwire for any of them
    sliding back onto a row-at-a-time fallback."""
    engine = _tpch_engine()
    rows = [[name, _warm_columnar(engine, tpch_query(name), name) * 1e3]
            for name in ("q4", "q12", "q14")]

    header("TPC-H Q4 / Q12 / Q14 (wall clock, warm)",
           "batch semi-join, CASE/LIKE values, column-vs-column masks")
    table(["query", "warm ms"], rows)

    benchmark.pedantic(lambda: engine.query(tpch_query("q12")),
                       rounds=3, iterations=1)
