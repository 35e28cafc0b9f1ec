"""Batch vs scalar scan pipeline — real wall-clock, not virtual time.

Every other bench in this directory measures *virtual* seconds on the
cost model; this one measures the Python interpreter itself, because
the batch pipeline's whole point is removing per-row interpreter
overhead from the hot loop. The acceptance bar (PR 1): >= 2x wall-clock
speedup for the batch path over the scalar path on a warm
repeated-query scan. Measured headroom is typically 4-10x, so the
assertion uses 2x to stay robust on slow CI machines.
"""

import time

from figshared import build_tpch, header, table, tpch_raw

from repro import PostgresRaw, PostgresRawConfig, VirtualFS
from repro.workloads.micro import generate_micro_csv, micro_schema
from repro.workloads.tpch import tpch_query

ROWS = 4000
ATTRS = 30
REPEATS = 5
PROJECTED = list(range(0, ATTRS, 3))


def build(batch: bool, **config_kwargs) -> PostgresRaw:
    vfs = VirtualFS()
    generate_micro_csv(vfs, "m.csv", ROWS, ATTRS, seed=3)
    db = PostgresRaw(config=PostgresRawConfig(batch_mode=batch,
                                              **config_kwargs), vfs=vfs)
    db.register_csv("m", "m.csv", micro_schema(ATTRS))
    return db


def timed_scan(db: PostgresRaw, repeats: int = 1) -> tuple[float, int]:
    access = db.catalog.get("m").access
    start = time.perf_counter()
    count = 0
    for _ in range(repeats):
        count = sum(1 for _ in access.scan(PROJECTED, None))
    return (time.perf_counter() - start) / repeats, count


def test_warm_repeated_scan_speedup(benchmark):
    db_batch = build(batch=True)
    db_scalar = build(batch=False)

    cold_batch, n_batch = timed_scan(db_batch)      # warms PM + cache
    cold_scalar, n_scalar = timed_scan(db_scalar)
    assert n_batch == n_scalar == ROWS

    warm_batch, _ = timed_scan(db_batch, REPEATS)
    warm_scalar, _ = timed_scan(db_scalar, REPEATS)
    warm_speedup = warm_scalar / warm_batch
    cold_speedup = cold_scalar / cold_batch

    header("Vectorized batch pipeline vs scalar scan (wall clock)",
           "batching the raw-data hot loop removes per-tuple overhead")
    table(["scan", "scalar ms", "batch ms", "speedup"],
          [["cold first query", cold_scalar * 1e3, cold_batch * 1e3,
            cold_speedup],
           [f"warm x{REPEATS} avg", warm_scalar * 1e3, warm_batch * 1e3,
            warm_speedup]])

    assert warm_speedup >= 2.0, (
        f"warm batch speedup {warm_speedup:.2f}x below the 2x bar")
    # The cold path (tokenize + convert everything) must also win.
    assert cold_speedup >= 1.5, (
        f"cold batch speedup {cold_speedup:.2f}x regressed")

    benchmark.pedantic(lambda: timed_scan(db_batch), rounds=3,
                       iterations=1)


def test_batch_and_scalar_same_virtual_time_shape(benchmark):
    """Virtual (cost-model) time must NOT depend on the pull mode: the
    batch pipeline charges the same unit totals per-block that the
    scalar path charges per-row (conversion, I/O, map and cache
    traffic), so the paper's figures are invariant to batch_mode."""
    db_batch = build(batch=True)
    db_scalar = build(batch=False)
    sql = ("SELECT " + ", ".join(f"a{i + 1}" for i in PROJECTED)
           + " FROM m WHERE a1 < 500000000")
    for _ in range(3):
        rb = db_batch.query(sql)
        rs = db_scalar.query(sql)
        assert sorted(rb.rows) == sorted(rs.rows)

    cb = db_batch.counters()
    cs = db_scalar.counters()
    # tokenize is invariant here because the cold scan's streaming
    # tokenization replays the scalar locate-state machine exactly and
    # the warm repeats are fully map/cache-covered (zero tokenize in
    # both modes); only warm *partial-coverage* scans may deviate (the
    # batch path never re-scans a field — see simcost/model.py).
    invariant = ["disk_read_cold", "disk_read_warm", "newline_scan",
                 "tokenize", "convert_int", "tuple_overhead",
                 "tuple_form", "predicate_eval", "cache_read",
                 "cache_write", "map_insert", "map_access",
                 "stats_sample"]
    rows = []
    for key in invariant:
        rows.append([key, cs.get(key, 0), cb.get(key, 0)])
        assert cb.get(key, 0) == cs.get(key, 0), key

    header("Cost-counter parity across pull modes",
           "same work units whether charged per row or per block")
    table(["counter", "scalar", "batch"], rows)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_statistics_overhead_smoke(benchmark):
    """§4.4 statistics ride along with the scan: the first query on a
    fresh table with ``enable_statistics=True`` (the default) may cost
    at most 2.8x the same query with statistics off — sampling is a
    column-at-a-time step of the block pipeline, not a per-value walk
    (which measured 4.1x). Rows and every priced counter other than
    ``stats_sample`` are the same either way."""
    sql = ("SELECT " + ", ".join(f"a{i + 1}" for i in PROJECTED)
           + " FROM m WHERE a1 < 500000000")
    first_query = {}
    outcome = {}
    for statistics in (True, False):
        timings = []
        for _ in range(REPEATS):
            db = build(batch=True, enable_statistics=statistics)
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
    assert ratio <= 2.8, (
        f"first query with statistics costs {ratio:.2f}x the same "
        "query without (bar: 2.8x)")

    benchmark.pedantic(lambda: build(batch=True).query(sql), rounds=3,
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


def _tpch_engines() -> dict:
    engines = {}
    for mode, batch in (("batch", True), ("scalar", False)):
        vfs, data = build_tpch(scale_factor=0.002)
        engines[mode] = tpch_raw(vfs, data, PostgresRawConfig(
            batch_mode=batch, enable_statistics=False))
    return engines


def _warm_batch_vs_scalar(engines: dict, sql: str, label: str,
                          ) -> tuple[float, float]:
    """Run ``sql`` cold then warm on both engines; assert identical
    rows and a fully columnar batch plan (``rows_materialized == 0``,
    cold and warm). Returns warm ``(scalar, batch)`` seconds."""
    warm = {}
    results = {}
    for mode, engine in engines.items():
        cold = engine.query(sql)
        start = time.perf_counter()
        again = engine.query(sql)
        warm[mode] = time.perf_counter() - start
        results[mode] = (cold, again)
    assert results["batch"][0].rows == results["scalar"][0].rows, label
    for result in results["batch"]:
        assert result.rows_materialized == 0, label
    return warm["scalar"], warm["batch"]


def test_q1_aggregate_sweep_smoke(benchmark):
    """Vectorized GROUP BY aggregation vs the scalar operator path,
    wall-clock, on TPC-H Q1 shapes across a shipdate-selectivity sweep.
    Batch mode must (a) return identical rows, (b) keep the whole plan
    columnar (``rows_materialized == 0``), and (c) beat the scalar
    path's wall clock once structures are warm — the tripwire for
    operator-level regressions."""
    engines = _tpch_engines()
    rows = []
    warm_batch_total = warm_scalar_total = 0.0
    for cutoff in _Q1_CUTOFFS:
        label = f"shipdate <= {cutoff}"
        s_warm, b_warm = _warm_batch_vs_scalar(engines, _q1_sql(cutoff),
                                               label)
        warm_batch_total += b_warm
        warm_scalar_total += s_warm
        rows.append([label, s_warm * 1e3, b_warm * 1e3, s_warm / b_warm])

    header("TPC-H Q1-style aggregate sweep (wall clock, warm)",
           "vectorized grouped accumulation vs per-row accumulators")
    table(["query", "scalar ms", "batch ms", "speedup"], rows)

    speedup = warm_scalar_total / warm_batch_total
    assert speedup >= 1.3, (
        f"warm Q1 batch speedup {speedup:.2f}x below the 1.3x bar")

    benchmark.pedantic(
        lambda: engines["batch"].query(_q1_sql(_Q1_CUTOFFS[-1])),
        rounds=3, iterations=1)


def test_q4_q12_q14_stay_columnar_smoke(benchmark):
    """The semi-join (Q4), CASE-aggregate (Q12, Q14), LIKE (Q14) and
    column-vs-column (Q4, Q12) shapes next to Q1: identical rows, no
    row materialized anywhere in the plan, and the batch path beats
    the scalar one warm — the tripwire for any of them sliding back
    onto the row-at-a-time fallback."""
    engines = _tpch_engines()
    rows = []
    warm_batch_total = warm_scalar_total = 0.0
    for name in ("q4", "q12", "q14"):
        s_warm, b_warm = _warm_batch_vs_scalar(engines, tpch_query(name),
                                               name)
        warm_batch_total += b_warm
        warm_scalar_total += s_warm
        rows.append([name, s_warm * 1e3, b_warm * 1e3, s_warm / b_warm])

    header("TPC-H Q4 / Q12 / Q14 (wall clock, warm)",
           "batch semi-join, CASE/LIKE values, column-vs-column masks")
    table(["query", "scalar ms", "batch ms", "speedup"], rows)

    speedup = warm_scalar_total / warm_batch_total
    assert speedup >= 1.3, (
        f"warm Q4/Q12/Q14 batch speedup {speedup:.2f}x below the 1.3x bar")

    benchmark.pedantic(
        lambda: engines["batch"].query(tpch_query("q12")),
        rounds=3, iterations=1)
