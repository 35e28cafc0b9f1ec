"""Parallel chunk scans — wall-clock scaling with determinism checks.

Like ``bench_batch_pipeline.py`` this measures the Python interpreter,
not virtual time: the point of fanning row-block groups across workers
is real elapsed time on the dominant cold-scan path (fig 9 shapes),
while the virtual cost model — by construction — charges exactly the
same units at any worker count. Every case therefore asserts the
determinism contract (identical result sequences, counters and
auxiliary-structure footprints across ``scan_workers``) and reports
the wall-clock scaling.

The scaling bar (>= 1.8x cold-scan speedup at 4 workers) is only
asserted when the machine actually has >= 4 CPUs — thread fan-out
cannot beat physics on the 1- and 2-core boxes CI sometimes hands us;
there the bench still runs the full determinism checks and prints the
measured (flat) scaling.
"""

import os
import time

from figshared import build_tpch, create_table, header, table, tpch_raw

from repro import PostgresRaw, PostgresRawConfig, VirtualFS
from repro.workloads.micro import generate_micro_csv, micro_schema

WORKER_COUNTS = (1, 2, 4)
CAN_SCALE = (os.cpu_count() or 1) >= 4


def micro_engine(workers: int, rows: int, nattrs: int,
                 block: int) -> PostgresRaw:
    vfs = VirtualFS()
    generate_micro_csv(vfs, "m.csv", rows, nattrs, seed=3)
    config = PostgresRawConfig(
        scan_workers=workers, row_block_size=block,
        # Stats sampling is per-row Python on the merge thread; the
        # Q1 sweep bench sets the same switch for the same reason.
        enable_statistics=False)
    engine = PostgresRaw(config=config, vfs=vfs)
    create_table(engine, "m", "m.csv", micro_schema(nattrs))
    return engine


def timed_cold_query(engine: PostgresRaw, sql: str):
    start = time.perf_counter()
    result = engine.query(sql)
    return time.perf_counter() - start, result


def test_parallel_scan_smoke(benchmark):
    """Correctness tripwire for the CI smoke job: a cold parallel scan
    must produce the identical row sequence, identical counters and
    identical auxiliary footprints as the serial scan — and must
    actually fan out to the pool."""
    sql = "SELECT a1, a4 FROM m WHERE a2 > 200000000"
    engines = {w: micro_engine(w, rows=3000, nattrs=8, block=256)
               for w in (1, 4)}
    results = {}
    timings = {}
    for workers, engine in engines.items():
        timings[workers], results[workers] = timed_cold_query(engine, sql)

    assert results[4].rows == results[1].rows
    assert results[4].counters == results[1].counters
    assert engines[4].auxiliary_bytes("m") == engines[1].auxiliary_bytes("m")
    assert engines[1].scan_pool is None
    assert engines[4].scan_pool is not None
    assert engines[4].scan_pool.tasks_submitted > 0

    # Warm repeat stays deterministic too (indexed region, cache hits).
    warm = {w: engines[w].query(sql) for w in (1, 4)}
    assert warm[4].rows == warm[1].rows
    assert warm[4].counters == warm[1].counters

    header("Parallel chunk scan smoke (wall clock, cold)",
           "fan-out changes elapsed time only — never results or cost")
    table(["workers", "cold ms", "pool tasks"],
          [[w, timings[w] * 1e3,
            engines[w].scan_pool.tasks_submitted if engines[w].scan_pool
            else 0] for w in (1, 4)])

    benchmark.pedantic(
        lambda: micro_engine(4, 3000, 8, 256).query(sql), rounds=2,
        iterations=1)


def test_parallel_cold_scan_scaling(benchmark):
    """The acceptance case: cold batch scan of the micro file at 1/2/4
    workers. Determinism is asserted unconditionally; the >= 1.8x
    4-worker bar only where 4 CPUs exist."""
    rows, nattrs, block = 60_000, 12, 4096
    sql = "SELECT a1, a3, a7 FROM m WHERE a2 > 100000000"

    timings = {}
    results = {}
    engines = {}
    for workers in WORKER_COUNTS:
        engine = micro_engine(workers, rows, nattrs, block)
        timings[workers], results[workers] = timed_cold_query(engine, sql)
        engines[workers] = engine

    for workers in WORKER_COUNTS[1:]:
        assert results[workers].rows == results[1].rows, workers
        assert results[workers].counters == results[1].counters, workers
        assert engines[workers].auxiliary_bytes("m") \
            == engines[1].auxiliary_bytes("m"), workers

    speedup4 = timings[1] / timings[4]
    header("Parallel cold scan scaling (wall clock)",
           "raw-data scans parallelize at chunk granularity "
           f"(machine has {os.cpu_count()} CPUs)")
    table(["workers", "cold ms", "speedup"],
          [[w, timings[w] * 1e3, timings[1] / timings[w]]
           for w in WORKER_COUNTS])

    if CAN_SCALE:
        assert speedup4 >= 1.8, (
            f"4-worker cold-scan speedup {speedup4:.2f}x below the "
            f"1.8x bar on a {os.cpu_count()}-CPU machine")

    benchmark.pedantic(
        lambda: micro_engine(4, rows, nattrs, block).query(sql),
        rounds=2, iterations=1)


# ---------------------------------------------------------------------------
# Tier-2 sweep: TPC-H cold-scan shapes (fig 9/10) at 1/2/4 workers
# ---------------------------------------------------------------------------
_TPCH_QUERIES = {
    "Q1-shape": """
        SELECT l_returnflag, l_linestatus, sum(l_quantity),
               sum(l_extendedprice), count(*)
        FROM lineitem
        WHERE l_shipdate <= DATE '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """,
    "Q6-shape": """
        SELECT sum(l_extendedprice * l_discount)
        FROM lineitem
        WHERE l_shipdate >= DATE '1994-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07
          AND l_quantity < 24
    """,
}


def test_tpch_cold_sweep_parallel(benchmark):
    """Fig 9/10 shapes at 1/2/4 workers: the cold first-touch query
    dominated by the raw scan. Worker counts must agree exactly — rows
    and counters; the wall-clock table reports the cold-scan worker
    scaling."""
    scale = 0.004
    rows = []
    for name, sql in _TPCH_QUERIES.items():
        cold = {}
        reference = None
        for workers in WORKER_COUNTS:
            vfs, data = build_tpch(scale_factor=scale)
            engine = tpch_raw(vfs, data, PostgresRawConfig(
                scan_workers=workers, enable_statistics=False))
            cold[workers], result = timed_cold_query(engine, sql)
            if reference is None:
                reference = result
            else:
                assert result.rows == reference.rows, (name, workers)
                assert result.counters == reference.counters, \
                    (name, workers)
        rows.append([name, cold[1] * 1e3, cold[2] * 1e3, cold[4] * 1e3,
                     cold[1] / cold[4]])

    header("TPC-H cold scans x workers (wall clock)",
           "cold raw-file queries are scan-bound; chunk fan-out "
           "attacks the residual after vectorization")
    table(["query", "w1 ms", "w2 ms", "w4 ms", "w4 speedup"], rows)

    if CAN_SCALE:
        worst = min(row[-1] for row in rows)
        assert worst >= 1.3, (
            f"TPC-H cold-scan 4-worker speedup {worst:.2f}x below the "
            "1.3x bar")

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
