"""Scan kernels — warm wall-clock speedup, every warm block served.

Virtual cost is contractually identical with kernels on or off (the
fast path performs the generic path's charges verbatim), so like the
parallel-scan bench this measures the *Python interpreter*: the
cached-block fast path skips the generic block compute's per-block
setup — cache-mask copies, need-file masks, the block-lines object,
per-column materialize calls, output-column branching — which
dominates warm indexed scans at small row blocks.

The smoke case is the acceptance bar: on a fully warm table, prepared
re-executes must run >= 1.5x faster with kernels on, with results,
non-kernel counters and the virtual clock bit-identical, and every
warm re-execute must serve every block from the fast path — one
zero-priced ``kernel_hits`` per block per execution, no
``kernel_bailouts`` at all.
"""

import time

from figshared import header, table

import repro
from repro import PostgresRaw, PostgresRawConfig, VirtualFS
from repro.workloads.micro import generate_micro_csv, micro_schema

ROWS, NATTRS, BLOCK = 40_000, 8, 128
SQL = "SELECT a1, a3, a4, a6 FROM m WHERE a2 > 100000000"
WARM_EXECS = 8


def kernel_engine(kernels: bool):
    vfs = VirtualFS()
    generate_micro_csv(vfs, "m.csv", ROWS, NATTRS, seed=3)
    engine = PostgresRaw(
        config=PostgresRawConfig(row_block_size=BLOCK,
                                 scan_kernels=kernels),
        vfs=vfs)
    engine.query(f"CREATE TABLE m ({micro_ddl_columns()}) "
                 "USING csv OPTIONS (path 'm.csv')")
    return engine


def micro_ddl_columns() -> str:
    return ", ".join(f"{c.name} {'INTEGER' if c.dtype.family == 'int' else 'VARCHAR'}"
                     for c in micro_schema(NATTRS).columns)


def non_kernel_counters(engine):
    return {k: v for k, v in engine.counters().items()
            if not k.startswith("kernel_")}


def timed_warm_run(statement) -> float:
    """Best-of-3 timing of WARM_EXECS prepared re-executes."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(WARM_EXECS):
            statement.execute([]).fetchall()
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_warm_speedup_smoke(benchmark):
    engines = {k: kernel_engine(k) for k in (False, True)}
    sessions = {k: repro.connect(engines[k]) for k in (False, True)}
    statements = {k: sessions[k].prepare(SQL) for k in (False, True)}

    cold = {}
    rows = {}
    for k in (False, True):
        start = time.perf_counter()
        rows[k] = statements[k].execute([]).fetchall()
        cold[k] = time.perf_counter() - start
        for _ in range(2):  # settle stats: epoch moves once, replans once
            statements[k].execute([]).fetchall()

    # Parity first: the speedup must be free.
    assert rows[True] == rows[False]
    assert non_kernel_counters(engines[True]) == \
        non_kernel_counters(engines[False])
    assert engines[True].clock.now() == engines[False].clock.now()

    warm = {k: timed_warm_run(statements[k]) for k in (False, True)}
    assert statements[True].execute([]).fetchall() == \
        statements[False].execute([]).fetchall()
    speedup = warm[False] / warm[True]

    # Warm re-executes are served block by block: one hit per block per
    # execution, and no block of this typed scan ever bails.
    blocks = -(-ROWS // BLOCK)
    before = engines[True].counters().get("kernel_hits", 0)
    for _ in range(5):
        statements[True].execute([]).fetchall()
    hits = engines[True].counters().get("kernel_hits", 0) - before
    assert hits == blocks * 5, f"expected {blocks * 5} hits, saw {hits}"
    bailed = engines[True].counters().get("kernel_bailouts", 0)
    assert bailed == 0, f"warm typed scan must never bail ({bailed})"

    header("Scan kernels (wall clock)",
           "the cached-block fast path: warm re-executes beat the "
           "generic pipeline >= 1.5x at identical virtual cost")
    table(["kernels", "cold ms", f"warm ms ({WARM_EXECS} execs)",
           "speedup"],
          [[onoff, cold[k] * 1e3, warm[k] * 1e3, warm[False] / warm[k]]
           for k, onoff in ((False, "off"), (True, "on"))])

    assert speedup >= 1.5, (
        f"warm kernel speedup {speedup:.2f}x is below the 1.5x bar")

    benchmark.pedantic(
        lambda: statements[True].execute([]).fetchall(),
        rounds=3, iterations=1)
