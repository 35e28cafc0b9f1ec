"""TPC-H on raw files: the §5.2 experiment as a demo.

Generates a miniature TPC-H dataset as eight CSV files, then runs the
paper's query subset through two sessions — one on PostgresRaw (no
loading) and one on a PostgreSQL-like loaded engine — reporting
per-query virtual times (each query's own cost ledger, courtesy of the
per-job accounting in the session scheduler) and the cumulative
data-to-answer time including the load.

Run:  PYTHONPATH=src python examples/tpch_demo.py
"""

import repro
from repro import LoadedDBMS, PostgresRaw, VirtualFS
from repro.workloads.tpch import (
    PAPER_QUERIES,
    generate_tpch,
    tpch_query,
    tpch_schema,
)

SCALE_FACTOR = 0.001  # ~6000 lineitem rows; shapes match SF-10


def main() -> None:
    vfs = VirtualFS()
    print(f"generating TPC-H at SF={SCALE_FACTOR} ...")
    data = generate_tpch(vfs, scale_factor=SCALE_FACTOR, seed=0)
    for table, count in sorted(data.row_counts.items()):
        print(f"  {table:<10} {count:>7} rows")

    raw_engine = PostgresRaw(vfs=vfs)
    loaded_engine = LoadedDBMS(vfs=vfs)
    for table, path in data.paths.items():
        columns = ", ".join(f"{c.name} {c.dtype.name}"
                            for c in tpch_schema(table))
        raw_engine.query(f"CREATE TABLE {table} ({columns}) USING csv "
                         f"OPTIONS (path '{path}')")
    raw = repro.connect(engine=raw_engine)
    load_time = sum(loaded_engine.load_csv(t, p, tpch_schema(t))
                    for t, p in data.paths.items())
    loaded = repro.connect(engine=loaded_engine)
    print(f"\nPostgreSQL load time: {load_time:.2f}s — "
          "PostgresRaw skipped this entirely\n")

    print(f"{'query':<7}{'PostgresRaw':>13}{'PostgreSQL':>13}   match")
    raw_total, loaded_total = 0.0, load_time
    for name in PAPER_QUERIES:
        sql = tpch_query(name)
        raw_result = raw.query(sql)
        loaded_result = loaded.query(sql)
        raw_total += raw_result.elapsed
        loaded_total += loaded_result.elapsed
        match = (sorted(map(repr, raw_result.rows))
                 == sorted(map(repr, loaded_result.rows)))
        shape = "yes" if match else "~float"
        print(f"{name:<7}{raw_result.elapsed:>12.3f}s"
              f"{loaded_result.elapsed:>12.3f}s   {shape}")

    print("-" * 42)
    print(f"{'total':<7}{raw_total:>12.3f}s{loaded_total:>12.3f}s"
          "   (loaded total includes the load)")

    # Warm re-runs: the paper's Fig 10 situation. The statements were
    # cached by the session above, so these skip parse/plan entirely.
    print("\nwarm re-run (structures populated, statements cached):")
    for name in ("q1", "q6", "q14"):
        warm = raw.query(tpch_query(name))
        print(f"  {name}: {warm.elapsed:.3f}s")

    # Per-session accounting: each client's share of the engines' work.
    print(f"\nsession ledgers: raw {raw.elapsed():.3f}s over "
          f"{raw.stats['queries']} queries "
          f"({raw.stats['statement_cache_hits']} statement-cache hits); "
          f"loaded {loaded.elapsed():.3f}s")

    raw.close()
    loaded.close()


if __name__ == "__main__":
    main()
