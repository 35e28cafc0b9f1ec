"""Figure 13 — Varying attribute width: PostgreSQL vs PostgresRaw (§6).

Paper setup ("Complex Database Schemas"): the same query sequence over
files whose (string) attributes are 16 vs 64 characters wide. Claims:

* PostgreSQL degrades dramatically with wide attributes (20x-70x):
  wide tuples interact badly with slotted pages (fewer tuples per page,
  overflow handling, larger secondary copy);
* PostgresRaw degrades mildly (usually ~50%, at most 6x): strings need
  no conversion, and the raw file is the only copy.

Our storage substrate reproduces the *mechanism* (wider tuples -> more
pages -> more I/O and memory traffic, vs near-flat raw access); the
20-70x extreme depends on vendor-specific page pathologies we model
only partially — the table this file prints (``-s``) records the
measured factors.
"""

import random

from figshared import create_table, header, table

from repro import LoadedDBMS, PostgresRaw, VirtualFS
from repro.workloads.micro import generate_string_csv

ROWS = 800
ATTRS = 40    # at width 64 tuples exceed the TOAST threshold (~2 KB)
QUERIES = 9


def run_width(width):
    vfs = VirtualFS()
    schema = generate_string_csv(vfs, "s.csv", ROWS, ATTRS, width, seed=4)

    raw = PostgresRaw(vfs=vfs)
    create_table(raw, "s", "s.csv", schema)
    postgres = LoadedDBMS(vfs=vfs)
    postgres.load_csv("s", "s.csv", schema)
    postgres.restart()

    rng = random.Random(31)
    raw_times, postgres_times = [], []
    for _ in range(QUERIES):
        attrs = rng.sample(range(1, ATTRS + 1), 5)
        sql = ("SELECT " + ", ".join(f"s{i}" for i in attrs)
               + " FROM s")
        raw_times.append(raw.query(sql).elapsed)
        postgres_times.append(postgres.query(sql).elapsed)
    return sum(raw_times) / QUERIES, sum(postgres_times) / QUERIES


def test_fig13_attribute_width(benchmark):
    raw_16, postgres_16 = run_width(16)
    raw_64, postgres_64 = run_width(64)

    raw_slowdown = raw_64 / raw_16
    postgres_slowdown = postgres_64 / postgres_16

    header("Figure 13: attribute width 16 vs 64",
           "PostgreSQL slows 20-70x; PostgresRaw ~50% and at most 6x")
    table(["engine", "width 16 (s)", "width 64 (s)", "slowdown"],
          [["PostgresRaw", raw_16, raw_64, raw_slowdown],
           ["PostgreSQL", postgres_16, postgres_64, postgres_slowdown]])

    # (a) PostgresRaw barely notices: strings need no conversion and
    # the map jumps over them (paper: usually ~50%, at most 6x).
    assert raw_slowdown < 6.0
    # (b) PostgreSQL suffers disproportionately: wide tuples overflow
    # into TOAST and every touched attribute pays an extra fetch.
    assert postgres_slowdown > 2.0
    assert postgres_slowdown > raw_slowdown * 1.5, (
        f"PostgreSQL should degrade much faster: "
        f"{postgres_slowdown:.2f}x vs {raw_slowdown:.2f}x")
    # (c) At width 64, PostgresRaw outperforms PostgreSQL outright.
    assert raw_64 < postgres_64

    benchmark.pedantic(run_width, args=(16,), rounds=1, iterations=1)
