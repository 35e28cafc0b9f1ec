"""Figure 11 — PostgresRaw on FITS files vs a custom CFITSIO program.

Paper setup (§5.3): a 12 GB FITS file with a binary table of ~4.3M rows
(wide, survey-style); queries are MIN/MAX/AVG aggregates over float
columns; the comparator is a hand-written C program using CFITSIO.
Both enjoy a warm filesystem cache. Claims:

* CFITSIO's time is nearly constant — it must scan the whole file for
  every query;
* PostgresRaw gains after the first query (caches built);
* within ~10 queries PostgresRaw's cumulative data-to-query time drops
  below CFITSIO's;
* each CFITSIO query is a bespoke C program; PostgresRaw takes SQL.
"""

import random
import statistics

from figshared import create_table, header, table

from repro import CFitsioProgram, PostgresRaw, VirtualFS
from repro.formats.fits import write_bintable

ROWS = 2000
N_BANDS = 295   # wide survey table (12 GB / 4.3M rows ~ 2.8 KB/row in
                # the paper): queries touch few of many columns
QUERIES = [("min", "mag"), ("max", "mag"), ("avg", "mag"),
           ("avg", "z"), ("min", "z"), ("max", "z"),
           ("avg", "mag"), ("min", "mag"), ("avg", "z"), ("max", "z")]


def build_file(vfs):
    rng = random.Random(42)
    names = (["obj_id", "ra", "dec", "mag", "z"]
             + [f"flux_{i}" for i in range(N_BANDS)])
    tforms = ["K", "D", "D", "D", "D"] + ["D"] * N_BANDS
    rows = [
        (i, rng.uniform(0, 360), rng.uniform(-90, 90),
         rng.uniform(12, 25), rng.uniform(0, 3.5),
         *(rng.uniform(0, 100) for _ in range(N_BANDS)))
        for i in range(ROWS)
    ]
    vfs.create("survey.fits", write_bintable(names, tforms, rows))


def run_pair():
    vfs = VirtualFS()
    build_file(vfs)
    # Warm the filesystem cache, as the paper does ("the file system
    # caches are warm" — otherwise both pay ~16 s extra on Q1).
    warmup = CFitsioProgram(vfs, "survey.fits")
    warmup.aggregate("min", "mag")

    program = CFitsioProgram(vfs, "survey.fits")
    engine = PostgresRaw(vfs=vfs)
    create_table(engine, "survey", "survey.fits", fmt="fits")

    cfitsio_times, raw_times = [], []
    for func, column in QUERIES:
        answer = program.aggregate(func, column)
        result = engine.query(f"SELECT {func}({column}) FROM survey")
        assert abs(answer.value - result.scalar()) <= 1e-9 * max(
            1.0, abs(answer.value))
        cfitsio_times.append(answer.elapsed)
        raw_times.append(result.elapsed)
    return cfitsio_times, raw_times


def test_fig11_fits(benchmark):
    cfitsio_times, raw_times = run_pair()

    header("Figure 11: FITS — CFITSIO program vs PostgresRaw",
           "CFITSIO ~constant per query; PostgresRaw drops after Q1; "
           "cumulative crossover within ~10 queries")
    rows = []
    cumulative_c, cumulative_r = 0.0, 0.0
    for i, ((func, col), ct, rt) in enumerate(
            zip(QUERIES, cfitsio_times, raw_times)):
        cumulative_c += ct
        cumulative_r += rt
        rows.append([f"Q{i + 1} {func}({col})", ct, rt,
                     cumulative_c, cumulative_r])
    table(["query", "CFITSIO (s)", "PostgresRaw (s)",
           "cum CFITSIO", "cum PostgresRaw"], rows)

    # (a) CFITSIO: nearly constant (full scan every time).
    spread = max(cfitsio_times) / min(cfitsio_times)
    assert spread < 1.25, f"CFITSIO spread {spread:.2f} should be ~1"

    # (b) PostgresRaw improves once its cache holds the queried column.
    warm_raw = statistics.mean(raw_times[1:])
    assert raw_times[0] > 1.4 * warm_raw

    # (c) Warm PostgresRaw beats CFITSIO per query.
    warm_cfitsio = statistics.mean(cfitsio_times[1:])
    assert warm_raw < warm_cfitsio

    # (d) Cumulative crossover within the 10-query sequence.
    assert sum(raw_times) < sum(cfitsio_times), (
        "PostgresRaw's data-to-query time should cross below CFITSIO's")

    benchmark.pedantic(run_pair, rounds=1, iterations=1)
