"""Batch scan vs the row-at-a-time oracle vs the loaded DBMS.

Seeded random schemas (ints, floats, strings, dates), random data
(NULLs as empty fields, quote characters inside strings, ragged field
widths) and random SELECT/WHERE workloads, pinned as scenarios of the
lockstep harness (``tests/oracle/digest.py``) on its ``oracle`` and
``loaded`` axes: every result must agree with the row-at-a-time oracle
(``tests/oracle``) and with the loaded DBMS, and after every query the
block scan and the oracle must hold identical positional maps, binary
caches and column statistics — the contract that lets the scalar path
vouch for the vectorized one. The harness's hypothesis fuzz
(``tests/test_lockstep.py``) draws the open-ended version. Also here:
the regressions it distilled, §4.4 samples in their replacement
phase on every path, and the NUL-padding contract of the vectorized
converters.
"""

import random

import pytest

from repro import INTEGER, LoadedDBMS, PostgresRaw, Schema
from tests.oracle import OracleRaw, scan_rows
from tests.oracle.digest import (
    AXIS,
    NUL_ROWS,
    REFERENCE,
    Append,
    Query,
    Scenario,
    Table,
    build_engine,
    check,
    nul_outcome,
    random_schema,
    random_table,
    rows_key,
    seeded_scenario,
    structures,
)

#: the block scan against the oracle and the loaded DBMS
ENGINES = [AXIS["oracle"], AXIS["loaded"]]


def block_and_oracle(schema, rows, block_size, **config):
    return [build_engine({"t": (schema, rows)}, engine=engine,
                         row_block_size=block_size, **config)
            for engine in (PostgresRaw, OracleRaw)]


class TestBatchDifferentialFuzz:
    @pytest.mark.parametrize("eager", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_workloads_agree_across_engines(self, seed, eager):
        check(seeded_scenario(1000 + seed, 6, [1, 3, 8, 17, 64],
                              eager_prefix_indexing=eager), ENGINES)

    @pytest.mark.parametrize("seed", range(6))
    def test_structures_match_without_cache(self, seed):
        check(seeded_scenario(5000 + seed, 4, [2, 5, 16],
                              enable_cache=False), ENGINES)

    @pytest.mark.parametrize("seed", range(6))
    def test_structures_match_without_positional_map(self, seed):
        check(seeded_scenario(7000 + seed, 4, [2, 5, 16],
                              enable_positional_map=False), ENGINES)

    @pytest.mark.parametrize("seed", range(9000, 9012))
    def test_free_info_coverage_shapes(self, seed):
        """Regression: multi-conjunct WHERE whose locate path reaches
        max_where via an already-known start must NOT record the
        max_where+1 free position for failing rows (the scalar path
        doesn't) — caught by review on this seed universe."""
        check(seeded_scenario(seed, 6, [1, 3, 8, 17, 64]), ENGINES)

    def test_pm_free_info_matches_scalar_exactly(self):
        """The distilled shape: WHERE on c0 AND c1 (so c1 is located via
        c0's one-step-forward memo, leaving no free c2 start) with c2
        projected; failing rows must store positions for {1} only, not
        {1, 2}. And a shape where the free start IS recorded (single-term
        WHERE locates c1 forward from the line start, discovering c2's
        start on the way for every row)."""
        schema = Schema([("c0", INTEGER), ("c1", INTEGER),
                         ("c2", INTEGER)])
        rows = [[str(i), str(i * 10), str(i * 100)] for i in range(20)]
        for sql in ("SELECT c2 FROM t WHERE c0 >= 5 AND c1 < 120",
                    "SELECT c2 FROM t WHERE c1 < 120"):
            batch, oracle = block_and_oracle(schema, rows, 4)
            assert batch.query(sql).rows == oracle.query(sql).rows
            assert structures(batch, "t") == structures(oracle, "t")

    @pytest.mark.parametrize("seed", range(8))
    def test_cold_scan_counter_parity(self, seed):
        """A cold scan runs entirely in the streaming region, where the
        batch path replays the scalar locate-state machine: every cost
        counter — tokenize included — must match exactly (the oracle
        axis compares every counter of a script's first step)."""
        check(seeded_scenario(20000 + seed, 1, [1, 4, 16]),
              [AXIS["oracle"]])

    def test_statistics_collection_identical(self):
        """The §4.4 samples must be fed the same rows on both paths
        (the same rows => the same sample)."""
        check(seeded_scenario(99, 5, [16]), [AXIS["oracle"]])

    def test_interleaved_partial_scans_converge(self):
        """Abandoned generators (LIMIT-style) leave valid partial
        structures on both paths. The granularity differs — the batch
        path flushes whole blocks before yielding their first row, the
        scalar path stops mid-block — so the partial states need not be
        identical; but results must stay correct throughout, and once a
        scan runs to completion the structures must converge exactly."""
        rng = random.Random(4242)
        schema = random_schema(rng)
        rows = random_table(rng, schema)
        while len(rows) < 40:  # ensure enough rows to abandon mid-scan
            rows = random_table(rng, schema)
        batch, oracle = block_and_oracle(schema, rows, 8)
        for stop in (1, 7, 19):
            prefixes = []
            for engine in (batch, oracle):
                scan = scan_rows(engine.catalog.get("t").access, [0, 1], None)
                prefixes.append([next(scan) for _ in range(stop)])
                scan.close()
            assert prefixes[0] == prefixes[1], f"prefix diverged at {stop}"
        sql = "SELECT c0, c1 FROM t"
        loaded = build_engine({"t": (schema, rows)}, engine=LoadedDBMS)
        assert sorted(rows_key(batch.query(sql).rows)) == \
            sorted(rows_key(oracle.query(sql).rows)) == \
            sorted(rows_key(loaded.query(sql).rows))
        assert structures(batch, "t") == structures(oracle, "t")


# ---------------------------------------------------------------------------
# Malformed input: the vectorized converters accept what the oracle accepts
# ---------------------------------------------------------------------------
#: what the first query must do under each policy, spelled out so the
#: two paths cannot agree on a wrong answer
NUL_EXPECTED = {
    "fail": ("cannot parse '5\\x00' as INTEGER (attribute a)", 5),
    "skip": [(i, i + 0.5) for i in range(14) if i not in NUL_ROWS],
    "null": [(None if NUL_ROWS.get(i) == "a" else i,
              None if NUL_ROWS.get(i) == "b" else i + 0.5)
             for i in range(14)],
}


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("region", ["streaming", "indexed"])
@pytest.mark.parametrize("on_error", ["fail", "skip", "null"])
def test_nul_padded_numeric_matches_scalar(on_error, region, workers):
    """``5\\x00`` raises / is skipped / is NULLed as the oracle does:
    same messages, row numbers, ``rows_rejected`` and quarantine
    records."""
    oracle = nul_outcome("csv", on_error, region, engine=OracleRaw)
    assert oracle[0][0] == NUL_EXPECTED[on_error]
    assert nul_outcome("csv", on_error, region,
                       scan_workers=workers) == oracle


# ---------------------------------------------------------------------------
# §4.4 samples across paths, with replacement actually happening
# ---------------------------------------------------------------------------
def reservoir_mix(first: int) -> list[Query]:
    """Five shapes over six columns starting at ``first`` (int, float,
    str, date, int, float): WHERE-only with no SELECT, SELECT-only, a
    column both filtered and projected, a SELECT column sampled at the
    qualifying rows of an already-sampled filter, and the NULL-bearing
    float as a filter."""
    c = [f"c{first + i}" for i in range(6)]
    return [Query(sql) for sql in (
        f"SELECT count(*) FROM t WHERE {c[0]} < 2000",
        f"SELECT {c[2]}, {c[3]} FROM t",
        f"SELECT {c[4]}, {c[3]} FROM t WHERE {c[4]} > -4000",
        f"SELECT {c[5]} FROM t WHERE {c[0]} >= -6000",
        f"SELECT {c[0]} FROM t WHERE {c[1]} > -200.5")]


#: the same shapes over the FITS column set
FITS_MIX = tuple(Query(sql) for sql in (
    "SELECT count(*) FROM t WHERE k < 100", "SELECT tag, m FROM t",
    "SELECT x, k FROM t WHERE x > -3.5", "SELECT y FROM t WHERE k >= -250"))
#: the paths a sample is fed on: row by row, 1 or 4 workers, kernels
RESERVOIR_AXES = [AXIS["oracle"], AXIS["workers"], AXIS["kernels"]]


@pytest.mark.parametrize("block_size", [8, 64])
@pytest.mark.parametrize("target", [3, 7])
class TestReservoirsAcrossPaths:
    """``test_statistics_collection_identical`` runs tables smaller
    than the default sample target, so its samples keep every row;
    tiny targets make every path replace keys in its sample: of
    twelve columns the first half is first touched over a fresh file,
    the second half only after an append — over the indexed region plus
    the streamed tail. The oracle (CSV, FITS), workers and kernels axes
    compare the statistics after every query."""

    def run_paths(self, layout, target, block_size):
        seed = 4400 + target + block_size
        ops = (*reservoir_mix(0), Append(45, seed), *reservoir_mix(6))
        digests = check(Scenario(
            (Table("t", "reservoir", seed),), ops,
            (("row_block_size", block_size), ("stats_sample_target", target)),
            layout), RESERVOIR_AXES)[REFERENCE]
        for step, collected in ((4, 6), (10, 12)):
            stats = digests[step]["t.stats"]
            assert len(stats) == collected
            # the samples really were in their replacement phase
            assert all(column["observed_rows"] > target
                       for column in stats.values())

    def test_csv_batch_scalar_workers_kernels(self, target, block_size):
        self.run_paths("csv", target, block_size)

    def test_jsonl_workers_kernels(self, target, block_size):
        self.run_paths("jsonl", target, block_size)

    def test_fits_batch_vs_scalar(self, target, block_size):
        table = Table("t", "fits", 4502)
        stats = check(Scenario(
            (table,), FITS_MIX,
            (("row_block_size", block_size), ("stats_sample_target", target)),
            "fits"), RESERVOIR_AXES)[REFERENCE][-1]["t.stats"]
        assert sorted(stats) == ["k", "m", "tag", "x", "y"]
        # SELECT-only ``y`` was sampled at the qualifying rows only
        assert target < stats["y"]["observed_rows"] < \
            len(table.generate()[1])
