"""Differential fuzz harness: batch scan vs scalar scan vs loaded DBMS.

Seeded random schemas (ints, floats, strings, dates), random data
(NULLs as empty fields, quote characters inside strings, ragged field
widths) and random SELECT/WHERE workloads run on three engines:

* PostgresRaw (the vectorized block scan under test),
* the row-at-a-time oracle (``tests/oracle``),
* LoadedDBMS (the conventional engine — ground truth via a completely
  independent code path).

All three must agree on every result set, and after every query the
batch and scalar engines must hold byte-identical positional maps and
binary caches — the contract that lets the scalar path vouch for the
vectorized one.
"""

import json
import random

import pytest

from repro import (
    DATE,
    FLOAT,
    INTEGER,
    LoadedDBMS,
    PostgresRaw,
    PostgresRawConfig,
    Schema,
    VirtualFS,
    varchar,
)
from repro.errors import FormatError
from repro.formats.csvfmt import write_csv
from repro.formats.fits import write_bintable
from tests.oracle import OracleRaw

_LETTERS = "abcdefghij'\" _-"


# ---------------------------------------------------------------------------
# Structure dumps (shared with the eviction tests)
# ---------------------------------------------------------------------------
def pm_dump(pm):
    """Everything observable about a positional map's contents."""
    if pm is None:
        return None
    return {
        "line_starts": list(pm._line_starts),
        "file_length": pm._file_length,
        "chunks": {key: matrix.tolist()
                   for key, matrix in pm._chunks.items()},
        "directory": {block: dict(entries)
                      for block, entries in pm._directory.items()},
        "spilled": dict(pm._spilled),
    }


def cache_dump(cache):
    """Every cache block's mask and values (bytes too)."""
    if cache is None:
        return None
    return {
        key: (list(block.mask), list(block.values), block.bytes_used)
        for key, block in cache._blocks.items()
    }


def assert_structures_match(raw_batch, raw_scalar, table="t"):
    assert pm_dump(raw_batch.positional_map_of(table)) == \
        pm_dump(raw_scalar.positional_map_of(table))
    assert cache_dump(raw_batch.cache_of(table)) == \
        cache_dump(raw_scalar.cache_of(table))


# ---------------------------------------------------------------------------
# Random schema / data / query generation
# ---------------------------------------------------------------------------
def random_schema(rng: random.Random) -> Schema:
    kinds = [INTEGER, FLOAT, varchar(), DATE]
    ncols = rng.randint(3, 7)
    return Schema([
        (f"c{i}", rng.choice(kinds)) for i in range(ncols)
    ])


def random_text_value(rng: random.Random, dtype, nullable: bool) -> str:
    if nullable and dtype.family != "str" and rng.random() < 0.15:
        return ""  # NULL
    family = dtype.family
    if family == "int":
        return str(rng.randrange(-10_000, 10_000))
    if family == "float":
        return f"{rng.uniform(-1000, 1000):.{rng.randint(0, 6)}f}"
    if family == "date":
        return (f"{rng.randint(1990, 2030):04d}-"
                f"{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}")
    # Ragged widths, quote characters, leading/trailing spaces.
    width = rng.randint(0, 12)
    return "".join(rng.choice(_LETTERS) for _ in range(width))


def random_table(rng: random.Random, schema: Schema) -> list[list[str]]:
    nrows = rng.randint(0, 120)
    return [[random_text_value(rng, col.dtype, nullable=True)
             for col in schema.columns]
            for _ in range(nrows)]


def random_query(rng: random.Random, schema: Schema) -> str:
    columns = schema.columns
    projected = rng.sample([c.name for c in columns],
                           rng.randint(1, len(columns)))
    if rng.random() < 0.15:
        select = "count(*)"
    else:
        select = ", ".join(projected)
    sql = f"SELECT {select} FROM t"
    if rng.random() < 0.7:
        numeric = [c for c in columns if c.dtype.family in ("int", "float")]
        terms = []
        for _ in range(rng.randint(1, 2)):
            form = rng.random()
            if numeric and form < 0.75:
                col = rng.choice(numeric)
                if rng.random() < 0.3:
                    lo, hi = sorted((rng.randint(-8000, 8000),
                                     rng.randint(-8000, 8000)))
                    terms.append(f"{col.name} BETWEEN {lo} AND {hi}")
                else:
                    op = rng.choice(["<", "<=", ">", ">=", "=", "<>"])
                    terms.append(
                        f"{col.name} {op} {rng.randint(-8000, 8000)}")
            else:
                strings = [c for c in columns if c.dtype.family == "str"]
                if not strings:
                    continue
                col = rng.choice(strings)
                literal = random_text_value(rng, col.dtype, nullable=False)
                literal = literal.replace("'", "''")
                terms.append(f"{col.name} <> '{literal}'")
        if terms:
            sql += " WHERE " + " AND ".join(terms)
    return sql


# ---------------------------------------------------------------------------
# Engine construction
# ---------------------------------------------------------------------------
def build_engines(schema: Schema, rows: list[list[str]],
                  block_size: int, **config_kwargs):
    payload = write_csv(rows)

    def fresh_vfs():
        vfs = VirtualFS()
        vfs.create("t.csv", payload)
        return vfs

    raw_batch = PostgresRaw(
        config=PostgresRawConfig(row_block_size=block_size,
                                 **config_kwargs),
        vfs=fresh_vfs())
    raw_batch.register_csv("t", "t.csv", schema)
    raw_scalar = OracleRaw(
        config=PostgresRawConfig(row_block_size=block_size,
                                 **config_kwargs),
        vfs=fresh_vfs())
    raw_scalar.register_csv("t", "t.csv", schema)
    loaded = LoadedDBMS(vfs=fresh_vfs())
    loaded.load_csv("t", "t.csv", schema)
    return raw_batch, raw_scalar, loaded


def normalized(result):
    return sorted(map(repr, result.rows))


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------
class TestBatchDifferentialFuzz:
    @pytest.mark.parametrize("eager", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_workloads_agree_across_engines(self, seed, eager):
        rng = random.Random(1000 + seed)
        schema = random_schema(rng)
        rows = random_table(rng, schema)
        block_size = rng.choice([1, 3, 8, 17, 64])
        raw_batch, raw_scalar, loaded = build_engines(
            schema, rows, block_size, eager_prefix_indexing=eager)
        for qno in range(6):
            sql = random_query(rng, schema)
            res_batch = raw_batch.query(sql)
            res_scalar = raw_scalar.query(sql)
            res_loaded = loaded.query(sql)
            assert normalized(res_batch) == normalized(res_scalar), \
                f"seed={seed} q{qno}: batch != scalar for {sql!r}"
            assert normalized(res_batch) == normalized(res_loaded), \
                f"seed={seed} q{qno}: batch != loaded for {sql!r}"
            # The core contract: identical auxiliary-structure contents.
            assert_structures_match(raw_batch, raw_scalar)

    @pytest.mark.parametrize("seed", range(6))
    def test_structures_match_without_cache(self, seed):
        rng = random.Random(5000 + seed)
        schema = random_schema(rng)
        rows = random_table(rng, schema)
        raw_batch, raw_scalar, loaded = build_engines(
            schema, rows, rng.choice([2, 5, 16]), enable_cache=False)
        for _ in range(4):
            sql = random_query(rng, schema)
            assert normalized(raw_batch.query(sql)) == \
                normalized(raw_scalar.query(sql)) == \
                normalized(loaded.query(sql)), sql
            assert_structures_match(raw_batch, raw_scalar)

    @pytest.mark.parametrize("seed", range(6))
    def test_structures_match_without_positional_map(self, seed):
        rng = random.Random(7000 + seed)
        schema = random_schema(rng)
        rows = random_table(rng, schema)
        raw_batch, raw_scalar, loaded = build_engines(
            schema, rows, rng.choice([2, 5, 16]),
            enable_positional_map=False)
        for _ in range(4):
            sql = random_query(rng, schema)
            assert normalized(raw_batch.query(sql)) == \
                normalized(raw_scalar.query(sql)) == \
                normalized(loaded.query(sql)), sql
            assert_structures_match(raw_batch, raw_scalar)

    @pytest.mark.parametrize("seed", range(9000, 9012))
    def test_free_info_coverage_shapes(self, seed):
        """Regression: multi-conjunct WHERE whose locate path reaches
        max_where via an already-known start must NOT record the
        max_where+1 free position for failing rows (the scalar path
        doesn't) — caught by review on this seed universe."""
        rng = random.Random(seed)
        schema = random_schema(rng)
        rows = random_table(rng, schema)
        raw_batch, raw_scalar, loaded = build_engines(
            schema, rows, rng.choice([1, 3, 8, 17, 64]))
        for _ in range(6):
            sql = random_query(rng, schema)
            assert normalized(raw_batch.query(sql)) == \
                normalized(raw_scalar.query(sql)) == \
                normalized(loaded.query(sql)), sql
            assert_structures_match(raw_batch, raw_scalar)

    def test_pm_free_info_matches_scalar_exactly(self):
        """The distilled shape: WHERE on c0 AND c1 (so c1 is located
        via c0's one-step-forward memo, leaving no free c2 start) with
        c2 projected; failing rows must store positions for {1} only,
        not {1, 2}."""
        schema = Schema([("c0", INTEGER), ("c1", INTEGER),
                         ("c2", INTEGER)])
        rows = [[str(i), str(i * 10), str(i * 100)] for i in range(20)]
        raw_batch, raw_scalar, _ = build_engines(schema, rows, 4)
        sql = "SELECT c2 FROM t WHERE c0 >= 5 AND c1 < 120"
        assert normalized(raw_batch.query(sql)) == \
            normalized(raw_scalar.query(sql))
        assert_structures_match(raw_batch, raw_scalar)
        # And a shape where the free start IS recorded (single-term
        # WHERE locates c1 forward from the line start, discovering
        # c2's start on the way for every row).
        raw_batch2, raw_scalar2, _ = build_engines(schema, rows, 4)
        sql2 = "SELECT c2 FROM t WHERE c1 < 120"
        assert normalized(raw_batch2.query(sql2)) == \
            normalized(raw_scalar2.query(sql2))
        assert_structures_match(raw_batch2, raw_scalar2)

    @pytest.mark.parametrize("seed", range(8))
    def test_cold_scan_counter_parity(self, seed):
        """A cold scan runs entirely in the streaming region, where the
        batch path replays the scalar locate-state machine: every cost
        counter — tokenize included — must match exactly."""
        rng = random.Random(20000 + seed)
        schema = random_schema(rng)
        rows = random_table(rng, schema)
        raw_batch, raw_scalar, _ = build_engines(
            schema, rows, rng.choice([1, 4, 16]))
        sql = random_query(rng, schema)
        counters_batch = raw_batch.query(sql).counters
        counters_scalar = raw_scalar.query(sql).counters
        assert counters_batch == counters_scalar, sql

    def test_statistics_collection_identical(self):
        """The §4.4 reservoir samples must be fed the same values in
        the same order on both paths (same seed => same sample)."""
        rng = random.Random(99)
        schema = random_schema(rng)
        rows = random_table(rng, schema)
        raw_batch, raw_scalar, _ = build_engines(schema, rows, 16)
        for sql in [random_query(rng, schema) for _ in range(5)]:
            raw_batch.query(sql)
            raw_scalar.query(sql)
        stats_b = raw_batch.catalog.get("t").stats
        stats_s = raw_scalar.catalog.get("t").stats
        if stats_b is None:
            assert stats_s is None
            return
        assert stats_b.row_count == stats_s.row_count
        for col in schema.columns:
            cb = stats_b.column(col.name)
            cs = stats_s.column(col.name)
            assert (cb is None) == (cs is None), col.name
            if cb is not None:
                assert cb.__dict__ == cs.__dict__, col.name

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
        raw_batch, raw_scalar, loaded = build_engines(schema, rows, 8)
        access_b = raw_batch.catalog.get("t").access
        access_s = raw_scalar.catalog.get("t").access
        for stop in (1, 7, 19):
            first_b = first_s = None
            for access, out in ((access_b, "b"), (access_s, "s")):
                gen = access.scan([0, 1], None)
                got = [next(gen) for _ in range(stop)]
                gen.close()
                if out == "b":
                    first_b = got
                else:
                    first_s = got
            assert first_b == first_s, f"prefix diverged at stop={stop}"
        sql = "SELECT c0, c1 FROM t"
        assert normalized(raw_batch.query(sql)) == \
            normalized(raw_scalar.query(sql)) == \
            normalized(loaded.query(sql))
        assert_structures_match(raw_batch, raw_scalar)


# ---------------------------------------------------------------------------
# Malformed input: the vectorized converters accept what the oracle accepts
# ---------------------------------------------------------------------------
#: row -> the column whose numeric value ends in a NUL byte, which a
#: fixed-width ``astype`` view cannot tell from its own padding
NUL_ROWS = {5: "a", 10: "b"}
NUL_QUERIES = ("SELECT a, b FROM t WHERE c >= 0",
               "SELECT b FROM t WHERE b > 0",
               "SELECT c FROM t WHERE a < 9")


def nul_payload(fmt: str) -> bytes:
    template = (b"%s,%s,%d" if fmt == "csv"
                else b'{"a": %s, "b": %s, "c": %d}')
    lines = []
    for i in range(14):
        fields = {"a": b"%d" % i, "b": b"%d.5" % i}
        if i in NUL_ROWS:
            fields[NUL_ROWS[i]] += b"\x00"
        lines.append(template % (fields["a"], fields["b"], i))
    return b"\n".join(lines) + b"\n"


def nul_outcome(fmt: str, on_error: str, region: str, engine=PostgresRaw,
                **config_kwargs):
    """What a table with NUL-padded numeric values does under an error
    policy: per query its rows or its failure (message, row number),
    the ``rows_rejected`` counter, and the quarantine sidecar's (row,
    reason) records. Shared with the JSONL twin in ``test_jsonl``."""
    vfs = VirtualFS()
    vfs.create(f"t.{fmt}", nul_payload(fmt))
    engine = engine(
        config=PostgresRawConfig(row_block_size=4, **config_kwargs),
        vfs=vfs)
    engine.query(f"CREATE TABLE t (a INTEGER, b FLOAT, c INTEGER) "
                 f"USING {fmt} OPTIONS (path 't.{fmt}', "
                 f"on_error '{on_error}')")
    if region == "indexed":
        engine.query("SELECT c FROM t")  # line index; a, b unconverted
    outcome = []
    for sql in NUL_QUERIES:
        try:
            outcome.append(engine.query(sql).rows)
        except FormatError as exc:
            outcome.append((str(exc), exc.context["row_number"]))
    rejects = []
    if vfs.exists("__rejects__/t"):
        rejects = [record.split(b"\t")[:2] for record in
                   vfs.read_bytes("__rejects__/t").split(b"\n")[:-1]]
    return outcome, engine.counters().get("rows_rejected"), rejects


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
    oracle = nul_outcome("csv", on_error, region, engine=OracleRaw)
    assert oracle[0][0] == NUL_EXPECTED[on_error]
    assert nul_outcome("csv", on_error, region,
                       scan_workers=workers) == oracle


# ---------------------------------------------------------------------------
# §4.4 reservoirs across paths, with replacement actually happening
# ---------------------------------------------------------------------------
#: twelve columns, two per type slot — the first half is first touched
#: cold, the second half only after the append, so the collector runs
#: over a fresh file, over the indexed region, and over indexed region +
#: streamed tail
RESERVOIR_KINDS = [("INTEGER", INTEGER), ("FLOAT", FLOAT),
                   ("VARCHAR", varchar()), ("DATE", DATE),
                   ("INTEGER", INTEGER), ("FLOAT", FLOAT)]
RESERVOIR_COLUMNS = [(f"c{i}", *RESERVOIR_KINDS[i % 6]) for i in range(12)]


def reservoir_rows(rng: random.Random, nrows: int) -> list[list[str]]:
    """Text rows far larger than the sample targets below; the FLOAT
    columns carry NULLs (``random_text_value``: ~15 %)."""
    return [[random_text_value(rng, dtype, nullable=dtype is FLOAT)
             for _name, _sql, dtype in RESERVOIR_COLUMNS]
            for _ in range(nrows)]


def reservoir_mix(first: int) -> list[str]:
    """Five shapes over six columns starting at ``first`` (int, float,
    str, date, int, float): WHERE-only with no SELECT, SELECT-only, a
    column both filtered and projected, a SELECT column sampled at the
    qualifying rows of an already-sampled filter, and the NULL-bearing
    float as a filter."""
    c = [f"c{first + i}" for i in range(6)]
    return [
        f"SELECT count(*) FROM t WHERE {c[0]} < 2000",
        f"SELECT {c[2]}, {c[3]} FROM t",
        f"SELECT {c[4]}, {c[3]} FROM t WHERE {c[4]} > -4000",
        f"SELECT {c[5]} FROM t WHERE {c[0]} >= -6000",
        f"SELECT {c[0]} FROM t WHERE {c[1]} > -200.5",
    ]


def reservoir_engine(fmt: str, rows, engine=PostgresRaw,
                     **config_kwargs) -> PostgresRaw:
    vfs = VirtualFS()
    vfs.create(f"t.{fmt}", reservoir_payload(fmt, rows))
    engine = engine(config=PostgresRawConfig(**config_kwargs), vfs=vfs)
    columns = ", ".join(f"{name} {sql}"
                        for name, sql, _dtype in RESERVOIR_COLUMNS)
    engine.query(f"CREATE TABLE t ({columns}) USING {fmt} "
                 f"OPTIONS (path 't.{fmt}')")
    return engine


def reservoir_payload(fmt: str, rows) -> bytes:
    if fmt == "csv":
        return write_csv(rows)
    lines = []
    for row in rows:
        members = []
        for (name, _sql, dtype), text in zip(RESERVOIR_COLUMNS, row):
            if dtype.family in ("int", "float"):
                members.append(f'"{name}": {text or "null"}')
            else:
                members.append(f'"{name}": {json.dumps(text)}')
        lines.append("{" + ", ".join(members) + "}")
    return ("\n".join(lines) + "\n").encode()


def column_stats(engine, table="t") -> dict:
    """name -> ``ColumnStats.__dict__`` of every collected column."""
    info = engine.catalog.get(table)
    if info.stats is None:
        return {}
    return {column.name: dict(vars(info.stats.column(column.name)))
            for column in info.schema.columns
            if info.stats.has_column(column.name)}


@pytest.mark.parametrize("block_size", [8, 64])
@pytest.mark.parametrize("target", [3, 7])
class TestReservoirsAcrossPaths:
    """``test_statistics_collection_identical`` runs tables smaller
    than the default sample target, so it never reaches reservoir
    replacement — the branch whose RNG stream depends on the exact
    per-attribute feeding order. Tiny targets put every path there."""

    def run_paths(self, fmt, variants, target, block_size):
        rng = random.Random(4400 + target + block_size)
        rows = reservoir_rows(rng, 150)
        extra = reservoir_rows(rng, 45)
        engines = {label: reservoir_engine(
                       fmt, rows, stats_sample_target=target,
                       row_block_size=block_size, **kwargs)
                   for label, kwargs in variants.items()}
        reference = next(iter(engines))
        for phase, first in (("cold", 0), ("after append", 6)):
            results = {label: [normalized(engine.query(sql))
                               for sql in reservoir_mix(first)]
                       for label, engine in engines.items()}
            stats = {label: column_stats(engine)
                     for label, engine in engines.items()}
            assert len(stats[reference]) == first + 6, phase
            for label in engines:
                assert results[label] == results[reference], (phase, label)
                assert stats[label] == stats[reference], (phase, label)
            # the reservoirs really were in their replacement phase
            assert all(column["observed_rows"] > target
                       for column in stats[reference].values())
            for engine in engines.values():
                engine.vfs.append_bytes(f"t.{fmt}",
                                        reservoir_payload(fmt, extra))

    def test_csv_batch_scalar_workers_kernels(self, target, block_size):
        self.run_paths("csv", {
            "batch": {},
            "scalar": dict(engine=OracleRaw),
            "4 workers": dict(scan_workers=4),
            "kernels off": dict(scan_kernels=False),
        }, target, block_size)

    def test_jsonl_workers_kernels(self, target, block_size):
        self.run_paths("jsonl", {
            "serial": {},
            "4 workers": dict(scan_workers=4),
            "kernels off": dict(scan_kernels=False),
        }, target, block_size)

    def test_fits_batch_vs_scalar(self, target, block_size):
        rng = random.Random(4500 + target + block_size)
        names = ["k", "x", "y", "m", "tag"]
        rows = [(rng.randrange(-500, 500), rng.uniform(-9, 9),
                 rng.uniform(0, 1), rng.uniform(10, 25), f"t{i % 13:02d}")
                for i in range(150)]
        payload = write_bintable(names, ["K", "D", "D", "E", "8A"], rows)
        stats = []
        for engine_class in (PostgresRaw, OracleRaw):
            vfs = VirtualFS()
            vfs.create("sky.fits", payload)
            engine = engine_class(
                config=PostgresRawConfig(stats_sample_target=target,
                                         row_block_size=block_size),
                vfs=vfs)
            engine.register_fits("sky", "sky.fits")
            for sql in ("SELECT count(*) FROM sky WHERE k < 100",
                        "SELECT tag, m FROM sky",
                        "SELECT x, k FROM sky WHERE x > -3.5",
                        "SELECT y FROM sky WHERE k >= -250"):
                engine.query(sql)
            stats.append(column_stats(engine, "sky"))
        assert stats[0] == stats[1]
        assert sorted(stats[0]) == sorted(names)
        # SELECT-only ``y`` was sampled at the qualifying rows only
        assert target < stats[0]["y"]["observed_rows"] < 150
