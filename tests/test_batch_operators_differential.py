"""Differential fuzz for the columnar operator tree (PR 3).

PR 1 proved the batch *scan* against the scalar oracle; these tests
prove the operators above it — GROUP BY aggregation (hash and sort
strategies), hash joins, and ORDER BY — by running random workloads on
three engines (batch, scalar, loaded) and demanding:

* **identical result sequences** between batch and scalar — not just
  identical sets: group emission order, sort tie-breaking and float
  accumulation order are all replicated exactly by the vectorized
  paths;
* **identical positional-map and cache contents** after every query
  (the PR 1 contract, now exercised through joins and aggregates);
* **zero row materialization** on the batch path for vectorizable
  plans (``rows_materialized == 0`` upstream of final assembly);
* **typed cache round-trips**: dtype-tagged blocks written by a cold
  scan serve warm scans as arrays with dtype preserved, and values
  (dates included) survive the round trip exactly;
* **vectorized parameter predicates**: ``?`` placeholders no longer
  disable ``vector_fn`` — prepared statements re-bind and stay on the
  fully columnar path.
"""

import random

import numpy as np
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
from repro.formats.csvfmt import write_csv
from repro.sql.operators import ScanOp
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.workloads.micro import generate_micro_csv, micro_schema
from tests.oracle import OracleRaw

from test_batch_differential import (
    assert_structures_match,
    build_engines,
    random_schema,
    random_table,
)


def _clean(value):
    """Normalize the one representational wobble exact comparison can't
    see past: IEEE negative zero (scalar accumulators can preserve the
    sign bit where array sentinels fold it)."""
    if isinstance(value, float) and value == 0.0:
        return 0.0
    return value


def rows_of(result):
    return [tuple(_clean(v) for v in row) for row in result.rows]


def normalized(result):
    return sorted(map(repr, rows_of(result)))


# ---------------------------------------------------------------------------
# Random operator-level workloads
# ---------------------------------------------------------------------------
def random_agg_query(rng: random.Random, schema: Schema) -> str:
    columns = schema.columns
    numeric = [c.name for c in columns
               if c.dtype.family in ("int", "float")]
    group_col = rng.choice([c.name for c in columns])
    aggs = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.2 or not numeric:
            aggs.append("count(*)")
        else:
            func = rng.choice(["sum", "avg", "min", "max", "count"])
            arg = rng.choice(numeric)
            if rng.random() < 0.3:
                arg = f"{arg} * 2" if rng.random() < 0.5 else f"{arg} + 1"
            aggs.append(f"{func}({arg})")
    sql = f"SELECT {group_col}, {', '.join(aggs)} FROM t"
    if numeric and rng.random() < 0.5:
        sql += f" WHERE {rng.choice(numeric)} < {rng.randint(-2000, 8000)}"
    sql += f" GROUP BY {group_col}"
    if rng.random() < 0.4:
        sql += f" ORDER BY {group_col}"
    return sql


def random_order_query(rng: random.Random, schema: Schema) -> str:
    columns = [c.name for c in schema.columns]
    keys = rng.sample(columns, rng.randint(1, min(3, len(columns))))
    order = ", ".join(
        f"{k} {'DESC' if rng.random() < 0.5 else 'ASC'}" for k in keys)
    sql = f"SELECT {', '.join(columns)} FROM t ORDER BY {order}"
    if rng.random() < 0.4:
        sql += f" LIMIT {rng.randint(0, 40)}"
    return sql


class TestAggregateDifferentialFuzz:
    @pytest.mark.parametrize("seed", range(10))
    def test_group_by_aggregates_agree(self, seed):
        rng = random.Random(31000 + seed)
        schema = random_schema(rng)
        rows = random_table(rng, schema)
        block_size = rng.choice([1, 3, 8, 17, 64])
        raw_batch, raw_scalar, loaded = build_engines(schema, rows,
                                                      block_size)
        for qno in range(5):
            sql = random_agg_query(rng, schema)
            res_batch = raw_batch.query(sql)
            res_scalar = raw_scalar.query(sql)
            res_loaded = loaded.query(sql)
            # Exact sequence parity: emission order and float
            # accumulation order are replicated, not just the set.
            assert rows_of(res_batch) == rows_of(res_scalar), \
                f"seed={seed} q{qno}: batch != scalar for {sql!r}"
            assert normalized(res_batch) == normalized(res_loaded), \
                f"seed={seed} q{qno}: batch != loaded for {sql!r}"
            assert_structures_match(raw_batch, raw_scalar)

    @pytest.mark.parametrize("seed", range(8))
    def test_order_by_exact_sequence(self, seed):
        rng = random.Random(32000 + seed)
        schema = random_schema(rng)
        rows = random_table(rng, schema)
        raw_batch, raw_scalar, loaded = build_engines(
            schema, rows, rng.choice([2, 5, 16]))
        for _ in range(4):
            sql = random_order_query(rng, schema)
            res_batch = raw_batch.query(sql)
            res_scalar = raw_scalar.query(sql)
            res_loaded = loaded.query(sql)
            # ORDER BY must agree on the full sequence — NULL placement,
            # per-key direction and stable tie order included.
            assert rows_of(res_batch) == rows_of(res_scalar), sql
            assert rows_of(res_batch) == rows_of(res_loaded), sql
            assert_structures_match(raw_batch, raw_scalar)


# ---------------------------------------------------------------------------
# Hash joins
# ---------------------------------------------------------------------------
def build_join_engines(rng: random.Random, key_family: str = "int"):
    if key_family == "int":
        key_value = lambda: str(rng.randint(0, 12))
        key_type = INTEGER
    else:
        key_value = lambda: rng.choice("abcdefgh")
        key_type = varchar()
    left_schema = Schema([("lk", key_type), ("lv", INTEGER),
                          ("ls", varchar())])
    right_schema = Schema([("rk", key_type), ("rv", FLOAT)])
    left_rows = [[key_value() if rng.random() > 0.1 else "",
                  str(rng.randint(-100, 100)),
                  rng.choice("xyzw")] for _ in range(rng.randint(0, 80))]
    right_rows = [[key_value() if rng.random() > 0.1 else "",
                   f"{rng.uniform(-10, 10):.3f}"]
                  for _ in range(rng.randint(0, 40))]
    engines = []
    for engine in (PostgresRaw, OracleRaw):
        vfs = VirtualFS()
        vfs.create("l.csv", write_csv(left_rows))
        vfs.create("r.csv", write_csv(right_rows))
        db = engine(config=PostgresRawConfig(
            row_block_size=rng.choice([3, 8, 32])), vfs=vfs)
        db.register_csv("l", "l.csv", left_schema)
        db.register_csv("r", "r.csv", right_schema)
        engines.append(db)
    return engines


class TestHashJoinDifferentialFuzz:
    @pytest.mark.parametrize("seed", range(8))
    def test_int_key_joins_agree(self, seed):
        rng = random.Random(33000 + seed)
        db_batch, db_scalar = build_join_engines(rng, "int")
        queries = [
            "SELECT lv, rv FROM l, r WHERE lk = rk",
            "SELECT lv, rv FROM l, r WHERE lk = rk AND lv > 0",
            "SELECT ls, count(*), sum(rv) FROM l, r WHERE lk = rk "
            "GROUP BY ls",
            "SELECT lv, rv FROM l, r WHERE lk = rk ORDER BY lv, rv "
            "LIMIT 25",
        ]
        for sql in queries:
            res_batch = db_batch.query(sql)
            res_scalar = db_scalar.query(sql)
            assert rows_of(res_batch) == rows_of(res_scalar), \
                f"seed={seed}: {sql!r}"

    @pytest.mark.parametrize("seed", range(6))
    def test_string_key_joins_agree(self, seed):
        rng = random.Random(34000 + seed)
        db_batch, db_scalar = build_join_engines(rng, "str")
        for sql in ("SELECT lv, rv FROM l, r WHERE lk = rk",
                    "SELECT lk, count(*) FROM l, r WHERE lk = rk "
                    "GROUP BY lk ORDER BY lk"):
            assert rows_of(db_batch.query(sql)) == \
                rows_of(db_scalar.query(sql)), f"seed={seed}: {sql!r}"


# ---------------------------------------------------------------------------
# The acceptance contract: fully columnar plans materialize no rows
# ---------------------------------------------------------------------------
def micro_engine(batch: bool, rows: int = 400, attrs: int = 6,
                 extra_table: bool = False) -> PostgresRaw:
    vfs = VirtualFS()
    generate_micro_csv(vfs, "m.csv", rows, attrs, seed=5, value_range=40)
    engine = PostgresRaw if batch else OracleRaw
    db = engine(config=PostgresRawConfig(row_block_size=64), vfs=vfs)
    db.register_csv("m", "m.csv", micro_schema(attrs))
    if extra_table:
        payload = b"\n".join(f"{i},{i * 7}".encode() for i in range(40))
        vfs.create("d.csv", payload + b"\n")
        db.register_csv("d", "d.csv",
                        Schema([("k", INTEGER), ("w", INTEGER)]))
    return db


class TestZeroRowMaterialization:
    def test_group_by_aggregate_is_fully_columnar(self):
        db = micro_engine(batch=True)
        oracle = micro_engine(batch=False)
        sql = ("SELECT a1, sum(a2), count(*), avg(a3), min(a4), max(a5) "
               "FROM m WHERE a2 < 30 GROUP BY a1")
        for _ in range(2):  # cold (streaming) and warm (indexed+cache)
            result = db.query(sql)
            expected = oracle.query(sql)
            assert result.rows == expected.rows
            assert result.rows_materialized == 0
        assert db.rows_materialized == 0

    def test_hash_join_is_fully_columnar(self):
        db = micro_engine(batch=True, extra_table=True)
        oracle = micro_engine(batch=False, extra_table=True)
        sql = ("SELECT a2, w FROM m, d WHERE a1 = k "
               "ORDER BY a2 DESC, w LIMIT 30")
        for _ in range(2):
            result = db.query(sql)
            expected = oracle.query(sql)
            assert result.rows == expected.rows
            assert result.rows_materialized == 0

    def test_scalar_mode_reports_zero_too(self):
        # The counter tracks batch->row transpositions; the scalar
        # pipeline never transposes batches at all.
        db = micro_engine(batch=False)
        db.query("SELECT a1, count(*) FROM m GROUP BY a1")
        assert db.rows_materialized == 0

    def test_row_fallbacks_are_counted(self):
        # count(DISTINCT ...) is not vectorized: the aggregate falls
        # back to the row path, which transposes the scan's batches.
        db = micro_engine(batch=True)
        result = db.query("SELECT count(DISTINCT a1) FROM m")
        assert result.rows_materialized == 400
        assert result.scalar() == 40


# ---------------------------------------------------------------------------
# Typed cache round trip (dtype preserved cold -> warm)
# ---------------------------------------------------------------------------
class TestTypedCacheRoundTrip:
    @pytest.mark.parametrize("seed", range(6))
    def test_dtype_preserved_and_values_exact(self, seed):
        rng = random.Random(36000 + seed)
        schema = random_schema(rng)
        rows = random_table(rng, schema)
        raw_batch, raw_scalar, _ = build_engines(schema, rows, 16)
        all_cols = ", ".join(c.name for c in schema.columns)
        sql = f"SELECT {all_cols} FROM t"
        cold = raw_batch.query(sql)
        cold_scalar = raw_scalar.query(sql)
        assert rows_of(cold) == rows_of(cold_scalar)

        expected_dtype = {"int": np.int64, "float": np.float64,
                          "date": np.int32, "bool": np.bool_}
        cache = raw_batch.cache_of("t")
        for (attr, _block), block in cache._blocks.items():
            family = schema.columns[attr].dtype.family
            typed = block.typed_data()
            if family in expected_dtype:
                data, nulls = typed
                assert data.dtype == expected_dtype[family], \
                    f"attr {attr} family {family}"
                assert len(nulls) == len(block.mask)
            else:
                assert typed is None

        warm = raw_batch.query(sql)
        warm_scalar = raw_scalar.query(sql)
        assert rows_of(warm) == rows_of(cold)
        assert rows_of(warm) == rows_of(warm_scalar)
        assert_structures_match(raw_batch, raw_scalar)

    def test_warm_scan_hands_typed_arrays_to_batches(self):
        db = micro_engine(batch=True)
        access = db.catalog.get("m").access
        list(access.scan_batches([0, 2], None))          # cold: populate
        warm = list(access.scan_batches([0, 2], None))   # warm: cache-fed
        assert warm
        for batch in warm:
            for column in batch.columns:
                assert column.dtype == np.int64
        # And the values are exactly the file's.
        values = [v for batch in warm for v in batch.column_values(0)]
        truth = [int(line.split(b",")[0]) for line in
                 db.vfs.read_bytes("m.csv").splitlines()]
        assert values == truth

    def test_date_blocks_round_trip_as_day_numbers(self):
        schema = Schema([("d", DATE), ("x", INTEGER)])
        rows = [["2001-02-03", "1"], ["1999-12-31", "2"],
                ["", "3"], ["2030-06-15", "4"]]
        raw_batch, raw_scalar, _ = build_engines(schema, rows, 8)
        sql = "SELECT d, x FROM t"
        cold = raw_batch.query(sql)
        warm = raw_batch.query(sql)
        assert cold.rows == warm.rows == raw_scalar.query(sql).rows
        block = raw_batch.cache_of("t").get(0, 0)
        data, nulls = block.typed_data()
        assert data.dtype == np.int32
        assert bool(nulls.any())  # the empty field cached as NULL
        # Warm date *predicates* run on the day-number array.
        pred_sql = "SELECT x FROM t WHERE d >= DATE '2000-01-01'"
        assert raw_batch.query(pred_sql).rows == \
            raw_scalar.query(pred_sql).rows


# ---------------------------------------------------------------------------
# Vectorized parameter predicates (ROADMAP: "?" no longer disables
# vector_fn)
# ---------------------------------------------------------------------------
def _find_scan(op):
    while not isinstance(op, ScanOp):
        op = getattr(op, "child", None) or getattr(op, "left", None)
    return op


class TestParameterVectorization:
    def test_parameter_predicate_compiles_to_vector_fn(self):
        db = micro_engine(batch=True)
        select = parse("SELECT a1 FROM m WHERE a2 < ? AND a3 BETWEEN ? "
                       "AND ?")
        planned = Planner(db.catalog, db.model).plan(select)
        scan = _find_scan(planned.root)
        assert scan.predicate is not None
        assert scan.predicate.vector_fn is not None

    def test_prepared_reexecution_stays_columnar(self):
        db = micro_engine(batch=True)
        oracle = micro_engine(batch=False)
        session = db.connect()
        stmt = session.prepare("SELECT a1, count(*) FROM m WHERE a2 < ? "
                               "GROUP BY a1")
        oracle_session = oracle.connect()
        oracle_stmt = oracle_session.prepare(
            "SELECT a1, count(*) FROM m WHERE a2 < ? GROUP BY a1")
        for bind in (10, 25, 0, 40):
            before = db.rows_materialized
            got = stmt.execute((bind,)).fetchall()
            want = oracle_stmt.execute((bind,)).fetchall()
            assert got == want, f"bind={bind}"
            # Re-binding rebuilt the mask; no row fallback happened.
            assert db.rows_materialized == before, f"bind={bind}"

    def test_parameter_mask_rebuilds_per_bind(self):
        db = micro_engine(batch=True)
        session = db.connect()
        stmt = session.prepare("SELECT count(*) FROM m WHERE a1 = ?")
        counts = {}
        for bind in (3, 17, 3):
            counts.setdefault(bind, []).append(
                stmt.execute((bind,)).fetchone()[0])
        assert counts[3][0] == counts[3][1]  # deterministic per bind
        total = db.query("SELECT count(*) FROM m").scalar()
        assert 0 < counts[3][0] < total

    def test_null_bind_matches_scalar_semantics(self):
        db = micro_engine(batch=True)
        oracle = micro_engine(batch=False)
        got = db.connect().execute(
            "SELECT count(*) FROM m WHERE a1 < ?", (None,)).fetchall()
        want = oracle.connect().execute(
            "SELECT count(*) FROM m WHERE a1 < ?", (None,)).fetchall()
        assert got == want == [(0,)]


# ---------------------------------------------------------------------------
# Scalar-parity edge cases caught by review (vectorized value exprs)
# ---------------------------------------------------------------------------
class TestVectorizedValueEdgeCases:
    def _pair(self, payload, schema):
        out = []
        for engine in (PostgresRaw, OracleRaw):
            vfs = VirtualFS()
            vfs.create("t.csv", payload)
            db = engine(config=PostgresRawConfig(), vfs=vfs)
            db.register_csv("t", "t.csv", schema)
            out.append(db)
        return out

    def test_division_by_zero_raises_like_scalar(self):
        from repro.errors import ExecutionError

        db_batch, db_scalar = self._pair(
            b"1,0\n2,1\n", Schema([("a", INTEGER), ("b", INTEGER)]))
        for db in (db_batch, db_scalar):
            with pytest.raises(ExecutionError, match="division by zero"):
                db.query("SELECT sum(a / b) FROM t GROUP BY a")

    def test_interval_arithmetic_falls_back_to_rows(self):
        db_batch, db_scalar = self._pair(
            b"2020-01-15,1\n2021-03-10,1\n",
            Schema([("d", DATE), ("a", INTEGER)]))
        sql = "SELECT min(d + INTERVAL '1' MONTH) FROM t GROUP BY a"
        assert db_batch.query(sql).rows == db_scalar.query(sql).rows

    def test_nan_min_max_first_value_semantics(self):
        payload = b"1,2.0\n1,nan\n1,1.0\n2,nan\n2,3.0\n"
        db_batch, db_scalar = self._pair(
            payload, Schema([("a", INTEGER), ("f", FLOAT)]))
        sql = "SELECT a, min(f), max(f) FROM t GROUP BY a ORDER BY a"
        assert repr(db_batch.query(sql).rows) == \
            repr(db_scalar.query(sql).rows)

    def test_int_sum_beyond_int64_matches_python_ints(self):
        big = 6_000_000_000_000_000_000  # 2 * big overflows int64
        payload = (f"1,{big}\n1,{big}\n2,5\n".encode())
        db_batch, db_scalar = self._pair(
            payload, Schema([("g", INTEGER), ("v", INTEGER)]))
        sql = "SELECT g, sum(v) FROM t GROUP BY g ORDER BY g"
        got = db_batch.query(sql).rows
        assert got == db_scalar.query(sql).rows
        assert got[0][1] == 2 * big  # exact, no wraparound

    def test_nan_order_by_matches_scalar_sequence(self):
        payload = b"1,1.5\n2,nan\n3,2.5\n4,nan\n5,0.5\n"
        db_batch, db_scalar = self._pair(
            payload, Schema([("i", INTEGER), ("f", FLOAT)]))
        for sql in ("SELECT i FROM t ORDER BY f",
                    "SELECT i FROM t ORDER BY f DESC"):
            assert db_batch.query(sql).rows == \
                db_scalar.query(sql).rows, sql

    def test_int_beyond_int64_survives_the_typed_cache(self):
        # The scan's Python parse fallback produces true bigints; the
        # typed cache must demote the block rather than overflow.
        big = 99999999999999999999999999
        payload = f"1,{big}\n2,7\n".encode()
        db_batch, db_scalar = self._pair(
            payload, Schema([("a", INTEGER), ("v", INTEGER)]))
        sql = "SELECT a, v FROM t ORDER BY a"
        for db in (db_batch, db_scalar):
            assert db.query(sql).rows == [(1, big), (2, 7)]
            assert db.query(sql).rows == [(1, big), (2, 7)]  # warm

    def test_session_results_report_rows_materialized(self):
        vfs = VirtualFS()
        generate_micro_csv(vfs, "m.csv", 50, 3, seed=1, value_range=9)
        db = PostgresRaw(vfs=vfs)
        db.register_csv("m", "m.csv", micro_schema(3))
        session = db.connect()
        columnar = session.query("SELECT a1, count(*) FROM m GROUP BY a1")
        assert columnar.rows_materialized == 0
        # A DISTINCT aggregate still takes the row fallback — the
        # session surface must report it, not just the legacy
        # engine.query path. (Computed projections used to be the
        # example here; they now evaluate columnar.)
        fallback = session.query("SELECT count(DISTINCT a1) FROM m")
        assert fallback.rows_materialized == 50
        computed = session.query("SELECT a1 * 2 + a2 FROM m")
        assert computed.rows_materialized == 0

    def test_nan_group_keys_stay_distinct(self):
        # Python dicts key each freshly parsed nan separately; the
        # factorizer must not collapse them the way np.unique would.
        payload = b"nan,1\nnan,2\n1.0,3\n"
        db_batch, db_scalar = self._pair(
            payload, Schema([("f", FLOAT), ("x", INTEGER)]))
        sql = "SELECT f, count(*), sum(x) FROM t GROUP BY f"
        got = db_batch.query(sql).rows
        assert repr(got) == repr(db_scalar.query(sql).rows)
        assert len(got) == 3  # two nan groups plus 1.0


# ---------------------------------------------------------------------------
# Widened predicate shapes: OR / IN / string equality / dates
# ---------------------------------------------------------------------------
class TestWidenedVectorizerShapes:
    @pytest.mark.parametrize("sql", [
        "SELECT a1 FROM m WHERE a2 < 10 OR a3 > 30",
        "SELECT a1 FROM m WHERE (a2 < 10 AND a4 > 5) OR a3 = 7",
        "SELECT a1 FROM m WHERE a2 IN (1, 2, 3, 30)",
        "SELECT a1 FROM m WHERE a2 NOT IN (1, 2, 3)",
        "SELECT a1 FROM m WHERE a2 NOT BETWEEN 5 AND 35",
    ])
    def test_or_in_shapes_match_scalar(self, sql):
        db = micro_engine(batch=True)
        oracle = micro_engine(batch=False)
        assert rows_of(db.query(sql)) == rows_of(oracle.query(sql))
        # Pushed single-table predicates of these shapes vectorize.
        select = parse(sql)
        scan = _find_scan(Planner(db.catalog, db.model).plan(select).root)
        assert scan.predicate.vector_fn is not None

    def test_string_equality_and_dates(self):
        schema = Schema([("s", varchar()), ("d", DATE), ("x", INTEGER)])
        rows = [["abc", "2001-01-01", "1"], ["", "2002-02-02", "2"],
                ["abc", "", "3"], ["zz z", "2003-03-03", "4"]]
        raw_batch, raw_scalar, loaded = build_engines(schema, rows, 4)
        queries = [
            "SELECT x FROM t WHERE s = 'abc'",
            "SELECT x FROM t WHERE s <> 'abc'",
            "SELECT x FROM t WHERE s IN ('abc', 'zz z')",
            "SELECT x FROM t WHERE d > DATE '2001-06-01'",
            "SELECT x FROM t WHERE d BETWEEN DATE '2001-01-01' AND "
            "DATE '2002-12-31'",
            "SELECT x FROM t WHERE d IS NULL",
            "SELECT x FROM t WHERE d IS NOT NULL AND s = 'abc'",
        ]
        for sql in queries:
            assert normalized(raw_batch.query(sql)) == \
                normalized(raw_scalar.query(sql)) == \
                normalized(loaded.query(sql)), sql
            assert_structures_match(raw_batch, raw_scalar)


# ---------------------------------------------------------------------------
# Semi-joins, CASE-bearing aggregates, column-vs-column predicates:
# the three shapes that used to drag TPC-H Q4/Q12/Q14 onto the row path
# ---------------------------------------------------------------------------
def build_table_engines(tables: dict, block_size: int):
    """``(raw_batch, raw_scalar, loaded)`` over the same named tables
    (``name -> (schema, rows)``), each engine on its own VFS."""
    payloads = {name: write_csv(rows) for name, (_, rows) in tables.items()}
    engines = []
    for engine in (PostgresRaw, OracleRaw, None):
        vfs = VirtualFS()
        for name, payload in payloads.items():
            vfs.create(f"{name}.csv", payload)
        if engine is None:
            db = LoadedDBMS(vfs=vfs)
            for name, (schema, _) in tables.items():
                db.load_csv(name, f"{name}.csv", schema)
        else:
            db = engine(config=PostgresRawConfig(
                row_block_size=block_size), vfs=vfs)
            for name, (schema, _) in tables.items():
                db.register_csv(name, f"{name}.csv", schema)
        engines.append(db)
    return engines


def exact(result) -> list[str]:
    """Row sequence compared type-strictly (int ``0`` is not ``0.0``)."""
    return [repr(row) for row in rows_of(result)]


def plan_nodes(plan: dict):
    yield plan
    for key in ("input", "left", "right", "outer", "inner"):
        child = plan.get(key)
        if isinstance(child, dict):
            yield from plan_nodes(child)


def assert_columnar_parity(engines, sql: str, tables=("t",),
                           cold: bool = False, ordered: bool = True):
    """The full contract for one query: batch == scalar == loaded row
    sequences, identical PM/cache dumps, identical priced counters
    (warm scans may legitimately differ in indexed-region TOKENIZE —
    see ``simcost/model.py`` — so that one event is compared cold
    only), a plan that stayed columnar, and zero materialized rows."""
    raw_batch, raw_scalar, loaded = engines
    res_batch = raw_batch.query(sql)
    res_scalar = raw_scalar.query(sql)
    res_loaded = loaded.query(sql)
    assert exact(res_batch) == exact(res_scalar), sql
    if ordered:
        assert exact(res_batch) == exact(res_loaded), sql
    else:
        assert sorted(exact(res_batch)) == sorted(exact(res_loaded)), sql
    for table in tables:
        assert_structures_match(raw_batch, raw_scalar, table)
    # The batch scan's cached-block fast path counts its blocks in two
    # zero-priced events the scalar scan never charges.
    ignored = {"kernel_hits", "kernel_bailouts"}
    if not cold:
        ignored.add("tokenize")
    counters_batch = {k: v for k, v in res_batch.counters.items()
                      if k not in ignored}
    counters_scalar = {k: v for k, v in res_scalar.counters.items()
                       if k not in ignored}
    assert counters_batch == counters_scalar, sql
    assert res_batch.rows_materialized == 0, sql
    for node in plan_nodes(res_batch.plan):
        assert node.get("vectorized", True) is True, (sql, node)
    return res_batch


def _int_or_null(rng: random.Random, hi: int, null_rate: float) -> str:
    return "" if rng.random() < null_rate else str(rng.randint(0, hi))


class TestSemiJoinDifferentialFuzz:
    """EXISTS / NOT EXISTS through the batch ``HashSemiJoinOp``."""

    def _engines(self, rng: random.Random, key_family: str):
        outer_nulls = rng.choice([0.0, 0.15])   # typed vs object keys
        inner_nulls = rng.choice([0.0, 0.15])
        if key_family == "int":
            key_type = INTEGER
            key = lambda rate: _int_or_null(rng, 9, rate)
        else:
            key_type = varchar()
            key = lambda rate: rng.choice("abcdefg")
        outer_schema = Schema([("ok", key_type), ("ok2", INTEGER),
                               ("ov", INTEGER)])
        inner_schema = Schema([("ik", key_type), ("ik2", INTEGER),
                               ("iv", INTEGER)])
        outer_rows = [[key(outer_nulls), _int_or_null(rng, 3, outer_nulls),
                       str(rng.randint(-100, 100))]
                      for _ in range(rng.randint(0, 90))]
        inner_rows = [[key(inner_nulls), _int_or_null(rng, 3, inner_nulls),
                       str(rng.randint(-100, 100))]
                      for _ in range(rng.choice([0, 5, 40]))]
        return build_table_engines(
            {"o": (outer_schema, outer_rows),
             "i": (inner_schema, inner_rows)},
            rng.choice([3, 8, 32]))

    QUERIES = [
        "SELECT ok, ov FROM o WHERE EXISTS "
        "(SELECT * FROM i WHERE ik = ok)",
        "SELECT ok, ov FROM o WHERE NOT EXISTS "
        "(SELECT * FROM i WHERE ik = ok)",
        # multi-column correlation + an inner filter
        "SELECT ov FROM o WHERE ov > -60 AND EXISTS "
        "(SELECT * FROM i WHERE ik = ok AND ik2 = ok2 AND iv > -20)",
        "SELECT ov FROM o WHERE NOT EXISTS "
        "(SELECT * FROM i WHERE ik2 = ok2 AND ik = ok)",
        # the inner side filters down to nothing
        "SELECT ov FROM o WHERE EXISTS "
        "(SELECT * FROM i WHERE ik = ok AND iv > 100000)",
        "SELECT count(*) FROM o WHERE NOT EXISTS "
        "(SELECT * FROM i WHERE ik = ok AND iv > 100000)",
        # aggregate above the semi-join (TPC-H Q4's shape)
        "SELECT ok2, count(*), sum(ov) FROM o WHERE EXISTS "
        "(SELECT * FROM i WHERE ik = ok AND iv < ik2 * 50) "
        "GROUP BY ok2 ORDER BY ok2",
    ]

    @pytest.mark.parametrize("key_family", ["int", "str"])
    @pytest.mark.parametrize("seed", range(6))
    def test_exists_and_not_exists_agree(self, seed, key_family):
        rng = random.Random(37000 + seed)
        engines = self._engines(rng, key_family)
        for qno, sql in enumerate(self.QUERIES):
            result = assert_columnar_parity(engines, sql, ("o", "i"),
                                            cold=qno == 0)
            semi = [n for n in plan_nodes(result.plan)
                    if n["op"] == "HashSemiJoin"]
            assert semi and semi[0]["vectorized"] is True

    def test_hash_probe_units_match_the_row_path(self):
        # Non-NULL inner keys + every outer row, duplicates included.
        outer = [["1", "0", "5"], ["", "0", "6"], ["2", "0", "7"]]
        inner = [["1", "0", "1"], ["1", "0", "2"], ["", "0", "3"]]
        schema_o = Schema([("ok", INTEGER), ("ok2", INTEGER),
                           ("ov", INTEGER)])
        schema_i = Schema([("ik", INTEGER), ("ik2", INTEGER),
                           ("iv", INTEGER)])
        engines = build_table_engines(
            {"o": (schema_o, outer), "i": (schema_i, inner)}, 2)
        result = assert_columnar_parity(
            engines, "SELECT ov FROM o WHERE EXISTS "
                     "(SELECT * FROM i WHERE ik = ok)", ("o", "i"),
            cold=True)
        assert result.rows == [(5,)]
        assert result.counters["hash_probe"] == 2 + 3
        negated = assert_columnar_parity(
            engines, "SELECT ov FROM o WHERE NOT EXISTS "
                     "(SELECT * FROM i WHERE ik = ok)", ("o", "i"))
        assert negated.rows == [(6,), (7,)]  # a NULL key never matches


CASE_SCHEMA = Schema([("g", INTEGER), ("a", INTEGER), ("f", FLOAT),
                      ("s", varchar()), ("d", DATE)])


def case_table(rng: random.Random) -> list[list[str]]:
    return [[_int_or_null(rng, 4, 0.1),
             "" if rng.random() < 0.15 else str(rng.randint(-50, 50)),
             "" if rng.random() < 0.15 else f"{rng.uniform(-9, 9):.3f}",
             rng.choice(["apple", "avocado", "banana", "cherry", ""]),
             f"19{rng.randint(90, 99)}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}"]
            for _ in range(rng.randint(0, 120))]


def case_aggregates(rng: random.Random) -> list[str]:
    x, y = sorted((rng.randint(-40, 40), rng.randint(-40, 40)))
    group = rng.randint(0, 4)
    return [
        f"sum(CASE WHEN a > {x} THEN a END)",                   # no ELSE
        f"count(CASE WHEN a > {x} THEN 1 END)",
        f"sum(CASE WHEN a > {x} THEN f ELSE 0 END)",            # int/float
        f"sum(CASE WHEN g = {group} THEN f ELSE 0 END)",        # all-ELSE
        "sum(CASE WHEN g = 99 THEN f ELSE 0 END)",              # groups
        f"avg(CASE WHEN s LIKE 'a%' THEN a * 2 + 1 ELSE a - {y} END)",
        f"min(CASE WHEN a < {x} THEN f WHEN a < {y} THEN f * 2 "
        "ELSE -f END)",
        f"max(CASE WHEN s NOT LIKE '%an%' AND a >= {x} THEN a + g "
        "ELSE g END)",
        f"sum(2 * CASE WHEN a <= {y} OR f > 0 THEN 1 ELSE 0 END)",
        "sum(CASE WHEN a <> 0 THEN f / a ELSE 0.0 END)",        # guarded
        f"count(CASE WHEN d < DATE '1995-01-01' THEN s END)",
        "max(CASE WHEN s = 'apple' THEN s WHEN s = 'cherry' THEN 'c' END)",
        f"sum(CASE WHEN a > {x} THEN NULL ELSE a END)",         # NULL arm
    ]


class TestCaseAggregateDifferentialFuzz:
    """``agg(CASE ...)`` through ``build_vector_value``'s CASE support:
    first-match-wins, NULL conditions, missing ELSE, branch typing."""

    @pytest.mark.parametrize("seed", range(8))
    def test_case_aggregates_agree(self, seed):
        rng = random.Random(38000 + seed)
        engines = build_table_engines(
            {"t": (CASE_SCHEMA, case_table(rng))},
            rng.choice([1, 4, 16, 64]))
        aggs = case_aggregates(rng)
        rng.shuffle(aggs)
        queries = []
        while aggs:
            picked = [aggs.pop() for _ in range(min(len(aggs), 3))]
            queries.append(f"SELECT g, {', '.join(picked)} FROM t "
                           "GROUP BY g ORDER BY g")
            queries.append(f"SELECT {', '.join(picked)} FROM t "
                           f"WHERE a < {rng.randint(-20, 60)}")
        for qno, sql in enumerate(queries):
            assert_columnar_parity(engines, sql, cold=qno == 0)

    def test_all_else_group_keeps_the_int_zero(self):
        rows = [["1", "5", "1.5", "x", "1990-01-10"],
                ["2", "5", "2.5", "x", "1990-01-10"],
                ["1", "5", "0.25", "x", "1990-01-10"]]
        engines = build_table_engines({"t": (CASE_SCHEMA, rows)}, 2)
        result = assert_columnar_parity(
            engines, "SELECT g, sum(CASE WHEN g = 1 THEN f ELSE 0 END) "
                     "FROM t GROUP BY g ORDER BY g", cold=True)
        assert exact(result) == ["(1, 1.75)", "(2, 0)"]

    def test_q14_shaped_projection_over_case_sums(self):
        rng = random.Random(38500)
        engines = build_table_engines(
            {"t": (CASE_SCHEMA, case_table(rng))}, 16)
        assert_columnar_parity(
            engines, "SELECT 100.00 * sum(CASE WHEN s LIKE 'a%' THEN "
                     "f * (1 - a) ELSE 0 END) / sum(f * (1 - a)) "
                     "FROM t WHERE a > 1", cold=True)

    def test_case_as_group_key_and_projection(self):
        rng = random.Random(38600)
        engines = build_table_engines(
            {"t": (CASE_SCHEMA, case_table(rng))}, 8)
        # No ORDER BY on the grouped query: the loaded engine (it has
        # statistics) may pick the other aggregation strategy, so its
        # groups are compared as a set.
        assert_columnar_parity(
            engines, "SELECT CASE WHEN a < 0 THEN 'neg' WHEN a >= 0 THEN "
                     "'pos' END, count(*) FROM t GROUP BY CASE WHEN a < 0 "
                     "THEN 'neg' WHEN a >= 0 THEN 'pos' END", ordered=False)
        assert_columnar_parity(
            engines, "SELECT g, CASE WHEN a > f THEN a ELSE f END, "
                     "a * 2 + g FROM t")


PAIR_SCHEMA = Schema([("i1", INTEGER), ("i2", INTEGER), ("f1", FLOAT),
                      ("f2", FLOAT), ("d1", DATE), ("d2", DATE),
                      ("s1", varchar()), ("s2", varchar()), ("x", INTEGER)])

#: column-vs-column WHERE clauses over int/float/date/str pairs — also
#: driven through the kernels-on/off parity suite (tests/test_kernels.py)
PAIR_PREDICATES = [
    "i1 < i2",
    "i1 = i2",
    "i1 <> f1",
    "f1 >= f2",
    "i2 <= f2 AND x > 10",
    "d1 < d2",
    "d1 = d2 OR d1 > d2",
    "s1 < s2",
    "s1 = s2",
    "s1 <> s2 AND s1 LIKE '%a%'",
    "s2 NOT LIKE 'b%' AND i1 >= i2",
    "i1 = s1",            # mismatched types: never equal, as in Python
    "i1 <> s1",
    "d1 <= d2 AND (i1 < i2 OR f1 > f2) AND d1 > DATE '1994-06-01'",
]


def pair_table(rng: random.Random, nrows: int | None = None,
               ) -> list[list[str]]:
    def date():
        if rng.random() < 0.12:
            return ""
        return f"199{rng.randint(3, 6)}-0{rng.randint(1, 9)}-1{rng.randint(0, 5)}"

    def number(fmt):
        return "" if rng.random() < 0.12 else fmt(rng.randint(-6, 6))

    if nrows is None:
        nrows = rng.randint(0, 120)
    return [[number(str), number(str),
             number(lambda v: f"{v}.0" if rng.random() < 0.5
                    else f"{v}.25"),
             number(lambda v: f"{v}.0"), date(), date(),
             rng.choice(["a", "ab", "b", "ba", ""]),
             rng.choice(["a", "ab", "b", "ba", ""]),
             str(rng.randint(0, 99))] for _ in range(nrows)]


class TestColumnPairPredicateFuzz:
    """``col <op> col`` pushed to the scan and as a residual filter."""

    @pytest.mark.parametrize("seed", range(6))
    def test_pushed_to_the_scan(self, seed):
        rng = random.Random(39000 + seed)
        engines = build_table_engines(
            {"t": (PAIR_SCHEMA, pair_table(rng))},
            rng.choice([1, 5, 16, 64]))
        predicates = list(PAIR_PREDICATES)
        rng.shuffle(predicates)
        for qno, predicate in enumerate(predicates):
            sql = f"SELECT x, i1, d2 FROM t WHERE {predicate}"
            # Twice: the repeat reads cache-served typed columns (int
            # day numbers for dates) against freshly parsed / NULL-
            # holed object ones.
            assert_columnar_parity(engines, sql, cold=qno == 0)
            assert_columnar_parity(engines, sql)
            scan = _find_scan(Planner(
                engines[0].catalog, engines[0].model).plan(parse(sql)).root)
            assert scan.predicate.vector_fn is not None, predicate

    @pytest.mark.parametrize("seed", range(4))
    def test_as_residual_filter_and_having(self, seed):
        rng = random.Random(39500 + seed)
        left = Schema([("lk", INTEGER), ("lv", INTEGER), ("lf", FLOAT),
                       ("ld", DATE), ("ls", varchar())])
        right = Schema([("rk", INTEGER), ("rv", INTEGER), ("rf", FLOAT),
                        ("rd", DATE), ("rs", varchar())])

        def rows(count):
            return [[_int_or_null(rng, 6, 0.1), _int_or_null(rng, 9, 0.1),
                     "" if rng.random() < 0.1
                     else f"{rng.uniform(0, 9):.2f}",
                     "" if rng.random() < 0.1
                     else f"1995-0{rng.randint(1, 9)}-11",
                     rng.choice(["p", "q", "pq"])] for _ in range(count)]

        engines = build_table_engines(
            {"l": (left, rows(rng.randint(0, 70))),
             "r": (right, rows(rng.randint(0, 30)))},
            rng.choice([4, 16]))
        queries = [
            "SELECT lv, rv FROM l, r WHERE lk = rk AND lv < rv",
            "SELECT lv, rf FROM l, r WHERE lk = rk AND lf <> rf "
            "AND ld <= rd",
            "SELECT ls, rs FROM l, r WHERE lk = rk AND ls <> rs",
            "SELECT ls, rs FROM l, r WHERE lk = rk AND "
            "(ls < rs OR lv >= rf)",
            "SELECT lk, sum(lv), count(*) FROM l GROUP BY lk "
            "HAVING sum(lv) > count(*) ORDER BY lk",
        ]
        for qno, sql in enumerate(queries):
            # The loaded engine knows both row counts and may build on
            # the other side: without ORDER BY its join output is
            # compared as a set.
            result = assert_columnar_parity(
                engines, sql, ("l", "r"), cold=qno == 0,
                ordered="ORDER BY" in sql)
            filters = [n for n in plan_nodes(result.plan)
                       if n["op"] in ("Filter", "Having")]
            assert filters and all(n["vectorized"] for n in filters), sql

    def test_uncovered_shapes_keep_the_row_closure(self):
        # NOT(...) and arithmetic inside a comparison are still the
        # closure's job (ScanPredicate.row_mask): same rows, same
        # structures, same single predicate charge — cold and warm.
        rng = random.Random(39900)
        raw_batch, raw_scalar, _ = build_table_engines(
            {"t": (PAIR_SCHEMA, pair_table(rng, 90))}, 16)
        for sql in ("SELECT x FROM t WHERE NOT (i1 < i2)",
                    "SELECT x FROM t WHERE i1 + i2 > 0 AND d1 < d2",
                    "SELECT x, d1 FROM t WHERE i1 - 1 < f1"):
            scan = _find_scan(Planner(
                raw_batch.catalog, raw_batch.model).plan(parse(sql)).root)
            assert scan.predicate.vector_fn is None
            for cold in (True, False):
                res_batch = raw_batch.query(sql)
                res_scalar = raw_scalar.query(sql)
                assert exact(res_batch) == exact(res_scalar), sql
                assert_structures_match(raw_batch, raw_scalar)
                assert res_batch.counters["predicate_eval"] == \
                    res_scalar.counters["predicate_eval"]

    def test_int64_wrapping_arithmetic_stays_exact(self):
        # Python ints never wrap; the vectorized twin must not either.
        big = 4_000_000_000_000  # big * big overflows int64
        rows = [[str(big), str(big), "1.0", "1.0", "", "", "", "", "1"],
                [str(-big), str(big), "1.0", "1.0", "", "", "", "", "2"],
                ["3", "4", "1.0", "1.0", "", "", "", "", "3"]]
        engines = build_table_engines({"t": (PAIR_SCHEMA, rows)}, 2)
        result = assert_columnar_parity(
            engines, "SELECT x, i1 * i2, i1 + i2 FROM t", cold=True)
        assert result.rows[0][1] == big * big
        assert_columnar_parity(
            engines, "SELECT sum(i1 * i2), max(i1 * i2 - x) FROM t")

    def test_columnar_shapes_on_the_environment_default_vfs(self):
        # Engines built *without* an explicit VFS pick up the chaos CI
        # leg's REPRO_FAULT_SEED: there the semi-join, CASE and
        # column-pair paths run with transient I/O faults firing under
        # their scans. Answers must not notice (counters may: retries
        # are billed).
        rng = random.Random(39950)
        # ~120 KB: large enough for the CI seed's schedule to fire.
        payload = write_csv(pair_table(rng, 3000))
        engines = []
        for engine in (PostgresRaw, OracleRaw):
            db = engine(config=PostgresRawConfig(row_block_size=16))
            db.vfs.create("t.csv", payload)
            db.vfs.create("u.csv", payload)
            db.register_csv("t", "t.csv", PAIR_SCHEMA)
            db.register_csv("u", "u.csv", Schema(
                [(f"u_{c.name}", c.dtype) for c in PAIR_SCHEMA.columns]))
            engines.append(db)
        db_batch, db_scalar = engines
        for sql in (
                "SELECT x, d1 FROM t WHERE d1 < d2 AND s1 LIKE 'a%'",
                "SELECT i1, count(*) FROM t WHERE EXISTS (SELECT * FROM u "
                "WHERE u_i1 = i1 AND u_d1 < u_d2) GROUP BY i1 ORDER BY i1",
                "SELECT i2, sum(CASE WHEN s1 <> s2 THEN f1 ELSE 0 END) "
                "FROM t WHERE i1 <= i2 GROUP BY i2 ORDER BY i2"):
            for _ in range(2):
                result = db_batch.query(sql)
                assert exact(result) == exact(db_scalar.query(sql)), sql
                assert result.rows_materialized == 0, sql

    def test_uncovered_aggregate_materializes_only_at_its_boundary(self):
        # DISTINCT keeps the row accumulators, but the join below it
        # (and its scans) stay columnar: the aggregate transposes its
        # own input, once.
        db = micro_engine(batch=True, extra_table=True)
        oracle = micro_engine(batch=False, extra_table=True)
        sql = "SELECT count(DISTINCT w) FROM m, d WHERE a1 = k"
        result = db.query(sql)
        expected = oracle.query(sql)
        assert result.rows == expected.rows
        joined = db.query("SELECT count(*) FROM m, d WHERE a1 = k").scalar()
        assert result.rows_materialized == joined
        assert dict(result.counters) == dict(expected.counters)
