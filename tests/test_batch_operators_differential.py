"""The columnar operator tree against the row-at-a-time oracle.

The random differential — GROUP BY aggregation (hash and sort
strategies), hash joins, EXISTS / NOT EXISTS semi-joins, ORDER BY,
CASE aggregates and column-vs-column predicates on the block scan, the
oracle engine (``tests/oracle``, whose row scans make every operator
above them run its row-at-a-time form) and the loaded DBMS, demanding
identical result *sequences* (group emission order, sort tie-breaking,
float accumulation order), identical structures and priced counters —
runs as pinned scenarios of the lockstep harness
(``tests/oracle/digest.py``, its ``oracle`` and ``loaded`` axes). Also:

* **zero row materialization** on the batch path for vectorizable
  plans (``rows_materialized == 0`` upstream of final assembly), and a
  vectorized plan for every query shape the harness draws;
* **typed cache round-trips**: dtype-tagged blocks written by a cold
  scan serve warm scans as arrays with dtype preserved, and values
  (dates included) survive the round trip exactly;
* **vectorized parameter predicates**: ``?`` placeholders do not
  disable ``vector_fn`` — prepared statements re-bind and stay on the
  fully columnar path;
* the edge cases review found in the vectorized value expressions.
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
    varchar,
)
from repro.core.blockscan import BlockScan
from repro.sql import operators
from repro.sql.operators import ScanOp
from repro.sql.executor import execute
from repro.sql.parser import parse
from repro.sql.planner import Planner
from tests.conftest import create_table
from tests.oracle import OracleRaw
from tests.oracle.digest import (
    AXIS,
    CASE_SCHEMA,
    JOIN_QUERIES,
    PAIR_PREDICATES,
    PAIR_SCHEMA,
    Query,
    Scenario,
    Table,
    build_engine,
    case_aggregates,
    case_query,
    case_table,
    check,
    keyed_table,
    micro,
    pair_table,
    plan_nodes,
    random_agg_query,
    random_order_query,
    random_schema,
    random_table,
    render,
    rows_key,
    seeded,
    seeded_scenario,
    structures,
)

MICRO = {"m": micro(400, 6, 5, value_range=40)}
WITH_D = {**MICRO, "d": (Schema([("k", INTEGER), ("w", INTEGER)]),
                         [[str(i), str(i * 7)] for i in range(40)])}


def micro_db(engine=PostgresRaw, tables=MICRO):
    return build_engine(tables, engine=engine, row_block_size=64)


#: the block scan against the oracle (exact sequences, structures,
#: counters) and the loaded DBMS (the multiset of rows)
ENGINES = [AXIS["oracle"], AXIS["loaded"]]


def pinned(tables, queries, block_size, repeat=1) -> Scenario:
    """The lockstep scenario of ``queries`` (each run ``repeat`` times)
    over ``tables`` at ``block_size``."""
    return Scenario(tuple(tables), tuple(Query(sql) for sql in queries
                                         for _ in range(repeat)),
                    (("row_block_size", block_size),))


def keyed(seed: int, key_family: str):
    """The two keyed tables ``l`` and ``r`` of ``seed`` and a generator
    for the rest of the scenario."""
    return ((Table("l", f"l_{key_family}", seed),
             Table("r", f"r_{key_family}", seed + 1)), random.Random(seed))


# ---------------------------------------------------------------------------
# Random operator-level workloads: GROUP BY, ORDER BY, hash joins
# ---------------------------------------------------------------------------
class TestAggregateDifferentialFuzz:
    @pytest.mark.parametrize("seed", range(10))
    def test_group_by_aggregates_agree(self, seed):
        """Exact sequence parity: emission order and float accumulation
        order are replicated, not just the set."""
        check(seeded_scenario(31000 + seed, 5, [1, 3, 8, 17, 64],
                              random_agg_query), ENGINES)

    @pytest.mark.parametrize("seed", range(8))
    def test_order_by_exact_sequence(self, seed):
        """ORDER BY must agree on the full sequence — NULL placement,
        per-key direction and stable tie order included."""
        check(seeded_scenario(32000 + seed, 4, [2, 5, 16],
                              random_order_query), ENGINES)


class TestHashJoinDifferentialFuzz:
    @pytest.mark.parametrize("seed", range(8))
    def test_int_key_joins_agree(self, seed):
        tables, rng = keyed(33000 + seed, "int")
        check(pinned(tables, JOIN_QUERIES[:5], rng.choice([3, 8, 32])),
              ENGINES)

    @pytest.mark.parametrize("seed", range(6))
    def test_string_key_joins_agree(self, seed):
        tables, rng = keyed(34000 + seed, "str")
        check(pinned(tables, [JOIN_QUERIES[0], JOIN_QUERIES[4]],
                     rng.choice([3, 8, 32])), ENGINES)


# ---------------------------------------------------------------------------
# The acceptance contract: fully columnar plans materialize no rows
# ---------------------------------------------------------------------------
class TestZeroRowMaterialization:
    def test_group_by_aggregate_is_fully_columnar(self):
        db = micro_db()
        oracle = micro_db(OracleRaw)
        sql = ("SELECT a1, sum(a2), count(*), avg(a3), min(a4), max(a5) "
               "FROM m WHERE a2 < 30 GROUP BY a1")
        for _ in range(2):  # cold (streaming) and warm (indexed+cache)
            result = db.query(sql)
            expected = oracle.query(sql)
            assert result.rows == expected.rows
            assert result.rows_materialized == 0
        assert db.rows_materialized == 0

    def test_hash_join_is_fully_columnar(self):
        db = micro_db(tables=WITH_D)
        oracle = micro_db(OracleRaw, WITH_D)
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
        db = micro_db(OracleRaw)
        db.query("SELECT a1, count(*) FROM m GROUP BY a1")
        assert db.rows_materialized == 0

    def test_oracle_runs_no_batch_form(self, monkeypatch):
        # The reference engine must really run the row forms: with
        # every operator's batch entry point and the block scan
        # raising, the oracle still answers a join + aggregate + sort,
        # and answers what the columnar engine answers.
        tables = {"l": keyed_table(random.Random(11), "l", "int"),
                  "r": keyed_table(random.Random(8), "r", "int")}
        sql = ("SELECT ls, count(*), sum(rf) FROM l, r WHERE lk = rk "
               "GROUP BY ls ORDER BY ls")
        expected = build_engine(tables).query(sql).rows
        oracle = build_engine(tables, engine=OracleRaw)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the oracle ran a batch form")
        for op in vars(operators).values():
            if isinstance(op, type) and issubclass(op, operators.PlanOp):
                monkeypatch.setattr(op, "batches", forbidden)
        monkeypatch.setattr(BlockScan, "__init__", forbidden)
        result = oracle.query(sql)
        assert result.rows == expected
        assert [node["op"] for node in plan_nodes(result.plan)][:4] == \
            ["Project", "Sort", "Aggregate", "HashJoin"]

    def test_row_fallbacks_are_counted(self):
        # count(DISTINCT ...) is not vectorized: the aggregate falls
        # back to the row path, which transposes the scan's batches.
        db = micro_db()
        result = db.query("SELECT count(DISTINCT a1) FROM m")
        assert result.rows_materialized == 400
        assert result.scalar() == 40


# ---------------------------------------------------------------------------
# Local fallbacks: an operator that evaluates row closures over its input
# ---------------------------------------------------------------------------
class TestLocalRowFallbacks:
    """A non-equi join (nested loop), an expression join key (a residual
    over the nested loop) and an expression sort key run their row
    closures inside their own batch form: the block scan answers as the
    oracle does (sequences, structures, counters) and the loaded DBMS
    as the block scan does."""

    TABLES = (Table("l", "l_int", 11), Table("r", "r_int", 8))
    QUERIES = [
        "SELECT lv, rv FROM l, r WHERE lv < rv - 150",
        "SELECT lk2, count(*), sum(rv) FROM l, r WHERE lk + 1 = rk "
        "GROUP BY lk2 ORDER BY lk2",
        "SELECT lv, lf FROM l ORDER BY lv + lk2, lf",
        "SELECT lv, lf FROM l ORDER BY lv + lk2 DESC, lf LIMIT 9",
    ]

    @pytest.mark.parametrize("block_size", [4, 64])
    def test_agree_with_the_oracle_and_the_loaded_dbms(self, block_size):
        check(pinned(self.TABLES, self.QUERIES, block_size, repeat=2),
              ENGINES)

    def test_loaded_dbms_orders_as_the_block_scan(self):
        tables = {t.name: t.generate() for t in self.TABLES}
        raw, loaded = (build_engine(tables, engine=engine)
                       for engine in (PostgresRaw, LoadedDBMS))
        for sql in self.QUERIES[1:]:  # the ORDER BY queries
            assert rows_key(loaded.query(sql).rows) == \
                rows_key(raw.query(sql).rows), sql

    @pytest.mark.parametrize("sql", [
        "SELECT lv, rv FROM l, r WHERE lk = rk",
        "SELECT lk, lv FROM l WHERE EXISTS (SELECT * FROM r WHERE rk = lk)",
    ])
    def test_unresolved_join_keys_use_the_key_closures(self, sql):
        tables = {t.name: t.generate() for t in self.TABLES}
        db = build_engine(tables, row_block_size=16)
        planned = Planner(db.catalog, db.model).plan(parse(sql))
        join = planned.root.child
        for attr in ("left_key_idx", "right_key_idx", "outer_key_idx",
                     "inner_key_idx"):
            if hasattr(join, attr):
                setattr(join, attr, None)
        result = execute(planned, db.model)
        assert result.rows == build_engine(
            tables, engine=OracleRaw).query(sql).rows
        assert result.rows_materialized == len(tables["l"][1]) + len(
            tables["r"][1])


# ---------------------------------------------------------------------------
# Typed cache round trip (dtype preserved cold -> warm)
# ---------------------------------------------------------------------------
class TestTypedCacheRoundTrip:
    @pytest.mark.parametrize("seed", range(6))
    def test_dtype_preserved_and_values_exact(self, seed):
        rng = random.Random(36000 + seed)
        schema = random_schema(rng)
        rows = random_table(rng, schema)
        raw_batch, raw_scalar, _ = trio({"t": (schema, rows)}, 16)
        all_cols = ", ".join(c.name for c in schema.columns)
        sql = f"SELECT {all_cols} FROM t"
        cold = raw_batch.query(sql)
        cold_scalar = raw_scalar.query(sql)
        assert rows_key(cold.rows) == rows_key(cold_scalar.rows)

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
        assert rows_key(warm.rows) == rows_key(cold.rows)
        assert rows_key(warm.rows) == rows_key(warm_scalar.rows)
        assert structures(raw_batch, "t") == structures(raw_scalar, "t")

    def test_warm_scan_hands_typed_arrays_to_batches(self):
        db = micro_db()
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
        raw_batch, raw_scalar, _ = trio({"t": (schema, rows)}, 8)
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
        db = micro_db()
        select = parse("SELECT a1 FROM m WHERE a2 < ? AND a3 BETWEEN ? "
                       "AND ?")
        planned = Planner(db.catalog, db.model).plan(select)
        scan = _find_scan(planned.root)
        assert scan.predicate is not None
        assert scan.predicate.vector_fn is not None

    def test_prepared_reexecution_stays_columnar(self):
        db = micro_db()
        oracle = micro_db(OracleRaw)
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
        db = micro_db()
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
        db = micro_db()
        oracle = micro_db(OracleRaw)
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
        return [build_engine({"t": (schema, payload)}, engine=engine)
                for engine in (PostgresRaw, OracleRaw)]

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
        db = build_engine({"m": micro(50, 3, 1, value_range=9)})
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
        db = micro_db()
        oracle = micro_db(OracleRaw)
        assert rows_key(db.query(sql).rows) == rows_key(oracle.query(sql).rows)
        # Pushed single-table predicates of these shapes vectorize.
        select = parse(sql)
        scan = _find_scan(Planner(db.catalog, db.model).plan(select).root)
        assert scan.predicate.vector_fn is not None

    def test_string_equality_and_dates(self):
        schema = Schema([("s", varchar()), ("d", DATE), ("x", INTEGER)])
        rows = [["abc", "2001-01-01", "1"], ["", "2002-02-02", "2"],
                ["abc", "", "3"], ["zz z", "2003-03-03", "4"]]
        raw_batch, raw_scalar, loaded = trio({"t": (schema, rows)}, 4)
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
            assert sorted(rows_key(raw_batch.query(sql).rows)) == \
                sorted(rows_key(raw_scalar.query(sql).rows)) == \
                sorted(rows_key(loaded.query(sql).rows)), sql
            assert structures(raw_batch, "t") == structures(raw_scalar, "t")


# ---------------------------------------------------------------------------
# Semi-joins, CASE-bearing aggregates, column-vs-column predicates:
# the three shapes that used to drag TPC-H Q4/Q12/Q14 onto the row path
# ---------------------------------------------------------------------------
def trio(tables: dict, block_size: int):
    """The block scan, the row-at-a-time oracle and the loaded DBMS
    over the same named tables."""
    return [build_engine(tables, engine=engine, row_block_size=block_size)
            for engine in (PostgresRaw, OracleRaw, LoadedDBMS)]


def assert_columnar_parity(engines, sql: str, cold: bool = False,
                           ordered: bool = True):
    """The full contract for one query: block scan == oracle == loaded
    row sequences (compared type-strictly), equal structures, equal
    priced counters (a warm indexed block may tokenize differently, so
    that event is compared cold only; the fast path's ``kernel_*``
    events are its own), a plan that stayed columnar and zero
    materialized rows."""
    batch, oracle, loaded = engines
    results = [engine.query(sql) for engine in engines]
    got, want, truth = (rows_key(result.rows) for result in results)
    assert got == want, sql
    assert (got if ordered else sorted(got)) == \
        (truth if ordered else sorted(truth)), sql
    tables = [info.name for info in batch.catalog.tables()]
    assert structures(batch, *tables) == structures(oracle, *tables)
    ignored = {"kernel_hits", "kernel_bailouts"} | (
        set() if cold else {"tokenize"})
    assert {k: v for k, v in results[0].counters.items()
            if k not in ignored} == \
        {k: v for k, v in results[1].counters.items()
         if k not in ignored}, sql
    assert results[0].rows_materialized == 0, sql
    for node in plan_nodes(results[0].plan):
        assert node.get("vectorized", True) is True, (sql, node)
    return results[0]


SHAPES = {
    "semi-join": ({"l": keyed_table(random.Random(37000), "l", "int"),
                   "r": keyed_table(random.Random(37001), "r", "int")},
                  [sql for sql in JOIN_QUERIES if "EXISTS" in sql]),
    "case": ({"t": (CASE_SCHEMA, case_table(random.Random(38000)))},
             [case_query(random.Random(seed)) for seed in range(8)]),
    "column pair": ({"t": (PAIR_SCHEMA, pair_table(random.Random(39000)))},
                    [f"SELECT x, i1, d2 FROM t WHERE {predicate}"
                     for predicate in PAIR_PREDICATES]),
}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_shapes_stay_columnar(shape):
    """Every query of each shape plans fully vectorized and
    materializes no rows, cold and warm; a pushed column-pair predicate
    compiles to a vector mask."""
    tables, queries = SHAPES[shape]
    db = build_engine(tables, row_block_size=16)
    for sql in queries:
        for _ in range(2):
            result = db.query(sql)
            assert result.rows_materialized == 0, sql
            for node in plan_nodes(result.plan):
                assert node.get("vectorized", True) is True, (sql, node)
        if shape == "column pair":
            scan = _find_scan(Planner(db.catalog, db.model).plan(
                parse(sql)).root)
            assert scan.predicate.vector_fn is not None, sql


class TestSemiJoinDifferentialFuzz:
    """EXISTS / NOT EXISTS through the batch ``HashSemiJoinOp``."""

    @pytest.mark.parametrize("key_family", ["int", "str"])
    @pytest.mark.parametrize("seed", range(6))
    def test_exists_and_not_exists_agree(self, seed, key_family):
        """Typed and object key arrays (the keyed tables draw their
        NULL rate), multi-column correlation, inner filters down to
        nothing, an aggregate above the semi-join (TPC-H Q4's shape)."""
        tables, rng = keyed(37000 + seed, key_family)
        check(pinned(tables, [sql for sql in JOIN_QUERIES
                              if "EXISTS" in sql], rng.choice([3, 8, 32])),
              ENGINES)

    def test_hash_probe_units_match_the_row_path(self):
        # Non-NULL inner keys + every outer row, duplicates included.
        outer = [["1", "0", "5"], ["", "0", "6"], ["2", "0", "7"]]
        inner = [["1", "0", "1"], ["1", "0", "2"], ["", "0", "3"]]
        schema_o = Schema([("ok", INTEGER), ("ok2", INTEGER),
                           ("ov", INTEGER)])
        schema_i = Schema([("ik", INTEGER), ("ik2", INTEGER),
                           ("iv", INTEGER)])
        engines = trio({"o": (schema_o, outer), "i": (schema_i, inner)}, 2)
        result = assert_columnar_parity(
            engines, "SELECT ov FROM o WHERE EXISTS "
                     "(SELECT * FROM i WHERE ik = ok)", cold=True)
        assert result.rows == [(5,)]
        assert result.counters["hash_probe"] == 2 + 3
        negated = assert_columnar_parity(
            engines, "SELECT ov FROM o WHERE NOT EXISTS "
                     "(SELECT * FROM i WHERE ik = ok)")
        assert negated.rows == [(6,), (7,)]  # a NULL key never matches


class TestCaseAggregateDifferentialFuzz:
    """``agg(CASE ...)`` through ``build_vector_value``'s CASE support:
    first-match-wins, NULL conditions, missing ELSE, branch typing."""

    @pytest.mark.parametrize("seed", range(8))
    def test_case_aggregates_agree(self, seed):
        """Every CASE aggregate shape, three at a time, grouped and
        under a WHERE."""
        table, _, rng = seeded(38000 + seed, "case")
        block_size = rng.choice([1, 4, 16, 64])
        aggs = case_aggregates(rng)
        rng.shuffle(aggs)
        queries = []
        while aggs:
            picked = ", ".join(aggs.pop() for _ in range(min(len(aggs), 3)))
            queries.append(f"SELECT g, {picked} FROM t GROUP BY g ORDER BY g")
            queries.append(f"SELECT {picked} FROM t "
                           f"WHERE a < {rng.randint(-20, 60)}")
        check(pinned([table], queries, block_size), ENGINES)

    def test_all_else_group_keeps_the_int_zero(self):
        rows = [["1", "5", "1.5", "x", "1990-01-10"],
                ["2", "5", "2.5", "x", "1990-01-10"],
                ["1", "5", "0.25", "x", "1990-01-10"]]
        engines = trio({"t": (CASE_SCHEMA, rows)}, 2)
        result = assert_columnar_parity(
            engines, "SELECT g, sum(CASE WHEN g = 1 THEN f ELSE 0 END) "
                     "FROM t GROUP BY g ORDER BY g", cold=True)
        assert rows_key(result.rows) == ["(1, 1.75)", "(2, 0)"]

    def test_q14_shaped_projection_over_case_sums(self):
        rng = random.Random(38500)
        engines = trio(
            {"t": (CASE_SCHEMA, case_table(rng))}, 16)
        assert_columnar_parity(
            engines, "SELECT 100.00 * sum(CASE WHEN s LIKE 'a%' THEN "
                     "f * (1 - a) ELSE 0 END) / sum(f * (1 - a)) "
                     "FROM t WHERE a > 1", cold=True)

    def test_case_as_group_key_and_projection(self):
        rng = random.Random(38600)
        engines = trio(
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


class TestColumnPairPredicateFuzz:
    """``col <op> col`` pushed to the scan and as a residual filter."""

    @pytest.mark.parametrize("seed", range(6))
    def test_pushed_to_the_scan(self, seed):
        """Each predicate twice: the repeat reads cache-served typed
        columns (int day numbers for dates) against freshly parsed /
        NULL-holed object ones."""
        table, _, rng = seeded(39000 + seed, "pair")
        block_size = rng.choice([1, 5, 16, 64])
        predicates = list(PAIR_PREDICATES)
        rng.shuffle(predicates)
        check(pinned([table], [f"SELECT x, i1, d2 FROM t WHERE {predicate}"
                               for predicate in predicates], block_size, 2),
              ENGINES)

    @pytest.mark.parametrize("seed", range(4))
    def test_as_residual_filter_and_having(self, seed):
        """Column pairs across a join (int, float, date, string) and
        in HAVING: the same answers, and every filter stays
        vectorized."""
        tables, rng = keyed(39500 + seed, "int")
        block_size = rng.choice([4, 16])
        queries = JOIN_QUERIES[12:]     # the column-pair residuals, HAVING
        check(pinned(tables, queries, block_size), ENGINES)
        db = build_engine({table.name: table.generate() for table in tables},
                          row_block_size=block_size)
        for sql in queries:
            filters = [node for node in plan_nodes(db.query(sql).plan)
                       if node["op"] in ("Filter", "Having")]
            assert filters and all(n["vectorized"] for n in filters), sql

    def test_uncovered_shapes_keep_the_row_closure(self):
        # NOT(...) and arithmetic inside a comparison are still the
        # closure's job (ScanPredicate.row_mask): same rows, same
        # structures, same single predicate charge — cold and warm.
        rng = random.Random(39900)
        raw_batch, raw_scalar, _ = trio(
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
                assert rows_key(res_batch.rows) == rows_key(res_scalar.rows), sql
                assert structures(raw_batch, "t") == structures(raw_scalar, "t")
                assert res_batch.counters["predicate_eval"] == \
                    res_scalar.counters["predicate_eval"]

    def test_int64_wrapping_arithmetic_stays_exact(self):
        # Python ints never wrap; the vectorized twin must not either.
        big = 4_000_000_000_000  # big * big overflows int64
        rows = [[str(big), str(big), "1.0", "1.0", "", "", "", "", "1"],
                [str(-big), str(big), "1.0", "1.0", "", "", "", "", "2"],
                ["3", "4", "1.0", "1.0", "", "", "", "", "3"]]
        engines = trio({"t": (PAIR_SCHEMA, rows)}, 2)
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
        payload = render("csv", PAIR_SCHEMA, pair_table(rng, 3000))
        engines = []
        for engine in (PostgresRaw, OracleRaw):
            db = engine(config=PostgresRawConfig(row_block_size=16))
            db.vfs.create("t.csv", payload)
            db.vfs.create("u.csv", payload)
            create_table(db, "t", "t.csv", PAIR_SCHEMA)
            create_table(db, "u", "u.csv", Schema(
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
                assert rows_key(result.rows) == rows_key(db_scalar.query(sql).rows), sql
                assert result.rows_materialized == 0, sql

    def test_uncovered_aggregate_materializes_only_at_its_boundary(self):
        # DISTINCT keeps the row accumulators, but the join below it
        # (and its scans) stay columnar: the aggregate transposes its
        # own input, once.
        db = micro_db(tables=WITH_D)
        oracle = micro_db(OracleRaw, WITH_D)
        sql = "SELECT count(DISTINCT w) FROM m, d WHERE a1 = k"
        result = db.query(sql)
        expected = oracle.query(sql)
        assert result.rows == expected.rows
        joined = db.query("SELECT count(*) FROM m, d WHERE a1 = k").scalar()
        assert result.rows_materialized == joined
        assert dict(result.counters) == dict(expected.counters)
