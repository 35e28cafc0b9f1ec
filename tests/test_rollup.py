"""Materialized rollups: DDL, the query router, staleness, idle tuning.

The central claim under test is *bit-identity*: a query answered from a
rollup returns exactly the rows — values **and** order — the raw scan
would have produced. Builds pin the hash aggregation strategy (heap
order = first-seen group order of the raw file) and probes pin whatever
strategy the raw plan would pick at probe time, so the differential
checks here compare ``rows == rows`` with no sorting or set-ification.
"""

from __future__ import annotations

import pytest

import repro
from repro import (
    FLOAT,
    INTEGER,
    PostgresRaw,
    Schema,
    VirtualFS,
    varchar,
)
from repro.core.tuner import IdleTuner
from repro.errors import CatalogError, ParseError, ReproError
from tests.conftest import create_table
from tests.oracle import OracleRaw

SALES_CSV = (
    b"east,apple,10,1.5\n"
    b"west,apple,5,2.0\n"
    b"east,pear,7,3.0\n"
    b"west,pear,2,2.5\n"
    b"east,apple,3,1.0\n"
    b"north,fig,1,9.9\n"
    b"east,fig,,4.0\n"
    b"west,apple,8,2.0\n"
)

MORE_SALES_CSV = (
    b"south,apple,4,1.25\n"
    b"east,pear,6,3.5\n"
)

CREATE_R1 = ("CREATE ROLLUP r1 ON sales (region, product) "
             "AGG (count(*), sum(qty), avg(price), min(qty), max(price), "
             "count(qty))")


def sales_schema() -> Schema:
    return Schema([
        ("region", varchar()),
        ("product", varchar()),
        ("qty", INTEGER),
        ("price", FLOAT),
    ])


def make_engine(engine=PostgresRaw) -> PostgresRaw:
    fs = VirtualFS()
    fs.create("sales.csv", SALES_CSV)
    db = engine(vfs=fs)
    create_table(db, "sales", "sales.csv", sales_schema())
    return db


@pytest.fixture
def sales() -> PostgresRaw:
    return make_engine()


@pytest.fixture
def twins() -> tuple[PostgresRaw, PostgresRaw]:
    """Two identically-warmed engines; only ``routed`` gets the rollup.

    The baseline mirrors the rollup's build scan as a plain query so
    both engines' adaptive state (positional map, cache, statistics)
    stays in lockstep — the raw plans they produce are then identical,
    which is what makes ``rows == rows`` a fair oracle.
    """
    baseline, routed = make_engine(), make_engine()
    warm = "SELECT region, product, qty, price FROM sales"
    baseline.query(warm)
    routed.query(warm)
    routed.query(CREATE_R1)
    baseline.query("SELECT region, product, count(*), sum(qty), "
                   "sum(price), count(price), min(qty), max(price), "
                   "count(qty) FROM sales GROUP BY region, product")
    return baseline, routed


DIFFERENTIAL_QUERIES = [
    # exact dimension match
    "SELECT region, product, count(*), sum(qty) FROM sales "
    "GROUP BY region, product",
    # dimension subset: re-aggregation over stored partials
    "SELECT region, sum(qty), count(*) FROM sales GROUP BY region",
    # predicate on a rollup dimension that is not grouped
    "SELECT region, count(*) FROM sales WHERE product = 'apple' "
    "GROUP BY region",
    # global aggregate (no GROUP BY at all)
    "SELECT count(*), sum(qty) FROM sales",
    # avg carried as sum+count
    "SELECT region, product, avg(price) FROM sales "
    "GROUP BY region, product",
    # min/max re-aggregation
    "SELECT product, min(qty), max(price) FROM sales GROUP BY product",
    # HAVING on a re-aggregated value
    "SELECT region, count(*) AS n FROM sales GROUP BY region "
    "HAVING count(*) > 1",
    # ORDER BY alias + LIMIT on top of the rewrite
    "SELECT product, sum(qty) AS total FROM sales GROUP BY product "
    "ORDER BY total DESC LIMIT 2",
    # empty filter: global count must come back 0, not NULL
    "SELECT count(*) FROM sales WHERE region = 'nowhere'",
    # count(column) skips NULLs
    "SELECT region, count(qty) FROM sales GROUP BY region",
]


class TestRollupDDL:
    def test_create_reports_row_count(self, sales):
        result = sales.query(CREATE_R1)
        assert result.rows == [("CREATE ROLLUP r1 ON sales (6 rows)",)]
        rollup = sales.rollups.get("r1")
        assert rollup.dims == ("region", "product")
        assert rollup.row_count == 6
        assert sales.vfs.exists(rollup.table.path)

    def test_avg_stored_as_sum_plus_count(self, sales):
        sales.query("CREATE ROLLUP r ON sales (region) AGG (avg(price))")
        rollup = sales.rollups.get("r")
        stored = set(rollup.storage.values())
        assert stored == {"sum_price", "count_price"}

    def test_duplicate_rollup_rejected(self, sales):
        sales.query(CREATE_R1)
        with pytest.raises(CatalogError, match="already registered"):
            sales.query("CREATE ROLLUP r1 ON sales (region) AGG (count(*))")

    def test_if_not_exists_skips(self, sales):
        sales.query(CREATE_R1)
        result = sales.query("CREATE ROLLUP IF NOT EXISTS r1 ON sales "
                             "(region) AGG (count(*))")
        assert "skipped" in result.rows[0][0]
        assert sales.rollups.get("r1").dims == ("region", "product")

    def test_unknown_dimension_rejected(self, sales):
        with pytest.raises(CatalogError, match="not a column"):
            sales.query("CREATE ROLLUP r ON sales (nope) AGG (count(*))")

    def test_sum_needs_numeric_column(self, sales):
        with pytest.raises(CatalogError, match="numeric"):
            sales.query(
                "CREATE ROLLUP r ON sales (region) AGG (sum(product))")

    def test_unknown_source_rejected(self, sales):
        with pytest.raises(CatalogError, match="unknown table"):
            sales.query("CREATE ROLLUP r ON nope (region) AGG (count(*))")

    def test_parse_errors_are_positioned(self, sales):
        for bad in (
                "CREATE ROLLUP r1 sales (region) AGG (count(*))",  # no ON
                "CREATE ROLLUP r1 ON sales AGG (count(*))",  # no dims
                "CREATE ROLLUP r1 ON sales (region)",  # no AGG clause
                "CREATE ROLLUP r1 ON sales (region) AGG ()",  # empty AGG
        ):
            with pytest.raises(ParseError):
                sales.query(bad)

    def test_drop_rollup_reclaims_storage(self, sales):
        sales.query(CREATE_R1)
        path = sales.rollups.get("r1").table.path
        sales.query("DROP ROLLUP r1")
        assert not sales.rollups.has("r1")
        assert not sales.vfs.exists(path)
        assert not sales.vfs.exists(path + ".toast")

    def test_drop_rollup_if_exists(self, sales):
        result = sales.query("DROP ROLLUP IF EXISTS nope")
        assert "skipped" in result.rows[0][0]
        with pytest.raises(CatalogError, match="unknown rollup"):
            sales.query("DROP ROLLUP nope")


class TestRouting:
    @pytest.mark.parametrize("sql", DIFFERENTIAL_QUERIES)
    def test_routed_answers_are_bit_identical(self, twins, sql):
        baseline, routed = twins
        expected = baseline.query(sql)
        got = routed.query(sql)
        assert got.plan.get("rollup") == "r1", got.plan
        assert got.columns == expected.columns
        assert got.rows == expected.rows

    @pytest.mark.parametrize("sql", DIFFERENTIAL_QUERIES)
    def test_row_engine_builds_and_routes_alike(self, twins, sql):
        # The reference engine builds the rollup from its row scan and
        # answers the routed query with the operators' row forms.
        _, routed = twins
        oracle = make_engine(OracleRaw)
        oracle.query("SELECT region, product, qty, price FROM sales")
        oracle.query(CREATE_R1)
        got = oracle.query(sql)
        assert got.plan.get("rollup") == "r1", got.plan
        assert got.rows == routed.query(sql).rows

    def test_explain_names_the_rollup(self, twins):
        _, routed = twins
        plan = routed.explain(
            "SELECT region, count(*) FROM sales GROUP BY region")
        assert plan["rollup"] == "r1"

    def test_hit_and_miss_counters(self, twins):
        _, routed = twins
        routed.query("SELECT region, count(*) FROM sales GROUP BY region")
        assert routed.counters().get("rollup_hits") == 1
        # qty is not a dimension of r1: annotated miss
        result = routed.query(
            "SELECT qty, count(*) FROM sales GROUP BY qty")
        assert result.plan["rollup"] == "none (r1: dimensions not covered)"
        assert routed.counters().get("rollup_misses") == 1

    def test_counters_are_unpriced(self, twins):
        """Routing deliberation costs zero virtual time: a query the
        router examines and declines runs in exactly the time the same
        query takes on a router-less lockstep twin."""
        baseline, routed = twins
        sql = "SELECT qty, count(*) FROM sales GROUP BY qty"
        miss = routed.query(sql)
        assert miss.counters.get("rollup_misses") == 1
        assert miss.elapsed == pytest.approx(
            baseline.query(sql).elapsed, rel=1e-12)

    def test_invisible_with_no_rollups(self, sales):
        result = sales.query(
            "SELECT region, count(*) FROM sales GROUP BY region")
        assert "rollup" not in result.plan
        counters = sales.counters()
        assert "rollup_hits" not in counters
        assert "rollup_misses" not in counters

    def test_non_aggregate_queries_pass_through(self, twins):
        _, routed = twins
        result = routed.query("SELECT region FROM sales WHERE qty > 5")
        assert "rollup" not in result.plan

    def test_predicate_off_dimensions_misses(self, twins):
        baseline, routed = twins
        sql = ("SELECT region, count(*) FROM sales WHERE qty > 3 "
               "GROUP BY region")
        result = routed.query(sql)
        assert result.plan["rollup"] == \
            "none (r1: dimensions not covered)"
        assert result.rows == baseline.query(sql).rows

    def test_missing_aggregate_misses(self, twins):
        _, routed = twins
        result = routed.query(
            "SELECT region, sum(price) FROM sales GROUP BY region")
        assert result.plan["rollup"].startswith("none (r1:")

    def test_distinct_aggregate_misses(self, twins):
        baseline, routed = twins
        sql = "SELECT region, count(DISTINCT product) FROM sales " \
              "GROUP BY region"
        result = routed.query(sql)
        assert result.plan["rollup"] == "none (DISTINCT aggregate)"
        assert result.rows == baseline.query(sql).rows

    def test_float_sum_blocked_on_subset_allowed_exact(self, sales):
        sales.query("CREATE ROLLUP fp ON sales (region, product) "
                    "AGG (sum(price))")
        exact = sales.query("SELECT region, product, sum(price) "
                            "FROM sales GROUP BY region, product")
        assert exact.plan["rollup"] == "fp"
        subset = sales.query(
            "SELECT region, sum(price) FROM sales GROUP BY region")
        assert subset.plan["rollup"] == \
            "none (fp: float re-aggregation)"

    def test_smallest_covering_rollup_wins(self, sales):
        sales.query(CREATE_R1)
        sales.query("CREATE ROLLUP tiny ON sales (region) "
                    "AGG (count(*), sum(qty))")
        result = sales.query(
            "SELECT region, count(*) FROM sales GROUP BY region")
        assert result.plan["rollup"] == "tiny"


class TestStaleness:
    def test_append_invalidates_and_falls_back(self, twins):
        baseline, routed = twins
        for engine in (baseline, routed):
            engine.vfs.append_bytes("sales.csv", MORE_SALES_CSV)
        sql = "SELECT region, count(*), sum(qty) FROM sales GROUP BY region"
        expected = baseline.query(sql)
        got = routed.query(sql)
        assert got.plan["rollup"] == "none (r1: stale)"
        assert got.rows == expected.rows  # fresh data, not the old rollup
        assert ("south", 1, 4) in got.rows

    def test_idle_rebuild_restores_routing(self, twins):
        baseline, routed = twins
        for engine in (baseline, routed):
            engine.vfs.append_bytes("sales.csv", MORE_SALES_CSV)
        sql = "SELECT region, count(*), sum(qty) FROM sales GROUP BY region"
        expected = baseline.query(sql)
        assert routed.query(sql).plan["rollup"] == "none (r1: stale)"
        report = IdleTuner(routed).exploit_idle_time_for_rollups(1e9)
        assert report.rebuilt == ["r1"]
        got = routed.query(sql)
        assert got.plan["rollup"] == "r1"
        assert got.rows == expected.rows

    def test_rebuild_uses_a_fresh_heap_path(self, sales):
        sales.query(CREATE_R1)
        old = sales.rollups.get("r1").table.path
        sales.vfs.append_bytes("sales.csv", MORE_SALES_CSV)
        sales.query("SELECT count(*) FROM sales")  # notices the append
        IdleTuner(sales).exploit_idle_time_for_rollups(1e9)
        new = sales.rollups.get("r1")
        assert new.table.path != old
        assert not sales.vfs.exists(old)
        assert new.builds == 2

    def test_drop_table_cascades_rollups(self, sales):
        sales.query(CREATE_R1)
        path = sales.rollups.get("r1").table.path
        sales.query("DROP TABLE sales")
        assert len(sales.rollups) == 0
        assert not sales.vfs.exists(path)

    def test_recreated_source_never_reuses_old_rollup(self, sales):
        """DROP + re-CREATE under the same name is a different table;
        the cascade already dropped the rollup, so nothing routes."""
        sales.query(CREATE_R1)
        sales.query("DROP TABLE sales")
        create_table(sales, "sales", "sales.csv", sales_schema())
        result = sales.query(
            "SELECT region, count(*) FROM sales GROUP BY region")
        assert "rollup" not in result.plan

    def test_rename_keeps_rollup_routing(self, twins):
        baseline, routed = twins
        for engine in (baseline, routed):
            engine.query("ALTER TABLE sales RENAME TO receipts")
        sql = ("SELECT region, product, sum(qty) FROM receipts "
               "GROUP BY region, product")
        got = routed.query(sql)
        assert got.plan["rollup"] == "r1"
        assert got.rows == baseline.query(sql).rows


class TestIdleTunerRollups:
    def test_candidates_come_from_hot_patterns(self, sales):
        sql = "SELECT region, sum(qty) FROM sales GROUP BY region"
        sales.query(sql)
        sales.query(sql)
        sales.query("SELECT product, count(*) FROM sales GROUP BY product")
        tuner = IdleTuner(sales)
        proposals = tuner.rollup_candidates()
        assert proposals[0].table == "sales"
        assert proposals[0].dims == ("region",)
        assert proposals[0].aggs == (("sum", "qty"),)
        assert proposals[0].requests == 2

    def test_exploit_builds_and_routes(self, sales):
        # Warm statistics first so the raw run recorded here and the
        # post-build probe agree on the aggregation strategy.
        sales.query("SELECT region, product, qty, price FROM sales")
        sql = "SELECT region, sum(qty) FROM sales GROUP BY region"
        expected = sales.query(sql)
        report = IdleTuner(sales).exploit_idle_time_for_rollups(1e9)
        assert "auto_sales" in report.built
        got = sales.query(sql)
        assert got.plan["rollup"] == "auto_sales"
        assert got.rows == expected.rows

    def test_covered_patterns_are_not_reproposed(self, sales):
        sql = "SELECT region, sum(qty) FROM sales GROUP BY region"
        sales.query(sql)
        tuner = IdleTuner(sales)
        tuner.exploit_idle_time_for_rollups(1e9)
        sales.query(sql)  # a routed hit still logs the pattern
        assert tuner.rollup_candidates() == []

    def test_auto_names_avoid_collisions(self, sales):
        sales.query("CREATE ROLLUP auto_sales ON sales (product) "
                    "AGG (count(*))")
        sales.query("SELECT region, sum(qty) FROM sales GROUP BY region")
        report = IdleTuner(sales).exploit_idle_time_for_rollups(1e9)
        assert report.built == ["auto_sales_2"]

    def test_budget_must_be_positive(self, sales):
        with pytest.raises(ReproError, match="budget"):
            IdleTuner(sales).exploit_idle_time_for_rollups(0)

    def test_tiny_budget_stops_early(self, sales):
        sales.query("SELECT region, sum(qty) FROM sales GROUP BY region")
        sales.query("SELECT product, count(*) FROM sales GROUP BY product")
        report = IdleTuner(sales).exploit_idle_time_for_rollups(1e-12)
        assert report.exhausted_budget
        assert len(report.built) <= 1


class TestPreparedStatements:
    def test_prepared_aggregate_reroutes_after_create(self, sales):
        sales.query("SELECT region, product, qty, price FROM sales")
        session = repro.connect(engine=sales)
        stmt = session.prepare(
            "SELECT region, count(*) FROM sales GROUP BY region")
        cold = stmt.execute().fetchall()
        sales.query(CREATE_R1)  # bumps the epoch
        replans_before = session.stats["replans"]
        hot = stmt.execute().fetchall()
        assert session.stats["replans"] == replans_before + 1
        assert hot == cold
        assert sales.counters().get("rollup_hits") == 1
        session.close()

    def test_prepared_statement_stops_routing_after_drop(self, sales):
        sales.query(CREATE_R1)
        session = repro.connect(engine=sales)
        stmt = session.prepare(
            "SELECT region, count(*) FROM sales GROUP BY region")
        hot = stmt.execute().fetchall()
        assert sales.counters().get("rollup_hits") == 1
        session.execute("DROP ROLLUP r1")
        cold = stmt.execute().fetchall()
        assert cold == hot
        assert sales.counters().get("rollup_hits") == 1  # unchanged
        session.close()
