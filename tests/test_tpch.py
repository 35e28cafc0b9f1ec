"""Tests for the TPC-H substrate: dbgen invariants and the paper's
query subset, differentially across engines (§5.2)."""

import datetime

import pytest

from repro import ExternalFilesDBMS, PostgresRawConfig
from repro.workloads.tpch import (
    PAPER_QUERIES,
    TPCH_SCHEMAS,
    tpch_query,
    tpch_schema,
)
from tests.conftest import create_table, fresh_loaded_tpch, fresh_raw_tpch
from tests.oracle import OracleRaw
from tests.oracle.digest import plan_nodes


def parse_table(fs, data, table):
    schema = tpch_schema(table)
    rows = []
    for line in fs.read_bytes(data.path(table)).decode().splitlines():
        values = line.split(",")
        rows.append({
            col.name: (col.dtype.parse(v) if v != "" else None)
            for col, v in zip(schema.columns, values)
        })
    return rows


class TestDbgen:
    def test_row_count_ratios(self, tpch_tiny):
        _, data = tpch_tiny
        counts = data.row_counts
        assert counts["region"] == 5
        assert counts["nation"] == 25
        assert counts["partsupp"] == 4 * counts["part"]
        assert 1 <= counts["lineitem"] / counts["orders"] <= 7

    def test_deterministic_under_seed(self, tpch_tiny):
        from repro import VirtualFS
        from repro.workloads.tpch import generate_tpch
        fs1, fs2 = VirtualFS(), VirtualFS()
        generate_tpch(fs1, scale_factor=0.0002, seed=9)
        generate_tpch(fs2, scale_factor=0.0002, seed=9)
        assert fs1.read_bytes("tpch/lineitem.csv") == fs2.read_bytes(
            "tpch/lineitem.csv")

    def test_all_tables_parse_against_schema(self, tpch_tiny):
        fs, data = tpch_tiny
        for table in TPCH_SCHEMAS:
            rows = parse_table(fs, data, table)
            assert len(rows) == data.row_counts[table]

    def test_foreign_keys_resolve(self, tpch_tiny):
        fs, data = tpch_tiny
        customers = {r["c_custkey"] for r in parse_table(fs, data,
                                                         "customer")}
        orders = parse_table(fs, data, "orders")
        assert all(o["o_custkey"] in customers for o in orders)
        order_keys = {o["o_orderkey"] for o in orders}
        lineitems = parse_table(fs, data, "lineitem")
        assert all(l["l_orderkey"] in order_keys for l in lineitems)

    def test_date_semantics(self, tpch_tiny):
        fs, data = tpch_tiny
        for item in parse_table(fs, data, "lineitem"):
            assert item["l_shipdate"] > datetime.date(1992, 1, 1)
            assert item["l_receiptdate"] > item["l_shipdate"]
        cutoff = datetime.date(1995, 6, 17)
        for item in parse_table(fs, data, "lineitem"):
            if item["l_returnflag"] == "N":
                assert item["l_receiptdate"] > cutoff
            else:
                assert item["l_receiptdate"] <= cutoff

    def test_value_domains(self, tpch_tiny):
        fs, data = tpch_tiny
        parts = parse_table(fs, data, "part")
        assert any(p["p_type"].startswith("PROMO") for p in parts)
        assert all(1 <= p["p_size"] <= 50 for p in parts)
        customers = parse_table(fs, data, "customer")
        segments = {c["c_mktsegment"] for c in customers}
        assert "BUILDING" in segments


@pytest.fixture(scope="module")
def engines(tpch_tiny):
    raw = fresh_raw_tpch(tpch_tiny)
    loaded = fresh_loaded_tpch(tpch_tiny)
    return raw, loaded


def normalize(rows):
    """Round floats to 9 significant digits: different plans accumulate
    sums in different orders, producing 1-ulp differences."""
    def norm_value(value):
        if isinstance(value, float):
            return float(f"{value:.9g}")
        return value
    return sorted(repr(tuple(norm_value(v) for v in row)) for row in rows)


class TestPaperQueries:
    @pytest.mark.parametrize("name", PAPER_QUERIES)
    def test_raw_and_loaded_agree(self, engines, name):
        raw, loaded = engines
        raw_rows = normalize(raw.query(tpch_query(name)).rows)
        loaded_rows = normalize(loaded.query(tpch_query(name)).rows)
        assert raw_rows == loaded_rows

    def test_q1_shape(self, engines, tpch_tiny):
        raw, _ = engines
        result = raw.query(tpch_query("q1"))
        assert result.columns[:2] == ["l_returnflag", "l_linestatus"]
        flags = {(row[0], row[1]) for row in result.rows}
        assert flags <= {("A", "F"), ("N", "F"), ("N", "O"), ("R", "F")}
        # count_order sums to all lineitems passing the date filter.
        fs, data = tpch_tiny
        items = parse_table(fs, data, "lineitem")
        cutoff = datetime.date(1998, 9, 2)
        expected = sum(1 for i in items if i["l_shipdate"] <= cutoff)
        assert sum(row[-1] for row in result.rows) == expected

    def test_q1_aggregates_against_manual(self, engines, tpch_tiny):
        raw, _ = engines
        fs, data = tpch_tiny
        items = parse_table(fs, data, "lineitem")
        cutoff = datetime.date(1998, 9, 2)
        manual = {}
        for item in (i for i in items if i["l_shipdate"] <= cutoff):
            key = (item["l_returnflag"], item["l_linestatus"])
            bucket = manual.setdefault(key, [0.0, 0])
            bucket[0] += item["l_quantity"]
            bucket[1] += 1
        result = raw.query(tpch_query("q1"))
        for row in result.rows:
            key = (row[0], row[1])
            assert row[2] == pytest.approx(manual[key][0])
            assert row[-1] == manual[key][1]

    def test_q6_against_manual(self, engines, tpch_tiny):
        raw, _ = engines
        fs, data = tpch_tiny
        items = parse_table(fs, data, "lineitem")
        lo, hi = datetime.date(1994, 1, 1), datetime.date(1995, 1, 1)
        expected = sum(
            i["l_extendedprice"] * i["l_discount"] for i in items
            if lo <= i["l_shipdate"] < hi
            and 0.05 <= i["l_discount"] <= 0.07 and i["l_quantity"] < 24)
        got = raw.query(tpch_query("q6")).scalar()
        if expected == 0:
            assert got is None or got == pytest.approx(0.0)
        else:
            assert got == pytest.approx(expected)

    def test_q3_limit_and_order(self, engines):
        raw, _ = engines
        result = raw.query(tpch_query("q3"))
        assert len(result.rows) <= 10
        revenues = [row[1] for row in result.rows]
        assert revenues == sorted(revenues, reverse=True)

    def test_q4_counts_against_manual(self, engines, tpch_tiny):
        raw, _ = engines
        fs, data = tpch_tiny
        orders = parse_table(fs, data, "orders")
        items = parse_table(fs, data, "lineitem")
        late = {i["l_orderkey"] for i in items
                if i["l_commitdate"] < i["l_receiptdate"]}
        lo = datetime.date(1993, 7, 1)
        hi = datetime.date(1993, 10, 1)
        manual = {}
        for order in orders:
            if lo <= order["o_orderdate"] < hi and \
                    order["o_orderkey"] in late:
                manual[order["o_orderpriority"]] = manual.get(
                    order["o_orderpriority"], 0) + 1
        result = raw.query(tpch_query("q4"))
        assert dict(result.rows) == manual

    def test_q14_is_percentage(self, engines):
        raw, _ = engines
        value = raw.query(tpch_query("q14")).scalar()
        if value is not None:
            assert 0.0 <= value <= 100.0

    def test_warm_repeat_agrees_with_cold(self, engines):
        raw, _ = engines
        first = sorted(map(repr, raw.query(tpch_query("q12")).rows))
        second = sorted(map(repr, raw.query(tpch_query("q12")).rows))
        assert first == second

    def test_external_engine_agrees_on_single_table_queries(
            self, tpch_tiny):
        fs, data = tpch_tiny
        external = ExternalFilesDBMS(vfs=fs)
        for table, path in data.paths.items():
            create_table(external, table, path, tpch_schema(table))
        raw = fresh_raw_tpch(tpch_tiny)
        for name in ("q1", "q6"):
            raw_rows = normalize(raw.query(tpch_query(name)).rows)
            ext_rows = normalize(external.query(tpch_query(name)).rows)
            assert raw_rows == ext_rows


class TestPaperQueriesStayColumnar:
    """Regression lock for §5.2's "the remaining query plan works
    without changes": on the default config every paper query runs
    through the columnar operators end to end — the row paths are the
    differential oracle, not a fallback any of them needs."""

    @pytest.fixture(scope="class")
    def warm_pair(self, tpch_tiny):
        """(columnar, row-engine) results of the *second* execution of
        every paper query: warm scans charge no indexed-region
        TOKENIZE, the one event batch and scalar scans may price
        differently (simcost/model.py)."""
        columnar = fresh_raw_tpch(tpch_tiny)
        row_engine = fresh_raw_tpch(tpch_tiny, engine=OracleRaw)
        results = {}
        for name in PAPER_QUERIES:
            for engine in (columnar, row_engine):
                engine.query(tpch_query(name))
            results[name] = (columnar.query(tpch_query(name)),
                             row_engine.query(tpch_query(name)))
        return results

    @pytest.mark.parametrize("name", PAPER_QUERIES)
    def test_no_rows_materialized_and_every_node_vectorized(
            self, warm_pair, name):
        result, _ = warm_pair[name]
        assert result.rows_materialized == 0
        ops = [node["op"] for node in plan_nodes(result.plan)]
        assert "Aggregate" in ops
        for node in plan_nodes(result.plan):
            if node["op"] in ("Aggregate", "Filter", "Having",
                              "HashSemiJoin"):
                assert node["vectorized"] is True, node["op"]

    @pytest.fixture(scope="class")
    def comparators(self, tpch_tiny):
        """The loaded and external-files comparators: the same columnar
        executor over their heap and re-parsing scans (§5)."""
        fs, data = tpch_tiny
        external = ExternalFilesDBMS(vfs=fs)
        for table, path in data.paths.items():
            create_table(external, table, path, tpch_schema(table))
        return {"loaded": fresh_loaded_tpch(tpch_tiny),
                "external": external}

    @pytest.mark.parametrize("engine", ["loaded", "external"])
    @pytest.mark.parametrize("name", PAPER_QUERIES)
    def test_comparators_run_the_columnar_operators(
            self, comparators, warm_pair, engine, name):
        result = comparators[engine].query(tpch_query(name))
        assert result.rows_materialized == 0
        assert normalize(result.rows) == normalize(warm_pair[name][0].rows)
        for node in plan_nodes(result.plan):
            if node["op"] in ("Aggregate", "HashSemiJoin"):
                assert node["vectorized"] is True, node["op"]

    @pytest.mark.parametrize("name", PAPER_QUERIES)
    def test_results_and_priced_counters_equal_the_row_engine(
            self, warm_pair, name):
        result, oracle = warm_pair[name]
        assert list(map(repr, result.rows)) == list(map(repr, oracle.rows))

        def priced(counters):
            counters = {event: units for event, units in counters.items()
                        if not event.startswith("kernel_")}  # zero-priced
            if "limit" in tpch_query(name).lower():
                # Pull granularity, not plan work: under LIMIT the row
                # path forms only the tuples the limit pulls, the batch
                # path projects the block it was handed.
                counters.pop("tuple_form", None)
            return counters

        assert priced(result.counters) == priced(oracle.counters)

class TestStatisticsEffect:
    def test_stats_change_q1_plan(self, tpch_tiny):
        # Figure 12's mechanism: with on-the-fly statistics the second
        # Q1 switches from sort- to hash-aggregation.
        with_stats = fresh_raw_tpch(
            tpch_tiny, PostgresRawConfig(enable_statistics=True))
        q1 = tpch_query("q1")
        first = with_stats.query(q1)
        second = with_stats.query(q1)
        def agg_strategy(plan):
            node = plan
            while node:
                if node["op"] == "Aggregate":
                    return node["strategy"]
                node = node.get("input")
            return None
        assert agg_strategy(first.plan) == "sort"
        assert agg_strategy(second.plan) == "hash"

        without = fresh_raw_tpch(
            tpch_tiny, PostgresRawConfig(enable_statistics=False))
        without.query(q1)
        later = without.query(q1)
        assert agg_strategy(later.plan) == "sort"

    def test_stats_improve_virtual_time(self, tpch_tiny):
        q1 = tpch_query("q1")
        with_stats = fresh_raw_tpch(
            tpch_tiny, PostgresRawConfig(enable_statistics=True))
        without = fresh_raw_tpch(
            tpch_tiny, PostgresRawConfig(enable_statistics=False))
        with_stats.query(q1)
        without.query(q1)
        warm_with = with_stats.query(q1).elapsed
        warm_without = without.query(q1).elapsed
        assert warm_with < warm_without
