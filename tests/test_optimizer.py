"""Tests for the statistics-driven optimizer."""

import pytest

from repro.sql.catalog import Schema, TableInfo
from repro.sql.datatypes import INTEGER, varchar
from repro.sql.optimizer import DEFAULT_ROWS, Optimizer
from repro.sql.parser import parse_expression
from repro.sql.stats import ColumnStats, TableStats


def table_with_stats(row_count=10_000, columns=()):
    stats = TableStats(row_count=row_count)
    for column in columns:
        stats.set_column(column)
    return TableInfo(name="t", schema=Schema([("x", INTEGER),
                                              ("s", varchar())]),
                     path="t.csv", stats=stats)


def uniform_column(name="x", lo=0, hi=999):
    column = ColumnStats(name=name)
    column.merge_sample(list(range(lo, hi + 1)), hi - lo + 1, 0,
                        hi - lo + 1)
    return column


class TestCardinalities:
    def test_base_rows_prefers_stats(self):
        info = table_with_stats(row_count=5000)
        assert Optimizer().base_rows(info) == 5000

    def test_base_rows_falls_back_to_hint(self):
        info = table_with_stats(row_count=5000)
        info.stats = None
        info.row_count_hint = 700
        assert Optimizer().base_rows(info) == 700

    def test_base_rows_default(self):
        info = table_with_stats()
        info.stats = None
        assert Optimizer().base_rows(info) == DEFAULT_ROWS

    def test_stats_disabled_ignores_stats(self):
        info = table_with_stats(row_count=5000)
        info.row_count_hint = 700
        assert Optimizer(use_stats=False).base_rows(info) == 700

    def test_scan_rows_applies_selectivity(self):
        info = table_with_stats(columns=[uniform_column()])
        conjunct = parse_expression("x < 100")
        rows = Optimizer().scan_rows(info, [conjunct])
        assert rows == pytest.approx(1000, rel=0.3)


class TestSelectivity:
    def setup_method(self):
        self.optimizer = Optimizer()
        self.info = table_with_stats(columns=[uniform_column()])

    def sel(self, text):
        return self.optimizer.conjunct_selectivity(
            self.info, parse_expression(text))

    def test_equality_with_stats(self):
        assert self.sel("x = 5") < 0.01

    def test_range_with_stats(self):
        assert self.sel("x < 500") == pytest.approx(0.5, abs=0.1)
        assert self.sel("x >= 900") == pytest.approx(0.1, abs=0.05)

    def test_flipped_comparison(self):
        assert self.sel("500 > x") == pytest.approx(self.sel("x < 500"),
                                                    abs=0.01)

    def test_between(self):
        assert self.sel("x BETWEEN 100 AND 300") == pytest.approx(
            0.2, abs=0.1)

    def test_not_between(self):
        assert self.sel("x NOT BETWEEN 100 AND 300") == pytest.approx(
            0.8, abs=0.1)

    def test_in_list_sums(self):
        single = self.sel("x = 5")
        triple = self.sel("x IN (5, 6, 7)")
        assert triple == pytest.approx(3 * single, rel=0.01)

    def test_or_combines(self):
        either = self.sel("x < 100 OR x >= 900")
        assert either == pytest.approx(0.2, abs=0.1)

    def test_not_inverts(self):
        assert self.sel("NOT x < 100") == pytest.approx(
            1 - self.sel("x < 100"), abs=0.01)

    def test_like_default(self):
        assert self.sel("s LIKE 'abc%'") == pytest.approx(0.1)

    def test_no_stats_defaults(self):
        info = table_with_stats()
        info.stats = None
        optimizer = Optimizer()
        assert optimizer.conjunct_selectivity(
            info, parse_expression("x = 5")) == pytest.approx(0.005)
        assert optimizer.conjunct_selectivity(
            info, parse_expression("x < 5")) == pytest.approx(1 / 3)

    def test_constant_date_arithmetic_resolved(self):
        import datetime
        column = ColumnStats(name="x")
        base = datetime.date(1994, 1, 1)
        column.merge_sample(
            [base + datetime.timedelta(days=i) for i in range(0, 1000)],
            1000, 0, 1000)
        info = table_with_stats(columns=[column])
        sel = Optimizer().conjunct_selectivity(
            info,
            parse_expression("x < DATE '1994-01-01' + INTERVAL '1' YEAR"))
        assert sel == pytest.approx(365 / 1000, abs=0.1)


class TestJoinOrdering:
    def test_smallest_first(self):
        optimizer = Optimizer()
        order = optimizer.order_bindings(
            ["big", "small", "mid"],
            {"big": 1e6, "small": 10.0, "mid": 1e3},
            {("big", "small"), ("big", "mid")})
        assert order[0] == "small"

    def test_connected_preferred(self):
        optimizer = Optimizer()
        order = optimizer.order_bindings(
            ["a", "b", "c"],
            {"a": 10.0, "b": 100.0, "c": 20.0},
            {("a", "b")})
        # c is smaller than b but disconnected from a: b joins first.
        assert order == ["a", "b", "c"]

    def test_single_table(self):
        assert Optimizer().order_bindings(["t"], {"t": 5.0}, set()) == ["t"]

    def test_chain_follows_edges(self):
        optimizer = Optimizer()
        order = optimizer.order_bindings(
            ["lineitem", "orders", "customer", "nation"],
            {"lineitem": 6e6, "orders": 1.5e6, "customer": 1.5e5,
             "nation": 25.0},
            {("customer", "orders"), ("lineitem", "orders"),
             ("customer", "nation")})
        assert order[0] == "nation"
        assert order[1] == "customer"
        # Every subsequent table connects to the already-joined set.
        assert order.index("orders") < order.index("lineitem")


class TestAggStrategy:
    def test_no_group_by_is_hash(self):
        assert Optimizer().agg_strategy([], 1e6, has_group_by=False) == \
            "hash"

    def test_stats_available_small_groups_hash(self):
        info = table_with_stats(columns=[uniform_column()])
        strategy = Optimizer().agg_strategy([(info, "x")], 1e6, True)
        assert strategy == "hash"

    def test_missing_stats_fall_back_to_sort(self):
        info = table_with_stats()
        info.stats = None
        assert Optimizer().agg_strategy([(info, "x")], 1e6, True) == "sort"

    def test_stats_disabled_always_sort(self):
        info = table_with_stats(columns=[uniform_column()])
        strategy = Optimizer(use_stats=False).agg_strategy(
            [(info, "x")], 1e6, True)
        assert strategy == "sort"

    def test_huge_group_count_sorts(self):
        column = ColumnStats(name="x", n_distinct=10 ** 9)
        info = table_with_stats(columns=[column])
        assert Optimizer().agg_strategy([(info, "x")], 1e12, True) == "sort"
