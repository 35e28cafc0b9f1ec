"""Tests for column statistics and the on-the-fly collector."""

import datetime
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statistics import ReservoirSampler, StatsCollector
from repro.simcost.clock import CostEvent
from repro.simcost.model import CostModel
from repro.sql.catalog import Schema
from repro.sql.datatypes import INTEGER, varchar
from repro.sql.stats import ColumnStats, TableStats


def stats_from(values, row_count=None, nulls=0):
    column = ColumnStats(name="c")
    sample = [v for v in values if v is not None]
    total = row_count if row_count is not None else len(values)
    column.merge_sample(sample, total, nulls, len(values))
    return column


class TestColumnStats:
    def test_min_max(self):
        column = stats_from([5, 1, 9, 3])
        assert column.min_value == 1
        assert column.max_value == 9

    def test_null_fraction(self):
        column = stats_from([1, None, None, 4], nulls=2)
        assert column.null_frac == pytest.approx(0.5)

    def test_ndistinct_all_unique_scales_to_rowcount(self):
        column = stats_from(list(range(100)), row_count=10_000)
        assert column.n_distinct == 10_000

    def test_ndistinct_few_values(self):
        column = stats_from([1, 2, 1, 2, 1, 2] * 50, row_count=10_000)
        assert column.n_distinct <= 10

    def test_eq_selectivity_uses_mcv(self):
        values = ["a"] * 80 + ["b"] * 15 + ["c"] * 5
        column = stats_from(values, row_count=100)
        assert column.selectivity_eq("a") == pytest.approx(0.8)
        assert column.selectivity_eq("b") == pytest.approx(0.15)

    def test_eq_selectivity_unseen_value(self):
        values = ["a"] * 99 + ["b"]
        column = stats_from(values, row_count=1000)
        assert 0 <= column.selectivity_eq("zzz") < 0.05

    def test_range_selectivity_uniform(self):
        values = list(range(1000))
        column = stats_from(values, row_count=1000)
        assert column.selectivity_range("<", 250) == pytest.approx(
            0.25, abs=0.05)
        assert column.selectivity_range(">=", 900) == pytest.approx(
            0.1, abs=0.05)

    def test_range_selectivity_out_of_bounds(self):
        column = stats_from(list(range(100)))
        assert column.selectivity_range("<", -5) == 0.0
        assert column.selectivity_range("<", 200) == 1.0
        assert column.selectivity_range(">", 200) == 0.0

    def test_range_selectivity_dates(self):
        base = datetime.date(1994, 1, 1)
        values = [base + datetime.timedelta(days=i) for i in range(365)]
        column = stats_from(values, row_count=365)
        mid = datetime.date(1994, 7, 2)
        assert column.selectivity_range("<", mid) == pytest.approx(
            0.5, abs=0.05)

    def test_range_selectivity_no_stats_default(self):
        column = ColumnStats(name="c")
        assert column.selectivity_range("<", 10) == pytest.approx(1 / 3)

    def test_histogram_built_for_diverse_numeric(self):
        column = stats_from(list(range(500)))
        assert len(column.histogram) == 11

    def test_no_histogram_for_few_distinct(self):
        column = stats_from([1, 2, 3] * 100)
        assert column.histogram == []

    def test_all_null_column(self):
        column = stats_from([], row_count=10, nulls=10)
        column2 = ColumnStats(name="c")
        column2.merge_sample([], 10, 10, 10)
        assert column2.n_distinct == 0.0
        assert column2.null_frac == 1.0

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=300))
    @settings(max_examples=30)
    def test_selectivities_always_in_unit_interval(self, values):
        column = stats_from(values, row_count=len(values))
        for op in ("<", "<=", ">", ">="):
            for probe in (-1, 0, 50, 100, 101):
                sel = column.selectivity_range(op, probe)
                assert 0.0 <= sel <= 1.0
        assert 0.0 <= column.selectivity_eq(values[0]) <= 1.0


class TestReservoirSampler:
    def test_small_stream_kept_entirely(self):
        sampler = ReservoirSampler(100)
        for i in range(50):
            sampler.add(i)
        assert sorted(sampler.sample) == list(range(50))

    def test_capacity_respected(self):
        sampler = ReservoirSampler(10)
        for i in range(1000):
            sampler.add(i)
        assert len(sampler.sample) == 10
        assert sampler.seen == 1000

    def test_nulls_counted_not_sampled(self):
        sampler = ReservoirSampler(10)
        sampler.add(None)
        sampler.add(1)
        assert sampler.null_count == 1
        assert sampler.sample == [1]

    def test_deterministic_under_seed(self):
        a = ReservoirSampler(5, seed=42)
        b = ReservoirSampler(5, seed=42)
        for i in range(100):
            a.add(i)
            b.add(i)
        assert a.sample == b.sample

    def test_sample_is_roughly_uniform(self):
        rng = random.Random(0)
        hits = 0
        trials = 200
        for t in range(trials):
            sampler = ReservoirSampler(10, seed=t)
            for i in range(100):
                sampler.add(i)
            hits += sum(1 for v in sampler.sample if v < 50)
        # ~50% of sampled values should come from the first half.
        assert 0.35 < hits / (10 * trials) < 0.65


def sampler_state(sampler):
    """Everything a sampler is. Values sit in lists so that a NaN
    compares equal to itself (list equality tries identity first)."""
    return (sampler.sample, sampler.seen, sampler.null_count,
            [sampler.vmin, sampler.vmax], sampler._orderable,
            sampler._rng.getstate())


def chunks(items, cuts):
    """``items`` split at the sorted ``cuts`` that fall inside it."""
    bounds = sorted({cut for cut in cuts if cut <= len(items)})
    bounds.append(len(items))
    start = 0
    for bound in bounds:
        yield items[start:bound]
        start = bound


#: one column's worth of values: ints, floats (NaN and infinities
#: included), strings, or an unorderable mix — each thinned with NULLs
_column_values = st.one_of(*[
    st.lists(st.one_of(st.none(), element), max_size=60)
    for element in (
        st.integers(-20, 20),
        st.floats(allow_nan=True, allow_infinity=True, width=32),
        st.text("abc", max_size=2),
        st.one_of(st.integers(-3, 3), st.text("ab", max_size=1),
                  st.floats(allow_nan=True)),
    )])
_cuts = st.lists(st.integers(0, 60), max_size=6)


class TestColumnFeedEqualsRowFeed:
    """The batch scan samples by column (``add_many`` /
    ``add_columns``), the scalar oracle by value (``add`` /
    ``add_row``): both must leave the same samplers — reservoir
    replacement and RNG stream included — and the same ledger."""

    # capacities from "every list overflows it" to "none does"
    @given(values=_column_values, cuts=_cuts, seed=st.integers(0, 3),
           capacity=st.sampled_from([1, 3, 7, 40, 1000]))
    @settings(max_examples=300, deadline=None)
    def test_add_many_equals_add_per_value(self, values, cuts, seed,
                                           capacity):
        by_value = ReservoirSampler(capacity, seed=seed)
        for value in values:
            by_value.add(value)
        by_chunk = ReservoirSampler(capacity, seed=seed)
        for chunk in chunks(values, cuts):
            by_chunk.add_many(chunk)
        assert sampler_state(by_chunk) == sampler_state(by_value)

    def test_replacement_far_above_capacity(self):
        rng = random.Random(5)
        values = [rng.choice([None, rng.randrange(1000), rng.random()])
                  for _ in range(5000)]
        by_value = ReservoirSampler(7, seed=11)
        for value in values:
            by_value.add(value)
        by_chunk = ReservoirSampler(7, seed=11)
        for chunk in chunks(values, [1, 6, 7, 8, 64, 1000, 1024, 4999]):
            by_chunk.add_many(chunk)
        assert sampler_state(by_chunk) == sampler_state(by_value)
        assert by_value.seen == 5000 and len(by_value.sample) == 7

    @given(rows=st.lists(
               st.dictionaries(st.integers(0, 3),
                               st.one_of(st.none(), st.integers(-9, 9),
                                         st.text("ab", max_size=1)),
                               max_size=4),
               max_size=40),
           cuts=st.lists(st.integers(0, 40), max_size=4),
           target=st.sampled_from([2, 5, 1000]))
    @settings(max_examples=200, deadline=None)
    def test_add_columns_equals_add_row_per_row(self, rows, cuts, target):
        schema = Schema([("a", INTEGER), ("b", INTEGER), ("c", INTEGER),
                         ("d", INTEGER)])
        attrs = [0, 2, 3]           # attribute 1 is never collected
        models = CostModel(), CostModel()
        for model in models:        # a clock mid-query, not at zero
            model.tokenize(12345)
            model.predicate(77)
        by_row = StatsCollector(models[0], schema, attrs, target, seed=4)
        for row in rows:
            by_row.add_row(row)
        by_column = StatsCollector(models[1], schema, attrs, target, seed=4)
        for block in chunks(rows, cuts):
            # an attribute absent from a row contributes nothing to
            # its column; one absent from every row has no column
            columns = {attr: [row[attr] for row in block if attr in row]
                       for attr in range(4)
                       if any(attr in row for row in block)}
            by_column.add_columns(columns)
        for attr in attrs:
            assert sampler_state(by_column._samplers[attr]) == \
                sampler_state(by_row._samplers[attr]), attr
        assert dict(models[1].clock.counters) == \
            dict(models[0].clock.counters)  # no zero-unit entry either
        assert models[1].clock.seconds == models[0].clock.seconds  # exact
        sampled = sum(attr in row for row in rows for attr in attrs)
        assert models[0].count(CostEvent.STATS_SAMPLE) == sampled


class TestStatsCollector:
    def schema(self):
        return Schema([("x", INTEGER), ("y", INTEGER), ("s", varchar())])

    def test_collects_only_requested_attrs(self):
        collector = StatsCollector(CostModel(), self.schema(), [0, 2])
        for i in range(20):
            collector.add_row({0: i, 2: f"v{i}"})
        stats = collector.finalize(TableStats(), row_count=20)
        assert stats.has_column("x")
        assert stats.has_column("s")
        assert not stats.has_column("y")
        assert stats.row_count == 20

    def test_missing_values_tolerated(self):
        # Selective parsing may skip attrs for non-qualifying rows.
        collector = StatsCollector(CostModel(), self.schema(), [0, 1])
        collector.add_row({0: 5})
        collector.add_row({0: 6, 1: 60})
        stats = collector.finalize(TableStats(), row_count=2)
        assert stats.column("x").max_value == 6
        assert stats.column("y").max_value == 60

    def test_augments_existing_stats(self):
        schema = self.schema()
        first = StatsCollector(CostModel(), schema, [0])
        first.add_row({0: 1})
        table_stats = first.finalize(TableStats(), 1)
        second = StatsCollector(CostModel(), schema, [1])
        second.add_row({1: 2})
        table_stats = second.finalize(table_stats, 1)
        assert table_stats.has_column("x") and table_stats.has_column("y")

    def test_untouched_sampler_leaves_no_stats(self):
        collector = StatsCollector(CostModel(), self.schema(), [0])
        stats = collector.finalize(TableStats(), 0)
        assert not stats.has_column("x")
