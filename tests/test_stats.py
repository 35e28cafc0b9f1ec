"""Tests for column statistics and the on-the-fly collector."""

import datetime
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import PostgresRaw, PostgresRawConfig, VirtualFS
from repro.core.statistics import BottomKSampler, StatsCollector, position_keys
from repro.simcost.clock import CostEvent
from repro.simcost.model import CostModel
from repro.sql.catalog import Schema
from repro.sql.datatypes import INTEGER, varchar
from repro.sql.scanapi import ScanPredicate
from repro.sql.stats import ColumnStats, TableStats
from tests.oracle import OracleRaw
from tests.oracle.digest import (
    AXIS,
    OTHER_KERNELS,
    REFERENCE,
    RESERVOIR_SCHEMA,
    Append,
    Axis,
    Query,
    Scenario,
    Table,
    Variant,
    check,
)


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

    @given(values=st.one_of(
               st.lists(st.integers(-30, 30), max_size=80),
               st.lists(st.integers(-2**62, 2**62), max_size=40),
               st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.25, 7.0,
                                         float("inf"), float("nan")]),
                        max_size=80),
               st.lists(st.floats(width=32), max_size=80)),
           row_count=st.integers(0, 500))
    @settings(max_examples=300, deadline=None)
    def test_typed_sample_equals_its_values(self, values, row_count):
        """A typed sample (NumPy's sort and counts) gives exactly the
        statistics of the same values as a list: min, max, histogram
        and MCV representatives of ``0.0``/``-0.0`` ties included."""
        as_list, as_array = ColumnStats(name="c"), ColumnStats(name="c")
        typed = np.array(values)
        as_list.merge_sample(typed.tolist(), row_count, 1, len(values) + 1)
        as_array.merge_sample(typed, row_count, 1, len(values) + 1)
        assert repr(vars(as_array)) == repr(vars(as_list))


class TestBottomKSampler:
    def test_small_stream_kept_entirely(self):
        sampler = BottomKSampler(100)
        sampler.add_many(np.arange(50), np.arange(50))
        assert sorted(sampler.sample.tolist()) == list(range(50))

    def test_capacity_respected(self):
        sampler = BottomKSampler(10)
        for i in range(1000):
            sampler.add(i, i)
        assert len(sampler.sample) == 10
        assert sampler.seen == 1000

    def test_nulls_counted_not_sampled(self):
        sampler = BottomKSampler(10)
        sampler.add(None, 0)
        sampler.add(1, 1)
        assert sampler.null_count == 1
        assert sampler.sample.tolist() == [1]

    def test_sample_is_the_smallest_keys(self):
        """The values at the column's ``capacity`` smallest position
        keys, fed as a block or row by row backwards."""
        values = np.arange(1000) * 3
        keys = position_keys(5, np.arange(1000))
        expected = values[np.argsort(keys)[:7]].tolist()
        by_block = BottomKSampler(7, column=5)
        by_block.add_many(values, np.arange(1000))
        backwards = BottomKSampler(7, column=5)
        for row in reversed(range(1000)):
            backwards.add(int(values[row]), row)
        assert by_block.sample.tolist() == backwards.sample.tolist() == \
            expected

    def test_sample_is_roughly_uniform(self):
        hits = 0
        trials = 200
        for column in range(trials):
            sampler = BottomKSampler(10, column)
            sampler.add_many(np.arange(100), np.arange(100))
            hits += sum(1 for v in sampler.sample if v < 50)
        # ~50% of sampled values should come from the first half.
        assert 0.35 < hits / (10 * trials) < 0.65

    def test_slot_inclusion_chi_square(self):
        """Every row is equally likely to be sampled: over 2 000
        columns (each its own key salt) a 5-slot sample of 50 rows
        includes each row about 200 times. The keys are fixed, so the
        chi-square statistic (49 degrees of freedom) is one fixed
        number; the bound is the distribution's 0.999 quantile."""
        rows, slots, columns = 50, 5, 2000
        included = np.zeros(rows)
        for column in range(columns):
            sampler = BottomKSampler(slots, column)
            sampler.add_many(np.arange(rows), np.arange(rows))
            included[sampler.sample] += 1
        expected = columns * slots / rows
        chi_square = float(((included - expected) ** 2 / expected).sum())
        assert chi_square < 85.4

    @given(kinds=st.lists(st.sampled_from([None, int, str]), max_size=80),
           cut=st.integers(0, 80), capacity=st.sampled_from([1, 3, 7, 100]))
    @settings(max_examples=150, deadline=None)
    def test_disjoint_halves_merge_into_the_whole(self, kinds, cut,
                                                  capacity):
        """Two samplers over disjoint rows: the ``capacity`` values of
        their two samples with the smallest keys are the sample of one
        sampler over all the rows, and their counts add up to its
        counts. A value names its row (``r`` or ``str(r)``), so the
        test recomputes its key."""
        values = [kind if kind is None else kind(row)
                  for row, kind in enumerate(kinds)]
        positions = np.arange(len(values))
        whole = BottomKSampler(capacity, 3)
        whole.add_many(values, positions)
        left, right = BottomKSampler(capacity, 3), BottomKSampler(capacity, 3)
        left.add_many(values[:cut], positions[:cut])
        right.add_many(values[cut:], positions[cut:])
        merged = left.sample.tolist() + right.sample.tolist()
        keys = position_keys(3, np.array([int(v) for v in merged],
                                         dtype=np.int64))
        assert [merged[i] for i in np.argsort(keys)][:capacity] == \
            whole.sample.tolist()
        assert (left.seen + right.seen, left.null_count + right.null_count
                ) == (whole.seen, whole.null_count)


class TestSeenCountsPositions:
    """``observed_rows`` and ``null_frac`` count distinct row positions:
    the indexed block scan without SELECT attributes handles a
    qualifying row at two sites (loop 1 and loop 2); loop 1 feeds it,
    loop 2 charges its values again, and the row counts once."""

    @pytest.mark.parametrize("engine", [PostgresRaw, OracleRaw])
    def test_block_fed_twice(self, engine):
        nulls = ["1", "", "2", "", "3", "4", "", "5"] * 3
        vfs = VirtualFS()
        vfs.create("t.csv", "".join(f"{i * 10},{v},{i}\n"
                                    for i, v in enumerate(nulls)).encode())
        db = engine(vfs=vfs, config=PostgresRawConfig(row_block_size=8))
        db.query("CREATE TABLE t (x INTEGER, n INTEGER, k INTEGER) "
                 "USING csv OPTIONS (path 't.csv')")
        db.query("SELECT k FROM t")         # indexes every line
        access = db.catalog.get("t").access
        predicate = ScanPredicate(
            [0, 1], lambda row: row[0] < 150 and (row[1] or 0) > 1)
        before = db.model.count(CostEvent.STATS_SAMPLE)
        list(access.scan_batches([], predicate))
        stats = db.catalog.get("t").stats
        x, n = stats.column("x"), stats.column("n")
        assert (x.observed_rows, x.observed_nulls, x.null_frac) == \
            (24, 0, 0.0)
        assert (n.observed_rows, n.observed_nulls, n.null_frac) == \
            (24, 9, 9 / 24)
        assert (x.observed_min, x.observed_max) == (0, 230)
        assert (n.observed_min, n.observed_max) == (1, 5)
        # both sites charge one unit per value: 24 rows, 7 qualifying
        assert db.model.count(CostEvent.STATS_SAMPLE) - before == \
            2 * (24 + 7)

    def test_partition_zone_trusts_a_twice_fed_column(self):
        """A WHERE-only scan over indexed blocks handles ``v``'s
        qualifying rows at two sites; each file's ``observed_rows``
        equals its row count, so its zone is kept and prunes."""
        vfs = VirtualFS()
        for f in range(3):
            vfs.create(f"ev-{f}.csv", "".join(
                f"{i},{i * 10 + 3}\n" for i in range(f * 8, f * 8 + 8)
            ).encode())
        db = PostgresRaw(vfs=vfs, config=PostgresRawConfig(row_block_size=4))
        db.query("CREATE TABLE ev (id INTEGER, v INTEGER) "
                 "USING csv OPTIONS (path 'ev-*.csv')")
        db.query("SELECT id FROM ev")       # indexes every line
        access = db.catalog.get("ev").access
        predicate = ScanPredicate([1], lambda row: row[1] > 50)
        batches = list(access.scan_batches([], predicate))
        assert sum(batch.nrows for batch in batches) == 19
        for f, part in enumerate(access.parts):
            column = part.info.stats.column("v")
            assert column.observed_rows == part.row_count == 8
            assert part.zone["v"] == (f * 80 + 3, f * 80 + 73)
        pruned = db.query("SELECT count(*) FROM ev WHERE v > 1000")
        assert pruned.rows == [(0,)]
        assert pruned.counters.get("files_pruned") == 3


class TestOneOwnerPerStatistic:
    """The first live scan to open a collector for a column owns it: a
    scan running at the same time does not collect that column, and a
    scan's claim ends with it, abandoned or not."""

    @staticmethod
    def engine():
        vfs = VirtualFS()
        vfs.create("t.csv", "".join(f"{i},{2 * i}\n"
                                    for i in range(100)).encode())
        db = PostgresRaw(vfs=vfs, config=PostgresRawConfig(row_block_size=8))
        db.query("CREATE TABLE t (a INTEGER, b INTEGER) "
                 "USING csv OPTIONS (path 't.csv')")
        return db

    @staticmethod
    def observed(db):
        stats = db.catalog.get("t").stats
        return {name: stats.column(name).observed_rows
                for name in ("a", "b")
                if stats is not None and stats.has_column(name)}

    def test_a_concurrent_scan_leaves_a_claimed_column_alone(self):
        db = self.engine()
        owner = repro.connect(engine=db).execute(
            "SELECT a FROM t WHERE b < 20")
        owner.fetchmany(3)                  # a and b are claimed
        other = repro.connect(engine=db).execute("SELECT a, b FROM t")
        assert len(other.fetchall()) == 100
        assert self.observed(db) == {}
        assert len(owner.fetchall()) == 7
        # the owner's statistics: b at every row, a at the qualifying ones
        assert self.observed(db) == {"a": 10, "b": 100}

    def test_an_abandoned_cursor_leaves_no_claim(self):
        db = self.engine()
        cursor = repro.connect(engine=db).execute(
            "SELECT a FROM t WHERE b < 20")
        cursor.fetchmany(1)
        cursor.close()
        assert self.observed(db) == {}
        db.query("SELECT a, b FROM t")
        assert self.observed(db) == {"a": 100, "b": 100}


def sampler_state(sampler, exact=False):
    """Everything a sampler is; ``exact`` compares the extremes and the
    sample by ``repr``, so a NaN equals a NaN and ``-0.0`` is not
    ``0.0``."""
    state = (sampler.sample.tolist(), sampler.seen, sampler.null_count,
             [sampler.vmin, sampler.vmax], sampler._orderable)
    return repr(state) if exact else state


def chunks(items, cuts):
    """``items`` split at the sorted ``cuts`` that fall inside it."""
    bounds = sorted({cut for cut in cuts if cut <= len(items)})
    bounds.append(len(items))
    start = 0
    for bound in bounds:
        yield items[start:bound]
        start = bound


#: one column's worth of values: ints, floats (infinities included, no
#: NaN: the extremes' left fold lets a NaN's place decide), strings, or
#: an unorderable mix — each thinned with NULLs
_column_values = st.one_of(*[
    st.lists(st.one_of(st.none(), element), max_size=60)
    for element in (
        st.integers(-20, 20),
        st.floats(allow_nan=False, allow_infinity=True, width=32),
        st.text("abc", max_size=2),
        st.one_of(st.integers(-3, 3), st.text("ab", max_size=1),
                  st.floats(allow_nan=False)),
    )])
_cuts = st.lists(st.integers(0, 60), max_size=6)


class TestFeedOrderInvariance:
    """The sample, the extremes and ``seen`` are a function of which
    rows were fed: the block scan feeds typed block columns
    (``add_many`` / ``add_columns``), the row oracle one value at a
    time (``add`` / ``add_row``), in any order and chunking."""

    # capacities from "every list overflows it" to "none does"
    @given(data=st.data(), values=_column_values, cuts=_cuts,
           capacity=st.sampled_from([1, 3, 7, 40, 1000]))
    @settings(max_examples=300, deadline=None)
    def test_any_order_and_chunking(self, data, values, cuts, capacity):
        by_value = BottomKSampler(capacity, 2)
        for row, value in enumerate(values):
            by_value.add(value, row)
        order = data.draw(st.permutations(range(len(values))))
        # a NULL-free int column goes in as typed blocks
        typed = all(type(value) is int for value in values)
        by_chunk = BottomKSampler(capacity, 2)
        for chunk in chunks(order, cuts):
            block = [values[row] for row in chunk]
            by_chunk.add_many(np.array(block, dtype=np.int64) if typed
                              else block, np.array(chunk, dtype=np.int64))
        assert sampler_state(by_chunk) == sampler_state(by_value)

    @given(values=st.one_of(
               st.lists(st.integers(-2**40, 2**40), max_size=60),
               st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                  width=32), max_size=60)),
           cuts=_cuts, capacity=st.sampled_from([1, 3, 1000]))
    @settings(max_examples=200, deadline=None)
    def test_typed_blocks_equal_values_in_feed_order(self, values, cuts,
                                                     capacity):
        """Typed int64 / float64 blocks leave exactly what the Python
        values leave fed in the same order: NaNs and first-wins ties
        (``-0.0`` against ``0.0``) fall as the builtin left fold lets
        them, and sampled values are Python ints and floats."""
        by_value = BottomKSampler(capacity, 4)
        for row, value in enumerate(values):
            by_value.add(value, row)
        typed = BottomKSampler(capacity, 4)
        for chunk in chunks(list(range(len(values))), cuts):
            typed.add_many(np.array([values[row] for row in chunk]
                                    or np.empty(0)),
                           np.array(chunk, dtype=np.int64))
        assert sampler_state(typed, exact=True) == \
            sampler_state(by_value, exact=True)

    @given(values=st.one_of(
               st.lists(st.one_of(st.none(), st.floats(width=32)),
                        max_size=60),
               st.lists(st.one_of(st.none(), st.integers(-3, 3),
                                  st.text("ab", max_size=1), st.floats()),
                        max_size=60)),
           cuts=_cuts, capacity=st.sampled_from([1, 3, 1000]),
           as_array=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_python_blocks_equal_values_in_feed_order(self, values, cuts,
                                                      capacity, as_array):
        """A float column with NULLs, or a mixed one, reaches the
        sampler as Python values (a list, or an object array): blocks
        of them leave exactly what the values leave fed one at a time
        in the same order, NaNs included (``st.floats`` draws them)."""
        by_value = BottomKSampler(capacity, 4)
        for row, value in enumerate(values):
            by_value.add(value, row)
        by_block = BottomKSampler(capacity, 4)
        for chunk in chunks(list(range(len(values))), cuts):
            block = [values[row] for row in chunk]
            if as_array:
                block = np.array(block, dtype=object)
            by_block.add_many(block, np.array(chunk, dtype=np.int64))
        assert sampler_state(by_block, exact=True) == \
            sampler_state(by_value, exact=True)

    def test_replacement_far_above_capacity(self):
        rng = random.Random(5)
        values = [rng.choice([None, rng.randrange(1000), rng.random()])
                  for _ in range(5000)]
        by_value = BottomKSampler(7, 11)
        for row, value in enumerate(values):
            by_value.add(value, row)
        rows = list(range(5000))
        rng.shuffle(rows)
        by_chunk = BottomKSampler(7, 11)
        for chunk in chunks(rows, [1, 6, 7, 8, 64, 1000, 1024, 4999]):
            by_chunk.add_many([values[row] for row in chunk],
                              np.array(chunk, dtype=np.int64))
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
        by_row = StatsCollector(models[0], schema, attrs, target)
        for number, row in enumerate(rows):
            by_row.add_row(row, number)
        by_column = StatsCollector(models[1], schema, attrs, target)
        numbered = list(enumerate(rows))
        for block in reversed(list(chunks(numbered, cuts))):
            # an attribute absent from a row contributes nothing to
            # its column; one absent from every row has no column
            columns = {attr: ([row[attr] for _, row in block if attr in row],
                              np.array([number for number, row in block
                                        if attr in row], dtype=np.int64))
                       for attr in range(4)
                       if any(attr in row for _, row in block)}
            by_column.add_columns(columns)
        for attr in attrs:
            assert sampler_state(by_column._samplers[attr]) == \
                sampler_state(by_row._samplers[attr]), attr
        assert dict(models[1].clock.counters) == \
            dict(models[0].clock.counters)  # no zero-unit entry either
        assert models[1].clock.seconds == models[0].clock.seconds  # exact
        sampled = sum(attr in row for row in rows for attr in attrs)
        assert models[0].count(CostEvent.STATS_SAMPLE) == sampled


def _stats_only(d, *_):
    return {k: v for k, v in d.items() if k.endswith(".stats")}


#: ``RESERVOIR_SCHEMA``'s twelve columns by family, with a WHERE term
#: that keeps part of the rows
_TERMS = {"int": "{} < {}", "float": "{} < {}.5",
          "str": "{} < 'm'", "date": "{} < DATE '2010-06-01'"}


@st.composite
def _sampled_scenarios(draw):
    """A ``reservoir`` table, a sample target that the table overflows
    (or not), a block size and 2-4 full scans — WHERE-only, SELECT-only,
    and SELECT with WHERE — with an optional append between them."""
    columns = RESERVOIR_SCHEMA.columns
    ops = []
    for _ in range(draw(st.integers(2, 4))):
        where = draw(st.sampled_from(columns))
        term = _TERMS[where.dtype.family].format(
            where.name, draw(st.integers(-600, 600)))
        select = draw(st.lists(st.sampled_from([c.name for c in columns]),
                               min_size=0, max_size=3, unique=True))
        shape = draw(st.sampled_from(["where", "select", "both"]))
        if shape == "select" and select:
            ops.append(Query(f"SELECT {', '.join(select)} FROM t"))
        elif shape == "both" and select:
            ops.append(Query(f"SELECT {', '.join(select)} FROM t "
                             f"WHERE {term}"))
        else:
            ops.append(Query(f"SELECT count(*) FROM t WHERE {term}"))
    if draw(st.booleans()):
        ops.insert(draw(st.integers(1, len(ops))),
                   Append(draw(st.integers(1, 60)), draw(st.integers(0, 99))))
    return Scenario(
        (Table("t", "reservoir", draw(st.integers(0, 10**6))),), tuple(ops),
        (("row_block_size", draw(st.sampled_from([1, 7, 16, 64]))),
         ("stats_sample_target", draw(st.sampled_from([3, 7, 1000])))))


#: the same scans chunked otherwise, on 1, 2 or 4 workers (the default
#: follows the environment), with the kernels switched, and row at a time
_SAMPLE_AXES = [
    Axis("chunking", REFERENCE, Variant(config=(("row_block_size", 5),)),
         _stats_only),
    *(Axis(f"workers {w}", REFERENCE,
           Variant(config=(("scan_workers", w),)), _stats_only)
      for w in (1, 2, 4)),
    Axis("kernels", REFERENCE,
         Variant(config=(("scan_kernels", OTHER_KERNELS),)), _stats_only),
    AXIS["oracle"],
]


class TestSampleAcrossPaths:
    """The column statistics — sample, extremes, ``seen`` — a scan
    sequence leaves do not depend on the block size, the worker count,
    the kernels or a row-at-a-time scan."""

    @given(_sampled_scenarios())
    @settings(max_examples=8, derandomize=True, deadline=None,
              database=None)
    def test_statistics_are_path_free(self, scenario):
        check(scenario, _SAMPLE_AXES)


class TestStatsCollector:
    def schema(self):
        return Schema([("x", INTEGER), ("y", INTEGER), ("s", varchar())])

    def test_collects_only_requested_attrs(self):
        collector = StatsCollector(CostModel(), self.schema(), [0, 2])
        for i in range(20):
            collector.add_row({0: i, 2: f"v{i}"}, i)
        stats = collector.finalize(TableStats(), row_count=20)
        assert stats.has_column("x")
        assert stats.has_column("s")
        assert not stats.has_column("y")
        assert stats.row_count == 20

    def test_missing_values_tolerated(self):
        # Selective parsing may skip attrs for non-qualifying rows.
        collector = StatsCollector(CostModel(), self.schema(), [0, 1])
        collector.add_row({0: 5}, 0)
        collector.add_row({0: 6, 1: 60}, 1)
        stats = collector.finalize(TableStats(), row_count=2)
        assert stats.column("x").max_value == 6
        assert stats.column("y").max_value == 60

    def test_augments_existing_stats(self):
        schema = self.schema()
        first = StatsCollector(CostModel(), schema, [0])
        first.add_row({0: 1}, 0)
        table_stats = first.finalize(TableStats(), 1)
        second = StatsCollector(CostModel(), schema, [1])
        second.add_row({1: 2}, 0)
        table_stats = second.finalize(table_stats, 1)
        assert table_stats.has_column("x") and table_stats.has_column("y")

    def test_untouched_sampler_leaves_no_stats(self):
        collector = StatsCollector(CostModel(), self.schema(), [0])
        stats = collector.finalize(TableStats(), 0)
        assert not stats.has_column("x")
