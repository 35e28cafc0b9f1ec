"""Optimizer statistics.

The same structures serve both worlds the paper compares: loaded engines
build them at load time (ANALYZE), PostgresRaw builds them adaptively
during scans (§4.4) — only for attributes queries have actually touched.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

import numpy as np

_DEFAULT_EQ_SELECTIVITY = 0.005
_DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
_MCV_KEEP = 10
_HISTOGRAM_BUCKETS = 10


def _is_orderable(value) -> bool:
    return isinstance(value, (int, float, datetime.date, str)) and not isinstance(
        value, bool)


@dataclass
class ColumnStats:
    """Statistics for one column, built from a sample.

    ``n_distinct`` uses the Haas–Stokes "duj1" estimator PostgreSQL also
    uses: d = n*D / (n - f1 + f1*n/N), where D = sample distincts, f1 =
    values seen exactly once, n = sample size, N = row count.

    A collecting scan counts *distinct rows*: it hands each row position
    to a column's sampler once, however many of its feed sites handle
    the row, so ``observed_rows`` and the NULLs behind ``null_frac`` /
    ``observed_nulls`` count each row once.
    """

    name: str
    null_frac: float = 0.0
    n_distinct: float = 1.0
    min_value: object | None = None
    max_value: object | None = None
    #: most common values: list of (value, fraction-of-rows)
    mcv: list[tuple[object, float]] = field(default_factory=list)
    #: equi-depth histogram bounds (ascending), len = buckets + 1
    histogram: list = field(default_factory=list)
    #: Exact zone-map bounds (§4.4 at file granularity): unlike
    #: ``min_value``/``max_value`` — sample extremes, fine for
    #: selectivity, unsound for pruning — these are tracked over
    #: *every* value the collecting scan observed. ``observed_rows``
    #: counts the distinct rows that fed the tracker (incl. nulls) so a
    #: caller can tell whether the bounds cover the whole relation;
    #: ``observed_min``/``observed_max`` stay None when every observed
    #: value was NULL or the values were not orderable.
    observed_min: object | None = None
    observed_max: object | None = None
    observed_rows: int = 0
    observed_nulls: int = 0

    # -- selectivity estimation --------------------------------------------
    def selectivity_eq(self, value) -> float:
        for mcv_value, frac in self.mcv:
            if mcv_value == value:
                return frac
        mcv_total = sum(frac for _, frac in self.mcv)
        rest_distinct = max(self.n_distinct - len(self.mcv), 1.0)
        return max(0.0, (1.0 - mcv_total - self.null_frac)) / rest_distinct

    def selectivity_range(self, op: str, value) -> float:
        """Selectivity of ``col <op> value`` for ``op`` in <,<=,>,>=."""
        if (self.min_value is None or self.max_value is None
                or not _is_orderable(value)):
            return _DEFAULT_RANGE_SELECTIVITY
        lo, hi = self.min_value, self.max_value
        try:
            if op in ("<", "<="):
                if value <= lo:
                    return 0.0
                if value >= hi:
                    return 1.0
            else:
                if value >= hi:
                    return 0.0
                if value <= lo:
                    return 1.0
            frac_below = self._fraction_below(value)
        except TypeError:
            return _DEFAULT_RANGE_SELECTIVITY
        if op in ("<", "<="):
            return min(1.0, max(0.0, frac_below))
        return min(1.0, max(0.0, 1.0 - frac_below))

    def _fraction_below(self, value) -> float:
        if self.histogram and len(self.histogram) >= 2:
            bounds = self.histogram
            buckets = len(bounds) - 1
            if value <= bounds[0]:
                return 0.0
            if value >= bounds[-1]:
                return 1.0
            for i in range(buckets):
                if bounds[i] <= value <= bounds[i + 1]:
                    width = _numeric_gap(bounds[i], bounds[i + 1])
                    into = _numeric_gap(bounds[i], value)
                    frac_in_bucket = into / width if width > 0 else 0.5
                    return (i + frac_in_bucket) / buckets
            return 1.0
        width = _numeric_gap(self.min_value, self.max_value)
        if width <= 0:
            return 0.5
        return _numeric_gap(self.min_value, value) / width

    def merge_sample(self, sample, row_count: int,
                     null_count: int, seen_count: int) -> None:
        """Recompute this column's stats from a fresh sample.

        ``seen_count`` is how many values (incl. nulls) the sample was
        drawn from; ``row_count`` the table's total rows. ``sample`` is
        a list of Python values (None: NULL) or a typed NumPy array,
        which gives the same statistics as its ``tolist()``.
        """
        self.null_frac = null_count / seen_count if seen_count else 0.0
        if isinstance(sample, np.ndarray):
            if _numeric_sample(sample):
                self._merge_typed(sample, row_count)
                return
            sample = sample.tolist()
        non_null = [v for v in sample if v is not None]
        if not non_null:
            self.n_distinct = 0.0
            return
        orderable = all(_is_orderable(v) for v in non_null)
        if orderable:
            ordered = sorted(non_null)
            self.min_value = ordered[0]
            self.max_value = ordered[-1]
        else:
            ordered = non_null
        counts: dict = {}
        for v in non_null:
            counts[v] = counts.get(v, 0) + 1
        sample_distinct = len(counts)
        f1 = sum(1 for c in counts.values() if c == 1)
        n = len(non_null)
        self._set_distinct(n, sample_distinct, f1, row_count)
        common = sorted(counts.items(), key=lambda kv: -kv[1])[:_MCV_KEEP]
        self.mcv = [(v, c / n) for v, c in common if c > 1]
        self._set_histogram(ordered if orderable else None, sample_distinct)

    def _merge_typed(self, sample: np.ndarray, row_count: int) -> None:
        """:meth:`merge_sample` of a NaN-free int or float array, sorted
        and counted by NumPy: a stable sort keeps equal values (``0.0``
        and ``-0.0``) in sample order, as ``sorted`` does, so a run's
        first value is its first occurrence, the one the counts key."""
        n = len(sample)
        order = np.argsort(sample, kind="stable")
        ordered = sample[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], ordered[1:] != ordered[:-1])))
        counts = np.diff(np.append(starts, n))
        values = ordered.tolist()
        self.min_value, self.max_value = values[0], values[-1]
        self._set_distinct(n, len(starts), int(np.count_nonzero(counts == 1)),
                           row_count)
        # repeated values by count, ties in order of first occurrence
        repeated = np.flatnonzero(counts > 1)
        ranked = repeated[np.lexsort((order[starts[repeated]],
                                      -counts[repeated]))][:_MCV_KEEP]
        self.mcv = [(values[start], count / n) for start, count in
                    zip(starts[ranked].tolist(), counts[ranked].tolist())]
        self._set_histogram(values, len(starts))

    def _set_distinct(self, n: int, sample_distinct: int, f1: int,
                      row_count: int) -> None:
        total = max(row_count, n)
        if f1 == n:
            # Every sampled value unique: assume the column scales with N.
            self.n_distinct = float(total)
        else:
            denom = n - f1 + f1 * n / total
            self.n_distinct = min(float(total),
                                  max(1.0, n * sample_distinct / denom))

    def _set_histogram(self, ordered, sample_distinct: int) -> None:
        """Equi-depth bounds over the sorted sample (None: unorderable)."""
        if ordered is not None and sample_distinct > _HISTOGRAM_BUCKETS:
            self.histogram = [
                ordered[min(len(ordered) - 1,
                            round(i * (len(ordered) - 1) / _HISTOGRAM_BUCKETS))]
                for i in range(_HISTOGRAM_BUCKETS + 1)
            ]
        else:
            self.histogram = []


def _numeric_sample(sample: np.ndarray) -> bool:
    """An int or float array without NaN (NaNs are distinct objects to
    the counts and unordered to ``sorted``)."""
    kind = sample.dtype.kind
    return len(sample) > 0 and (kind in "iu" or kind == "f"
                                and not np.isnan(sample).any())


def _numeric_gap(lo, hi) -> float:
    """Distance between two orderable values, for interpolation."""
    if isinstance(lo, datetime.date) and isinstance(hi, datetime.date):
        return float((hi - lo).days)
    if isinstance(lo, str) or isinstance(hi, str):
        # Compare on the first few bytes, like PostgreSQL's convert_string.
        return float(_string_rank(hi) - _string_rank(lo))
    return float(hi) - float(lo)


def _string_rank(s: str) -> float:
    rank = 0.0
    for i, ch in enumerate(s[:6]):
        rank += ord(ch) / (256.0 ** (i + 1))
    return rank


@dataclass
class TableStats:
    """Statistics for one table: row count + per-column stats.

    For PostgresRaw, ``columns`` only contains attributes some query has
    requested so far — "statistics are incrementally augmented to
    represent bigger subsets of the data" (§4.4).

    ``version`` counts mutations (column stats installed or row count
    learned). Because PostgresRaw collects statistics *during* scans —
    i.e. after a prepared statement froze its plan — the catalog
    aggregates these versions into a stats epoch that prepared
    statements watch to know when a cached plan went stale.
    """

    row_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    version: int = 0

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name.lower())

    def set_column(self, stats: ColumnStats) -> None:
        self.columns[stats.name.lower()] = stats
        self.version += 1

    def set_row_count(self, row_count: int) -> None:
        """Install the (possibly newly learned) row count, bumping the
        version only when it actually changed."""
        if row_count != self.row_count:
            self.row_count = row_count
            self.version += 1

    def has_column(self, name: str) -> bool:
        return name.lower() in self.columns
