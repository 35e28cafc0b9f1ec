"""On-the-fly statistics collection (§4.4).

PostgresRaw invokes "the native statistics routines of the DBMS,
providing it with a sample of the data", only for attributes the current
query actually reads. We reproduce that with one bottom-k sample per
attribute, filled during the scan; at end-of-scan the samples are
folded into the table's :class:`~repro.sql.stats.TableStats`,
incrementally augmenting whatever earlier queries collected.

The sample is keyed by row position (Cohen & Kaplan's bottom-k
sketches): a value's key is :func:`position_keys` — splitmix64 of its
column and its absolute row number under one fixed seed — and the
sample keeps the values of the ``capacity`` smallest keys. It is a
uniform sample without replacement of the rows the scan fed, and a pure
function of *which* rows those were: not of their order, their
chunking, the worker count, the kernels or how concurrent scans
interleave. The samples of two disjoint sets of rows merge into the
sample of their union by keeping the smallest keys of both.

Sampling rides along with the scan at the scan's own granularity: the
block scan feeds typed block columns with their row positions
(:meth:`StatsCollector.add_columns` → :meth:`BottomKSampler.add_many`);
the row-at-a-time reference scan (``tests/oracle/``) feeds rows with
their row numbers (:meth:`StatsCollector.add_row`). Once the sample
has filled, only the few values of a block whose key can still enter
it are picked out, and a typed block's stay typed: the sample reaches
:meth:`~repro.sql.stats.ColumnStats.merge_sample` as a typed array when
every value came from one dtype. Both feeds charge one ``stats_sample``
unit per value fed, in the same float accumulation.

A scan hands each row to a column's sampler once, so ``seen`` counts
distinct rows. Where a second feed site of the scan handles a row
again (a WHERE-only scan's qualifying rows), it charges the values
again (:meth:`StatsCollector.recharge`) but does not feed them.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.simcost.clock import CostEvent
from repro.simcost.model import CostModel
from repro.sql.catalog import Schema
from repro.sql.stats import ColumnStats, TableStats

#: the keys' fixed seed: a key depends on its column and row only, not
#: on which scan or query collects it
_SEED = 0x5EED_0404
_MASK = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    """Steele, Lea & Flood's splitmix64 step over one 64-bit integer."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def position_keys(column: int, positions: np.ndarray) -> np.ndarray:
    """The sample keys of ``column`` at absolute row ``positions``: the
    vectorized :func:`_splitmix64` of a column salt plus the row number
    (uint64 arithmetic wraps). A bijection of the row number, so two
    rows never share a key."""
    z = positions.astype(np.uint64)
    z += np.uint64((_splitmix64(_SEED + column) + 0x9E3779B97F4A7C15)
                   & _MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _objects(values: list, idx: np.ndarray) -> np.ndarray:
    out = np.empty(len(idx), dtype=object)
    out[:] = [values[i] for i in idx.tolist()]
    return out


class BottomKSampler:
    """One attribute's sample: the values at the ``capacity`` smallest
    :func:`position_keys`, plus exact ``seen`` / ``null_count`` over
    the rows fed and the exact extremes. A scan feeds each row position
    once (see :class:`~repro.sql.stats.ColumnStats`).

    The sampler holds candidates: every value whose key is at most the
    ``capacity``-th smallest key as of the last prune. It prunes back
    to ``capacity`` when they reach twice that, so a block costs one
    hash and one comparison, not a selection.

    ``vmin``/``vmax`` are the strict-``<`` left fold over every non-null
    value fed, in feed order (NaNs and first-wins ties fall as that
    fold lets them), over *all* values, not just the survivors: sample
    extremes are unsound for zone-map pruning, true extremes are free
    to maintain."""

    def __init__(self, capacity: int, column: int = 0):
        self.capacity = capacity
        self.column = column
        #: rows fed, NULLs included
        self.seen = 0
        self.null_count = 0
        self.vmin = None
        self.vmax = None
        self._orderable = True
        self._keys = np.empty(0, dtype=np.uint64)
        #: the candidates' values, a typed array while every one of
        #: them came from a typed block of one dtype
        self._values = np.empty(0, dtype=object)
        #: a key above this cannot enter the sample
        self._top = np.uint64(_MASK)

    @property
    def sample(self) -> np.ndarray:
        """The sampled values in key order: a typed array while every
        one came from a typed block of one dtype, else an object array
        of Python values."""
        return self._values[np.argsort(self._keys)[:self.capacity]]

    def add(self, value, position: int) -> None:
        """Feed one Python value (None: NULL) observed at row
        ``position``."""
        self.add_many([value], np.array([position]))

    def add_many(self, values, positions: np.ndarray) -> None:
        """Feed ``values`` — a typed NumPy array (no NULLs), or a list
        or object array of Python values (None: NULL) — observed at the
        distinct absolute row ``positions``, none fed before, in feed
        order."""
        if not len(positions):
            return
        self.seen += len(positions)
        typed = isinstance(values, np.ndarray) and values.dtype != object
        present = None
        if typed:
            if values.dtype.kind == "f" and np.isnan(values).any():
                self._fold(values.tolist())
            else:
                self._fold_typed(values)
        else:
            if isinstance(values, np.ndarray):
                values = values.tolist()
            nulls = np.fromiter((v is None for v in values), dtype=bool,
                                count=len(values))
            self.null_count += int(np.count_nonzero(nulls))
            self._fold([v for v in values if v is not None])
            present = np.flatnonzero(~nulls)
            positions = positions[present]
        keys = position_keys(self.column, positions)
        better = keys <= self._top
        idx = np.flatnonzero(better) if present is None else present[better]
        if not len(idx):
            return
        # Only candidates are picked out; a typed block's stay typed
        # until the sample is read.
        picked = values[idx] if typed else _objects(values, idx)
        held = self._values
        if len(held) and held.dtype != picked.dtype:
            held, picked = held.astype(object), picked.astype(object)
        self._keys = np.concatenate([self._keys, keys[better]])
        self._values = np.concatenate([held, picked]) if len(held) \
            else picked
        if len(self._keys) >= 2 * self.capacity:
            kept = np.argpartition(self._keys,
                                   self.capacity - 1)[:self.capacity]
            self._keys, self._values = self._keys[kept], self._values[kept]
            self._top = self._keys.max()

    def _fold(self, present: list) -> None:
        """The extremes' left fold over Python values: builtin ``min`` /
        ``max`` seeded with the current extreme."""
        if not present or not self._orderable:
            return
        try:
            if self.vmin is None:
                self.vmin = min(present)
                self.vmax = max(present)
            else:
                self.vmin = min(chain((self.vmin,), present))
                self.vmax = max(chain((self.vmax,), present))
        except TypeError:
            self.vmin = self.vmax = None
            self._orderable = False

    def _fold_typed(self, values: np.ndarray) -> None:
        """:meth:`_fold` over a NaN-free typed array: ``argmin`` /
        ``argmax`` name the first extreme, as the builtins do."""
        if not self._orderable:
            return
        low = values[np.argmin(values)].item()
        high = values[np.argmax(values)].item()
        if self.vmin is None:
            self.vmin, self.vmax = low, high
        else:
            self._fold([low, high])


class StatsCollector:
    """Collects samples for a set of attributes during one scan."""

    def __init__(self, model: CostModel, schema: Schema, attrs: list[int],
                 sample_target: int = 1000):
        self.model = model
        self.schema = schema
        self.attrs = list(attrs)
        self._samplers = {attr: BottomKSampler(sample_target, attr)
                          for attr in self.attrs}

    def add_row(self, values: dict[int, object], row: int) -> None:
        """Sample the attribute values of row number ``row`` (missing
        attrs skipped: selective parsing may not have converted them)."""
        for attr in self.attrs:
            if attr in values:
                self._samplers[attr].add(values[attr], row)
                self.model.stats_sample(1)

    def add_columns(self, columns: dict[int, tuple]) -> None:
        """Sample whole block columns: attr -> ``(values, positions)``,
        its values (a typed array, or Python values) at those absolute
        row numbers; attributes without a column are skipped. The
        charge is the one ``stats_sample`` unit per value that
        :meth:`add_row` charges."""
        sampled = 0
        for attr in self.attrs:
            column = columns.get(attr)
            if column is not None:
                values, positions = column
                self._samplers[attr].add_many(values, positions)
                sampled += len(positions)
        self.model.charge_repeat(CostEvent.STATS_SAMPLE, sampled)

    def recharge(self, units: int) -> None:
        """Charge ``units`` values an earlier feed site of this scan
        already fed: the site pays its one ``stats_sample`` unit per
        value, the rows are not fed again."""
        self.model.charge_repeat(CostEvent.STATS_SAMPLE, units)

    def finalize(self, table_stats: TableStats, row_count: int) -> TableStats:
        """Fold the samples into ``table_stats`` (augmenting, not
        replacing, stats of attributes this scan did not touch).
        Mutations bump ``table_stats.version`` — the signal prepared
        statements use to re-plan on stats arrival."""
        table_stats.set_row_count(row_count)
        for attr, sampler in self._samplers.items():
            if sampler.seen == 0:
                continue
            name = self.schema.columns[attr].name
            column = table_stats.column(name)
            if column is None:
                column = ColumnStats(name=name)
            column.merge_sample(sampler.sample, row_count,
                                sampler.null_count, sampler.seen)
            column.observed_min = sampler.vmin
            column.observed_max = sampler.vmax
            column.observed_rows = sampler.seen
            column.observed_nulls = sampler.null_count
            table_stats.set_column(column)
        return table_stats
