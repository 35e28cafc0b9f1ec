"""Typed columnar batches — the unit of the vectorized pull mode.

A :class:`ColumnBatch` carries one block of tuples column-wise as
NumPy arrays. Each column is either *dtype-tagged* (``int64``,
``float64``, ``bool`` — and ``int32`` day numbers for dates served
from the typed cache) or an *object* array holding arbitrary Python
values (strings, ``datetime.date``, mixed NULLs). A parallel ``nulls``
list carries per-column validity: a boolean mask where the column has
NULLs, or ``None`` when it provably has none (typed columns cannot
represent NULL in-band, so their mask is always explicit or absent).

Every operator (:mod:`repro.sql.operators`) exchanges these instead of
individual tuples, amortizing per-tuple interpreter overhead over a
whole block *and* keeping data in typed arrays end-to-end (vectorized
predicate masks, grouped aggregation, gather-based joins, argsort
ordering). The :meth:`iter_rows` shim materializes plain Python tuples
— for final result assembly, and for an operator's local fallback to
its row closures.

Batch streams follow the scan API's ordered delivery contract
(:mod:`repro.sql.scanapi`): file order, always — parallel chunk scans
merge their out-of-order worker results back into sequence before a
batch ever reaches an operator, so everything downstream of the scan is
oblivious to ``scan_workers``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

#: rows per batch where rows are gathered into batches
DEFAULT_BATCH_ROWS = 1024


def as_object_array(values: Sequence) -> np.ndarray:
    """A 1-D object ndarray over ``values`` (no dtype inference — large
    ints, dates and mixed NULLs survive untouched)."""
    if isinstance(values, np.ndarray):
        return values
    arr = np.empty(len(values), dtype=object)
    if len(values):
        arr[:] = values
    return arr


def object_nulls(column: np.ndarray) -> np.ndarray:
    """Boolean mask of the ``None`` entries of an object column."""
    out = np.fromiter((v is None for v in column.tolist()), dtype=bool,
                      count=len(column))
    return out


class ColumnBatch:
    """One block of tuples, stored column-wise as NumPy arrays.

    ``columns`` is a list of equal-length arrays, one per output column
    in plan order; plain Python lists are accepted and wrapped as
    object arrays. ``nulls`` (optional) aligns with ``columns``: a bool
    ndarray marking NULL rows, or ``None``. For typed columns ``None``
    means *no NULLs*; for object columns it means *not computed yet*
    (the ``None`` values live in the array itself) — use
    :meth:`null_mask` to resolve either way.

    A zero-column batch still knows its row count (``SELECT count(*)``
    scans project no attributes but must emit one empty tuple per
    qualifying row).
    """

    __slots__ = ("columns", "nulls", "nrows")

    def __init__(self, columns: Sequence, nrows: int,
                 nulls: Sequence[Optional[np.ndarray]] | None = None):
        self.columns = [as_object_array(col) for col in columns]
        self.nrows = nrows
        if nulls is None:
            self.nulls: list[Optional[np.ndarray]] = [None] * len(
                self.columns)
        else:
            self.nulls = list(nulls)

    def __len__(self) -> int:
        return self.nrows

    @property
    def width(self) -> int:
        return len(self.columns)

    def column(self, index: int) -> np.ndarray:
        return self.columns[index]

    def null_mask(self, index: int) -> Optional[np.ndarray]:
        """The NULL mask of one column, or ``None`` when it is typed
        with no NULLs. Computed on demand for object columns and cached
        either way (an all-False mask is kept so NULL-free object
        columns are scanned once, not once per predicate term)."""
        mask = self.nulls[index]
        if mask is not None:
            return mask
        column = self.columns[index]
        if column.dtype != object:
            return None
        mask = object_nulls(column)
        self.nulls[index] = mask
        return mask

    def column_values(self, index: int) -> list:
        """One column as a plain Python list (``None`` for NULLs)."""
        column = self.columns[index]
        values = column.tolist()
        mask = self.nulls[index]
        if mask is not None and column.dtype != object and mask.any():
            for row in np.flatnonzero(mask).tolist():
                values[row] = None
        return values

    def iter_rows(self) -> Iterator[tuple]:
        """Row-iterator shim: the batch as plain Python tuples, in
        order (typed values converted back to Python scalars)."""
        if not self.columns:
            empty = ()
            return (empty for _ in range(self.nrows))
        return zip(*(self.column_values(i)
                     for i in range(len(self.columns))))

    def take(self, indices: np.ndarray) -> "ColumnBatch":
        """A new batch holding ``indices``' rows (gather; typed columns
        stay typed)."""
        columns = [col[indices] for col in self.columns]
        nulls = [mask[indices] if mask is not None else None
                 for mask in self.nulls]
        return ColumnBatch(columns, len(indices), nulls)

    def head(self, count: int) -> "ColumnBatch":
        """The first ``count`` rows (LIMIT truncation)."""
        columns = [col[:count] for col in self.columns]
        nulls = [mask[:count] if mask is not None else None
                 for mask in self.nulls]
        return ColumnBatch(columns, count, nulls)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], width: int) -> "ColumnBatch":
        """Transpose materialized rows into a batch (a record-at-a-time
        leaf's rows, an operator's row-closure output). Columns come out
        as object arrays — typed columns only ever originate at a
        raw-file scan or a vectorized operator."""
        if not rows:
            return cls([[] for _ in range(width)], 0)
        return cls([list(col) for col in zip(*rows)], len(rows))


def batches_to_rows(batches) -> Iterator[tuple]:
    """Flatten an iterable of batches into a tuple iterator."""
    for batch in batches:
        yield from batch.iter_rows()


def rows_to_batches(rows, width: int) -> Iterator[ColumnBatch]:
    """Gather a tuple iterator into batches of :data:`DEFAULT_BATCH_ROWS`
    rows (the inverse of :func:`batches_to_rows`)."""
    pending: list[tuple] = []
    for row in rows:
        pending.append(row)
        if len(pending) >= DEFAULT_BATCH_ROWS:
            yield ColumnBatch.from_rows(pending, width)
            pending = []
    if pending:
        yield ColumnBatch.from_rows(pending, width)
