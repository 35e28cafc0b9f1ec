"""The PostgresRaw binary cache (§4.3) with typed block storage.

Holds previously converted (binary) values so future queries can skip
both raw-file access and data-type conversion. Organized like the
positional map — per attribute, per row block — "such that it is easy to
integrate it in the PostgresRaw query flow". Blocks may be *partial*
("a previously accessed attribute or even parts of an attribute"):
selective parsing converts only qualifying tuples, and the cache keeps a
validity mask per block.

Fixed-width families store their values as dtype-tagged NumPy arrays —
``int64`` ints, ``float64`` floats, ``bool`` booleans, and ``int32``
*day numbers* for dates — with a separate NULL submask (a cached NULL
is distinct from an uncached hole). Warm batch scans read these arrays
straight into the vectorizer with no list round-trip; the date
comparison terms understand day numbers natively. Variable-width
strings keep Python list storage.

Byte-footprint accounting is honest: a typed block costs what its
backing array allocates (``arr.nbytes``, charged at creation/growth,
independent of how many rows are filled); string blocks cost ``len +
1`` per cached value as before.

Eviction is LRU with **conversion-cost priority**: "the PostgresRaw
cache always gives priority to attributes more costly to convert", so
cheap-to-reconvert families (strings) are evicted before expensive ones
(dates, floats, ints). The cache counts its live blocks per family, so
the cheapest rate present is known without looking at the blocks and
the victim is the first block of that rate from the LRU end.

Inserts are column-at-a-time on the batch scan (:meth:`BinaryCache.
put_column`): one masked array assignment for a typed column, one pass
for a list of Python values; per-entry :meth:`BinaryCache.put` is the
interface of the row-at-a-time reference scan (``tests/oracle/``) and
the reference both must agree with.
"""

from __future__ import annotations

import datetime
from collections import Counter, OrderedDict
from itertools import compress

import numpy as np

from repro.errors import StorageError
from repro.simcost.model import CostModel

#: NumPy storage dtype per fixed-width family (dates as ordinal days).
_TYPED_DTYPES = {
    "int": np.int64,
    "float": np.float64,
    "date": np.int32,
    "bool": np.bool_,
}


def _value_bytes(family: str, value) -> int:
    """Per-value footprint of variable-width (list-stored) families."""
    return len(value) + 1 if isinstance(value, str) else 8


def _column_bytes(values: list) -> int:
    """:func:`_value_bytes` summed over a list-stored column."""
    strings = [value for value in values if isinstance(value, str)]
    return (sum(map(len, strings)) + len(strings)
            + 8 * (len(values) - len(strings)))


def _encode(family: str, value):
    if family == "date" and isinstance(value, datetime.date):
        return value.toordinal()
    return value


def _decode(family: str, value):
    if family == "date":
        return datetime.date.fromordinal(int(value))
    if isinstance(value, np.generic):
        return value.item()
    return value


class CacheBlock:
    """Converted values of one attribute over one row block.

    ``mask`` marks *cached* rows; for typed families ``nulls`` marks
    the cached rows whose value is SQL NULL (the array slot holds
    garbage there). List-stored families keep ``None`` in-band.
    """

    __slots__ = ("family", "_data", "_mask", "_nulls", "bytes_used")

    def __init__(self, family: str, values=None, mask=None,
                 nrows: int = 0):
        """An all-uncached block of ``nrows`` rows, or — given
        ``values`` — one of ``len(values)`` rows holding those of them
        that ``mask`` flags."""
        self.family = family
        if values is not None:
            nrows = len(values)
        dtype = _TYPED_DTYPES.get(family)
        if dtype is not None:
            self._data = np.zeros(nrows, dtype=dtype)
            self._nulls = np.zeros(nrows, dtype=bool)
            self.bytes_used = self._data.nbytes
        else:
            self._data = [None] * nrows
            self._nulls = None
            self.bytes_used = 0
        self._mask = np.zeros(nrows, dtype=bool)
        if mask is not None:
            m = min(len(mask), nrows)
            self._mask[:m] = np.frombuffer(bytes(mask[:m]),
                                           dtype=np.uint8).astype(bool) \
                if isinstance(mask, (bytes, bytearray)) \
                else np.asarray(mask[:m], dtype=bool)
        if values is not None:
            for row in np.flatnonzero(self._mask).tolist():
                self._set(row, values[row])

    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return len(self._mask)

    @property
    def mask(self) -> np.ndarray:
        return self._mask

    @property
    def complete(self) -> bool:
        return len(self._mask) > 0 and bool(self._mask.all())

    @property
    def filled(self) -> int:
        return int(self._mask.sum())

    @property
    def values(self) -> list:
        """The block as a plain Python list (``None`` where uncached or
        NULL) — the structural-dump / straggler-consumer view."""
        if isinstance(self._data, list):
            return list(self._data)
        out: list = [None] * len(self._mask)
        present = self._mask if self._nulls is None \
            else (self._mask & ~self._nulls)
        rows = np.flatnonzero(present)
        if len(rows):
            family = self.family
            raw = self._data[rows]
            if family == "date":
                decoded = [datetime.date.fromordinal(v)
                           for v in raw.tolist()]
            else:
                decoded = raw.tolist()
            for row, value in zip(rows.tolist(), decoded):
                out[row] = value
        return out

    def values_at(self, rows: np.ndarray) -> list:
        """The cached values at ``rows`` as Python objects (None where
        uncached or NULL) — decodes only the requested subset, unlike
        the whole-block :attr:`values` view."""
        if isinstance(self._data, list):
            row_list = rows.tolist() if isinstance(rows, np.ndarray) \
                else rows
            return [self._data[i] for i in row_list]
        present = (self._mask[rows] & ~self._nulls[rows]).tolist()
        raw = self._data[rows].tolist()
        if self.family == "date":
            fromordinal = datetime.date.fromordinal
            return [fromordinal(value) if ok else None
                    for value, ok in zip(raw, present)]
        if all(present):
            return raw
        return [value if ok else None for value, ok in zip(raw, present)]

    def typed_data(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(data, nulls)`` arrays for typed families (None for list
        storage). ``data`` holds garbage at uncached/NULL rows; dates
        are ordinal day numbers — the form the vectorizer's date terms
        compare against directly."""
        if isinstance(self._data, list):
            return None
        nulls = self._nulls if self._nulls is not None \
            else np.zeros(len(self._mask), dtype=bool)
        return self._data, nulls

    def consistent(self) -> bool:
        """Internal-geometry invariant: mask, data and (typed) nulls
        agree on the row count. A block violating this (corrupted in
        place, or a failed partial mutation) cannot be read safely —
        the cache treats it as absent and rebuilds from the raw file."""
        nrows = len(self._mask)
        if isinstance(self._data, list):
            return len(self._data) == nrows and self._nulls is None
        return (self._nulls is not None
                and len(self._data) == nrows
                and len(self._nulls) == nrows)

    def get(self, row_in_block: int):
        """``(present, value)`` for a row — present=False means a miss."""
        if row_in_block < len(self._mask) and self._mask[row_in_block]:
            if isinstance(self._data, list):
                return True, self._data[row_in_block]
            if self._nulls is not None and self._nulls[row_in_block]:
                return True, None
            return True, _decode(self.family, self._data[row_in_block])
        return False, None

    def mask_array(self, nrows: int) -> np.ndarray:
        """The validity mask as a boolean array padded/truncated to
        ``nrows`` — the batch scan's whole-block presence test."""
        mask = self._mask
        if len(mask) >= nrows:
            return mask[:nrows].copy()
        out = np.zeros(nrows, dtype=bool)
        out[:len(mask)] = mask
        return out

    # ------------------------------------------------------------------
    def _set(self, row: int, value) -> None:
        """Store one value (no merge check, no byte accounting)."""
        self._mask[row] = True
        if isinstance(self._data, list):
            self._data[row] = value
            return
        if value is None:
            self._nulls[row] = True
            return
        self._nulls[row] = False
        try:
            self._data[row] = _encode(self.family, value)
        except (OverflowError, ValueError):
            # A value the typed dtype cannot hold (e.g. an int beyond
            # int64 — the scan's Python parse fallback produces them):
            # demote this block to object-list storage. The block keeps
            # its allocation-based byte estimate; correctness over
            # footprint precision for this rare shape.
            self._demote()
            self._data[row] = value

    def _demote(self) -> None:
        """Switch from typed-array to object-list storage in place."""
        self._data = self.values
        self._nulls = None

    def _bulk_set(self, rows: np.ndarray, typed_values: np.ndarray,
                  ) -> int | None:
        """Vectorized merge of non-NULL typed values at ``rows``
        (rows already cached are left untouched, as in the per-value
        path). Returns the number of rows newly cached, or None when
        this block cannot take the fast path (demoted object-list
        storage, or a dtype the block does not hold)."""
        data = self._data
        if isinstance(data, list) or data.dtype != typed_values.dtype:
            return None
        rows = np.asarray(rows)
        new = ~self._mask[rows]
        if not new.any():
            return 0
        idx = rows[new]
        data[idx] = typed_values[new]
        self._nulls[idx] = False
        self._mask[idx] = True
        return int(new.sum())

    def _merge_values(self, rows, values: list) -> list:
        """One-pass merge of Python ``values`` at ``rows`` — the batch
        insert of whatever :meth:`_bulk_set` cannot take: strings,
        dates, NULL-bearing numerics, demoted blocks. Rows already
        cached are left untouched; returns the values newly cached, in
        row order. Content is exactly what :meth:`_set` per new row
        would leave, including the demotion point of a value the typed
        dtype cannot hold."""
        rows = np.asarray(rows)
        new = ~self._mask[rows]
        if not new.all():
            rows = rows[new]
            values = list(compress(values, new.tolist()))
        if not len(rows):
            return values
        data = self._data
        if isinstance(data, list):
            for row, value in zip(rows.tolist(), values):
                data[row] = value
            self._mask[rows] = True
            return values
        nulls = np.fromiter((value is None for value in values),
                            dtype=bool, count=len(values))
        present = values
        if nulls.any():
            present = [value for value in values if value is not None]
        try:
            if self.family == "date":
                present = [value.toordinal() for value in present]
            encoded = np.array(present, dtype=data.dtype)
        except (OverflowError, ValueError, TypeError, AttributeError):
            # Nothing was touched yet: redo value by value, so a value
            # beyond the dtype demotes the block exactly where (and
            # raises exactly what) the per-value path does.
            for row, value in zip(rows.tolist(), values):
                self._set(row, value)
            return values
        data[rows[~nulls]] = encoded
        self._nulls[rows] = nulls
        self._mask[rows] = True
        return values

    def _grow(self, nrows: int) -> int:
        """Widen to ``nrows`` rows (file append, §4.5); returns the
        byte-footprint delta."""
        grow = nrows - len(self._mask)
        if grow <= 0:
            return 0
        self._mask = np.concatenate(
            [self._mask, np.zeros(grow, dtype=bool)])
        if isinstance(self._data, list):
            self._data.extend([None] * grow)
            return 0
        before = self._data.nbytes
        self._data = np.concatenate(
            [self._data, np.zeros(grow, dtype=self._data.dtype)])
        self._nulls = np.concatenate(
            [self._nulls, np.zeros(grow, dtype=bool)])
        delta = self._data.nbytes - before
        self.bytes_used += delta
        return delta


class BinaryCache:
    """LRU cache of :class:`CacheBlock` keyed by ``(attr, block)``."""

    def __init__(self, model: CostModel, budget_bytes: int | None = None):
        self.model = model
        self.budget_bytes = budget_bytes
        self._blocks: OrderedDict[tuple[int, int], CacheBlock] = OrderedDict()
        self._bytes = 0
        #: family -> live blocks of it (absent at zero): what eviction
        #: reads the cheapest cached conversion rate from
        self._family_blocks: Counter = Counter()
        profile = model.profile
        self._family_rates = {
            "str": profile.convert_str,
            "bool": profile.convert_int,
            "int": profile.convert_int,
            "float": profile.convert_float,
            "date": profile.convert_date,
        }
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def get(self, attr: int, block: int) -> CacheBlock | None:
        """The cache block for ``(attr, block)``, refreshing LRU order.

        Reading values out of the block is charged by the caller via
        ``model.cache_read`` — only it knows how many values it uses.
        """
        cache_block = self._blocks.get((attr, block))
        if cache_block is None:
            self.misses += 1
            return None
        if not cache_block.consistent():
            # Self-healing: a corrupted block is quarantined (dropped,
            # counted) and the caller re-converts from the raw file —
            # the cache is a safe-to-lose accelerator, never a source
            # of wrong answers or crashes.
            self._drop((attr, block))
            self.model.aux_rebuild(1)
            self.misses += 1
            return None
        self.hits += 1
        self._blocks.move_to_end((attr, block))
        return cache_block

    def peek(self, attr: int, block: int) -> CacheBlock | None:
        """Side-effect-free probe: like :meth:`get` but without touching
        the hit/miss counters or LRU order. The scan kernels' fast path
        tests its preconditions with it — a bailout must leave the
        cache byte-identical to a scan that never probed. A block that
        fails its consistency check reads as absent (quarantined later
        by the strict path's :meth:`get`)."""
        cache_block = self._blocks.get((attr, block))
        if cache_block is not None and not cache_block.consistent():
            return None
        return cache_block

    def _block_for(self, attr: int, block: int, rows_in_block: int,
                   family: str) -> CacheBlock:
        key = (attr, block)
        cache_block = self._blocks.get(key)
        if cache_block is None:
            cache_block = CacheBlock(family, nrows=rows_in_block)
            self._blocks[key] = cache_block
            self._family_blocks[family] += 1
            self._bytes += cache_block.bytes_used
        elif cache_block.nrows < rows_in_block:
            # The block grew (file append, §4.5): widen in place.
            self._bytes += cache_block._grow(rows_in_block)
        return cache_block

    def _drop(self, key: tuple[int, int]) -> None:
        """Remove one block and everything the cache accounts for it."""
        cache_block = self._blocks.pop(key)
        self._bytes -= cache_block.bytes_used
        self._family_blocks[cache_block.family] -= 1
        if not self._family_blocks[cache_block.family]:
            del self._family_blocks[cache_block.family]

    def put(self, attr: int, block: int, rows_in_block: int,
            entries: list[tuple[int, object]], family: str) -> None:
        """Merge converted values into the block.

        ``entries`` is a list of ``(row_in_block, value)``. Values already
        present are left untouched (they are equal by construction — the
        file has not changed; updates invalidate whole tables instead).
        """
        if not entries:
            return
        cache_block = self._block_for(attr, block, rows_in_block, family)
        mask = cache_block.mask
        added = 0
        added_bytes = 0
        per_value = family not in _TYPED_DTYPES
        for row_in_block, value in entries:
            if row_in_block >= rows_in_block:
                raise StorageError(
                    f"row {row_in_block} outside block of {rows_in_block}")
            if mask[row_in_block]:
                continue
            cache_block._set(row_in_block, value)
            added += 1
            if per_value:
                added_bytes += _value_bytes(family, value)
        if added:
            if per_value:
                cache_block.bytes_used += added_bytes
                self._bytes += added_bytes
            self.model.cache_write(added)
        self._blocks.move_to_end((attr, block))
        self._enforce_budget()

    def put_column(self, attr: int, block: int, rows_in_block: int,
                   row_indexes, values, family: str,
                   typed_values: np.ndarray | None = None) -> None:
        """Whole-chunk insert for the batch scan: merge ``values`` at
        ``row_indexes`` (block-relative, ascending) in one operation —
        no per-row dict updates, one cost charge.

        Byte accounting and merge semantics match per-entry
        :meth:`put` exactly (rows already present are left untouched).

        ``typed_values`` is the same column as a dtype-tagged NumPy
        array (no NULLs — the scan's ``astype`` fast path only succeeds
        on fully present numeric slices): when the target block holds
        typed storage of that dtype the merge is one vectorized masked
        assignment, and ``values`` may then be None (both regions of
        the batch scan skip the object-list round-trip entirely).
        Everything else — strings, dates, NULL-bearing numerics, a
        demoted block — merges ``values`` in one pass
        (:meth:`CacheBlock._merge_values`). Content, byte accounting
        and the ``cache_write`` charge are identical either way.
        """
        n = len(row_indexes)
        if n == 0:
            return
        if int(row_indexes[-1]) >= rows_in_block:
            raise StorageError(
                f"row {int(row_indexes[-1])} outside block of "
                f"{rows_in_block}")
        cache_block = self._block_for(attr, block, rows_in_block, family)
        added = None
        if typed_values is not None:
            added = cache_block._bulk_set(row_indexes, typed_values)
        if added is None:
            if values is None:
                values = typed_values.tolist()
            stored = cache_block._merge_values(row_indexes, values)
            added = len(stored)
            if added and family not in _TYPED_DTYPES:
                added_bytes = _column_bytes(stored)
                cache_block.bytes_used += added_bytes
                self._bytes += added_bytes
        if added:
            self.model.cache_write(added)
        self._blocks.move_to_end((attr, block))
        self._enforce_budget()

    # ------------------------------------------------------------------
    def _enforce_budget(self) -> None:
        if self.budget_bytes is None:
            return
        while self._bytes > self.budget_bytes and self._blocks:
            self._evict_one()

    def _evict_one(self) -> None:
        """Evict the least-valuable block: cheapest conversion family
        first (strings before ints before floats/dates), LRU within a
        family — the first block, from the LRU end, of the cheapest
        rate any live block has (the very first block whenever a single
        rate is cached)."""
        cheapest = min(map(self._family_rate, self._family_blocks))
        for key, cache_block in self._blocks.items():  # LRU -> MRU
            if self._family_rate(cache_block.family) == cheapest:
                break
        self._drop(key)
        self.evictions += 1

    def _family_rate(self, family: str) -> float:
        rates = self._family_rates
        return rates.get(family, rates["str"])

    # ------------------------------------------------------------------
    @property
    def bytes_used(self) -> int:
        return self._bytes

    def utilization(self) -> float:
        """Fraction of the budget in use (Fig 6's right axis); 0 when the
        budget is unlimited and the cache is empty."""
        if self.budget_bytes:
            return self._bytes / self.budget_bytes
        return 1.0 if self._bytes else 0.0

    def invalidate_attr(self, attr: int) -> None:
        stale = [key for key in self._blocks if key[0] == attr]
        for key in stale:
            self._drop(key)

    def clear(self) -> None:
        self._blocks.clear()
        self._family_blocks.clear()
        self._bytes = 0
