"""RawFitsAccess: in-situ scans over FITS binary tables (§5.3).

Binary tables need no tokenizing and no type conversion — attribute
offsets are fixed — so the positional map is unnecessary. What remains
is I/O and deserialization, which makes the binary cache the dominant
mechanism: "techniques such as caching become more important".

Like the CSV scan, two paths share the mechanisms: the batch path
(``config.batch_mode``, default) decodes whole column slices per row
block, evaluates predicates as masks and talks to the cache in whole
chunks; the scalar path decodes value-at-a-time and is retained as the
differential oracle.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.blockscan import BlockColumn, RawAccessBase, predicate_mask
from repro.core.cache import BinaryCache
from repro.core.config import PostgresRawConfig
from repro.formats.fits import FitsTableInfo
from repro.simcost.model import CostModel
from repro.sql.batch import ColumnBatch
from repro.sql.catalog import TableInfo
from repro.sql.scanapi import ScanPredicate
from repro.storage.vfs import VirtualFS


class RawFitsAccess(RawAccessBase):
    """Access method for one in-situ FITS binary table. Takes only the
    format-blind slice of the raw-scan shell (scan prologue/epilogue,
    batch->tuple shim): the row count comes from the header, so there is
    no §4.5 refresh and no line index."""

    def __init__(self, vfs: VirtualFS, path: str, fits: FitsTableInfo,
                 model: CostModel, config: PostgresRawConfig,
                 table_info: TableInfo, cache: BinaryCache | None):
        super().__init__(vfs, path, fits.schema, model, config,
                         table_info, cache)
        self.fits = fits

    def estimated_rows(self) -> int | None:
        return self.fits.nrows

    # ------------------------------------------------------------------
    @property
    def batch_enabled(self) -> bool:
        return self.config.batch_mode

    def _finalize(self, collector, info) -> None:
        self._finalize_stats(collector)
        info.row_count_hint = self.fits.nrows

    def scan(self, needed: Sequence[int],
             predicate: ScanPredicate | None) -> Iterator[tuple]:
        if self.batch_enabled:
            return super().scan(needed, predicate)
        return self._scan_scalar(needed, predicate)

    # ------------------------------------------------------------------
    # Batch path: whole column slices per row block
    # ------------------------------------------------------------------
    def scan_batches(self, needed: Sequence[int],
                     predicate: ScanPredicate | None,
                     ) -> Iterator[ColumnBatch]:
        info = self.table_info  # held while the scan runs
        out_attrs, where_attrs, union_attrs, collector, handle = \
            self._scan_setup(needed, predicate)
        model = self.model
        fits = self.fits
        block_size = self.config.row_block_size
        nrows = fits.nrows
        columns = fits.columns

        row = 0
        while row < nrows:
            block = row // block_size
            block_end = min((block + 1) * block_size, nrows)
            n = block_end - row
            model.tuple_overhead(n)

            cached = self._prefetch_cache(union_attrs, block)
            cmask = self._presence_masks(cached, n)

            # One sequential read covering every row missing any
            # needed attribute (fixed-width binary rows).
            missing_any = np.zeros(n, dtype=bool)
            for attr in union_attrs:
                missing_any |= ~cmask[attr]
            row_data: dict[int, bytes] = {}
            need_idx = np.flatnonzero(missing_any)
            if len(need_idx):
                first, last = int(need_idx[0]), int(need_idx[-1])
                start = fits.data_offset + (row + first) * fits.row_bytes
                length = (last - first + 1) * fits.row_bytes
                blob = handle.read_at(start, length)
                for idx in range(first, last + 1):
                    lo = (idx - first) * fits.row_bytes
                    row_data[idx] = blob[lo:lo + fits.row_bytes]

            def column_values(attr: int, mask: np.ndarray) -> np.ndarray:
                """Values of ``attr`` for ``mask`` rows as an aligned
                object array: cache hits plus decoded misses, charged
                in bulk."""
                out = np.empty(n, dtype=object)
                hits = mask & cmask[attr]
                hit_idx = np.flatnonzero(hits)
                if len(hit_idx):
                    out[hit_idx] = cached[attr].values_at(hit_idx)
                    model.cache_read(len(hit_idx))
                miss_idx = np.flatnonzero(mask & ~cmask[attr])
                if len(miss_idx):
                    decode = columns[attr].decode
                    decoded = [decode(row_data[i])
                               for i in miss_idx.tolist()]
                    out[miss_idx] = decoded
                    model.deserialize(len(miss_idx))
                    entries[attr] = (miss_idx, decoded)
                return out

            entries: dict[int, tuple] = {}
            all_rows = np.ones(n, dtype=bool)
            values_by_attr: dict[int, np.ndarray] = {}
            for attr in where_attrs:
                values_by_attr[attr] = column_values(attr, all_rows)

            qual = predicate_mask(model, predicate, {
                attr: BlockColumn(n, self._families[attr]).assign(
                    values_by_attr[attr]) for attr in where_attrs}, n)
            qual_idx = np.flatnonzero(qual)

            for attr in out_attrs:
                if attr not in values_by_attr:
                    values_by_attr[attr] = column_values(attr, qual)
            out_columns = [values_by_attr[attr][qual_idx]
                           for attr in out_attrs]
            model.tuple_form(len(out_attrs) * len(qual_idx))

            if collector is not None:
                # WHERE values of every row, SELECT-only values of the
                # qualifying rows — per attribute, the scalar scan's
                # sampling sequence.
                collector.add_columns({
                    attr: (values_by_attr[attr] if attr in where_attrs
                           else values_by_attr[attr][qual_idx]).tolist()
                    for attr in collector.attrs})

            if self.cache is not None:
                for attr in union_attrs:
                    if attr in entries:
                        miss_idx, decoded = entries[attr]
                        self.cache.put_column(attr, block, n, miss_idx,
                                              decoded,
                                              self._families[attr])
            yield ColumnBatch(out_columns, len(qual_idx))
            row = block_end

        self._finalize(collector, info)

    # ------------------------------------------------------------------
    # Scalar path (differential oracle)
    # ------------------------------------------------------------------
    def _scan_scalar(self, needed: Sequence[int],
                     predicate: ScanPredicate | None) -> Iterator[tuple]:
        info = self.table_info  # held while the scan runs
        out_attrs, where_attrs, union_attrs, collector, handle = \
            self._scan_setup(needed, predicate)
        model = self.model
        fits = self.fits
        block_size = self.config.row_block_size
        nrows = fits.nrows
        columns = fits.columns
        n_terms = predicate.n_terms if predicate else 0

        row = 0
        while row < nrows:
            block = row // block_size
            block_end = min((block + 1) * block_size, nrows)
            rows_in_block = block_end - row

            cached = {}
            if self.cache is not None:
                for attr in union_attrs:
                    cached[attr] = self.cache.get(attr, block)

            def covered(attr: int, idx: int) -> bool:
                cache_block = cached.get(attr)
                return bool(cache_block and idx < len(cache_block.mask)
                            and cache_block.mask[idx])

            # Read a contiguous row range for any row missing any needed
            # attribute (binary rows are fixed width: one sequential read).
            need_file = [idx for idx in range(rows_in_block)
                         if any(not covered(a, idx) for a in union_attrs)]
            row_data: dict[int, bytes] = {}
            if need_file:
                first, last = need_file[0], need_file[-1]
                start = fits.data_offset + (row + first) * fits.row_bytes
                length = (last - first + 1) * fits.row_bytes
                blob = handle.read_at(start, length)
                for idx in range(first, last + 1):
                    lo = (idx - first) * fits.row_bytes
                    row_data[idx] = blob[lo:lo + fits.row_bytes]

            cache_entries: dict[int, list] = {a: [] for a in union_attrs}

            for idx in range(rows_in_block):
                model.tuple_overhead(1)
                values: dict[int, object] = {}

                def get_value(attr: int):
                    if attr in values:
                        return values[attr]
                    cache_block = cached.get(attr)
                    if cache_block is not None:
                        present, value = cache_block.get(idx)
                        if present:
                            model.cache_read(1)
                            values[attr] = value
                            return value
                    value = columns[attr].decode(row_data[idx])
                    model.deserialize(1)
                    values[attr] = value
                    cache_entries[attr].append((idx, value))
                    return value

                if predicate is not None:
                    where_values = {a: get_value(a) for a in where_attrs}
                    model.predicate(n_terms)
                    if predicate.fn(where_values) is not True:
                        if collector is not None:
                            collector.add_row(values)
                        continue
                out = tuple(get_value(a) for a in out_attrs)
                model.tuple_form(len(out_attrs))
                if collector is not None:
                    collector.add_row(values)
                yield out

            if self.cache is not None:
                for attr, entries in cache_entries.items():
                    if entries:
                        self.cache.put(attr, block, rows_in_block, entries,
                                       self._families[attr])
            row = block_end

        self._finalize(collector, info)
