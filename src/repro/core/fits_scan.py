"""RawFitsAccess: in-situ scans over FITS binary tables (§5.3).

Binary tables need no tokenizing and no type conversion — attribute
offsets are fixed — so the positional map is unnecessary. What remains
is I/O and deserialization, which makes the binary cache the dominant
mechanism: "techniques such as caching become more important".

Like the CSV scan, it decodes whole column slices per row block,
evaluates predicates as masks and talks to the cache in whole chunks.
A value-at-a-time reference scan in ``tests/oracle/`` must produce
identical results, cache contents and statistics.
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
    # The scan: whole column slices per row block
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
                # qualifying rows — per attribute, a row-at-a-time
                # scan's sampling sequence.
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

        self._finalize_stats(collector)
        info.row_count_hint = fits.nrows
