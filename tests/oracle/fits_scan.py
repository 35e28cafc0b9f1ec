"""The value-at-a-time FITS scan: the reference the block scan must equal.

:class:`OracleFitsAccess` is a :class:`~repro.core.fits_scan.
RawFitsAccess` that serves ``scan()`` one tuple at a time — per row:
cache hit or deserialize, predicate, tuple formation, a per-row §4.4
sample — and exposes no ``scan_batches``, so every operator above it
pulls rows. Results, cache contents and statistics must equal the
product's column-slice scan.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.fits_scan import RawFitsAccess
from repro.sql.scanapi import ScanPredicate


class OracleFitsAccess(RawFitsAccess):
    """A FITS binary table scanned value at a time."""

    scan_batches = None

    def scan(self, needed: Sequence[int],
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

        self._finalize_stats(collector)
        info.row_count_hint = fits.nrows
