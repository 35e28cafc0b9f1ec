"""The value-at-a-time FITS scan: the reference the block scan must equal.

:class:`OracleFitsAccess` is a :class:`~repro.core.fits_scan.
RawFitsAccess` (so it shares the product's §4.5 refresh) that serves
``scan()`` one tuple at a time: the reference engine's plan leaf
(``ScanOp.rows``) pulls it, under operators running their row forms.
Each row block runs in the shape
of the CSV oracle's ``_process_block``, under the same three rules:

* two-phase reads — one run for the rows missing a WHERE attribute,
  then one for the qualifying rows still missing a SELECT attribute;
* a column both filtered and projected reads its cached qualifying
  values again (``cache_read``) for the SELECT;
* §4.4 sampling in two passes — the failing rows' WHERE values, then
  per qualifying row its WHERE values decoded from the file and every
  SELECT value.

Per value: a cache hit or a ``deserialize``. Results, cache contents
and statistics must equal the product's block scan.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.fits_scan import RawFitsAccess
from repro.sql.batch import rows_to_batches
from repro.sql.scanapi import ScanPredicate


class OracleFitsAccess(RawFitsAccess):
    """A FITS binary table scanned value at a time."""

    scan_class = None

    def scan(self, needed: Sequence[int],
             predicate: ScanPredicate | None) -> Iterator[tuple]:
        return self._run_scan(needed, predicate, self._scan_rows)

    def scan_batches(self, needed: Sequence[int],
                     predicate: ScanPredicate | None):
        """The row scan gathered into blocks (see
        :meth:`~tests.oracle.csv_scan.OracleCsvAccess.scan_batches`)."""
        return rows_to_batches(self.scan(needed, predicate), len(needed))

    def _scan_rows(self, handle, out_attrs, where_attrs, union_attrs,
                   predicate, collector):
        nrows = self.fits.nrows
        block_size = self.config.row_block_size
        for row0 in range(0, nrows, block_size):
            yield from self._process_block(
                handle, row0 // block_size,
                range(row0, min(row0 + block_size, nrows)), out_attrs,
                where_attrs, union_attrs, predicate, collector)
        self._finish_file(nrows)

    def _process_block(self, handle, block, rows, out_attrs, where_attrs,
                       union_attrs, predicate, collector):
        model = self.model
        columns = self.fits.columns
        nrows = len(rows)

        cached = {}
        if self.cache is not None:
            for attr in union_attrs:
                cached[attr] = self.cache.get(attr, block)

        def covered(attr, idx):
            cache_block = cached.get(attr)
            return bool(cache_block is not None
                        and idx < len(cache_block.mask)
                        and cache_block.mask[idx])

        def value(attr, idx):
            """Cached (``cache_read``) or decoded from the row's bytes
            (``deserialize``, once per row and attribute)."""
            if covered(attr, idx):
                model.cache_read(1)
                return cached[attr].get(idx)[1]
            if attr not in decoded[idx]:
                decoded[idx][attr] = columns[attr].decode(row_bytes[idx])
                model.deserialize(1)
                cache_entries[attr].append((idx, decoded[idx][attr]))
            return decoded[idx][attr]

        row_bytes: dict[int, bytes] = {}
        decoded: dict[int, dict] = {idx: {} for idx in range(nrows)}
        cache_entries: dict[int, list] = {attr: [] for attr in union_attrs}

        # -- phase W: bytes for the rows missing a WHERE attribute
        self._read_rows(handle, rows, row_bytes,
                        [idx for idx in range(nrows)
                         if not all(covered(a, idx) for a in where_attrs)])
        qualifying = []
        for idx in range(nrows):
            model.tuple_overhead(1)
            if predicate is not None:
                where_values = {a: value(a, idx) for a in where_attrs}
                model.predicate(predicate.n_terms)
                if predicate.fn(where_values) is not True:
                    if collector is not None:
                        collector.add_row(where_values, rows[idx])
                    continue
                if collector is not None and not out_attrs:
                    collector.add_row(where_values, rows[idx])
            qualifying.append(idx)

        # -- phase S: bytes for the qualifying rows missing a SELECT one
        self._read_rows(handle, rows, row_bytes,
                        [idx for idx in qualifying
                         if not all(covered(a, idx) for a in out_attrs)])
        for idx in qualifying:
            out = tuple(value(a, idx) for a in out_attrs)
            model.tuple_form(len(out_attrs))
            if collector is not None:
                row_values = {**decoded[idx], **dict(zip(out_attrs, out))}
                if out_attrs:
                    collector.add_row(row_values, rows[idx])
                else:   # fed by loop 1: charged again, not fed
                    collector.recharge(sum(attr in row_values
                                           for attr in collector.attrs))
            yield out

        if self.cache is not None:
            for attr, entries in cache_entries.items():
                if entries:
                    self.cache.put(attr, block, nrows, entries,
                                   self._families[attr])

    def _read_rows(self, handle, rows, row_bytes, wanted) -> None:
        """One sequential read from the first to the last ``wanted``
        row not yet read (fixed-width rows: stream through the gaps)."""
        needed = [idx for idx in wanted if idx not in row_bytes]
        if not needed:
            return
        first, last = needed[0], needed[-1]
        width = self.fits.row_bytes
        blob = handle.read_at(self.fits.data_offset + rows[first] * width,
                              (last - first + 1) * width)
        for idx in needed:
            lo = (idx - first) * width
            row_bytes[idx] = blob[lo:lo + width]
