"""Access methods for the comparator engines.

* :class:`HeapAccess` — loaded binary pages behind a buffer pool. The
  paper's conventional DBMS path: no conversion at query time, but
  every page of the table is read and tuples are deserialized up to the
  largest needed attribute (heap tuples are sequential, like CSV rows).
* :class:`ExternalAccess` — the external-files straw-man (§3.1): every
  query re-reads and fully re-tokenizes the raw file and materializes
  complete tuples, with no auxiliary structures. It reads lines
  through the bulk loader's record walk (:func:`~repro.formats.csvfmt.
  read_records`) and answers a malformed one by PostgresRaw's
  :class:`~repro.core.blockscan.ErrorPolicy`.

Both walk their records one at a time and charge per record, as these
systems do, but hand the plan ``scan_batches`` blocks like PostgresRaw's
raw scan does: every engine runs the same columnar operators above its
leaves (§5: PostgresRaw "shares the same query execution engine").
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.blockscan import ErrorPolicy
from repro.errors import CSVFormatError
from repro.formats.csvfmt import CsvDialect, CsvTolerance, read_records
from repro.simcost.model import CostModel
from repro.sql.batch import ColumnBatch, rows_to_batches
from repro.sql.catalog import Schema
from repro.sql.scanapi import ScanPredicate
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.record import RecordCodec
from repro.storage.toast import ToastReader, is_pointer
from repro.storage.vfs import VirtualFS


class HeapAccess:
    """Scan of a loaded table's heap file."""

    def __init__(self, heap: HeapFile, pool: BufferPool, codec: RecordCodec,
                 schema: Schema, model: CostModel,
                 row_count: int | None = None,
                 toast: ToastReader | None = None):
        self.heap = heap
        self.pool = pool
        self.codec = codec
        self.schema = schema
        self.model = model
        self.row_count = row_count
        self.toast = toast

    def estimated_rows(self) -> int | None:
        return self.row_count

    def scan_batches(self, needed: Sequence[int],
                     predicate: ScanPredicate | None,
                     ) -> Iterator[ColumnBatch]:
        return rows_to_batches(self._records(needed, predicate),
                               len(needed))

    def _records(self, needed: Sequence[int],
                 predicate: ScanPredicate | None) -> Iterator[tuple]:
        model = self.model
        needed = list(needed)
        where_attrs = list(predicate.attrs) if predicate else []
        # Row stores deform tuples left-to-right: pay for the prefix up
        # to the largest attribute any clause needs.
        max_attr = max(needed + where_attrs) if (needed or where_attrs) else 0
        deform_width = max_attr + 1
        n_terms = predicate.n_terms if predicate else 0
        for record in self.heap.scan_records(self.pool):
            model.tuple_overhead(1)
            values = self.codec.decode(record)
            # The whole tuple's bytes traverse memory out of the buffer
            # page even when only a prefix is deformed — the effect that
            # lets in-situ caches win at low projectivity (§5.1.4).
            model.disk_read(len(record), warm=True)
            model.deserialize(deform_width)
            if predicate is not None:
                model.predicate(n_terms)
                row = {attr: self._detoast(values[attr])
                       for attr in where_attrs}
                if predicate.fn(row) is not True:
                    continue
            model.tuple_form(len(needed))
            yield tuple(self._detoast(values[attr]) for attr in needed)

    def _detoast(self, value):
        """Resolve out-of-line values lazily — only attributes a query
        actually touches pay the toast fetch (like PostgreSQL)."""
        if self.toast is not None and is_pointer(value):
            return self.toast.fetch(value)
        return value


class ExternalAccess(CsvTolerance, ErrorPolicy):
    """Straw-man in-situ scan: full re-parse, full tuples, every query.

    A malformed line — short, blank, or a value its column cannot
    parse — fails the query under ``on_error 'fail'``, even in a column
    the query never touches, which PostgresRaw's selective parsing
    never reads: the one answer the engines do not share. Under
    ``'skip'`` / ``'null'`` the line is redone over the touched columns
    by PostgresRaw's own tolerant row evaluation and sidecar."""

    def __init__(self, vfs: VirtualFS, path: str, schema: Schema,
                 model: CostModel, table_info,
                 dialect: CsvDialect | None = None):
        super().__init__(vfs, path, table_info)
        self.schema = schema
        self.model = model
        self.dialect = dialect if dialect is not None else CsvDialect()

    def estimated_rows(self) -> int | None:
        return None  # external files expose no statistics (§2)

    def scan_batches(self, needed: Sequence[int],
                     predicate: ScanPredicate | None,
                     ) -> Iterator[ColumnBatch]:
        return rows_to_batches(self._records(needed, predicate),
                               len(needed))

    def _records(self, needed: Sequence[int],
                 predicate: ScanPredicate | None) -> Iterator[tuple]:
        model = self.model
        needed = list(needed)
        where_attrs = list(predicate.attrs) if predicate else []
        arity = self.schema.arity
        handle = self.vfs.open(self.path, model)
        for row_number, line, values in read_records(
                handle, self.schema, model, self.dialect):
            model.tuple_overhead(1)
            try:
                values = list(values)
            except CSVFormatError:
                if self.on_error == "fail":
                    raise
                row = self.tolerant_redo(model, row_number, line, needed,
                                         where_attrs, predicate)
                if row is not None:
                    yield row
                continue
            model.tuple_form(arity)
            if predicate is not None:
                model.predicate(predicate.n_terms)
                row = {attr: values[attr] for attr in where_attrs}
                if predicate.fn(row) is not True:
                    continue
            yield tuple(values[attr] for attr in needed)
