"""Access methods for the comparator engines.

* :class:`HeapAccess` — loaded binary pages behind a buffer pool. The
  paper's conventional DBMS path: no conversion at query time, but
  every page of the table is read and tuples are deserialized up to the
  largest needed attribute (heap tuples are sequential, like CSV rows).
* :class:`ExternalAccess` — the external-files straw-man (§3.1): every
  query re-reads and fully re-tokenizes the raw file and materializes
  complete tuples, with no auxiliary structures.

Both walk their records one at a time and charge per record, as these
systems do, but hand the plan ``scan_batches`` blocks like PostgresRaw's
raw scan does: every engine runs the same columnar operators above its
leaves (§5: PostgresRaw "shares the same query execution engine").
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import CSVFormatError, annotate
from repro.formats.csvfmt import (
    CsvDialect,
    LineReader,
    convert_field,
    split_line,
)
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


class ExternalAccess:
    """Straw-man in-situ scan: full re-parse, full tuples, every query."""

    def __init__(self, vfs: VirtualFS, path: str, schema: Schema,
                 model: CostModel, dialect: CsvDialect | None = None):
        self.vfs = vfs
        self.path = path
        self.schema = schema
        self.model = model
        self.dialect = dialect if dialect is not None else CsvDialect()
        self._dtypes = schema.types
        self._families = [t.family for t in schema.types]

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
        arity = self.schema.arity
        n_terms = predicate.n_terms if predicate else 0
        names = self.schema.names
        handle = self.vfs.open(self.path, model)
        reader = LineReader(handle)
        scanned_before = 0
        for row_number, (_offset, line) in enumerate(reader):
            model.newline_scan(reader.chars_scanned - scanned_before)
            scanned_before = reader.chars_scanned
            spans, scanned = split_line(line, self.dialect)
            model.tokenize(scanned)
            model.tuple_overhead(1)
            if len(spans) < arity:
                # A short line is skipped: the straw-man forgives what
                # PostgresRaw and the loader reject. Fields past the
                # schema's last column are ignored, as PostgresRaw does.
                continue
            values = []
            for attr in range(arity):
                start, end = spans[attr]
                text = line[start:end].decode("utf-8", "replace")
                model.convert(self._families[attr], 1)
                try:
                    values.append(convert_field(text, self._dtypes[attr],
                                                names[attr]))
                except CSVFormatError as exc:
                    raise annotate(exc, row_number=row_number)
            model.tuple_form(arity)
            if predicate is not None:
                model.predicate(n_terms)
                row = {attr: values[attr] for attr in predicate.attrs}
                if predicate.fn(row) is not True:
                    continue
            yield tuple(values[attr] for attr in needed)
