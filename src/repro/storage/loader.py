"""Bulk loader: raw CSV -> binary heap pages + statistics.

This is the cost a conventional DBMS pays up front and NoDB eliminates:
one full pass that tokenizes every character, converts every value,
serializes binary tuples, and writes them out as slotted pages. The
loader also samples the data for optimizer statistics (ANALYZE),
mirroring the paper's loaded comparators which always query with
statistics in place.
"""

from __future__ import annotations

import numpy as np

from repro.core.statistics import BottomKSampler
from repro.formats.csvfmt import CsvDialect, read_records
from repro.simcost.model import CostModel
from repro.sql.catalog import Schema
from repro.sql.stats import ColumnStats, TableStats
from repro.storage.heap import HeapWriter
from repro.storage.record import RecordCodec
from repro.storage.toast import ToastWriter, toast_values
from repro.storage.vfs import VirtualFS

_SAMPLE_TARGET = 1000
#: rows whose values are handed to the samplers at once
_SAMPLE_CHUNK = 4096


class BulkLoader:
    """Loads one CSV file into a heap file on the same VFS."""

    def __init__(self, vfs: VirtualFS, model: CostModel,
                 dialect: CsvDialect | None = None):
        self.vfs = vfs
        self.model = model
        self.dialect = dialect if dialect is not None else CsvDialect()

    def load(self, csv_path: str, heap_path: str, schema: Schema,
             ) -> tuple[int, TableStats]:
        """Run the load — :func:`load_rows` over the file's records
        (:func:`~repro.formats.csvfmt.read_records`, streamed) — and
        return ``(row_count, stats)``. A load runs under ``on_error
        'fail'``, as PostgresRaw and the straw-man read a line under
        it: a short or blank line or a value its column cannot parse
        raises :class:`CSVFormatError` (``column`` and ``row_number`` in
        its ``context``); a wider line loads its declared prefix."""
        records = read_records(self.vfs.open(csv_path, self.model), schema,
                               self.model, self.dialect)
        return load_rows(self.vfs, self.model, heap_path, schema,
                         (values for _, _, values in records))


def load_rows(vfs: VirtualFS, model: CostModel, heap_path: str,
              schema: Schema, rows) -> tuple[int, TableStats]:
    """Materialize tuples into a heap file; returns ``(row_count,
    stats)``. Each value is charged for statistics as it is pulled from
    its row, then the tuple is serialized, its largest string values
    moved to ``<heap_path>.toast`` past the TOAST threshold (see
    storage.toast), and appended. A row may be lazy — a CSV record
    whose values convert as they are pulled (:class:`BulkLoader`) — or
    computed, as CTAS and rollup builds hand over a query's tuples.
    The values reach the columns' samplers (the scans' §4.4 sample,
    keyed by row number) a chunk of rows at a time."""
    codec = RecordCodec(schema)
    families = [t.family for t in schema.types]
    arity = schema.arity
    samplers = [BottomKSampler(_SAMPLE_TARGET, attr)
                for attr in range(arity)]
    pending: list[list] = [[] for _ in range(arity)]

    def sample(first_row: int) -> None:
        for sampler, values in zip(samplers, pending):
            sampler.add_many(values, np.arange(first_row,
                                               first_row + len(values)))
            values.clear()

    if vfs.exists(heap_path):
        vfs.delete(heap_path)
    toast_path = heap_path + ".toast"
    if vfs.exists(toast_path):
        vfs.delete(toast_path)
    toast_writer = ToastWriter(vfs, toast_path, model)
    count = 0
    with HeapWriter(vfs, heap_path, model) as writer:
        for row in rows:
            values = []
            for column, value in zip(pending, row):
                column.append(value)
                model.stats_sample(1)
                values.append(value)
            model.serialize(arity)
            values = toast_values(values, families, toast_writer,
                                  codec.encoded_width)
            writer.append(codec.encode(values))
            count += 1
            if count % _SAMPLE_CHUNK == 0:
                sample(count - _SAMPLE_CHUNK)
    sample(count - count % _SAMPLE_CHUNK)
    stats = TableStats(row_count=count)
    for attr, sampler in enumerate(samplers):
        if sampler.seen == 0:
            continue
        column = ColumnStats(name=schema.columns[attr].name)
        column.merge_sample(sampler.sample, count, sampler.null_count,
                            sampler.seen)
        stats.set_column(column)
    return count, stats
