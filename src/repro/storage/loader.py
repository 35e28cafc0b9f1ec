"""Bulk loader: raw CSV -> binary heap pages + statistics.

This is the cost a conventional DBMS pays up front and NoDB eliminates:
one full pass that tokenizes every character, converts every value,
serializes binary tuples, and writes them out as slotted pages. The
loader also samples the data for optimizer statistics (ANALYZE),
mirroring the paper's loaded comparators which always query with
statistics in place.
"""

from __future__ import annotations

from repro.core.statistics import ReservoirSampler
from repro.formats.csvfmt import CsvDialect, read_records
from repro.simcost.model import CostModel
from repro.sql.catalog import Schema
from repro.sql.stats import ColumnStats, TableStats
from repro.storage.heap import HeapWriter
from repro.storage.record import RecordCodec
from repro.storage.toast import ToastWriter, toast_values
from repro.storage.vfs import VirtualFS

_SAMPLE_TARGET = 1000


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
    stats)``. Each value is sampled for statistics as it is pulled from
    its row, then the tuple is serialized, its largest string values
    moved to ``<heap_path>.toast`` past the TOAST threshold (see
    storage.toast), and appended. A row may be lazy — a CSV record
    whose values convert as they are pulled (:class:`BulkLoader`) — or
    computed, as CTAS and rollup builds hand over a query's tuples."""
    codec = RecordCodec(schema)
    families = [t.family for t in schema.types]
    arity = schema.arity
    samplers = [ReservoirSampler(_SAMPLE_TARGET, seed=i)
                for i in range(arity)]
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
            for sampler, value in zip(samplers, row):
                sampler.add(value)
                model.stats_sample(1)
                values.append(value)
            model.serialize(arity)
            values = toast_values(values, families, toast_writer,
                                  codec.encoded_width)
            writer.append(codec.encode(values))
            count += 1
    stats = TableStats(row_count=count)
    for attr, sampler in enumerate(samplers):
        if sampler.seen == 0:
            continue
        column = ColumnStats(name=schema.columns[attr].name)
        column.merge_sample(sampler.sample, count, sampler.null_count,
                            sampler.seen)
        stats.set_column(column)
    return count, stats
