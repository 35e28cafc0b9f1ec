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
from repro.errors import CSVFormatError, annotate
from repro.formats.csvfmt import (
    CsvDialect,
    LineReader,
    convert_field,
    split_line,
)
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
        """Run the load; returns ``(row_count, stats)``.

        Tuples wider than the TOAST threshold get their largest string
        values moved to ``<heap_path>.toast`` (see storage.toast).

        Raises :class:`CSVFormatError` on arity mismatches and on a
        value its column's type cannot parse (``context`` names the
        ``column`` and ``row_number``) — a loader must reject malformed
        input (unlike the straw-man external scan, which skips short
        lines).
        """
        model = self.model
        codec = RecordCodec(schema)
        dtypes = schema.types
        families = [t.family for t in dtypes]
        names = schema.names
        arity = schema.arity
        samplers = [ReservoirSampler(_SAMPLE_TARGET, seed=i)
                    for i in range(arity)]
        if self.vfs.exists(heap_path):
            self.vfs.delete(heap_path)
        toast_path = heap_path + ".toast"
        if self.vfs.exists(toast_path):
            self.vfs.delete(toast_path)
        toast_writer = ToastWriter(self.vfs, toast_path, model)
        handle = self.vfs.open(csv_path, model)
        reader = LineReader(handle)
        rows = 0
        scanned_before = 0
        with HeapWriter(self.vfs, heap_path, model) as writer:
            for _offset, line in reader:
                model.newline_scan(reader.chars_scanned - scanned_before)
                scanned_before = reader.chars_scanned
                spans, scanned = split_line(line, self.dialect)
                model.tokenize(scanned)
                if len(spans) != arity:
                    raise CSVFormatError(
                        f"row {rows} has {len(spans)} attributes, "
                        f"schema has {arity}", row_number=rows)
                values = []
                for attr, (start, end) in enumerate(spans):
                    text = line[start:end].decode("utf-8", "replace")
                    model.convert(families[attr], 1)
                    try:
                        value = convert_field(text, dtypes[attr],
                                              names[attr])
                    except CSVFormatError as exc:
                        raise annotate(exc, row_number=rows)
                    values.append(value)
                    samplers[attr].add(value)
                    model.stats_sample(1)
                model.serialize(arity)
                values = toast_values(values, families, toast_writer,
                                      codec.encoded_width)
                writer.append(codec.encode(values))
                rows += 1
        stats = TableStats(row_count=rows)
        for attr, sampler in enumerate(samplers):
            if sampler.seen == 0:
                continue
            column = ColumnStats(name=schema.columns[attr].name)
            column.merge_sample(sampler.sample, rows, sampler.null_count,
                                sampler.seen)
            stats.set_column(column)
        return rows, stats


def load_rows(vfs: VirtualFS, model: CostModel, heap_path: str,
              schema: Schema, rows) -> tuple[int, TableStats]:
    """Materialize already-computed tuples into a heap file.

    The serialize-and-sample half of :class:`BulkLoader` without the
    parse half: CTAS and rollup builds land here with tuples produced
    by a query whose scan already paid the tokenize/convert cost, so
    only serialization and statistics sampling are charged.

    Returns ``(row_count, stats)`` like :meth:`BulkLoader.load`.
    """
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
        for values in rows:
            values = list(values)
            if len(values) != arity:
                raise CSVFormatError(
                    f"row {count} has {len(values)} attributes, "
                    f"schema has {arity}", row_number=count)
            for attr, value in enumerate(values):
                samplers[attr].add(value)
                model.stats_sample(1)
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
