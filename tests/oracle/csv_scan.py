"""The row-at-a-time CSV scan: the reference the block scan must equal.

:class:`OracleCsvAccess` is a :class:`~repro.core.scan.RawCsvAccess`
that serves ``scan()`` one tuple at a time through :class:`_RowContext`:
the reference engine's plan leaf (``ScanOp.rows``) pulls it, under
operators running their row forms.
It runs the same §4.1–§4.4 mechanisms the block scan runs — selective
tokenizing and parsing, the positional map with incremental forward /
backward tokenization from the nearest known attribute, the binary
cache, §4.4 sampling — on the same shell (refresh, prologue/epilogue,
quarantine, ``tolerant_row``), so the differential suites can demand
identical results, positional-map and cache contents, statistics and
(cold) counters from the product's :class:`~repro.core.scan_batch.
BatchCsvScan`.

Two regions, as in the block scan: the *indexed region* (rows whose
line spans the map already knows — processed block-wise, reading only
byte runs that are actually needed) and the *streaming region*
(never-seen tail — read sequentially, discovering line starts).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.positional_map import NO_POS
from repro.core.scan import RawCsvAccess
from repro.errors import CSVFormatError, ExecutionError, annotate
from repro.formats.csvfmt import convert_field, span_backward, span_forward
from repro.sql.batch import rows_to_batches
from repro.sql.scanapi import ScanPredicate


class _RowContext:
    """Lazy per-row attribute extraction with span/value memoization."""

    __slots__ = ("scan", "line", "line_start", "known_starts", "line_len",
                 "values", "spans", "from_cache")

    def __init__(self, scan: "OracleCsvAccess", line: bytes,
                 line_start: int, known_starts: dict[int, int]):
        self.scan = scan
        self.line = line
        self.line_start = line_start
        self.known_starts = known_starts  # attr -> relative start offset
        self.line_len = len(line)
        self.values: dict[int, object] = {}
        self.spans: dict[int, tuple[int, int]] = {}
        self.from_cache: set[int] = set()

    def value(self, attr: int):
        if attr in self.values:
            return self.values[attr]
        span = self.span(attr)
        text = self.line[span[0]:span[1]].decode("utf-8", "replace")
        column = self.scan.schema.columns[attr]
        value = convert_field(self.scan.model, text, column.dtype,
                              column.name)
        self.values[attr] = value
        return value

    def span(self, attr: int) -> tuple[int, int]:
        span = self.spans.get(attr)
        if span is not None:
            return span
        self._locate(attr)
        return self.spans[attr]

    def _locate(self, attr: int) -> None:
        """Find attr's span via the nearest known start (both directions),
        recording every span discovered on the way (§4.2 incremental
        parsing)."""
        scan = self.scan
        known = self.known_starts
        nattrs = scan.schema.arity
        # End boundary: next attr's known start, or end of line for last.
        if attr in known:
            start = known[attr]
            if attr + 1 in known:
                self._record(attr, (start, known[attr + 1] - 1))
                return
            if attr == nattrs - 1:
                # Free: the line's end, or the next delimiter of a line
                # wider than the schema.
                end = self.line.find(scan.dialect.delimiter, start)
                self._record(attr, (start, self.line_len if end < 0
                                    else end))
                return
            spans, scanned = span_forward(self.line, start, 1,
                                          scan.dialect)
            scan.model.tokenize(scanned)
            self._record(attr, spans[0])
            self._record(attr + 1, spans[1])
            return
        lo = max((a for a in known if a < attr), default=None)
        hi = min((a for a in known if a > attr), default=None)
        go_backward = (hi is not None
                       and (lo is None or (hi - attr) < (attr - lo)))
        if go_backward:
            spans, scanned = span_backward(self.line, known[hi], hi - attr,
                                           scan.dialect)
            scan.model.tokenize(scanned)
            for i, span in enumerate(spans):  # attrs attr..hi-1
                self._record(attr + i, span)
            return
        base = lo if lo is not None else 0
        base_start = known.get(base, 0)
        spans, scanned = span_forward(self.line, base_start, attr - base,
                                      scan.dialect)
        scan.model.tokenize(scanned)
        for i, span in enumerate(spans):  # attrs base..attr
            self._record(base + i, span)
        end = spans[-1][1]
        if end < self.line_len and attr + 1 < nattrs:
            # The delimiter we stopped at is attr+1's start: free info.
            self._record_start(attr + 1, end + 1)

    def _record(self, attr: int, span: tuple[int, int]) -> None:
        self.spans[attr] = span
        self.known_starts[attr] = span[0]

    def _record_start(self, attr: int, start: int) -> None:
        self.known_starts.setdefault(attr, start)


class OracleCsvAccess(RawCsvAccess):
    """A raw CSV table scanned row at a time. ``scan_class = None``
    leaves EXPLAIN without a ``kernel:`` row (there is no block to
    serve)."""

    scan_class = None

    def scan(self, needed: Sequence[int],
             predicate: ScanPredicate | None) -> Iterator[tuple]:
        return self._run_scan(needed, predicate, self._scan_rows_scalar)

    def scan_batches(self, needed: Sequence[int],
                     predicate: ScanPredicate | None):
        """The row scan gathered into blocks, for a plan run outside
        ``OracleRaw``'s row root (a rollup build) — never the block
        scan."""
        return rows_to_batches(self.scan(needed, predicate), len(needed))

    def _scan_rows_scalar(self, handle, out_attrs, where_attrs,
                          union_attrs, predicate, collector):
        # The indexed/streaming split is frozen once per scan: another
        # cursor's concurrent scan may grow the positional map while
        # this generator is live, and re-reading the span mid-scan
        # would skip the rows the other scan just indexed.
        spanned = self._rows_with_known_span()
        yield from self._scan_indexed_region(
            handle, spanned, out_attrs, where_attrs, union_attrs,
            predicate, collector)
        yield from self._scan_streaming_region(
            handle, spanned, out_attrs, where_attrs, union_attrs,
            predicate, collector)

    # ------------------------------------------------------------------
    # Indexed region: line spans known — block-wise processing
    # ------------------------------------------------------------------
    def _scan_indexed_region(self, handle, spanned, out_attrs,
                             where_attrs, union_attrs, predicate,
                             collector):
        if spanned == 0:
            return
        block_size = self.config.row_block_size
        row = 0
        while row < spanned:
            block = row // block_size
            block_end = min((block + 1) * block_size, spanned)
            yield from self._process_block(
                handle, block, range(row, block_end), out_attrs,
                where_attrs, union_attrs, predicate, collector)
            row = block_end

    def _process_block(self, handle, block, rows, out_attrs, where_attrs,
                       union_attrs, predicate, collector):
        model = self.model
        pm = self.pm
        nrows = len(rows)
        row0 = rows.start
        attr_index_on = self.config.enable_positional_map

        # -- prefetch: cache blocks and positional columns (temporary map)
        cached = {}
        if self.cache is not None:
            for attr in union_attrs:
                cached[attr] = self.cache.get(attr, block)
        positions = {}
        if attr_index_on:
            prefetch_attrs = set(union_attrs)
            for attr in union_attrs:
                prefetch_attrs.add(attr + 1)
                lo, hi = pm.nearest_indexed(block, attr)
                if lo is not None:
                    prefetch_attrs.add(lo)
                if hi is not None:
                    prefetch_attrs.add(hi)
            for attr in sorted(prefetch_attrs):
                if 0 <= attr < self.schema.arity:
                    column = pm.positions(block, attr)
                    if column is not None:
                        positions[attr] = column

        line_spans = [pm.line_span(r) for r in rows]
        if any(span is None for span in line_spans):
            # DROP TABLE / map teardown under a live scan: fail cleanly.
            raise ExecutionError(
                f"line spans for block {block} vanished from the "
                "positional map mid-scan (table dropped or map torn "
                "down under a live query); re-run the query")

        def cached_value(attr, idx):
            cache_block = cached.get(attr)
            if cache_block is None:
                return False, None
            present, value = cache_block.get(idx)
            if present:
                model.cache_read(1)
            return present, value

        def row_fully_cached(idx, attrs):
            for attr in attrs:
                cache_block = cached.get(attr)
                if cache_block is None or not (
                        idx < len(cache_block.mask) and cache_block.mask[idx]):
                    return False
            return True

        # -- phase W: decide which rows need file bytes for the WHERE
        need_file = np.zeros(nrows, dtype=bool)
        for idx in range(nrows):
            if not row_fully_cached(idx, where_attrs):
                need_file[idx] = True

        line_bytes: dict[int, bytes] = {}
        self._read_runs(handle, rows, line_spans, need_file, line_bytes)

        # accumulators for end-of-block PM/cache/stat updates
        new_positions = ({attr: np.full(nrows, NO_POS, dtype=np.int32)
                          for attr in union_attrs} if attr_index_on else None)
        eager_positions: dict[int, np.ndarray] = {}
        cache_entries: dict[int, list] = {attr: [] for attr in union_attrs}

        contexts: dict[int, _RowContext] = {}
        qualifying: list[int] = []
        #: idx -> ready output values for rows salvaged by the tolerant
        #: path (on_error 'null'); they bypass phase S entirely.
        tolerant_out: dict[int, list] = {}

        for idx in range(nrows):
            model.tuple_overhead(1)
            row_values: dict[int, object] = {}
            context = None
            if need_file[idx]:
                context = self._make_context(block, idx, rows, line_spans,
                                             line_bytes, positions)
                contexts[idx] = context
            if predicate is not None:
                try:
                    passed = self._eval_where(
                        predicate, where_attrs, idx, context, cached_value,
                        row_values, cache_entries)
                except CSVFormatError as exc:
                    if self.on_error == "fail":
                        raise annotate(exc, row_number=row0 + idx)
                    line = context.line
                    self._scrub_row(idx, contexts, cache_entries)
                    if self.on_error == "skip":
                        self._quarantine_row(row0 + idx, line, str(exc))
                        model.rows_rejected(1)
                        continue
                    qual, out_values, _ = self.tolerant_row(
                        model, line, out_attrs, where_attrs, predicate)
                    if qual:
                        tolerant_out[idx] = out_values
                        qualifying.append(idx)
                    continue
                if passed is not True:
                    if collector is not None:
                        collector.add_row(row_values, row0 + idx)
                    continue
            qualifying.append(idx)
            if collector is not None and not out_attrs:
                collector.add_row(row_values, row0 + idx)

        # -- phase S: fetch bytes for qualifying rows missing SELECT attrs
        need_file_select = np.zeros(nrows, dtype=bool)
        for idx in qualifying:
            if (idx not in tolerant_out and idx not in contexts
                    and not row_fully_cached(idx, out_attrs)):
                need_file_select[idx] = True
        if need_file_select.any():
            self._read_runs(handle, rows, line_spans, need_file_select,
                            line_bytes)

        for idx in qualifying:
            ready = tolerant_out.get(idx)
            if ready is not None:
                yield tuple(ready)
                continue
            context = contexts.get(idx)
            if context is None and need_file_select[idx]:
                context = self._make_context(block, idx, rows, line_spans,
                                             line_bytes, positions)
                contexts[idx] = context
            out_values = []
            row_values: dict[int, object] = dict(
                context.values if context else {})
            try:
                for attr in out_attrs:
                    present, value = cached_value(attr, idx)
                    if present:
                        out_values.append(value)
                        row_values[attr] = value
                        continue
                    value = context.value(attr)
                    out_values.append(value)
                    row_values[attr] = value
                    cache_entries[attr].append((idx, value))
            except CSVFormatError as exc:
                if self.on_error == "fail":
                    raise annotate(exc, row_number=row0 + idx)
                line = context.line
                self._scrub_row(idx, contexts, cache_entries)
                if self.on_error == "skip":
                    self._quarantine_row(row0 + idx, line, str(exc))
                    model.rows_rejected(1)
                    continue
                qual, out_values, _ = self.tolerant_row(
                    model, line, out_attrs, where_attrs, predicate)
                if qual:
                    yield tuple(out_values)
                continue
            model.tuple_form(len(out_attrs))
            if collector is not None:
                if out_attrs:
                    collector.add_row(row_values, row0 + idx)
                else:   # fed by loop 1: charged again, not fed
                    collector.recharge(sum(attr in row_values
                                           for attr in collector.attrs))
            yield tuple(out_values)

        # -- flush PM / cache accumulators
        if attr_index_on:
            self._flush_positions(block, nrows, contexts, union_attrs,
                                  positions, new_positions)
        if self.cache is not None:
            for attr, entries in cache_entries.items():
                if entries:
                    self.cache.put(attr, block, nrows, entries,
                                   self._families[attr])

    def _eval_where(self, predicate, where_attrs, idx, context,
                    cached_value, row_values, cache_entries):
        values: dict[int, object] = {}
        for attr in where_attrs:
            present, value = cached_value(attr, idx)
            if present:
                values[attr] = value
            else:
                value = context.value(attr)
                values[attr] = value
                cache_entries[attr].append((idx, value))
            row_values[attr] = value
        self.model.predicate(predicate.n_terms)
        return predicate.fn(values)

    def _scrub_row(self, idx, contexts, cache_entries) -> None:
        """Withdraw a failed row from the block's staged auxiliary
        updates: its cache entries are dropped and its context removed
        so no positions parsed out of a malformed line reach the
        positional map (degradation, never corruption)."""
        contexts.pop(idx, None)
        for entries in cache_entries.values():
            if any(entry[0] == idx for entry in entries):
                entries[:] = [e for e in entries if e[0] != idx]

    def _make_context(self, block, idx, rows, line_spans, line_bytes,
                      positions) -> _RowContext:
        start, end = line_spans[idx]
        line = line_bytes[idx]
        known_starts = {0: 0}
        for attr, column in positions.items():
            if idx < len(column):
                rel = int(column[idx])
                if rel != NO_POS:
                    known_starts[attr] = rel
        return _RowContext(self, line, start, known_starts)

    def _read_runs(self, handle, rows, line_spans, mask, line_bytes):
        """Read the byte span covering every row flagged in ``mask``
        (one sequential read per block — the scan streams through small
        gaps rather than seeking per tuple) and slice out line bytes."""
        nrows = len(rows)
        needed = [idx for idx in range(nrows)
                  if mask[idx] and idx not in line_bytes]
        if not needed:
            return
        first, last = needed[0], needed[-1]
        byte_start = line_spans[first][0]
        byte_end = line_spans[last][1]
        blob = handle.read_at(byte_start, byte_end - byte_start)
        for j in needed:
            s, e = line_spans[j]
            line_bytes[j] = blob[s - byte_start:e - byte_start]

    def _flush_positions(self, block, nrows, contexts, union_attrs,
                         existing, new_positions):
        """Insert positions discovered this query as one chunk whose
        vertical group is the query's attribute combination (§4.2
        Adaptive Behavior)."""
        discovered: dict[int, np.ndarray] = {}
        for idx, context in contexts.items():
            attrs = (context.known_starts
                     if self.config.eager_prefix_indexing
                     else {a: s for a, s in context.known_starts.items()
                           if a in new_positions})
            for attr, start in attrs.items():
                if attr == 0 or attr >= self.schema.arity:
                    continue  # attr 0 is implicit (line start)
                column = discovered.get(attr)
                if column is None:
                    column = np.full(nrows, NO_POS, dtype=np.int32)
                    discovered[attr] = column
                column[idx] = start
        group = []
        for attr in sorted(discovered):
            already = existing.get(attr)
            column = discovered[attr]
            if already is not None:
                # An append can grow the block's row count past what the
                # map indexed before it; pad the prior column so the
                # merge lines up (new tail rows have no prior position).
                prior = already[:nrows]
                if len(prior) < nrows:
                    prior = np.concatenate(
                        [prior, np.full(nrows - len(prior), NO_POS,
                                        dtype=np.int32)])
                merged = np.where(column == NO_POS, prior, column)
                new_known = int((merged != NO_POS).sum())
                old_known = int((prior != NO_POS).sum())
                if new_known <= old_known:
                    continue  # nothing new for this attribute
                discovered[attr] = merged
            group.append(attr)
        if not group:
            return
        matrix = np.column_stack([discovered[attr] for attr in group])
        self.pm.insert_chunk(tuple(group), block, matrix)

    # ------------------------------------------------------------------
    # Streaming region: unseen tail — sequential read, discover lines
    # ------------------------------------------------------------------
    def _scan_streaming_region(self, handle, spanned, out_attrs,
                               where_attrs, union_attrs, predicate,
                               collector):
        if self.row_count is not None and spanned >= self.row_count:
            return  # whole file already indexed
        model = self.model
        pm = self.pm
        track = pm is not None
        file_size = handle.size

        # Resume where the indexed region ends; if the map was dropped
        # (or never existed) the streaming region is the whole file.
        if track and pm.known_line_count > spanned:
            start_offset = pm.line_start(spanned)
        elif track and spanned > 0:
            start_offset = file_size  # complete index: tail is empty
        else:
            start_offset = 0
            spanned = 0
        if start_offset >= file_size:
            if track:
                pm.set_file_length(file_size)
            self.row_count = spanned
            self._finish_file(spanned)
            return

        block_size = self.config.row_block_size
        max_attr = union_attrs[-1] if union_attrs else 0
        cache_entries: dict[int, list] = {attr: [] for attr in union_attrs}
        block_positions: dict[int, dict[int, int]] = {}
        current_block = spanned // block_size if spanned else 0

        row = spanned
        buffer = b""
        buffer_start = start_offset
        handle.seek(start_offset)
        read_size = 256 * 1024

        def flush_block(block_id: int, rows_in_block: int) -> None:
            if self.config.enable_positional_map and block_positions:
                self._flush_stream_positions(block_id, rows_in_block,
                                             block_positions)
            if self.cache is not None:
                for attr, entries in cache_entries.items():
                    if entries:
                        self.cache.put(attr, block_id, rows_in_block,
                                       entries, self._families[attr])
            block_positions.clear()
            for entries in cache_entries.values():
                entries.clear()

        while True:
            chunk = handle.read_sequential(read_size)
            if not chunk:
                break
            model.newline_scan(len(chunk))
            buffer += chunk
            cursor = 0
            while True:
                nl = buffer.find(b"\n", cursor)
                if nl < 0:
                    break
                line = buffer[cursor:nl]
                line_start = buffer_start + cursor
                block = row // block_size
                if block != current_block:
                    flush_block(current_block,
                                self._rows_in_block(current_block, row))
                    current_block = block
                if track:
                    if row >= pm.known_line_count:
                        pm.append_line_start(line_start)
                result = self._process_streamed_row(
                    row, block, line, out_attrs, where_attrs, predicate,
                    collector, cache_entries, block_positions, max_attr)
                if result is not None:
                    yield result
                row += 1
                cursor = nl + 1
            buffer = buffer[cursor:]
            buffer_start += cursor
        unterminated = bool(buffer)
        if buffer:  # unterminated last line
            if track and row >= pm.known_line_count:
                pm.append_line_start(buffer_start)
            block = row // block_size
            if block != current_block:
                flush_block(current_block,
                            self._rows_in_block(current_block, row))
                current_block = block
            result = self._process_streamed_row(
                row, block, buffer, out_attrs, where_attrs, predicate,
                collector, cache_entries, block_positions, max_attr)
            if result is not None:
                yield result
            row += 1
        flush_block(current_block, self._rows_in_block(current_block, row))
        if track:
            pm.set_file_length(file_size,
                               newline_terminated=not unterminated)
        self.row_count = row
        self._finish_file(row)

    def _rows_in_block(self, block: int, next_row: int) -> int:
        first = block * self.config.row_block_size
        return min(next_row - first, self.config.row_block_size)

    def _process_streamed_row(self, row, block, line, out_attrs,
                              where_attrs, predicate, collector,
                              cache_entries, block_positions, max_attr):
        try:
            return self._process_streamed_row_strict(
                row, block, line, out_attrs, where_attrs, predicate,
                collector, cache_entries, block_positions, max_attr)
        except CSVFormatError as exc:
            if self.on_error == "fail":
                raise annotate(exc, row_number=row)
            # Withdraw the row's staged cache entries (positions are
            # only recorded on success, so there is nothing to undo
            # there); the tolerant redo feeds neither stats nor the
            # auxiliary structures.
            row_in_block = row - block * self.config.row_block_size
            for entries in cache_entries.values():
                if any(entry[0] == row_in_block for entry in entries):
                    entries[:] = [e for e in entries
                                  if e[0] != row_in_block]
            if self.on_error == "skip":
                self._quarantine_row(row, line, str(exc))
                self.model.rows_rejected(1)
                return None
            qual, out_values, _ = self.tolerant_row(
                self.model, line, out_attrs, where_attrs, predicate)
            return tuple(out_values) if qual else None

    def _process_streamed_row_strict(self, row, block, line, out_attrs,
                                     where_attrs, predicate, collector,
                                     cache_entries, block_positions,
                                     max_attr):
        model = self.model
        model.tuple_overhead(1)
        context = _RowContext(self, line, 0, {0: 0})
        row_in_block = row - block * self.config.row_block_size
        row_values: dict[int, object] = {}

        passed = True
        if predicate is not None:
            values = {}
            for attr in where_attrs:
                value = context.value(attr)
                values[attr] = value
                row_values[attr] = value
                cache_entries[attr].append((row_in_block, value))
            model.predicate(predicate.n_terms)
            passed = predicate.fn(values) is True

        result = None
        if passed:
            out_values = []
            for attr in out_attrs:
                value = context.value(attr)
                out_values.append(value)
                if attr not in row_values:
                    row_values[attr] = value
                    cache_entries[attr].append((row_in_block, value))
            model.tuple_form(len(out_attrs))
            result = tuple(out_values)
        if collector is not None:
            collector.add_row(row_values, row)
        if self.config.enable_positional_map:
            starts = (context.known_starts
                      if self.config.eager_prefix_indexing
                      else {a: s for a, s in context.known_starts.items()
                            if a in cache_entries})
            stored = {a: s for a, s in starts.items()
                      if 0 < a < self.schema.arity}
            if stored:
                block_positions[row_in_block] = stored
        return result

    def _flush_stream_positions(self, block, rows_in_block,
                                block_positions) -> None:
        attrs = sorted({a for starts in block_positions.values()
                        for a in starts})
        if not attrs:
            return
        matrix = np.full((rows_in_block, len(attrs)), NO_POS,
                         dtype=np.int32)
        for row_in_block, starts in block_positions.items():
            for col, attr in enumerate(attrs):
                if attr in starts:
                    matrix[row_in_block, col] = starts[attr]
        # Merge with whatever the map already knows for this block (a
        # previous partial scan may have indexed its head rows).
        for col, attr in enumerate(attrs):
            existing = self.pm.positions(block, attr)
            if existing is None:
                continue
            overlap = min(len(existing), rows_in_block)
            column = matrix[:overlap, col]
            merge_from = existing[:overlap]
            unknown = column == NO_POS
            column[unknown] = merge_from[unknown]
        self.pm.insert_chunk(tuple(attrs), block, matrix)
