"""JSON Lines: an in-situ raw adapter built purely on the public seams.

This module is the registry's openness proof: a complete raw format —
adaptive positional map, binary cache, on-the-fly statistics, columnar
batch delivery — integrated through :func:`repro.formats.registry.
register_format` and the duck-typed
:class:`~repro.sql.scanapi.AccessMethod` protocol alone. It imports
nothing from the planner or the catalog and edits neither; a
third-party package could ship this file verbatim.

Data model: one JSON object per line (``{"a": 1, "b": "x"}``); values
are reached by the declared column name (case-insensitive), missing
members and JSON ``null`` are SQL NULL, member order may vary per line.
Only top-level scalar members are addressable as columns (nested
arrays/objects are tokenized correctly but must be declared as strings
to be selected raw).

Positional-map reuse, NoDB-style (§4.2): the map's **line index**
stores byte offsets of line starts — warm scans skip newline discovery
entirely and read only the byte runs they need — and its **chunks**
store relative byte offsets of member *values*. A warm scan with a
known value position tokenizes just that value's bytes (string-aware,
bracket-depth scanning) instead of the whole line; positions are
discovered as a side effect of the first full tokenization of each
line, exactly the adaptive behavior of the CSV scan. The binary cache
and statistics reservoirs participate identically.
"""

from __future__ import annotations

import json
from typing import Iterator, Sequence

import numpy as np

import copy
from collections import deque
from concurrent.futures import CancelledError

from repro.core.scan_batch import KERNEL_BAILOUT
from repro.errors import (
    CatalogError,
    ExecutionError,
    FormatError,
    JSONLFormatError,
    StorageError,
    annotate,
)
from repro.simcost.model import RecordingModel
from repro.formats.csvfmt import newline_offsets
from repro.formats.registry import (
    FormatAdapter,
    register_format,
    validate_on_error,
)
from repro.sql.scanapi import ScanPredicate
from repro.sql.stats import TableStats

_NO_POS = -1  # sentinel inside PM chunks: position unknown for this row

_WS = frozenset(b" \t\r")
_QUOTE = ord('"')
_BACKSLASH = ord("\\")
_OPEN = {ord("["): ord("]"), ord("{"): ord("}")}
_BARE_END = frozenset(b",}] \t\r")


# ---------------------------------------------------------------------------
# Tokenization: string/escape/bracket-aware, byte-precise, costed by
# the caller via the returned scan lengths.
# ---------------------------------------------------------------------------
def _skip_ws(line: bytes, i: int) -> int:
    n = len(line)
    while i < n and line[i] in _WS:
        i += 1
    return i


def _string_end(line: bytes, i: int) -> int:
    """Offset just past the string starting at ``i`` (a ``"``)."""
    n = len(line)
    j = i + 1
    while j < n:
        b = line[j]
        if b == _BACKSLASH:
            j += 2
            continue
        if b == _QUOTE:
            return j + 1
        j += 1
    raise JSONLFormatError(f"unterminated string at byte {i}")


def value_end(line: bytes, i: int) -> int:
    """Offset just past the JSON value starting at ``i`` — the warm
    path's single-value scan (the only bytes a known position makes the
    scan touch)."""
    n = len(line)
    if i >= n:
        raise JSONLFormatError(f"expected a value at byte {i}")
    b = line[i]
    if b == _QUOTE:
        return _string_end(line, i)
    if b in _OPEN:
        depth = 0
        j = i
        while j < n:
            c = line[j]
            if c == _QUOTE:
                j = _string_end(line, j)
                continue
            if c in _OPEN:
                depth += 1
            elif c in (ord("]"), ord("}")):
                depth -= 1
                if depth == 0:
                    return j + 1
            j += 1
        raise JSONLFormatError(f"unterminated container at byte {i}")
    j = i
    while j < n and line[j] not in _BARE_END:
        j += 1
    if j == i:
        raise JSONLFormatError(f"expected a value at byte {i}")
    return j


def member_spans(line: bytes) -> tuple[dict[str, tuple[int, int]], int]:
    """Spans ``(start, end)`` of every top-level member *value*, keyed
    by lower-cased member name; plus characters scanned (the whole
    line — the cold path's full tokenization)."""
    spans: dict[str, tuple[int, int]] = {}
    n = len(line)
    i = _skip_ws(line, 0)
    if i >= n or line[i] != ord("{"):
        raise JSONLFormatError("line is not a JSON object")
    i = _skip_ws(line, i + 1)
    if i < n and line[i] == ord("}"):
        return spans, n
    while True:
        if i >= n or line[i] != _QUOTE:
            raise JSONLFormatError(f"expected a member name at byte {i}")
        key_end = _string_end(line, i)
        try:
            key = json.loads(line[i:key_end].decode("utf-8", "replace"))
        except ValueError as exc:
            raise JSONLFormatError(
                f"bad member name at byte {i}: {exc}") from exc
        i = _skip_ws(line, key_end)
        if i >= n or line[i] != ord(":"):
            raise JSONLFormatError(f"expected ':' at byte {i}")
        i = _skip_ws(line, i + 1)
        start = i
        i = value_end(line, i)
        spans[key.lower()] = (start, i)
        i = _skip_ws(line, i)
        if i < n and line[i] == ord(","):
            i = _skip_ws(line, i + 1)
            continue
        if i < n and line[i] == ord("}"):
            return spans, n
        raise JSONLFormatError(f"expected ',' or '}}' at byte {i}")


def write_jsonl(rows: Sequence[dict], vfs, path: str) -> None:
    """Serialize ``rows`` (dicts of JSON-compatible values) as one
    object per line — the generator twin of ``write_csv`` for tests,
    examples and differential harnesses."""
    lines = [json.dumps(row, default=str, separators=(", ", ": "))
             for row in rows]
    payload = ("\n".join(lines) + "\n") if lines else ""
    if vfs.exists(path):
        vfs.write_bytes(path, payload.encode())
    else:
        vfs.create(path, payload.encode())


# ---------------------------------------------------------------------------
# Per-row lazy member location (the JSONL twin of the CSV _RowContext)
# ---------------------------------------------------------------------------
class _RowView:
    """Member spans of one line, located lazily: a known positional-map
    start costs one single-value scan; anything else costs one full
    tokenization of the line (memoized), whose discovered positions are
    flushed back to the map."""

    __slots__ = ("scan", "line", "spans", "known")

    def __init__(self, scan: "JsonlAccess", line: bytes):
        self.scan = scan
        self.line = line
        self.spans: dict[str, tuple[int, int]] | None = None
        self.known: dict[int, tuple[int, int] | None] = {}

    def span(self, attr: int,
             hint_start: int | None) -> tuple[int, int] | None:
        if attr in self.known:
            return self.known[attr]
        if self.spans is None and hint_start is not None \
                and 0 <= hint_start < len(self.line):
            end = value_end(self.line, hint_start)
            self.scan.model.tokenize(end - hint_start)
            span = (hint_start, end)
            self.known[attr] = span
            return span
        if self.spans is None:
            self.spans, scanned = member_spans(self.line)
            self.scan.model.tokenize(scanned)
        span = self.spans.get(self.scan.keys[attr])
        self.known[attr] = span
        return span

    def value(self, attr: int, hint_start: int | None):
        span = self.span(attr, hint_start)
        token = None if span is None else self.line[span[0]:span[1]]
        return self.scan._convert(attr, token)


# ---------------------------------------------------------------------------
# Access method
# ---------------------------------------------------------------------------
class JsonlAccess:
    """In-situ scan over one JSON-Lines table (PM + cache + stats)."""

    def __init__(self, vfs, path: str, schema, model, config, table_info,
                 positional_map, cache, pool=None):
        self.vfs = vfs
        self.path = path
        self.schema = schema
        self.model = model
        self.config = config
        self.table_info = table_info
        self.pm = positional_map
        self.cache = cache
        #: shared ScanWorkerPool (engine-owned) for streaming fan-out
        self.pool = pool
        self.keys = [c.name.lower() for c in schema]
        self._dtypes = schema.types
        self._families = [t.family for t in schema.types]
        self.row_count: int | None = None
        self._seen_size = 0
        self._seen_rewrites: int | None = None
        self.queries_executed = 0
        self.attr_request_counts: dict[int, int] = {}
        #: per-table error policy (OPTIONS (on_error 'fail'|'skip'|'null'))
        self.on_error = (getattr(table_info, "options", None)
                         or {}).get("on_error", "fail")
        self._rejects_path = f"__rejects__/{table_info.name.lower()}"
        self._rejected_rows: set[int] = set()

    #: batch delivery is the only mode (``ScanOp.supports_batches``)
    batch_enabled = True

    # -- §4.5 external updates -----------------------------------------
    def refresh(self) -> None:
        rewrites = self.vfs.rewrite_count(self.path)
        size = self.vfs.size(self.path)
        if self._seen_rewrites is None:
            self._seen_rewrites = rewrites
            self._seen_size = size
            return
        if rewrites != self._seen_rewrites:
            if self.pm is not None:
                self.pm.drop()
            if self.cache is not None:
                self.cache.clear()
            self.row_count = None
            self.table_info.data_version += 1
            self._rejected_rows.clear()
            if self.vfs.exists(self._rejects_path):
                self.vfs.delete(self._rejects_path)
        elif size > self._seen_size:
            if self.pm is not None:
                self.pm.invalidate_file_length()
            self.row_count = None
            self.table_info.data_version += 1
        self._seen_rewrites = rewrites
        self._seen_size = size

    def estimated_rows(self) -> int | None:
        return self.row_count

    # -- scan entry points ---------------------------------------------
    def scan(self, needed: Sequence[int],
             predicate: ScanPredicate | None) -> Iterator[tuple]:
        for batch in self.scan_batches(needed, predicate):
            self.model.materialize_rows(batch.nrows)
            yield from batch.iter_rows()

    def scan_batches(self, needed: Sequence[int],
                     predicate: ScanPredicate | None, kernel=None):
        self.queries_executed += 1
        out_attrs = list(needed)
        where_attrs = list(predicate.attrs) if predicate else []
        union_attrs = sorted(set(out_attrs) | set(where_attrs))
        for attr in union_attrs:
            self.attr_request_counts[attr] = \
                self.attr_request_counts.get(attr, 0) + 1
        collector = self._collector(union_attrs)
        handle = self.vfs.open(self.path, self.model, notify=False)
        # Freeze the indexed/streaming split for the whole scan (a
        # concurrent cursor may grow the map while this generator
        # lives — same contract as the CSV scan).
        spanned = self._rows_with_known_span()
        try:
            yield from self._indexed_region(handle, spanned, out_attrs,
                                            where_attrs, union_attrs,
                                            predicate, collector,
                                            kernel=kernel)
            yield from self._streaming_region(handle, spanned, out_attrs,
                                              where_attrs, union_attrs,
                                              predicate, collector)
        except (FormatError, StorageError) as exc:
            raise annotate(exc, path=self.path,
                           table=self.table_info.name)
        if collector is not None:
            stats = self.table_info.stats or TableStats()
            row_count = (self.row_count if self.row_count is not None
                         else self.table_info.row_count_hint or 0)
            collector.finalize(stats, row_count)
            self.table_info.stats = stats

    def _collector(self, union_attrs):
        if not self.config.enable_statistics:
            return None
        from repro.core.statistics import StatsCollector

        existing = self.table_info.stats
        missing = [
            attr for attr in union_attrs
            if existing is None
            or not existing.has_column(self.schema.columns[attr].name)
        ]
        if not missing:
            return None
        return StatsCollector(self.model, self.schema, missing,
                              self.config.stats_sample_target,
                              seed=self.queries_executed)

    def _rows_with_known_span(self) -> int:
        if self.pm is None:
            return 0
        known = self.pm.known_line_count
        if known == 0:
            return 0
        if self.row_count is not None and known >= self.row_count:
            return self.row_count
        if self.pm.has_file_length:
            return known
        return known - 1

    # -- value conversion ----------------------------------------------
    def _convert(self, attr: int, token: bytes | None, model=None):
        """JSON value token -> binary value, charging the family's
        conversion cost (missing member / ``null`` -> SQL NULL)."""
        (model if model is not None else self.model).convert(
            self._families[attr], 1)
        return self._convert_value(attr, token)

    def _convert_value(self, attr: int, token: bytes | None):
        """The uncosted token -> value logic (the caller has already
        charged the family's conversion units)."""
        family = self._families[attr]
        if token is None or token == b"null":
            return None
        if token[:1] == b'"':
            try:
                text = json.loads(token.decode("utf-8", "replace"))
            except ValueError as exc:
                raise JSONLFormatError(
                    f"bad string value for attribute "
                    f"{self.schema.columns[attr].name}: {exc}") from exc
        else:
            text = token.decode("utf-8", "replace")
        if family == "str":
            return text if isinstance(text, str) else str(text)
        if text == "":
            return None
        try:
            return self._dtypes[attr].parse(str(text))
        except Exception as exc:
            raise annotate(
                JSONLFormatError(
                    f"cannot parse {text!r} as {self._dtypes[attr].name} "
                    f"(attribute {self.schema.columns[attr].name})"),
                column=self.schema.columns[attr].name) from exc

    def _convert_many(self, attr: int,
                      pairs: list) -> list:
        """Convert a batch of ``(row_idx, token)`` pairs, charging one
        aggregate conversion (unit total identical to the per-row
        path). Bare numeric tokens of int/float columns go through the
        same byte-matrix ``astype`` fast path the CSV scan uses
        (``scan_batch._decode_numeric_column``); quoted / null /
        missing tokens — and any batch numpy refuses — fall back to
        the scalar conversion, value-for-value identical."""
        if not pairs:
            return []
        family = self._families[attr]
        self.model.convert(family, len(pairs))
        if family in ("int", "float"):
            fast = self._fast_numeric(attr, pairs, family)
            if fast is not None:
                return fast
        return [(idx, self._convert_value(attr, token))
                for idx, token in pairs]

    def _fast_numeric(self, attr: int, pairs: list, family: str):
        clean: list = []
        dirty: list = []
        for pair in pairs:
            token = pair[1]
            if token is None or token == b"null" or not token \
                    or token[:1] == b'"':
                dirty.append(pair)
            else:
                clean.append(pair)
        if not clean:
            return None
        max_width = max(len(token) for _, token in clean)
        if max_width > 64:
            return None
        matrix = np.zeros((len(clean), max_width), dtype=np.uint8)
        for r, (_idx, token) in enumerate(clean):
            matrix[r, :len(token)] = np.frombuffer(token, dtype=np.uint8)
        fields = np.ascontiguousarray(matrix).view(f"S{max_width}").ravel()
        dtype = np.int64 if family == "int" else np.float64
        try:
            converted = fields.astype(dtype).tolist()
        except (ValueError, OverflowError):
            return None
        values = {idx: value
                  for (idx, _), value in zip(clean, converted)}
        for idx, token in dirty:
            values[idx] = self._convert_value(attr, token)
        return [(idx, values[idx]) for idx, _ in pairs]

    # -- error policies (OPTIONS (on_error ...)) ------------------------
    def tolerant_row(self, model, line: bytes, out_attrs, where_attrs,
                     predicate):
        """Best-effort evaluation of one malformed-or-suspect line under
        a tolerant error policy — the JSONL twin of
        :meth:`~repro.core.scan.RawCsvAccess.tolerant_row`. The line is
        fully tokenized (a structurally broken line yields no spans);
        a missing member is ordinary NULL, but an unparseable *value*
        becomes NULL under ``'null'`` and rejects the row under
        ``'skip'``. Returns ``(qualifies, out_values | None,
        reject_reason | None)``; all charges go to ``model``."""
        policy = self.on_error
        model.tokenize(len(line))
        try:
            spans, _ = member_spans(line)
        except JSONLFormatError as exc:
            if policy == "skip":
                return False, None, str(exc)
            spans = {}
        values: dict[int, object] = {}
        errors: dict[int, str] = {}

        def fetch(attr):
            # -> (ok, value); not ok == row rejected (policy 'skip')
            if attr in values:
                return True, values[attr]
            span = spans.get(self.keys[attr])
            token = None if span is None else line[span[0]:span[1]]
            try:
                value = self._convert(attr, token, model=model)
            except FormatError as exc:
                if policy == "skip":
                    errors[attr] = str(exc)
                    return False, None
                value = None
            values[attr] = value
            return True, value

        if predicate is not None:
            pvalues = {}
            for attr in where_attrs:
                ok, value = fetch(attr)
                if not ok:
                    return False, None, errors[attr]
                pvalues[attr] = value
            model.predicate(predicate.n_terms)
            if predicate.fn(pvalues) is not True:
                return False, None, None
        out_values = []
        for attr in out_attrs:
            ok, value = fetch(attr)
            if not ok:
                return False, None, errors[attr]
            out_values.append(value)
        model.tuple_form(len(out_attrs))
        return True, out_values, None

    def _quarantine_row(self, row_number: int, line: bytes,
                        reason: str) -> None:
        """Record a rejected line in the ``__rejects__/`` sidecar (free
        of virtual time; the caller charges ``rows_rejected``)."""
        if row_number in self._rejected_rows:
            return
        self._rejected_rows.add(row_number)
        note = reason.replace("\t", " ").replace("\n", " ")
        record = b"%d\t%s\t%s\n" % (
            row_number, note.encode("utf-8", "replace"),
            bytes(line).replace(b"\n", b" "))
        if not self.vfs.exists(self._rejects_path):
            self.vfs.create(self._rejects_path)
        self.vfs.append_bytes(self._rejects_path, record)

    # ==================================================================
    # Indexed region: line spans known to the map
    # ==================================================================
    def _indexed_region(self, handle, spanned, out_attrs, where_attrs,
                        union_attrs, predicate, collector, kernel=None):
        if spanned == 0:
            return
        block_size = self.config.row_block_size
        row = 0
        while row < spanned:
            block = row // block_size
            block_end = min((block + 1) * block_size, spanned)
            batch = None
            if kernel is not None and kernel.indexed is not None:
                batch = kernel.indexed(self, handle, block, row,
                                       block_end, predicate, collector)
                if batch is KERNEL_BAILOUT:
                    # Probes were side-effect-free; the generic block
                    # below charges exactly what it always charges.
                    self.model.kernel_bailout()
                    batch = None
            if batch is None:
                batch = self._process_block(
                    handle, block, row, block_end, out_attrs,
                    where_attrs, union_attrs, predicate, collector)
            yield batch
            row = block_end

    def _process_block(self, handle, block, row0, row1, out_attrs,
                       where_attrs, union_attrs, predicate, collector):
        try:
            return self._process_block_strict(
                handle, block, row0, row1, out_attrs, where_attrs,
                union_attrs, predicate, collector)
        except JSONLFormatError:
            if self.on_error == "fail":
                raise
            # Strict attempt flushed nothing (PM/cache writes happen at
            # the end of a clean block) and the indexed region runs on
            # the driver thread only: redo row by row, tolerantly.
            return self._process_block_tolerant(handle, row0, row1,
                                                out_attrs, where_attrs,
                                                predicate)

    def _process_block_tolerant(self, handle, row0, row1, out_attrs,
                                where_attrs, predicate):
        """Row-at-a-time redo of an indexed block under a tolerant
        policy: one read over the block's span, per-row
        :meth:`tolerant_row`, direct quarantine. The block forfeits its
        PM/cache/stats contributions — degradation, never
        corruption."""
        from repro.sql.batch import ColumnBatch

        model = self.model
        spans = self.pm.line_spans_block(row0, row1)
        if spans is None:
            raise ExecutionError(
                f"line spans for rows {row0}..{row1} vanished from the "
                "positional map mid-scan (table dropped or map torn "
                "down under a live query); re-run the query")
        starts, ends = spans
        base = int(starts[0])
        blob = handle.read_at(base, int(ends[-1]) - base)
        rows: list[tuple] = []
        for i in range(row1 - row0):
            line = blob[int(starts[i]) - base:int(ends[i]) - base]
            qual, out_values, reason = self.tolerant_row(
                model, line, out_attrs, where_attrs, predicate)
            if reason is not None:
                self._quarantine_row(row0 + i, line, reason)
                model.rows_rejected(1)
                continue
            if qual:
                rows.append(tuple(out_values))
        return ColumnBatch.from_rows(rows, len(out_attrs))

    def _process_block_strict(self, handle, block, row0, row1, out_attrs,
                              where_attrs, union_attrs, predicate,
                              collector):
        from repro.sql.batch import ColumnBatch

        model = self.model
        n = row1 - row0
        model.tuple_overhead(n)
        spans = self.pm.line_spans_block(row0, row1)
        if spans is None:
            # DROP TABLE / map teardown under a live scan: fail cleanly.
            raise ExecutionError(
                f"line spans for rows {row0}..{row1} vanished from the "
                "positional map mid-scan (table dropped or map torn "
                "down under a live query); re-run the query")
        starts, ends = spans

        cached: dict[int, object] = {}
        cmask: dict[int, np.ndarray] = {}
        for attr in union_attrs:
            cache_block = (self.cache.get(attr, block)
                           if self.cache is not None else None)
            cached[attr] = cache_block
            cmask[attr] = (cache_block.mask_array(n)
                           if cache_block is not None
                           else np.zeros(n, dtype=bool))
        positions: dict[int, np.ndarray] = {}
        if self.pm is not None and self.config.enable_positional_map:
            for attr in union_attrs:
                column = self.pm.positions(block, attr)
                if column is not None:
                    positions[attr] = column

        line_bytes: dict[int, bytes] = {}
        views: dict[int, _RowView] = {}

        def view_for(idx: int) -> _RowView:
            view = views.get(idx)
            if view is None:
                view = _RowView(self, line_bytes[idx])
                views[idx] = view
            return view

        def hint(attr: int, idx: int) -> int | None:
            column = positions.get(attr)
            if column is None or idx >= len(column):
                return None
            rel = int(column[idx])
            return None if rel == _NO_POS else rel

        def materialize(attr: int, conv_mask: np.ndarray,
                        read_cached: np.ndarray, entries: list,
                        ) -> np.ndarray:
            values = np.empty(n, dtype=object)
            cached_idx = np.flatnonzero(read_cached)
            if len(cached_idx):
                values[cached_idx] = cached[attr].values_at(cached_idx)
                model.cache_read(len(cached_idx))
            pairs = []
            for idx in np.flatnonzero(conv_mask).tolist():
                view = view_for(idx)
                span = view.span(attr, hint(attr, idx))
                token = (None if span is None
                         else view.line[span[0]:span[1]])
                pairs.append((idx, token))
            for idx, value in self._convert_many(attr, pairs):
                values[idx] = value
                entries.append((idx, value))
            return values

        # -- phase W: bytes + conversion for rows whose WHERE
        #    attributes are not fully cached
        need_file = np.zeros(n, dtype=bool)
        for attr in where_attrs:
            need_file |= ~cmask[attr]
        self._read_runs(handle, starts, ends, need_file, line_bytes)

        columns: dict[int, np.ndarray] = {}
        cache_entries: dict[int, list] = {attr: [] for attr in union_attrs}
        for attr in where_attrs:
            columns[attr] = materialize(attr, ~cmask[attr], cmask[attr],
                                        cache_entries[attr])

        if predicate is not None:
            qual = self._predicate_mask(predicate, where_attrs, columns, n)
        else:
            qual = np.ones(n, dtype=bool)
        qual_idx = np.flatnonzero(qual)

        # -- phase S: bytes + conversion for qualifying rows missing
        #    SELECT attributes (selective parsing, §4.1)
        missing = np.zeros(n, dtype=bool)
        for attr in out_attrs:
            if attr not in columns:
                missing |= ~cmask[attr]
        need_sel = qual & missing & ~need_file
        self._read_runs(handle, starts, ends, need_sel, line_bytes)
        for attr in out_attrs:
            if attr in columns:
                continue
            columns[attr] = materialize(
                attr, qual & ~cmask[attr], cmask[attr] & qual,
                cache_entries[attr])
        model.tuple_form(len(out_attrs) * len(qual_idx))

        if collector is not None:
            self._collect_rows(collector, columns, where_attrs,
                               out_attrs, qual, n)

        self._flush_positions(block, n, views, union_attrs, positions)
        if self.cache is not None:
            for attr, entries in cache_entries.items():
                if entries:
                    self.cache.put(attr, block, n, entries,
                                   self._families[attr])
        out_columns = [columns[attr][qual_idx] for attr in out_attrs]
        return ColumnBatch(out_columns, len(qual_idx))

    def _read_runs(self, handle, starts, ends, mask, line_bytes) -> None:
        """One sequential read covering every flagged row not yet
        loaded, sliced into per-line bytes (the CSV scan's read
        pattern: stream through small gaps, never seek per tuple)."""
        needed = [idx for idx in np.flatnonzero(mask).tolist()
                  if idx not in line_bytes]
        if not needed:
            return
        first, last = needed[0], needed[-1]
        byte_start = int(starts[first])
        blob = handle.read_at(byte_start, int(ends[last]) - byte_start)
        for idx in needed:
            line_bytes[idx] = blob[int(starts[idx]) - byte_start:
                                   int(ends[idx]) - byte_start]

    def _predicate_mask(self, predicate, where_attrs, columns,
                        n) -> np.ndarray:
        from repro.sql.batch import object_nulls

        self.model.predicate(predicate.n_terms * n)
        if predicate.vector_fn is not None:
            arrays = {attr: columns[attr] for attr in where_attrs}
            nulls = {attr: object_nulls(columns[attr])
                     for attr in where_attrs}
            return predicate.vector_fn(arrays, nulls, n)
        return predicate.row_mask(columns, n)

    def _collect_rows(self, collector, columns, where_attrs, out_attrs,
                      qual, n) -> None:
        """§4.4 sampling: WHERE values for every row, SELECT values for
        qualifying rows (whose conversions this scan actually paid)."""
        for i in range(n):
            row_values = {attr: columns[attr][i] for attr in where_attrs}
            if qual[i]:
                for attr in out_attrs:
                    row_values[attr] = columns[attr][i]
            collector.add_row(row_values)

    def _flush_positions(self, block, rows_in_block, views, union_attrs,
                         existing, first_in_block: int = 0) -> None:
        """Insert value positions discovered by this block's full
        tokenizations as one chunk, merged with whatever the map
        already knows (§4.2 adaptive population)."""
        if self.pm is None or not self.config.enable_positional_map:
            return
        discovered: dict[int, np.ndarray] = {}
        for idx, view in views.items():
            if view.spans is None:
                continue  # served entirely from known positions
            for attr in union_attrs:
                span = view.spans.get(self.keys[attr])
                if span is None:
                    continue
                column = discovered.get(attr)
                if column is None:
                    column = np.full(rows_in_block + first_in_block,
                                     _NO_POS, dtype=np.int32)
                    discovered[attr] = column
                column[first_in_block + idx] = span[0]
        group = []
        for attr in sorted(discovered):
            already = existing.get(attr)
            column = discovered[attr]
            if already is not None:
                prior = np.full(len(column), _NO_POS, dtype=np.int32)
                m = min(len(already), len(column))
                prior[:m] = already[:m]
                merged = np.where(column == _NO_POS, prior, column)
                if int((merged != _NO_POS).sum()) <= \
                        int((prior != _NO_POS).sum()):
                    continue  # nothing new for this attribute
                discovered[attr] = merged
            group.append(attr)
        if not group:
            return
        matrix = np.column_stack([discovered[attr] for attr in group])
        self.pm.insert_chunk(tuple(group), block, matrix)

    # ==================================================================
    # Streaming region: unseen tail
    # ==================================================================
    def _streaming_region(self, handle, spanned, out_attrs, where_attrs,
                          union_attrs, predicate, collector):
        pm = self.pm
        track = pm is not None
        if self.row_count is not None and spanned >= self.row_count:
            return
        file_size = handle.size
        if track and pm.known_line_count > spanned:
            start_offset = pm.line_start(spanned)
        elif track and spanned > 0:
            start_offset = file_size
        else:
            start_offset = 0
            spanned = 0
        if start_offset >= file_size:
            if track:
                pm.set_file_length(file_size)
            self.row_count = spanned
            self.table_info.row_count_hint = spanned
            return
        scan_args = (out_attrs, where_attrs, union_attrs, predicate,
                     collector)
        pool = self.pool if self.config.scan_workers > 1 else None
        if pool is not None:
            yield from self._stream_parallel(pool, file_size,
                                             start_offset, spanned,
                                             *scan_args)
        else:
            yield from self._stream_serial(handle, file_size,
                                           start_offset, spanned,
                                           *scan_args)

    def _stream_serial(self, handle, file_size, start_offset, spanned,
                       out_attrs, where_attrs, union_attrs, predicate,
                       collector):
        """Single-threaded driver: read sequentially, discover lines,
        run each row-block group inline (compute + replay) — the same
        compute/apply split the parallel driver merges, so both paths
        evolve the engine identically by construction."""
        pm = self.pm
        track = pm is not None
        block_size = self.config.row_block_size
        handle.seek(start_offset)
        read_size = self.config.batch_read_bytes
        row = spanned
        buffer = b""
        buffer_start = start_offset
        next_start = start_offset
        pending: list[tuple[int, int]] = []
        newline_terminated = True
        eof = False
        while not eof:
            chunk = handle.read_sequential(read_size)
            if not chunk:
                eof = True
                end_of_data = buffer_start + len(buffer)
                if end_of_data > next_start:
                    newline_terminated = False
                    pending.append((next_start, end_of_data))
            else:
                self.model.newline_scan(len(chunk))
                chunk_base = buffer_start + len(buffer)
                buffer += chunk
                for nl in (newline_offsets(chunk) + chunk_base).tolist():
                    pending.append((next_start, nl))
                    next_start = nl + 1
            while pending and (eof or len(pending)
                               >= block_size - row % block_size):
                take = min(len(pending), block_size - row % block_size)
                group, pending = pending[:take], pending[take:]
                ops, batch, error = self._group_task(
                    row, group,
                    self._group_slice(buffer, buffer_start, group),
                    int(group[0][0]), out_attrs, where_attrs,
                    union_attrs, predicate, collector)
                self._apply_staged(ops, union_attrs, collector)
                if error is not None:
                    raise error
                row += take
                consumed = min(group[-1][1] + 1 - buffer_start,
                               len(buffer))
                if consumed > 0:
                    buffer = buffer[consumed:]
                    buffer_start += consumed
                yield batch
        if track:
            pm.set_file_length(file_size,
                               newline_terminated=newline_terminated)
        self.row_count = row
        self.table_info.row_count_hint = row

    def _stream_parallel(self, pool, file_size, start_offset, spanned,
                         out_attrs, where_attrs, union_attrs, predicate,
                         collector):
        """Fan-out driver: the same read/group-formation loop as
        :meth:`_stream_serial`, but groups compute on the shared
        ``ScanWorkerPool`` while the driver reads ahead. A merge
        replays each schedule entry — recorded read charges and
        completed groups' op logs — in exact serial order, so batch
        delivery, PM/cache contents, statistics, counters and the
        virtual clock are identical to the serial driver at any worker
        count (the CSV streaming region's contract)."""
        config = self.config
        pm = self.pm
        track = pm is not None
        block_size = config.row_block_size
        read_size = config.batch_read_bytes

        # Reads charge into a recorder so their cost replays in serial
        # order even though the driver reads ahead of the merge.
        read_rec = RecordingModel()
        rhandle = self.vfs.open(self.path, read_rec, notify=False)
        rhandle.seek(start_offset)

        depth = 2 * pool.workers        # groups in flight (read-ahead bound)
        schedule: deque = deque()       # ("r", ops) | ("g", future)
        state = {"in_flight": 0, "row": spanned, "buffer": b"",
                 "buffer_start": start_offset,
                 "next_start": start_offset, "eof": False,
                 "newline_terminated": True}
        pending: list[tuple[int, int]] = []

        def dispatch_groups() -> None:
            while pending and (
                    state["eof"] or len(pending)
                    >= block_size - state["row"] % block_size):
                take = min(len(pending),
                           block_size - state["row"] % block_size)
                group = pending[:take]
                del pending[:take]
                group_buf = self._group_slice(
                    state["buffer"], state["buffer_start"], group)
                schedule.append(("g", pool.submit(
                    self._group_task, state["row"], group, group_buf,
                    int(group[0][0]), out_attrs, where_attrs,
                    union_attrs, predicate, collector)))
                state["in_flight"] += 1
                state["row"] += take
                consumed = min(group[-1][1] + 1 - state["buffer_start"],
                               len(state["buffer"]))
                if consumed > 0:
                    state["buffer"] = state["buffer"][consumed:]
                    state["buffer_start"] += consumed

        def read_more() -> None:
            chunk = rhandle.read_sequential(read_size)
            if not chunk:
                state["eof"] = True
                end_of_data = state["buffer_start"] + len(state["buffer"])
                if end_of_data > state["next_start"]:
                    state["newline_terminated"] = False
                    pending.append((state["next_start"], end_of_data))
            else:
                read_rec.newline_scan(len(chunk))
                chunk_base = state["buffer_start"] + len(state["buffer"])
                state["buffer"] += chunk
                for nl in (newline_offsets(chunk)
                           + chunk_base).tolist():
                    pending.append((state["next_start"], nl))
                    state["next_start"] = nl + 1
            ops = read_rec.take_ops()
            if ops:
                schedule.append(("r", ops))
            dispatch_groups()

        try:
            while True:
                while not state["eof"] and state["in_flight"] < depth:
                    read_more()
                if not schedule:
                    break
                kind, payload = schedule.popleft()
                if kind == "r":
                    self._apply_staged(payload, union_attrs, collector)
                    continue
                try:
                    ops, batch, error = payload.result()
                except CancelledError:
                    # CancelledError is a BaseException and would
                    # escape the scheduler's error containment,
                    # leaking the job's admission slot.
                    raise ExecutionError(
                        "scan worker pool was shut down while this "
                        "parallel scan was streaming (engine.close() "
                        "during a live query); re-run the query"
                    ) from None
                state["in_flight"] -= 1
                self._apply_staged(ops, union_attrs, collector)
                if error is not None:
                    raise error
                if batch is not None:
                    yield batch
        finally:
            # Abandoned scan (or an error above): drop the unmerged
            # tail — structures hold exactly the merged prefix, as
            # after an abandoned serial scan at the same boundary.
            for kind, payload in schedule:
                if kind == "g":
                    payload.cancel()

        if track:
            pm.set_file_length(
                file_size,
                newline_terminated=state["newline_terminated"])
        self.row_count = state["row"]
        self.table_info.row_count_hint = state["row"]

    @staticmethod
    def _group_slice(buffer: bytes, buffer_start: int,
                     group: list) -> bytes:
        """The byte window covering one group's lines; workers slice
        their private lines out of it by absolute offset."""
        return buffer[group[0][0] - buffer_start:
                      group[-1][1] - buffer_start]

    def _group_task(self, row0, spans, buffer, buffer_base, out_attrs,
                    where_attrs, union_attrs, predicate, collector):
        """One pool task: compute a streaming group against a
        recording model. Returns ``(ops, batch, error)``; never raises,
        so the merge can replay the charges recorded before a failure
        and re-raise in canonical order. Runs on worker threads:
        touches no shared engine state, only its private byte slice
        and the recorder."""
        recorder = RecordingModel()
        view = copy.copy(self)
        view.model = recorder
        try:
            batch = view._compute_stream_group(
                recorder.ops, row0, spans, buffer, buffer_base,
                out_attrs, where_attrs, union_attrs, predicate,
                collector)
            return recorder.ops, batch, None
        except JSONLFormatError as exc:
            if self.on_error == "fail":
                return recorder.ops, None, exc
            # Tolerant policy: discard the strict attempt's op log
            # entirely and recompute the group row by row (a pure
            # function of the byte slice — bit-identical at any
            # worker count).
            redo = RecordingModel()
            view = copy.copy(self)
            view.model = redo
            try:
                batch = view._compute_stream_group_tolerant(
                    redo.ops, row0, spans, buffer, buffer_base,
                    out_attrs, where_attrs, predicate)
                return redo.ops, batch, None
            except Exception as redo_exc:
                return redo.ops, None, redo_exc
        except Exception as exc:   # replayed + re-raised by the merge
            return recorder.ops, None, exc

    def _apply_staged(self, ops: list, union_attrs, collector) -> None:
        """Replay one op log against the real model and structures, in
        the exact order the serial path would have performed them — so
        the clock, PM, cache and statistics evolve identically."""
        model = self.model
        for op in ops:
            tag = op[0]
            if tag == "c":
                model.charge(op[1], op[2])
            elif tag == "lines":
                _, starts, row0, n = op
                known = self.pm.known_line_count
                if row0 + n > known:
                    self.pm.append_line_starts(
                        starts[max(0, known - row0):])
            elif tag == "collect":
                for row_values in op[1]:
                    collector.add_row(row_values)
            elif tag == "jpm":
                _, block, n, views, first_in_block = op
                existing = {}
                if self.pm is not None \
                        and self.config.enable_positional_map:
                    for attr in union_attrs:
                        column = self.pm.positions(block, attr)
                        if column is not None:
                            existing[attr] = column
                self._flush_positions(block, n, dict(enumerate(views)),
                                      union_attrs, existing,
                                      first_in_block=first_in_block)
            elif tag == "rej":
                # Quarantine decided inside a worker group: the sidecar
                # write happens here, in canonical merge order.
                self._quarantine_row(op[1], op[2], op[3])
            else:  # "jcache"
                _, attr, block, rows_in_block, entries, family = op
                self.cache.put(attr, block, rows_in_block, entries,
                               family)

    def _compute_stream_group(self, ops, row0, spans, buffer,
                              buffer_base, out_attrs, where_attrs,
                              union_attrs, predicate, collector):
        """Compute one group of freshly discovered lines — all within
        a single row block: full tokenization (positions staged for
        the map), predicate, selective conversion, staged cache/stat/
        PM contributions, one batch out. ``self`` is a worker view
        whose ``model`` is the charge recorder feeding ``ops``."""
        from repro.sql.batch import ColumnBatch

        model = self.model
        n = len(spans)
        block_size = self.config.row_block_size
        block = row0 // block_size
        first_in_block = row0 - block * block_size
        rows_in_block = first_in_block + n
        model.tuple_overhead(n)

        if self.pm is not None:
            starts = np.asarray([s for s, _e in spans], dtype=np.int64)
            ops.append(("lines", starts, row0, n))

        views = [
            _RowView(self, buffer[s - buffer_base:e - buffer_base])
            for s, e in spans
        ]
        columns: dict[int, np.ndarray] = {}
        cache_entries: dict[int, list] = {attr: []
                                          for attr in union_attrs}

        def materialize(attr: int, row_mask: np.ndarray) -> np.ndarray:
            values = np.empty(n, dtype=object)
            entries = cache_entries[attr]
            pairs = []
            for idx in np.flatnonzero(row_mask).tolist():
                view = views[idx]
                span = view.span(attr, None)
                token = (None if span is None
                         else view.line[span[0]:span[1]])
                pairs.append((idx, token))
            for idx, value in self._convert_many(attr, pairs):
                values[idx] = value
                entries.append((first_in_block + idx, value))
            return values

        every = np.ones(n, dtype=bool)
        for attr in where_attrs:
            columns[attr] = materialize(attr, every)
        if predicate is not None:
            qual = self._predicate_mask(predicate, where_attrs, columns,
                                        n)
        else:
            qual = every
        qual_idx = np.flatnonzero(qual)
        for attr in out_attrs:
            if attr not in columns:
                columns[attr] = materialize(attr, qual)
        model.tuple_form(len(out_attrs) * len(qual_idx))

        if collector is not None:
            staged_rows = []
            for i in range(n):
                row_values = {attr: columns[attr][i]
                              for attr in where_attrs}
                if qual[i]:
                    for attr in out_attrs:
                        row_values[attr] = columns[attr][i]
                staged_rows.append(row_values)
            ops.append(("collect", staged_rows))

        ops.append(("jpm", block, n, views, first_in_block))
        if self.cache is not None:
            for attr, entries in cache_entries.items():
                if entries:
                    ops.append(("jcache", attr, block, rows_in_block,
                                entries, self._families[attr]))
        out_columns = [columns[attr][qual_idx] for attr in out_attrs]
        return ColumnBatch(out_columns, len(qual_idx))

    def _compute_stream_group_tolerant(self, ops, row0, spans, buffer,
                                       buffer_base, out_attrs,
                                       where_attrs, predicate):
        """Row-at-a-time redo of a streaming group whose strict
        computation raised, under a tolerant error policy. Line starts
        are still staged (byte geometry is unaffected by malformed
        content); rejects are staged as ``("rej", ...)`` ops so the
        sidecar write happens at the merge, in canonical order. The
        group contributes nothing to the positional map, cache or
        statistics."""
        from repro.sql.batch import ColumnBatch

        model = self.model
        n = len(spans)
        model.tuple_overhead(n)
        if self.pm is not None:
            starts = np.asarray([s for s, _e in spans], dtype=np.int64)
            ops.append(("lines", starts, row0, n))
        rows: list[tuple] = []
        for i, (s, e) in enumerate(spans):
            line = buffer[s - buffer_base:e - buffer_base]
            qual, out_values, reason = self.tolerant_row(
                model, line, out_attrs, where_attrs, predicate)
            if reason is not None:
                ops.append(("rej", row0 + i, line, reason))
                model.rows_rejected(1)
                continue
            if qual:
                rows.append(tuple(out_values))
        return ColumnBatch.from_rows(rows, len(out_attrs))


# ---------------------------------------------------------------------------
# Adapter
# ---------------------------------------------------------------------------
class JsonlAdapter(FormatAdapter):
    """JSON Lines through the in-situ machinery (raw engines only)."""

    name = "jsonl"
    extensions = (".jsonl", ".ndjson")
    allowed_options = frozenset({"path", "on_error"})

    def validate_options(self, engine, options: dict) -> dict:
        options = super().validate_options(engine, options)
        validate_on_error(options)
        return options

    #: JSONL tokenization is string/escape/bracket aware — a state
    #: machine per byte, not a memchr-style delimiter scan — so it runs
    #: ~3x the engine's per-character tokenize rate.
    TOKENIZE_FACTOR = 3.0
    _PROFILE_TAG = "+jsonl"

    def cost_profile(self, engine):
        import dataclasses

        base = engine.model.profile
        if base.name.endswith(self._PROFILE_TAG):
            return base  # already calibrated for this format
        return dataclasses.replace(
            base, name=base.name + self._PROFILE_TAG,
            tokenize=base.tokenize * self.TOKENIZE_FACTOR)

    def build_access(self, engine, info, options: dict):
        if self._policy(engine, info.external) != "raw":
            raise CatalogError(
                "format 'jsonl' requires an in-situ raw engine "
                "(PostgresRaw)")
        model = self.scan_model(engine)
        positional_map, cache = self.build_raw_structures(engine, info,
                                                          model=model)
        return JsonlAccess(engine.vfs, info.path, info.schema,
                           model, engine.config, info,
                           positional_map, cache,
                           pool=getattr(engine, "scan_pool", None))


register_format(JsonlAdapter())
