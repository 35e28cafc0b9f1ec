"""JSON Lines: an in-situ raw adapter built purely on the public seams.

This module is the registry's openness proof: a complete raw format —
adaptive positional map, binary cache, on-the-fly statistics, columnar
batch delivery — integrated through :func:`repro.formats.registry.
register_format`, the duck-typed
:class:`~repro.sql.scanapi.AccessMethod` protocol and the raw-scan
shell of :mod:`repro.core.blockscan` alone. It imports nothing from the
planner or the catalog and edits neither; a third-party package could
ship this file verbatim.

What lives here is what is genuinely JSONL: the tokenizer, value
conversion, the tolerant line split (``_tolerant_fetch``), and
:class:`JsonlScan` — the strict indexed-block and stream-group compute
with their ``"jpm"`` / ``"jcache"`` staged ops. Everything else a scan
does — §4.5 refresh, the line index and the indexed/streaming split,
the read/group/dispatch/merge loop with its ``scan_workers`` fan-out,
kernel attempt and bailout, error policies and the quarantine sidecar —
is inherited from :class:`~repro.core.blockscan.RawFileAccess` and
:class:`~repro.core.blockscan.BlockScan`, the same code the CSV scan
runs.

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
from typing import Sequence

import numpy as np

from repro.core.blockscan import (
    BlockScan,
    RawFileAccess,
    parse_numeric_fields,
)
from repro.core.positional_map import NO_POS
from repro.errors import (
    CatalogError,
    FormatError,
    JSONLFormatError,
    annotate,
)
from repro.formats.registry import (
    FormatAdapter,
    register_format,
    validate_on_error,
)
from repro.sql.batch import ColumnBatch, object_nulls

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

    def __init__(self, scan: "JsonlScan", line: bytes):
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

    def token(self, attr: int, hint_start: int | None) -> bytes | None:
        span = self.span(attr, hint_start)
        return None if span is None else self.line[span[0]:span[1]]


# ---------------------------------------------------------------------------
# Per-scan compute: what is genuinely JSONL about a block scan
# ---------------------------------------------------------------------------
class JsonlScan(BlockScan):
    """One batch scan over one JSON-Lines table: the per-format half of
    :class:`~repro.core.blockscan.BlockScan` — strict indexed-block and
    stream-group compute, batch value conversion, and the ``"jpm"`` /
    ``"jcache"`` staged ops."""

    def __init__(self, access, *scan_args):
        super().__init__(access, *scan_args)
        self.keys = access.keys

    # -- value conversion ----------------------------------------------
    def _convert_many(self, attr: int, pairs: list) -> list:
        """Convert a batch of ``(row_idx, token)`` pairs, charging one
        aggregate conversion (unit total identical to the per-row
        path). Bare numeric tokens of int/float columns go through the
        same byte-matrix ``astype`` fast path the CSV scan uses
        (:func:`~repro.core.blockscan.parse_numeric_fields`); quoted /
        null / missing tokens — and any batch it refuses — fall back to
        the scalar conversion, value-for-value identical."""
        if not pairs:
            return []
        family = self._families[attr]
        self.model.convert(family, len(pairs))
        if family in ("int", "float"):
            fast = self._fast_numeric(attr, pairs, family)
            if fast is not None:
                return fast
        convert = self.access._convert_value
        return [(idx, convert(attr, token)) for idx, token in pairs]

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
        converted = parse_numeric_fields(
            matrix, sum(len(token) for _, token in clean),
            np.int64 if family == "int" else np.float64)
        if converted is None:
            return None
        values = {idx: value
                  for (idx, _), value in zip(clean, converted.tolist())}
        for idx, token in dirty:
            values[idx] = self.access._convert_value(attr, token)
        return [(idx, values[idx]) for idx, _ in pairs]

    # -- pieces shared by both regions ---------------------------------
    def _flush_positions(self, block, rows_in_block, views, existing,
                         first_in_block: int = 0) -> None:
        """Insert value positions discovered by this block's full
        tokenizations as one chunk, merged with whatever the map
        already knows (§4.2 adaptive population)."""
        if self.pm is None or not self.config.enable_positional_map:
            return
        discovered: dict[int, np.ndarray] = {}
        for idx, view in views.items():
            if view.spans is None:
                continue  # served entirely from known positions
            for attr in self.union_attrs:
                span = view.spans.get(self.keys[attr])
                if span is None:
                    continue
                column = discovered.get(attr)
                if column is None:
                    column = np.full(rows_in_block + first_in_block,
                                     NO_POS, dtype=np.int32)
                    discovered[attr] = column
                column[first_in_block + idx] = span[0]
        self._insert_positions(block, discovered, existing)

    def _known_positions(self, block: int) -> dict[int, np.ndarray]:
        positions: dict[int, np.ndarray] = {}
        if self.pm is not None and self.config.enable_positional_map:
            for attr in self.union_attrs:
                column = self.pm.positions(block, attr)
                if column is not None:
                    positions[attr] = column
        return positions

    @staticmethod
    def _cached_column(cache_block, n: int, qual: np.ndarray | None = None):
        rows = np.arange(n) if qual is None else np.flatnonzero(qual)
        if not cache_block.mask[rows].all():
            return None
        values = np.empty(n, dtype=object)
        values[rows] = cache_block.values_at(rows)
        return values, (object_nulls(values) if qual is None else None)

    def _cached_batch(self, columns: dict, qual_idx: np.ndarray,
                      ) -> ColumnBatch:
        nqual = len(qual_idx)
        if nqual:
            # ``materialize`` charges a cache read only where it reads
            for attr in self.out_attrs:
                if attr not in self.where_attrs:
                    self.model.cache_read(nqual)
        self.model.tuple_form(len(self.out_attrs) * nqual)
        return ColumnBatch([columns[attr][qual_idx]
                            for attr in self.out_attrs], nqual)

    # ==================================================================
    # Indexed region: line spans known to the map
    # ==================================================================
    def _indexed_block_strict(self, handle, block, starts, ends):
        model = self.model
        n = len(starts)
        out_attrs = self.out_attrs
        where_attrs = self.where_attrs
        union_attrs = self.union_attrs

        cached = self.access._prefetch_cache(union_attrs, block)
        cmask = self.access._presence_masks(cached, n)
        positions = self._known_positions(block)

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
            return None if rel == NO_POS else rel

        def materialize(attr: int, conv_mask: np.ndarray,
                        read_cached: np.ndarray, entries: list,
                        ) -> np.ndarray:
            values = np.empty(n, dtype=object)
            cached_idx = np.flatnonzero(read_cached)
            if len(cached_idx):
                values[cached_idx] = cached[attr].values_at(cached_idx)
                model.cache_read(len(cached_idx))
            pairs = [(idx, view_for(idx).token(attr, hint(attr, idx)))
                     for idx in np.flatnonzero(conv_mask).tolist()]
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

        qual = self._predicate_mask(columns, n)
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

        if self.collector is not None:
            self.collector.add_columns(self._sample_rows(columns, qual_idx))

        self._flush_positions(block, n, views, positions)
        if self.cache is not None:
            for attr, entries in cache_entries.items():
                if entries:
                    self.cache.put(attr, block, n, entries,
                                   self._families[attr])
        out_columns = [columns[attr][qual_idx] for attr in out_attrs]
        return ColumnBatch(out_columns, len(qual_idx))

    @staticmethod
    def _read_runs(handle, starts, ends, mask, line_bytes) -> None:
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

    # ==================================================================
    # Streaming region: unseen tail
    # ==================================================================
    def _compute_stream_group(self, ops, row0, starts, ends, buffer,
                              buffer_base):
        """Full tokenization (positions staged for the map), predicate,
        selective conversion, staged cache/stat/PM contributions, one
        batch out. ``self`` is a view whose ``model`` is the charge
        recorder feeding ``ops``."""
        model = self.model
        n = len(starts)
        out_attrs = self.out_attrs
        block_size = self.config.row_block_size
        block = row0 // block_size
        first_in_block = row0 - block * block_size
        rows_in_block = first_in_block + n
        model.tuple_overhead(n)

        if self.pm is not None:
            ops.append(("lines", starts, row0, n))

        views = [_RowView(self, line) for line in
                 self._lines(starts, ends, buffer, buffer_base)]
        columns: dict[int, np.ndarray] = {}
        cache_entries: dict[int, list] = {attr: []
                                          for attr in self.union_attrs}

        def materialize(attr: int, row_mask: np.ndarray) -> np.ndarray:
            values = np.empty(n, dtype=object)
            entries = cache_entries[attr]
            pairs = [(idx, views[idx].token(attr, None))
                     for idx in np.flatnonzero(row_mask).tolist()]
            for idx, value in self._convert_many(attr, pairs):
                values[idx] = value
                entries.append((first_in_block + idx, value))
            return values

        for attr in self.where_attrs:
            columns[attr] = materialize(attr, np.ones(n, dtype=bool))
        qual = self._predicate_mask(columns, n)
        qual_idx = np.flatnonzero(qual)
        for attr in out_attrs:
            if attr not in columns:
                columns[attr] = materialize(attr, qual)
        model.tuple_form(len(out_attrs) * len(qual_idx))

        if self.collector is not None:
            ops.append(("collect", self._sample_rows(columns, qual_idx)))

        ops.append(("jpm", block, n, views, first_in_block))
        if self.cache is not None:
            for attr, entries in cache_entries.items():
                if entries:
                    ops.append(("jcache", attr, block, rows_in_block,
                                entries, self._families[attr]))
        out_columns = [columns[attr][qual_idx] for attr in out_attrs]
        return ColumnBatch(out_columns, len(qual_idx))

    def _apply_format_op(self, op: tuple) -> None:
        if op[0] == "jpm":
            _, block, n, views, first_in_block = op
            self._flush_positions(block, n, dict(enumerate(views)),
                                  self._known_positions(block),
                                  first_in_block=first_in_block)
        else:  # "jcache"
            _, attr, block, rows_in_block, entries, family = op
            self.cache.put(attr, block, rows_in_block, entries, family)


# ---------------------------------------------------------------------------
# Access method
# ---------------------------------------------------------------------------
class JsonlAccess(RawFileAccess):
    """In-situ scan over one JSON-Lines table (PM + cache + stats). The
    shell — §4.5 refresh, scan prologue/epilogue, quarantine sidecar,
    error annotation — is :class:`~repro.core.blockscan.RawFileAccess`;
    this class adds value conversion and the JSONL line split."""

    scan_class = JsonlScan
    #: batch delivery is the only mode (``ScanOp.supports_batches``)
    batch_enabled = True

    def __init__(self, vfs, path: str, schema, model, config, table_info,
                 positional_map, cache, pool=None):
        super().__init__(vfs, path, schema, model, config, table_info,
                         positional_map, cache, pool=pool)
        self.keys = [c.name.lower() for c in schema]

    # -- value conversion ----------------------------------------------
    def _convert_value(self, attr: int, token: bytes | None):
        """JSON value token -> binary value (missing member / ``null``
        -> SQL NULL). Uncosted: the caller charges the family's
        conversion units."""
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

    # -- error policies (OPTIONS (on_error ...)) ------------------------
    def _tolerant_fetch(self, model, line: bytes, policy: str):
        """The line is fully tokenized (a structurally broken line
        yields no spans — all-NULL under ``'null'``, rejected under
        ``'skip'``); a missing member is ordinary NULL, an unparseable
        *value* is the policy's to decide."""
        try:
            spans, _ = member_spans(line)
        except JSONLFormatError:
            if policy == "skip":
                raise
            spans = {}

        def fetch(attr):
            span = spans.get(self.keys[attr])
            token = None if span is None else line[span[0]:span[1]]
            model.convert(self._families[attr], 1)
            try:
                return self._convert_value(attr, token), None
            except FormatError as exc:
                return None, (str(exc) if policy == "skip" else None)

        return fetch


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
