"""The vectorized batch scan pipeline (NoDB hot loop, block-at-a-time).

This module is the batch twin of the row-at-a-time machinery in
:mod:`repro.core.scan`. One :class:`BatchCsvScan` drives a whole scan as
a sequence of :class:`~repro.sql.batch.ColumnBatch` blocks:

* **newline / delimiter discovery** runs over raw byte buffers with
  NumPy (``np.frombuffer`` + ``flatnonzero`` + ``searchsorted``) instead
  of per-line scalar ``find``/``span_forward`` loops;
* **selective parsing** converts whole column slices at once — int and
  float columns go through a fixed-width byte-matrix ``astype`` fast
  path, everything else through one tight per-column loop;
* **predicate evaluation** uses the planner's vectorized mask
  (``ScanPredicate.vector_fn``) when the WHERE columns materialized as
  typed arrays, falling back to the row closure otherwise;
* **positional map and binary cache** traffic happens in whole chunks
  (``line_spans_block``, ``put_column``, ``insert_chunk``) instead of
  per-row dict updates — a converted numeric column reaches its cache
  block as the array ``astype`` produced, from either region;
* **§4.4 statistics** are sampled a block column at a time
  (``StatsCollector.add_columns``), never a row at a time.

Correctness contract: for any workload, the batch pipeline produces the
same result rows *and leaves the same positional-map and cache contents*
as the scalar path (which is retained as the differential oracle — see
``tests/test_batch_differential.py``). The trickiest part of honoring
that contract is the §4.2 incremental tokenization: spans are derived
from the nearest known attribute per row — forward or backward,
whichever is closer — exactly as the scalar ``_RowContext`` does, but
with delimiter-index arithmetic instead of byte scanning.

The scan's *driver* — the frozen indexed/streaming split, the
indexed-region block loop with its kernel attempt and tolerant redo, the
streaming region's read/group/dispatch/merge loop (inline or fanned out
across the engine's :class:`~repro.core.parallel.ScanWorkerPool`) and
the staged-op merge — is format-agnostic and lives in
:class:`~repro.core.blockscan.BlockScan`. :class:`BatchCsvScan` supplies
what is genuinely CSV: the strict indexed-block compute, the strict
stream-group compute and the ``"pm"`` / ``"cache"`` staged ops they
emit.
"""

from __future__ import annotations

import datetime

import numpy as np

from repro.core.blockscan import BlockScan, parse_numeric_fields
from repro.core.positional_map import NO_POS
from repro.errors import CSVFormatError, annotate
from repro.formats.csvfmt import (
    BlockTokenizer,
    block_field_spans,
    block_span_forward,
)
from repro.sql.batch import ColumnBatch, object_nulls

_NO = -1  # unknown position sentinel (absolute-offset arrays)

#: families whose text form NumPy can parse column-wise via ``astype``
_NUMERIC_DTYPES = {"int": np.int64, "float": np.float64}


def _decode_numeric_column(buf_arr: np.ndarray, starts: np.ndarray,
                           ends: np.ndarray, dtype) -> np.ndarray | None:
    """Parse variable-width numeric fields in one vectorized shot:
    gather the fields into a fixed-width byte matrix and hand it to
    :func:`~repro.core.blockscan.parse_numeric_fields`. Returns None
    when the caller must fall back to the per-field Python loop."""
    widths = ends - starts
    max_width = int(widths.max()) if len(widths) else 0
    if max_width == 0 or max_width > 64:
        return None
    offsets = starts[:, None] + np.arange(max_width)
    valid = offsets < ends[:, None]
    matrix = np.where(valid,
                      buf_arr[np.minimum(offsets, len(buf_arr) - 1)],
                      0).astype(np.uint8)
    return parse_numeric_fields(matrix, int(widths.sum()), dtype)


class _Column:
    """One attribute's values over one block.

    The canonical storage is ``typed`` — a dtype-tagged array (int64 /
    float64, int32 day numbers for cache-served dates, bool) covering
    every *materialized* row — with an object-array view (``values``,
    None where absent/NULL) built lazily only when a consumer needs
    Python objects in an array (row-closure fallbacks, date output;
    stats sampling takes :meth:`tolist` straight off the typed array).
    When typed assembly is impossible (NULLs, strings, mixed
    sources) the object array is the storage and ``typed`` is None.
    ``conv_idx`` tracks the subset converted from the raw file this
    query (the cache-write set) and exactly one of ``conv_typed`` /
    ``conv_values`` holds it: a dtype-tagged array when the ``astype``
    fast path produced one — in either region; the cache's bulk insert
    consumes it directly, with no object-list round-trip — and a list
    of Python values otherwise."""

    __slots__ = ("n", "family", "nulls", "typed", "conv_idx",
                 "conv_values", "conv_typed", "_values", "_materialized")

    def __init__(self, n: int, family: str = "?"):
        self.n = n
        self.family = family
        self.nulls = np.zeros(n, dtype=bool)
        self.typed: np.ndarray | None = None
        self.conv_idx: np.ndarray | None = None   # block-relative rows
        self.conv_values: list | None = None
        self.conv_typed: np.ndarray | None = None
        self._values: np.ndarray | None = None
        #: rows actually holding data (None = all); typed slots outside
        #: this mask are garbage and must not be decoded
        self._materialized: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            out = np.empty(self.n, dtype=object)
            if self.typed is not None:
                mask = self._materialized
                rows = (np.arange(self.n) if mask is None
                        else np.flatnonzero(mask))
                if len(rows):
                    raw = self.typed[rows]
                    if self.family == "date":
                        decoded = [datetime.date.fromordinal(v)
                                   for v in raw.tolist()]
                    else:
                        decoded = raw.tolist()
                    out[rows] = decoded
            elif self.conv_idx is not None and len(self.conv_idx):
                # a streamed SELECT-only column is its converted subset
                out[self.conv_idx] = (
                    self.conv_values if self.conv_typed is None
                    else self.conv_typed.tolist())
            self._values = out
        return self._values

    def set_values(self, values: np.ndarray) -> None:
        self._values = values

    def tolist(self, rows: np.ndarray | None = None) -> list:
        """Python values at ``rows`` (None: every row; all of them
        materialized), straight off the typed array when there is one
        (day numbers are not values: dates go through the object
        view)."""
        source = self.typed
        if source is None or self.family == "date":
            source = self.values
        return (source if rows is None else source[rows]).tolist()


class BatchCsvScan(BlockScan):
    """One batch-mode scan over one raw CSV table: the per-format half
    of :class:`~repro.core.blockscan.BlockScan`."""

    def __init__(self, access, *scan_args):
        super().__init__(access, *scan_args)
        self.arity = access.schema.arity
        self.dialect = access.dialect
        # Streaming-region constants of this scan's shape. The scalar
        # _RowContext locates targets lazily from the line start; its
        # target sequence is replayed as a state machine so the batch
        # path charges identical tokenize units and records identical
        # positions (see _stream_transitions).
        where_attrs, union_attrs = self.where_attrs, self.union_attrs
        self._max_where = max(where_attrs) if where_attrs else -1
        self._max_union = union_attrs[-1] if union_attrs else -1
        self._charges_w, state_w = _stream_transitions(where_attrs,
                                                       self.arity)
        #: highest attr whose start a failing (or any) row has recorded
        #: after the WHERE phase
        self._coverage_w = state_w[1]
        # SELECT phase: continues the locate-state where WHERE left it
        self._charges_s, _ = _stream_transitions(self.out_attrs,
                                                 self.arity, state_w)

    # ------------------------------------------------------------------
    # Column conversion (shared by both regions)
    # ------------------------------------------------------------------
    def _convert_values(self, attr: int, buf, buf_base: int,
                        starts: np.ndarray, ends: np.ndarray,
                        ) -> tuple[list | None, np.ndarray | None]:
        """Convert the fields at ``starts``/``ends`` (absolute offsets
        into ``buf`` based at ``buf_base``) to binary values. Returns
        ``(None, typed)`` when the ``astype`` fast path succeeds — the
        consumers that only need arrays (vector predicates, typed cache
        inserts, typed output) never pay a per-row ``tolist`` walk, the
        others derive the list when they need it — and ``(values,
        None)`` otherwise; conversion cost is charged here, one call
        per column slice."""
        n = len(starts)
        family = self._families[attr]
        self.model.convert(family, n)
        rel_starts = starts - buf_base
        rel_ends = ends - buf_base
        dtype = self._dtypes[attr]
        np_dtype = _NUMERIC_DTYPES.get(family)
        if np_dtype is not None and n:
            widths = rel_ends - rel_starts
            empties = widths == 0
            buf_arr = np.frombuffer(buf, dtype=np.uint8)
            if empties.any():
                typed = None
                if not empties.all():
                    present = ~empties
                    sub = _decode_numeric_column(
                        buf_arr, rel_starts[present], rel_ends[present],
                        np_dtype)
                    if sub is not None:
                        values = [None] * n
                        for slot, value in zip(np.flatnonzero(present),
                                               sub.tolist()):
                            values[slot] = value
                        return values, None
                else:
                    return [None] * n, None
            else:
                typed = _decode_numeric_column(buf_arr, rel_starts,
                                               rel_ends, np_dtype)
                if typed is not None:
                    return None, typed
        # Fallback / non-numeric: one tight per-field loop mirroring the
        # scalar ``_convert`` exactly (empty non-string -> NULL).
        values = []
        view = memoryview(buf)
        parse = dtype.parse
        is_str = family == "str"
        for s, e in zip(rel_starts.tolist(), rel_ends.tolist()):
            text = bytes(view[s:e]).decode("utf-8", "replace")
            if not text and not is_str:
                values.append(None)
                continue
            try:
                values.append(parse(text))
            except Exception as exc:
                raise annotate(
                    CSVFormatError(
                        f"cannot parse {text!r} as "
                        f"{self._dtypes[attr].name} (attribute "
                        f"{self.schema.columns[attr].name})"),
                    column=self.schema.columns[attr].name) from exc
        return values, None

    # ------------------------------------------------------------------
    # Block columns are _Column objects
    # ------------------------------------------------------------------
    @staticmethod
    def _vector_input(column: _Column):
        # Typed arrays where available (int/float, int-day dates served
        # from the typed cache); object arrays otherwise — the widened
        # vectorizer handles both.
        return (column.typed if column.typed is not None
                else column.values), column.nulls

    @staticmethod
    def _object_values(column: _Column) -> np.ndarray:
        return column.values

    @staticmethod
    def _python_values(column: _Column,
                       rows: np.ndarray | None = None) -> list:
        return column.tolist(rows)

    # ==================================================================
    # Indexed region
    # ==================================================================
    def _known_positions(self, block: int) -> dict[int, np.ndarray]:
        """Every union attribute, its right neighbour (a field's end is
        the next field's start) and the nearest indexed attribute on
        either side (§4.2: tokenize from the closest known position)."""
        positions: dict[int, np.ndarray] = {}
        if not self.config.enable_positional_map:
            return positions
        prefetch_attrs = set(self.union_attrs)
        for attr in self.union_attrs:
            prefetch_attrs.add(attr + 1)
            lo, hi = self.pm.nearest_indexed(block, attr)
            if lo is not None:
                prefetch_attrs.add(lo)
            if hi is not None:
                prefetch_attrs.add(hi)
        for attr in sorted(prefetch_attrs):
            if 0 <= attr < self.arity:
                column = self.pm.positions(block, attr)
                if column is not None:
                    positions[attr] = column
        return positions

    @staticmethod
    def _cached_column(cache_block, n: int, qual: np.ndarray | None = None):
        # Typed slices only, NULL-free over every cached row — where
        # _materialize_column assembles a typed column from the cache
        # alone.
        typed = cache_block.typed_data()
        if typed is None:
            return None
        mask = cache_block.mask[:n]
        if qual is None:
            if mask.all() and not typed[1][:n].any():
                return typed[0][:n], np.zeros(n, dtype=bool)
        elif mask[qual].all() and not typed[1][:n][mask].any():
            return typed[0][:n], None
        return None

    def _cached_batch(self, columns: dict, qual_idx: np.ndarray,
                      ) -> ColumnBatch:
        model = self.model
        nqual = len(qual_idx)
        out_columns = []
        for attr in self.out_attrs:
            model.cache_read(nqual)
            picked = columns[attr][qual_idx]
            if self._families[attr] == "date":
                # day numbers are a cache/predicate format
                dates = np.empty(nqual, dtype=object)
                if nqual:
                    dates[:] = [datetime.date.fromordinal(v)
                                for v in picked.tolist()]
                picked = dates
            out_columns.append(picked)
        model.tuple_form(len(out_columns) * nqual)
        if nqual == 0 and out_columns:
            return ColumnBatch([[] for _ in out_columns], 0)
        return ColumnBatch(out_columns, nqual, [None] * len(out_columns))

    def _indexed_block_strict(self, handle, block: int,
                              starts: np.ndarray, ends: np.ndarray,
                              ) -> ColumnBatch:
        model = self.model
        n = len(starts)
        union_attrs = self.union_attrs
        attr_index_on = self.config.enable_positional_map

        cached = self.access._prefetch_cache(union_attrs, block)
        cmask = self.access._presence_masks(cached, n)
        positions = self._known_positions(block)

        # -- block state shared by both phases
        state = _IndexedBlockState(self, n, starts, ends, positions)

        # -- phase W: rows whose WHERE attributes are not fully cached
        where_attrs = self.where_attrs
        out_attrs = self.out_attrs
        need_file = np.zeros(n, dtype=bool)
        for attr in where_attrs:
            need_file |= ~cmask[attr]
        state.read_rows(handle, need_file)
        state.touched = need_file.copy()

        columns: dict[int, _Column] = {}
        for attr in where_attrs:
            columns[attr] = self._materialize_column(
                state, attr, cached[attr], cmask[attr], ~cmask[attr])
            model.cache_read(int(cmask[attr].sum()))

        qual = self._predicate_mask(columns, n)

        collector = self.collector
        if collector is not None and where_attrs:
            # Scalar loop-1 adds: failing rows always; qualifying rows
            # too when there are no SELECT attributes (and those rows
            # are re-sampled by the loop-2 pass below, as in the scalar
            # path).
            rows = np.flatnonzero(~qual) if out_attrs else None
            collector.add_columns(
                {attr: columns[attr].tolist(rows) for attr in where_attrs
                 if attr in collector.attrs})

        # -- phase S: bytes for qualifying rows missing SELECT attrs
        if out_attrs:
            missing_any = np.zeros(n, dtype=bool)
            for attr in out_attrs:
                missing_any |= ~cmask[attr]
            need_sel = qual & ~state.touched & missing_any
            if need_sel.any():
                state.read_rows(handle, need_sel)
                state.touched |= need_sel

        out_columns: list = []
        out_nulls: list = []
        qual_idx = np.flatnonzero(qual)
        nqual = len(qual_idx)
        for attr in out_attrs:
            column = columns.get(attr)
            if column is None:
                column = self._materialize_column(
                    state, attr, cached[attr], cmask[attr],
                    qual & ~cmask[attr])
                columns[attr] = column
            model.cache_read(int((cmask[attr] & qual).sum()))
            arr, mask = self._output_column(column, qual_idx)
            out_columns.append(arr)
            out_nulls.append(mask)
        model.tuple_form(len(out_attrs) * nqual)

        if collector is not None:
            # Scalar loop-2 adds, per qualifying row: the WHERE values
            # converted from file this block plus every SELECT value.
            sampled = {}
            for attr in collector.attrs:
                rows = qual_idx
                if attr not in out_attrs:
                    conv_idx = columns[attr].conv_idx
                    rows = conv_idx[qual[conv_idx]]
                sampled[attr] = columns[attr].tolist(rows)
            collector.add_columns(sampled)

        # -- flush PM / cache accumulators (whole chunks)
        if attr_index_on:
            state.flush_positions(block)
        if self.cache is not None:
            for attr in union_attrs:
                column = columns.get(attr)
                if column is not None and column.conv_idx is not None \
                        and len(column.conv_idx):
                    self.cache.put_column(attr, block, n, column.conv_idx,
                                          column.conv_values,
                                          self._families[attr],
                                          typed_values=column.conv_typed)
        if nqual == 0 and out_attrs:
            return ColumnBatch([[] for _ in out_attrs], 0)
        return ColumnBatch(out_columns, nqual, out_nulls)

    @staticmethod
    def _output_column(column: _Column, qual_idx: np.ndarray):
        """One output column as ``(array, null_mask)`` for the emitted
        batch — typed when the column materialized typed (dates stay
        objects in results: day numbers are a cache/predicate format)."""
        if column.typed is not None and column.family != "date":
            return column.typed[qual_idx], None
        mask = column.nulls[qual_idx]
        return column.values[qual_idx], mask if mask.any() else None

    def _materialize_column(self, state: "_IndexedBlockState", attr: int,
                            cache_block, cmask: np.ndarray,
                            conv_mask: np.ndarray) -> _Column:
        """Assemble one attribute column: cached values where present,
        fresh conversions for ``conv_mask`` rows (spans derived via the
        positional map / incremental tokenization).

        When both sources are typed and NULL-free — the typed cache
        hands over array slices, and numeric conversion took the
        ``astype`` fast path — the column is assembled as one typed
        array with no object round-trip: warm scans hand arrays
        straight to the vectorizer."""
        n = state.n
        family = self._families[attr]
        column = _Column(n, family)
        conv_idx = np.flatnonzero(conv_mask)
        column.conv_idx = conv_idx
        conv_values: list | None = []
        conv_typed = None
        if len(conv_idx):
            span_starts, span_ends = state.derive_spans(attr, conv_mask)
            conv_values, conv_typed = self._convert_values(
                attr, state.buffer, state.base,
                span_starts[conv_idx], span_ends[conv_idx])
        column.conv_values = conv_values
        column.conv_typed = conv_typed
        cached_idx = np.flatnonzero(cmask)

        # -- typed fast path
        typed_cache = (cache_block.typed_data()
                       if cache_block is not None and len(cached_idx)
                       else None)
        conv_ok = not len(conv_idx) or conv_typed is not None
        cache_ok = not len(cached_idx) or (
            typed_cache is not None
            and not typed_cache[1][cached_idx].any())
        if conv_ok and cache_ok and (len(conv_idx) or len(cached_idx)):
            if len(cached_idx):
                dtype = typed_cache[0].dtype
                if conv_typed is not None:
                    dtype = np.result_type(dtype, conv_typed.dtype)
                typed = np.zeros(n, dtype=dtype)
                typed[cached_idx] = typed_cache[0][cached_idx]
                if conv_typed is not None:
                    typed[conv_idx] = conv_typed
            else:
                typed = np.zeros(n, dtype=conv_typed.dtype)
                typed[conv_idx] = conv_typed
            column.typed = typed
            materialized = cmask | conv_mask
            if not materialized.all():
                column._materialized = materialized
            return column

        # -- object assembly
        values = np.empty(n, dtype=object)
        if len(cached_idx):
            values[cached_idx] = cache_block.values_at(cached_idx)
        if len(conv_idx):
            values[conv_idx] = (conv_values if conv_typed is None
                                else conv_typed.tolist())
        column.set_values(values)
        column.nulls = object_nulls(values)
        np_dtype = _NUMERIC_DTYPES.get(family)
        if np_dtype is not None and not column.nulls.any() and n:
            try:
                column.typed = values.astype(np_dtype)
            except (ValueError, TypeError, OverflowError):
                column.typed = None
        return column

    # ==================================================================
    # Streaming region
    # ==================================================================
    def _compute_stream_group(self, ops: list, row0: int,
                              starts: np.ndarray, ends: np.ndarray,
                              buffer: bytes, buffer_base: int,
                              ) -> ColumnBatch | None:
        """Compute one group of freshly discovered lines — all within a
        single row block — staging its PM/cache/stats contributions
        into ``ops`` (shared with ``self.model``'s charge recorder)
        instead of touching the shared structures."""
        model = self.model
        pm = self.pm
        config = self.config
        n = len(starts)
        block_size = config.row_block_size
        block = row0 // block_size
        first_in_block = row0 - block * block_size
        model.tuple_overhead(n)

        # Line index: stage the bulk append (the merge trims the prefix
        # an earlier group already recorded).
        if pm is not None:
            ops.append(("lines", starts, row0, n))

        out_attrs = self.out_attrs
        where_attrs = self.where_attrs
        union_attrs = self.union_attrs
        max_union = self._max_union
        upto_w = self._max_where   # -1 without WHERE attributes

        tok = BlockTokenizer(buffer, buffer_base, self.dialect)
        columns: dict[int, _Column] = {}
        span_starts = span_ends = None
        if where_attrs:
            span_starts, span_ends, _ = block_field_spans(
                tok, starts, ends, upto_w)
            self._charge_stream_tokenize(tok, self._charges_w, starts,
                                         ends)
            for attr in where_attrs:
                column = _Column(n, self._families[attr])
                values, typed = self._convert_values(
                    attr, buffer, buffer_base,
                    span_starts[:, attr], span_ends[:, attr])
                column.conv_idx = np.arange(n)
                column.conv_values = values
                column.conv_typed = typed
                if typed is not None:
                    column.typed = typed
                else:
                    arr = np.empty(n, dtype=object)
                    if n:
                        arr[:] = values
                    column.set_values(arr)
                    column.nulls = object_nulls(arr)
                columns[attr] = column

        qual = self._predicate_mask(columns, n)
        qual_idx = np.flatnonzero(qual)
        nqual = len(qual_idx)

        # SELECT attrs: extend tokenization for qualifying rows only.
        sel_starts = sel_ends = None
        if out_attrs and max_union > upto_w and nqual:
            q_line_starts = starts[qual_idx]
            q_line_ends = ends[qual_idx]
            if upto_w < 0:
                sel_starts, sel_ends, _ = block_field_spans(
                    tok, q_line_starts, q_line_ends, max_union)
            else:
                base_pos = span_starts[qual_idx, upto_w]
                steps = max_union - upto_w
                sel_starts, sel_ends, _ = block_span_forward(
                    tok, base_pos, steps, q_line_ends)
            self._charge_stream_tokenize(tok, self._charges_s,
                                         q_line_starts, q_line_ends)

        out_columns: list = []
        out_nulls: list = []
        for attr in out_attrs:
            existing = columns.get(attr)
            if existing is not None:
                arr, mask = self._output_column(existing, qual_idx)
                out_columns.append(arr)
                out_nulls.append(mask)
                continue
            if nqual == 0:
                column = _Column(n, self._families[attr])
                column.conv_idx = np.empty(0, dtype=np.int64)
                column.conv_values = []
                columns[attr] = column
                out_columns.append([])
                out_nulls.append(None)
                continue
            if upto_w < 0:
                s_col = sel_starts[:, attr]
                e_col = sel_ends[:, attr]
            elif attr <= upto_w:
                # An out-only attribute below the WHERE prefix: its
                # spans were already discovered in phase W.
                s_col = span_starts[qual_idx, attr]
                e_col = span_ends[qual_idx, attr]
            else:
                s_col = sel_starts[:, attr - upto_w]
                e_col = sel_ends[:, attr - upto_w]
            values, sub_typed = self._convert_values(
                attr, buffer, buffer_base, s_col, e_col)
            column = _Column(n, self._families[attr])
            column.conv_idx = qual_idx
            column.conv_values = values
            column.conv_typed = sub_typed
            columns[attr] = column
            if sub_typed is not None and self._families[attr] != "date":
                out_columns.append(sub_typed)
            else:
                out_columns.append(values)
            out_nulls.append(None)
        model.tuple_form(len(out_attrs) * nqual)

        if self.collector is not None:
            ops.append(("collect", self._sample_rows(columns, qual_idx)))

        # -- stage flushes: positional map chunk, then cache chunks
        rows_in_block = first_in_block + n
        if config.enable_positional_map and pm is not None:
            staged = self._stage_stream_positions(
                block, rows_in_block, first_in_block, n, starts, ends,
                qual, span_starts, span_ends, sel_starts)
            if staged is not None:
                ops.append(staged)
        if self.cache is not None:
            for attr in union_attrs:
                column = columns.get(attr)
                if column is None or column.conv_idx is None or \
                        not len(column.conv_idx):
                    continue
                ops.append(("cache", attr, block, rows_in_block,
                            column.conv_idx + first_in_block,
                            column.conv_values, column.conv_typed,
                            self._families[attr]))
        if nqual == 0 and out_attrs:
            return ColumnBatch([[] for _ in out_attrs], 0)
        return ColumnBatch(out_columns, nqual, out_nulls)

    def _charge_stream_tokenize(self, tok: BlockTokenizer, charges,
                                line_starts: np.ndarray,
                                line_ends: np.ndarray) -> None:
        """Charge exactly what the scalar path would: for each
        transition, the bytes from attr ``base``'s start through the
        delimiter ending attr ``through`` (clipped at the line end),
        summed over the rows. One aggregated model call per phase."""
        if not charges or not len(line_starts):
            return
        idx0 = tok.delim_index(line_starts)
        total = 0
        for base, through in charges:
            bound, _ = tok.boundary(idx0 + through, line_ends)
            if base == 0:
                base_start = line_starts
            else:
                prev, _ = tok.boundary(idx0 + base - 1, line_ends)
                base_start = prev + 1
            scanned = np.minimum(bound + 1, line_ends) - base_start
            total += int(np.maximum(scanned, 0).sum())
        if total:
            self.model.tokenize(total)

    def _stage_stream_positions(self, block, rows_in_block, first_in_block,
                                n, line_starts, line_ends, qual,
                                span_starts, span_ends, sel_starts):
        """Build the block's discovered-position matrix (relative
        offsets, NO_POS holes) as a staged ``("pm", ...)`` op; the
        merge combines it with whatever a previous group or partial
        scan already recorded and inserts it as one chunk.

        Failing rows record starts for attributes up to ``coverage_w``
        — the locate-state machine's ``M`` after the WHERE phase, which
        is ``max_where + 1`` only when the scalar path would have left
        a free (or memoized) next-attribute start; qualifying rows
        record every union attribute."""
        union_attrs = self.union_attrs
        max_where = self._max_where
        coverage_w = self._coverage_w
        discovered: dict[int, np.ndarray] = {}
        qual_idx = np.flatnonzero(qual)
        for attr in union_attrs:
            if attr <= 0 or attr >= self.arity:
                continue
            column = np.full(n, NO_POS, dtype=np.int64)
            if attr <= max_where:
                column[:] = span_starts[:, attr] - line_starts
            elif attr == max_where + 1 and 0 <= max_where and \
                    coverage_w >= attr:
                # Free info: the delimiter ending the last WHERE
                # attribute is this attribute's start — on every row
                # whose field was actually delimiter-terminated.
                ends_w = span_ends[:, max_where]
                has_delim = ends_w < line_ends
                column[has_delim] = (ends_w[has_delim] + 1
                                     - line_starts[has_delim])
            if attr > max_where and sel_starts is not None and \
                    len(qual_idx):
                col_idx = attr if max_where < 0 else attr - max_where
                column[qual_idx] = (sel_starts[:, col_idx]
                                    - line_starts[qual_idx])
            if (column != NO_POS).any():
                discovered[attr] = column
        if not discovered:
            return None
        attrs = sorted(discovered)
        matrix = np.full((rows_in_block, len(attrs)), NO_POS,
                         dtype=np.int32)
        for col, attr in enumerate(attrs):
            matrix[first_in_block:, col] = discovered[attr]
        return ("pm", block, attrs, matrix)

    def _apply_format_op(self, op: tuple) -> None:
        if op[0] == "pm":
            self._merge_stream_positions(op[1], op[2], op[3])
        else:  # "cache"
            _, attr, block, rows_in_block, idx, values, typed, family = op
            self.cache.put_column(attr, block, rows_in_block, idx,
                                  values, family, typed_values=typed)

    def _merge_stream_positions(self, block: int, attrs: list[int],
                                matrix: np.ndarray) -> None:
        """Merge a staged position matrix with what the map already
        knows for this block (an earlier group of the same block, or a
        previous partial scan) and insert it as one chunk."""
        rows_in_block = matrix.shape[0]
        for col, attr in enumerate(attrs):
            existing = self.pm.positions(block, attr)
            if existing is None:
                continue
            overlap = min(len(existing), rows_in_block)
            column = matrix[:overlap, col]
            unknown = column == NO_POS
            column[unknown] = existing[:overlap][unknown]
        self.pm.insert_chunk(tuple(attrs), block, matrix)


# ---------------------------------------------------------------------------
# Streaming-region tokenization helpers
# ---------------------------------------------------------------------------
def _stream_transitions(targets, arity, state=(-1, 0)):
    """Replay the scalar ``_RowContext._locate`` target sequence for a
    fresh streaming row (``known_starts = {0: 0}``).

    The scalar context's per-row state is fully characterized by two
    integers: ``S`` — the highest attribute whose full span has been
    memoized — and ``M`` — the highest attribute whose *start* is known
    (``M`` is ``S`` or ``S + 1``; the latter when a forward step left a
    free next-attribute start). Since every streaming row starts from
    the same state and the branch taken depends only on (S, M), the
    whole block shares one transition sequence.

    Returns ``(charges, (S, M))`` where each charge ``(base, through)``
    says the scalar path would call span_forward from attr ``base``'s
    start and scan through the delimiter ending attr ``through`` —
    exactly the tokenize units to replicate, and ``M`` is the highest
    attribute position a row of this phase has recorded (the
    positional-map flush rule)."""
    S, M = state
    charges: list[tuple[int, int]] = []
    for t in targets:
        if t <= S:
            continue  # span memoized: no work
        if t == S + 1 and t == M:
            # Start known (free info) but span not: the scalar context
            # tokenizes one step forward, memoizing t and t+1.
            if t == arity - 1:
                S = M = t  # last attribute: span ends at line end, free
            else:
                charges.append((t, t + 1))
                S = M = t + 1
        else:
            # Start unknown: tokenize forward from the nearest known
            # start (M), recording a free next-attribute start.
            charges.append((M, t))
            S = t
            M = t + 1 if t + 1 < arity else t
    return charges, (S, M)


# ---------------------------------------------------------------------------
# Indexed-region block state: bytes, positions, span derivation
# ---------------------------------------------------------------------------
class _IndexedBlockState:
    """Byte window + known-position matrix for one indexed block.

    ``K`` maps attr -> absolute start-offset array (``_NO`` holes),
    seeded from the positional map's prefetched columns; every position
    discovered while deriving spans is recorded back into it — the
    vectorized equivalent of ``_RowContext.known_starts`` — and flushed
    as one chunk at the end of the block."""

    def __init__(self, scan: BatchCsvScan, n: int, starts: np.ndarray,
                 ends: np.ndarray, positions: dict[int, np.ndarray]):
        self.scan = scan
        self.model = scan.model
        self.n = n
        self.line_starts = starts
        self.line_ends = ends
        self.positions = positions
        self.base = int(starts[0])
        self.buffer = bytearray(int(ends[-1]) - self.base)
        self.got_bytes = np.zeros(n, dtype=bool)
        self.touched = np.zeros(n, dtype=bool)
        self._tok: BlockTokenizer | None = None
        self.K: dict[int, np.ndarray] = {0: starts.copy()}
        for attr, rel in positions.items():
            if attr == 0:
                continue
            col = np.full(n, _NO, dtype=np.int64)
            m = min(len(rel), n)
            rel_part = np.asarray(rel[:m], dtype=np.int64)
            known = rel_part != NO_POS
            col[:m][known] = starts[:m][known] + rel_part[known]
            self.K[attr] = col

    # -- bytes ----------------------------------------------------------
    def read_rows(self, handle, mask: np.ndarray) -> None:
        """Read the byte span covering every flagged row not yet loaded
        (one sequential read, as the scalar ``_read_runs``)."""
        needed = np.flatnonzero(mask & ~self.got_bytes)
        if not len(needed):
            return
        first, last = int(needed[0]), int(needed[-1])
        byte_start = int(self.line_starts[first])
        byte_end = int(self.line_ends[last])
        blob = handle.read_at(byte_start, byte_end - byte_start)
        lo = byte_start - self.base
        self.buffer[lo:lo + len(blob)] = blob
        self.got_bytes[needed] = True
        self._tok = None  # delimiter index is stale

    def tokenizer(self) -> BlockTokenizer:
        if self._tok is None:
            self._tok = BlockTokenizer(bytes(self.buffer), self.base,
                                       self.scan.dialect)
        return self._tok

    # -- known-position bookkeeping ------------------------------------
    def _kcol(self, attr: int) -> np.ndarray | None:
        return self.K.get(attr)

    def _set_k(self, attr: int, idxs: np.ndarray, values: np.ndarray,
               ) -> None:
        if attr >= self.scan.arity or not len(idxs):
            return
        col = self.K.get(attr)
        if col is None:
            col = np.full(self.n, _NO, dtype=np.int64)
            self.K[attr] = col
        col[idxs] = values

    def _nearest_below(self, attr: int, idxs: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray]:
        lo_attr = np.zeros(len(idxs), dtype=np.int64)
        lo_pos = self.line_starts[idxs].copy()
        remaining = np.ones(len(idxs), dtype=bool)
        for j in range(attr - 1, 0, -1):
            if not remaining.any():
                break
            col = self.K.get(j)
            if col is None:
                continue
            vals = col[idxs]
            hit = remaining & (vals != _NO)
            lo_attr[hit] = j
            lo_pos[hit] = vals[hit]
            remaining &= ~hit
        return lo_attr, lo_pos

    def _nearest_above(self, attr: int, idxs: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray]:
        hi_attr = np.full(len(idxs), _NO, dtype=np.int64)
        hi_pos = np.full(len(idxs), _NO, dtype=np.int64)
        remaining = np.ones(len(idxs), dtype=bool)
        for j in range(attr + 1, self.scan.arity):
            if not remaining.any():
                break
            col = self.K.get(j)
            if col is None:
                continue
            vals = col[idxs]
            hit = remaining & (vals != _NO)
            hi_attr[hit] = j
            hi_pos[hit] = vals[hit]
            remaining &= ~hit
        return hi_attr, hi_pos

    # -- span derivation (§4.2 incremental tokenization, vectorized) ----
    def derive_spans(self, attr: int,
                     row_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Absolute (start, end) spans of ``attr`` for ``row_mask``
        rows, derived from the nearest known attribute per row —
        forward or backward, whichever is closer — with every position
        discovered along the way recorded into ``K``."""
        n = self.n
        arity = self.scan.arity
        model = self.model
        starts_out = np.full(n, _NO, dtype=np.int64)
        ends_out = np.full(n, _NO, dtype=np.int64)
        ka = self.K.get(attr)
        if ka is None:
            ka = np.full(n, _NO, dtype=np.int64)
        known = row_mask & (ka != _NO)
        unknown = row_mask & (ka == _NO)

        if unknown.any():
            idxs = np.flatnonzero(unknown)
            lo_attr, lo_pos = self._nearest_below(attr, idxs)
            hi_attr, hi_pos = self._nearest_above(attr, idxs)
            go_back = (hi_attr != _NO) & ((hi_attr - attr) < (attr - lo_attr))
            if go_back.any():
                self._derive_backward(attr, idxs[go_back],
                                      hi_attr[go_back], hi_pos[go_back],
                                      starts_out, ends_out)
            fwd = ~go_back
            if fwd.any():
                self._derive_forward(attr, idxs[fwd], lo_attr[fwd],
                                     lo_pos[fwd], starts_out, ends_out)
            self._set_k(attr, idxs, starts_out[idxs])

        if known.any():
            idxs = np.flatnonzero(known)
            pos = ka[idxs]
            starts_out[idxs] = pos
            if attr == arity - 1:
                ends_out[idxs] = self.line_ends[idxs]
            else:
                kn = self.K.get(attr + 1)
                if kn is not None:
                    have_next = kn[idxs] != _NO
                else:
                    have_next = np.zeros(len(idxs), dtype=bool)
                if have_next.any():
                    sub = idxs[have_next]
                    ends_out[sub] = self.K[attr + 1][sub] - 1
                need_end = idxs[~have_next]
                if len(need_end):
                    tok = self.tokenizer()
                    sub_pos = ka[need_end]
                    line_ends = self.line_ends[need_end]
                    di = tok.delim_index(sub_pos)
                    bounds, is_delim = tok.boundary(di, line_ends)
                    if not is_delim.all():
                        raise CSVFormatError(
                            "line ended while tokenizing attribute "
                            f"{attr + 1} of {arity}")
                    ends_out[need_end] = bounds
                    model.tokenize(
                        int((np.minimum(bounds + 1, line_ends)
                             - sub_pos).sum()))
                    self._set_k(attr + 1, need_end, bounds + 1)
        return starts_out, ends_out

    def _derive_forward(self, attr, idxs, lo_attr, lo_pos, starts_out,
                        ends_out) -> None:
        tok = self.tokenizer()
        arity = self.scan.arity
        line_ends = self.line_ends[idxs]
        ib = tok.delim_index(lo_pos)
        steps = attr - lo_attr                       # >= 1 per row
        prev_bounds, prev_is_delim = tok.boundary(ib + steps - 1,
                                                  line_ends)
        if not prev_is_delim.all():
            raise CSVFormatError(
                f"ran out of attributes scanning forward to {attr}")
        starts_out[idxs] = prev_bounds + 1
        end_bounds, end_is_delim = tok.boundary(ib + steps, line_ends)
        ends_out[idxs] = end_bounds
        self.model.tokenize(
            int((np.minimum(end_bounds + 1, line_ends) - lo_pos).sum()))
        # Record positions discovered along the way (attrs between the
        # base and the target) and the free next-attribute start.
        for j in self.scan.union_attrs:
            if j >= attr or j <= 0:
                continue
            traversed = lo_attr < j
            if not traversed.any():
                continue
            sub = idxs[traversed]
            bj, isdj = tok.boundary(ib[traversed] + (j - 1 - lo_attr[traversed]),
                                    line_ends[traversed])
            good = isdj
            self._set_k(j, sub[good], bj[good] + 1)
        if attr + 1 < arity:
            good = end_is_delim
            self._set_k(attr + 1, idxs[good], end_bounds[good] + 1)

    def _derive_backward(self, attr, idxs, hi_attr, hi_pos, starts_out,
                         ends_out) -> None:
        tok = self.tokenizer()
        line_starts = self.line_starts[idxs]
        ib = tok.delim_index(hi_pos)
        first_idx = tok.delim_index(line_starts)
        steps = hi_attr - attr                       # >= 1 per row
        end_idx = ib - steps
        if (end_idx < first_idx).any():
            raise CSVFormatError(
                f"ran out of attributes scanning backward to {attr}")
        end_bounds = tok.delims[end_idx]
        ends_out[idxs] = end_bounds
        prev_idx = end_idx - 1
        has_prev = prev_idx >= first_idx
        prev = np.where(has_prev,
                        tok.delims[np.maximum(prev_idx, 0)],
                        line_starts - 1)
        starts_out[idxs] = prev + 1
        self.model.tokenize(int((hi_pos - (prev + 1)).sum()))
        # Intermediate attrs between target and base, discovered free.
        for j in self.scan.union_attrs:
            if j <= attr or j <= 0:
                continue
            traversed = hi_attr > j
            if not traversed.any():
                continue
            sub = idxs[traversed]
            j_idx = ib[traversed] - (hi_attr[traversed] - j) - 1
            ok = j_idx >= first_idx[traversed]
            pos = np.where(ok, tok.delims[np.maximum(j_idx, 0)] + 1,
                           line_starts[traversed])
            self._set_k(j, sub, pos)

    # -- flush ----------------------------------------------------------
    def flush_positions(self, block: int) -> None:
        """Insert the block's discovered positions as one chunk whose
        vertical group is the query's attribute combination, skipping
        attributes with nothing new (scalar ``_flush_positions``
        semantics exactly)."""
        scan = self.scan
        n = self.n
        touched = self.touched
        if not touched.any():
            return
        discovered: dict[int, np.ndarray] = {}
        for attr in scan.union_attrs:
            if attr <= 0 or attr >= scan.arity:
                continue
            col = self.K.get(attr)
            if col is None:
                continue
            out = np.full(n, NO_POS, dtype=np.int32)
            have = touched & (col != _NO)
            out[have] = (col[have] - self.line_starts[have]).astype(np.int32)
            if (out != NO_POS).any():
                discovered[attr] = out
        scan._insert_positions(block, discovered, self.positions)
