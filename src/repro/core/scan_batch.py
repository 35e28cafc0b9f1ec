"""The vectorized CSV scan: what is genuinely CSV about a block scan.

The block compute itself — two-phase selective reads, column assembly
from cache and fresh conversions, predicate masks, §4.4 sampling,
positional-map and cache inserts, and the whole indexed/streaming
driver with its ``scan_workers`` fan-out — is format-agnostic and lives
in :class:`~repro.core.blockscan.BlockScan`. :class:`BatchCsvScan`
supplies the CSV pieces it runs on:

* **delimiter discovery** over raw byte buffers with NumPy
  (``BlockTokenizer``: ``np.frombuffer`` + ``flatnonzero`` +
  ``searchsorted``) instead of per-line ``find`` / ``span_forward``
  loops — :class:`_CsvBlockLines` for an indexed block,
  :class:`_CsvGroupLines` for a stream group;
* **conversion** of whole span columns at once — int and float columns
  through a fixed-width byte-matrix ``astype`` fast path, everything
  else through one tight per-column loop (``_convert``);
* the positional-map lookups an indexed block makes
  (``_known_positions``), and which discovered positions the map keeps
  (``index_attrs``: the query's attributes, or every attribute up to
  them under §4.2 eager prefix indexing).

Correctness contract: for any workload, the scan produces the same
result rows *and leaves the same positional-map and cache contents* as
the row-at-a-time reference scan in ``tests/oracle/`` (see
``tests/test_batch_differential.py``). The trickiest part of honoring
that contract is the §4.2 incremental tokenization: spans are derived
from the nearest known attribute per row — forward or backward,
whichever is closer — exactly as the reference's per-row locate does,
but with delimiter-index arithmetic instead of byte scanning; a stream
group replays the reference's target sequence as a WHERE and a SELECT
phase (:func:`_stream_transitions`).
"""

from __future__ import annotations

import numpy as np

from repro.core.blockscan import (
    NUMERIC_DTYPES,
    BlockLines,
    BlockScan,
    decode_numeric_spans,
)
from repro.core.positional_map import NO_POS
from repro.errors import CSVFormatError
from repro.formats.csvfmt import (
    BlockTokenizer,
    block_field_spans,
    block_span_forward,
    field_error,
)

_NO = -1  # unknown position sentinel (offset arrays)


# ---------------------------------------------------------------------------
# Streaming-region tokenization helpers
# ---------------------------------------------------------------------------
def _stream_transitions(targets, arity, state=(-1, 0)):
    """Replay the row-at-a-time locate's target sequence (the reference
    scan in ``tests/oracle/``) for a fresh streaming row, whose only
    known start is attribute 0's.

    That per-row state is fully characterized by two integers: ``S``
    — the highest attribute whose full span has been memoized — and
    ``M`` — the highest attribute whose *start* is known (``M`` is
    ``S`` or ``S + 1``; the latter when a forward step left a free
    next-attribute start). Since every streaming row starts from the
    same state and the branch taken depends only on (S, M), the whole
    block shares one transition sequence.

    Returns ``(charges, (S, M))`` where each charge ``(base, through)``
    says the row-at-a-time locate would call span_forward from attr
    ``base``'s start and scan through the delimiter ending attr
    ``through`` — exactly the tokenize units to replicate, and ``M`` is
    the highest attribute position a row of this phase has recorded
    (the positional-map flush rule)."""
    S, M = state
    charges: list[tuple[int, int]] = []
    for t in targets:
        if t <= S:
            continue  # span memoized: no work
        if t == S + 1 and t == M:
            # Start known (free info) but span not: the row locate
            # tokenizes one step forward, memoizing t and t+1.
            if t == arity - 1:
                S = M = t  # last attribute: its end is free
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
# An indexed block's lines: bytes, known positions, span derivation
# ---------------------------------------------------------------------------
class _CsvBlockLines(BlockLines):
    """Byte window + known-position matrix for one indexed block.

    ``K`` maps attr -> start-offset array (``_NO`` holes), seeded from
    the positional map's prefetched columns; every position discovered
    while deriving spans is recorded back into it — the vectorized
    equivalent of a row locate's known starts — and handed to the map
    as one chunk at the end of the block (:meth:`positions`)."""

    def __init__(self, scan, buffer, base, line_starts, line_ends, known):
        super().__init__(scan, buffer, base, line_starts, line_ends, known)
        n = self.n
        self.model = scan.model
        self._tok: BlockTokenizer | None = None
        #: eager indexing: attr -> rows whose span the row walk holds
        self.spanned: dict[int, np.ndarray] | None = (
            {} if scan.config.eager_prefix_indexing else None)
        self.K: dict[int, np.ndarray] = {0: line_starts.copy()}
        for attr, rel in known.items():
            if attr == 0:
                continue
            col = np.full(n, _NO, dtype=np.int64)
            m = min(len(rel), n)
            rel_part = np.asarray(rel[:m], dtype=np.int64)
            present = rel_part != NO_POS
            col[:m][present] = line_starts[:m][present] + rel_part[present]
            self.K[attr] = col

    def read(self, handle, mask: np.ndarray) -> bool:
        if not super().read(handle, mask):
            return False
        self._tok = None  # delimiter index is stale
        return True

    def tokenizer(self) -> BlockTokenizer:
        if self._tok is None:
            self._tok = BlockTokenizer(bytes(self.buffer), 0,
                                       self.scan.dialect)
        return self._tok

    def spans(self, attr: int, rows: np.ndarray):
        mask = np.zeros(self.n, dtype=bool)
        mask[rows] = True
        starts, ends = self.derive_spans(attr, mask)
        return starts[rows], ends[rows]

    def positions(self) -> dict[int, np.ndarray]:
        """Every known start of the rows read this block, for the
        scan's ``index_attrs`` (what the row-at-a-time oracle's flush
        keeps, exactly)."""
        scan = self.scan
        discovered: dict[int, np.ndarray] = {}
        for attr in scan.index_attrs:
            col = self.K.get(attr)
            if attr <= 0 or attr >= scan.arity or col is None:
                continue
            out = np.full(self.n, NO_POS, dtype=np.int32)
            have = self.loaded & (col != _NO)
            out[have] = (col[have] - self.line_starts[have]).astype(np.int32)
            if (out != NO_POS).any():
                discovered[attr] = out
        return discovered

    # -- known-position bookkeeping ------------------------------------
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
                # Free, as in the streaming walk: the line's end, or the
                # next delimiter of a line wider than the schema.
                tok = self.tokenizer()
                ends_out[idxs], _ = tok.boundary(tok.delim_index(pos),
                                                 self.line_ends[idxs])
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
                    learns = self._learns_next(attr, need_end)
                    self._set_k(attr + 1, need_end[learns],
                                bounds[learns] + 1)
        return starts_out, ends_out

    def _learns_next(self, attr: int, rows: np.ndarray) -> np.ndarray:
        """Of ``rows``, whose ``attr`` end was just tokenized from a
        known start, those where the row-at-a-time walk learns ``attr +
        1``'s start too. The walk tokenizes one field past a known start,
        so it holds ``attr + 1``'s whole span and, asked for it next,
        learns no start after it; under eager indexing the map keeps
        every learned start, so the block must learn no more either."""
        if self.spanned is None:
            return np.ones(len(rows), dtype=bool)
        held = self.spanned.get(attr)
        learns = (np.ones(len(rows), dtype=bool) if held is None
                  else ~held[rows])
        spanned = np.zeros(self.n, dtype=bool)
        spanned[rows[learns]] = True
        self.spanned[attr + 1] = spanned
        return learns

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
        for j in self.scan.index_attrs:
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
        for j in self.scan.index_attrs:
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


# ---------------------------------------------------------------------------
# A stream group's lines: the WHERE and SELECT tokenizing phases
# ---------------------------------------------------------------------------
class _CsvGroupLines(BlockLines):
    """One group of freshly discovered lines, tokenized in a row
    locate's two phases: every row through the last WHERE attribute
    (asked for first, by the WHERE columns), then the qualifying rows
    on to the last SELECT attribute (:meth:`qualified`). Each phase
    charges what locating row by row would, in one aggregated call
    (:func:`_stream_transitions`)."""

    def __init__(self, scan, buffer, base, line_starts, line_ends, known):
        super().__init__(scan, buffer, base, line_starts, line_ends, known)
        self.tok = BlockTokenizer(buffer, 0, scan.dialect)
        #: span matrices of the WHERE phase (every row, attrs through
        #: the last WHERE one) and of the SELECT phase (qualifying rows)
        self.where = self.select = None
        self.qual_idx = np.empty(0, dtype=np.int64)

    def spans(self, attr: int, rows: np.ndarray):
        scan = self.scan
        upto_w = scan._max_where
        if attr <= upto_w:
            if self.where is None:
                starts, ends, _ = block_field_spans(
                    self.tok, self.line_starts, self.line_ends, upto_w)
                self.where = starts, ends
                self._charge(scan._charges_w, self.line_starts,
                             self.line_ends)
            starts, ends = self.where
            return starts[rows, attr], ends[rows, attr]
        # past the WHERE prefix: asked for at the qualifying rows
        col = attr if upto_w < 0 else attr - upto_w
        return self.select[0][:, col], self.select[1][:, col]

    def qualified(self, qual_idx: np.ndarray) -> None:
        """Extend tokenization for the qualifying rows only."""
        scan = self.scan
        upto_w, max_union = scan._max_where, scan._max_union
        self.qual_idx = qual_idx
        if max_union <= upto_w or not len(qual_idx):
            return
        q_starts = self.line_starts[qual_idx]
        q_ends = self.line_ends[qual_idx]
        if upto_w < 0:
            starts, ends, _ = block_field_spans(self.tok, q_starts, q_ends,
                                                max_union)
        else:
            starts, ends, _ = block_span_forward(
                self.tok, self.where[0][qual_idx, upto_w],
                max_union - upto_w, q_ends)
        self.select = starts, ends
        self._charge(scan._charges_s, q_starts, q_ends)

    def _charge(self, charges, line_starts: np.ndarray,
                line_ends: np.ndarray) -> None:
        """Charge exactly what a row locate would: for each
        transition, the bytes from attr ``base``'s start through the
        delimiter ending attr ``through`` (clipped at the line end),
        summed over the rows. One aggregated model call per phase."""
        if not charges or not len(line_starts):
            return
        tok = self.tok
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
            self.scan.model.tokenize(total)

    def positions(self) -> dict[int, np.ndarray]:
        """Of the scan's ``index_attrs``: failing rows record starts
        for attributes up to ``coverage_w`` — the locate-state
        machine's ``M`` after the WHERE phase, which is ``max_where +
        1`` only when the row-at-a-time locate would have left a free
        (or memoized) next-attribute start; qualifying rows record
        attributes up to ``coverage_s``, its ``M`` after the SELECT
        phase."""
        scan = self.scan
        max_where = scan._max_where
        qual_idx = self.qual_idx
        discovered: dict[int, np.ndarray] = {}
        for attr in scan.index_attrs:
            if attr <= 0 or attr >= scan.arity:
                continue
            column = np.full(self.n, NO_POS, dtype=np.int64)
            if attr <= max_where:
                column[:] = self.where[0][:, attr] - self.line_starts
            elif attr == max_where + 1 == scan._coverage_w:
                self._free_start(column, np.arange(self.n),
                                 self.where[1][:, max_where])
            if attr > max_where and self.select is not None:
                if attr <= scan._max_union:
                    col = attr if max_where < 0 else attr - max_where
                    column[qual_idx] = (self.select[0][:, col]
                                        - self.line_starts[qual_idx])
                elif attr == scan._coverage_s:
                    self._free_start(column, qual_idx,
                                     self.select[1][:, -1])
            if (column != NO_POS).any():
                discovered[attr] = column
        return discovered

    def _free_start(self, column: np.ndarray, rows: np.ndarray,
                    ends: np.ndarray) -> None:
        """Free info: the delimiter ending a field (``ends``, at
        ``rows``) is the next attribute's start — recorded on every row
        whose field was actually delimiter-terminated."""
        has_delim = ends < self.line_ends[rows]
        rows = rows[has_delim]
        column[rows] = ends[has_delim] + 1 - self.line_starts[rows]


class BatchCsvScan(BlockScan):
    """One block scan over one raw CSV table: the per-format half
    of :class:`~repro.core.blockscan.BlockScan`."""

    indexed_lines = _CsvBlockLines
    stream_lines = _CsvGroupLines

    def __init__(self, access, *scan_args):
        super().__init__(access, *scan_args)
        self.arity = access.schema.arity
        self.dialect = access.dialect
        where_attrs, union_attrs = self.where_attrs, self.union_attrs
        #: the attributes whose discovered positions the map keeps: the
        #: query's own (§4.2 adaptive population), or — eager prefix
        #: indexing — every one tokenized on the way to them
        self.index_attrs = (range(1, self.arity)
                            if self.config.eager_prefix_indexing
                            else union_attrs)
        # Streaming-region constants of this scan's shape. A row-at-a-
        # time locate finds targets lazily from the line start; its
        # target sequence is replayed as a state machine so the batch
        # path charges identical tokenize units and records identical
        # positions (see _stream_transitions).
        self._max_where = max(where_attrs) if where_attrs else -1
        self._max_union = union_attrs[-1] if union_attrs else -1
        self._charges_w, state_w = _stream_transitions(where_attrs,
                                                       self.arity)
        #: highest attr whose start a failing (or any) row has recorded
        #: after the WHERE phase — and a qualifying row after the SELECT
        #: phase, which continues the locate-state where WHERE left it
        self._coverage_w = state_w[1]
        self._charges_s, (_, self._coverage_s) = _stream_transitions(
            self.out_attrs, self.arity, state_w)

    def _convert(self, attr: int, buffer, starts: np.ndarray,
                 ends: np.ndarray) -> tuple[list | None, np.ndarray | None]:
        n = len(starts)
        family = self._families[attr]
        self.model.convert(family, n)
        np_dtype = NUMERIC_DTYPES.get(family)
        if np_dtype is not None and n:
            empties = ends == starts
            buf_arr = np.frombuffer(buffer, dtype=np.uint8)
            if empties.all():
                return [None] * n, None
            if empties.any():
                present = ~empties
                sub = decode_numeric_spans(buf_arr, starts[present],
                                           ends[present], np_dtype)
                if sub is not None:
                    values = [None] * n
                    for slot, value in zip(np.flatnonzero(present),
                                           sub.tolist()):
                        values[slot] = value
                    return values, None
            else:
                typed = decode_numeric_spans(buf_arr, starts, ends,
                                             np_dtype)
                if typed is not None:
                    return None, typed
        # Fallback / non-numeric: one tight per-field loop mirroring the
        # per-value ``convert_field`` exactly (empty non-string -> NULL).
        values = []
        view = memoryview(buffer)
        parse = self._dtypes[attr].parse
        is_str = family == "str"
        for s, e in zip(starts.tolist(), ends.tolist()):
            text = bytes(view[s:e]).decode("utf-8", "replace")
            if not text and not is_str:
                values.append(None)
                continue
            try:
                values.append(parse(text))
            except Exception as exc:
                raise field_error(text, self._dtypes[attr],
                                  self.schema.columns[attr].name) from exc
        return values, None

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
