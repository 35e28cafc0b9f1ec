"""JSON Lines: an in-situ raw adapter built purely on the public seams.

This module is the registry's openness proof: a complete raw format —
adaptive positional map, binary cache, on-the-fly statistics, columnar
batch delivery — integrated through :func:`repro.formats.registry.
register_format`, the duck-typed
:class:`~repro.sql.scanapi.AccessMethod` protocol and the raw-scan
shell of :mod:`repro.core.blockscan` alone. It imports nothing from the
planner or the catalog and edits neither; a third-party package could
ship this file verbatim.

What lives here is what is genuinely JSONL: the tokenizer, the block's
lines (:class:`_Lines` — value spans a column at a time), value
conversion, the map lookups and cached columns of :class:`JsonlScan`,
and the tolerant line split (``_tolerant_fetch``). Everything else a
scan does — §4.5 refresh, the line index and the indexed/streaming
split, the indexed-block and stream-group compute with its staged
``"pm"`` / ``"cache"`` ops, the read/group/dispatch/merge loop with its
``scan_workers`` fan-out, kernel attempt and bailout, error policies
and the quarantine sidecar — is inherited from
:class:`~repro.core.blockscan.RawFileAccess` and
:class:`~repro.core.blockscan.BlockScan`, the same code the CSV scan
runs, so a JSONL table charges what its CSV twin charges for
everything but byte geometry (tokenizing, newline discovery, reads,
positional-map traffic).

Data model: one JSON object per line (``{"a": 1, "b": "x"}``); values
are reached by the declared column name (case-insensitive), missing
members and JSON ``null`` are SQL NULL, member order may vary per line.
Only top-level scalar members are addressable as columns (nested
arrays/objects are tokenized correctly but must be declared as strings
to be selected raw).

Tokenizing is block-at-a-time (§4.1: tokenizing dominates the first
query on a raw file). The first full tokenization of a group's lines is
one vectorized pass, :func:`block_member_spans` — a structural index of
quotes, string parity, structural bytes and member boundaries, with one
key compare against the group's first well-formed line — that yields
the value spans of every line it resolves as columns. Lines it does not
resolve (escapes, nesting, another member layout, anything malformed)
take the
per-line walk, :func:`member_spans`, which is also the oracle: same
spans, same errors, same charges.

Positional-map reuse, NoDB-style (§4.2): the map's **line index**
stores byte offsets of line starts — warm scans skip newline discovery
entirely and read only the byte runs they need — and its **chunks**
store relative byte offsets of member *values*, discovered as a side
effect of full tokenizations. A warm scan with a known value position
scans just that value's bytes (:func:`value_end`) instead of tokenizing
the line, exactly the adaptive behavior of the CSV scan. The binary
cache and statistics samples participate identically.
"""

from __future__ import annotations

import json
import re
from typing import Sequence

import numpy as np

from repro.core.blockscan import (
    NUMERIC_DTYPES,
    BlockLines,
    BlockScan,
    RawFileAccess,
    decode_numeric_spans,
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
from repro.simcost import CostEvent
from repro.sql.batch import object_nulls

_WS = frozenset(b" \t\r")
_QUOTE = ord('"')
_BACKSLASH = ord("\\")
_OPEN = {ord("["): ord("]"), ord("{"): ord("}")}
_BARE_END = frozenset(b",}] \t\r")

_NULL = np.frombuffer(b"null", dtype=np.uint8)


def _is_ws(b: np.ndarray) -> np.ndarray:
    """``b in _WS`` elementwise (compares beat a lookup-table gather)."""
    return (b == 32) | (b == 9) | (b == 13)


def _is_structural(b: np.ndarray) -> np.ndarray:
    return ((b == ord("{")) | (b == ord("}")) | (b == ord("["))
            | (b == ord("]")) | (b == ord(":")) | (b == ord(",")))


#: a quoted VARCHAR token holding none of these decodes without json
_NEEDS_JSON = re.compile(rb"[\x00-\x1f\\]")


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
    line — a full tokenization). The per-line walk: the fallback of
    :func:`block_member_spans` and its oracle."""
    spans: dict[str, tuple[int, int]] = {}
    n = len(line)
    i = _skip_ws(line, 0)
    if i >= n or line[i] != ord("{"):
        raise JSONLFormatError("line is not a JSON object")
    i = _skip_ws(line, i + 1)
    if i < n and line[i] == ord("}"):
        return spans, _object_end(line, i)
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
            return spans, _object_end(line, i)
        raise JSONLFormatError(f"expected ',' or '}}' at byte {i}")


def _object_end(line: bytes, i: int) -> int:
    """The closing ``}`` is at ``i``: only whitespace may follow it (a
    second object on the line is an error, not silently dropped).
    Returns the characters scanned — the whole line."""
    j = _skip_ws(line, i + 1)
    if j < len(line):
        raise JSONLFormatError(f"trailing data after object at byte {j}")
    return len(line)


def block_member_spans(lines_or_buffer, line_starts=None, line_ends=None,
                       keys: Sequence[str] = ()):
    """Tokenize many lines in one vectorized pass (the TOKENIZE stage
    run once per row-block group, not once per line).

    ``lines_or_buffer`` is a buffer holding the lines at ``line_starts``
    / ``line_ends`` (ascending, non-overlapping offsets), or a list of
    lines (offsets omitted). ``keys`` are lower-cased member names.
    Returns ``(starts, ends, fast)``: ``(len(keys), nlines)`` arrays of
    value spans relative to each line's start (``NO_POS`` where the
    member is absent) and the per-line mask they are valid on. On a
    fast line they equal ``member_spans(line)[0]`` restricted to
    ``keys``. A line is not fast when it holds a backslash or an odd
    number of quotes, nests (depth above 1), has another member count
    or other key bytes than the call's template line, holds a bare
    value with whitespace or a quote in it, has bytes after its closing
    ``}`` or is otherwise not ``{ "key": value, ... }``: such a line
    must take :func:`member_spans`, which also raises its errors.

    The index is sparse — one pass finds the quotes and the structural
    bytes ``{ } [ ] : ,`` and everything after works on those few
    positions: the in-string mask is the parity of the quotes since the
    line start (exact without backslashes); the structural bytes
    outside strings must read exactly ``{ : , : ... : }`` — depth (a
    running count of brackets) never leaves 1, so the only brackets are
    the outer pair; member boundaries are the ``:`` and ``,``;
    whitespace is stripped by stepping each boundary to the next /
    previous non-whitespace byte. Keys are matched once per call: the
    first well-formed line is the template, its key bytes decoded as
    :func:`member_spans` decodes them (``json.loads(...).lower()``; the
    last of a repeated key wins), and every other line with as many
    members is compared to them in one vector compare. A call whose
    lines all hold a backslash, or all fail the structure, stops as
    soon as that is known."""
    if line_starts is None:
        lines = list(lines_or_buffer)
        lengths = np.array([len(line) for line in lines], dtype=np.int64)
        line_ends = np.cumsum(lengths + 1) - 1
        line_starts = line_ends - lengths
        data = b"\n".join(lines)
    else:
        data = lines_or_buffer
    ls = np.asarray(line_starts, dtype=np.int64)
    le = np.asarray(line_ends, dtype=np.int64)
    nlines = len(ls)
    starts = np.full((len(keys), nlines), NO_POS, dtype=np.int64)
    ends = starts.copy()
    fast = np.zeros(nlines, dtype=bool)
    if not nlines:
        return starts, ends, fast
    arr = np.frombuffer(data, dtype=np.uint8)
    lo = int(ls[0])
    window = arr[lo:int(le[-1])]

    def skip_ws(pos, step):
        """Step each of ``pos`` (+1 / -1) past whitespace; every caller
        starts where a non-whitespace byte bounds the walk."""
        pos = pos.copy()
        moving = np.arange(len(pos))
        while len(moving):
            moving = moving[_is_ws(arr[pos[moving]])]
            pos[moving] += step
        return pos

    # -- strings: no escapes, so the quotes alone delimit them
    escapes = np.flatnonzero(window == _BACKSLASH) + lo
    ok = np.searchsorted(escapes, ls) == np.searchsorted(escapes, le)
    if not ok.any():
        return starts, ends, fast

    # -- quotes and structural bytes, grouped by line (any between the
    #    lines are dropped)
    events = np.flatnonzero((window == _QUOTE) | _is_structural(window)) + lo
    first_event = np.searchsorted(events, ls)
    nevents = np.searchsorted(events, le) - first_event
    offsets = np.cumsum(nevents) - nevents
    if offsets[-1] + nevents[-1] < len(events):
        events = events[np.arange(nevents.sum())
                        + np.repeat(first_event - offsets, nevents)]
        first_event = offsets
    event_line = np.repeat(np.arange(nlines), nevents)
    is_quote = arr[events] == _QUOTE
    quotes_before = np.concatenate(([0], np.cumsum(is_quote)))

    # -- structure outside strings: ``{ : , : ... : }`` (or ``{}``),
    #    only whitespace around it (with an odd quote count the last
    #    brace reads as inside a string, so such a line fails here)
    line_quotes = quotes_before[first_event]
    outside = ~is_quote & (
        (quotes_before[:-1] - line_quotes[event_line]) & 1 == 0)
    mark_event = np.flatnonzero(outside)
    mark_line = event_line[mark_event]
    marks = events[mark_event]
    count = np.bincount(mark_line, minlength=nlines)
    first = np.cumsum(count) - count
    rank = np.arange(len(marks)) - np.repeat(first, count)
    expect = np.where(rank & 1, ord(":"), ord(","))
    expect[rank == 0] = ord("{")
    expect[rank == np.repeat(count - 1, count)] = ord("}")
    ok[mark_line[arr[marks] != expect]] = False
    ok &= (count == 2) | ((count & 1 == 1) & (count > 1))
    rows = np.flatnonzero(ok)
    lbrace = marks[first[rows]]
    rbrace = marks[first[rows] + count[rows] - 1]
    ok[rows] = ((skip_ws(ls[rows], 1) == lbrace)
                & (skip_ws(le[rows] - 1, -1) == rbrace)
                & ((count[rows] > 2) | (skip_ws(lbrace + 1, 1) == rbrace)))
    if not ok.any():
        return starts, ends, fast

    # -- members: a quoted key before each ``:`` (decoding the template's
    #    keys below rejects anything but one JSON string), then a string
    #    or a bare token without whitespace or quotes
    colon = np.flatnonzero((arr[marks] == ord(":")) & ok[mark_line])
    member_line = mark_line[colon]
    key_start = skip_ws(marks[colon - 1] + 1, 1)
    key_end = skip_ws(marks[colon] - 1, -1) + 1
    value_start = skip_ws(marks[colon] + 1, 1)
    value_stop = skip_ws(marks[colon + 1] - 1, -1) + 1
    value_quotes = (quotes_before[mark_event[colon + 1]]
                    - quotes_before[mark_event[colon]])
    quoted = arr[value_start] == _QUOTE
    good = ((key_start < key_end) & (arr[key_start] == _QUOTE)
            & (value_start < value_stop)
            & np.where(quoted,
                       (arr[value_stop - 1] == _QUOTE) & (value_quotes == 2),
                       value_quotes == 0))
    bare = np.flatnonzero(good & ~quoted)
    spaces = np.flatnonzero(_is_ws(window)) + lo
    good[bare] = (np.searchsorted(spaces, value_start[bare])
                  == np.searchsorted(spaces, value_stop[bare]))
    ok[member_line[~good]] = False

    # -- keys: the first well-formed line is the template
    wellformed = np.flatnonzero(ok)
    if not len(wellformed):
        return starts, ends, fast
    members = (count - 1) // 2
    m = members[wellformed[0]]
    group = wellformed[members[wellformed] == m]
    idx = np.searchsorted(member_line, group)[:, None] + np.arange(m)
    kstart = key_start[idx]
    width = key_end[idx] - kstart
    same = (width == width[0]).all(axis=1)
    if m:
        alike = np.flatnonzero(same)
        template = width[0]
        gathered = arr[kstart[alike][:, np.repeat(np.arange(m), template)]
                       + np.concatenate([np.arange(w)
                                         for w in template.tolist()])]
        same[alike] = (gathered == gathered[0]).all(axis=1)
    try:
        names = [json.loads(bytes(data[s:s + w]).decode("utf-8", "replace"))
                 for s, w in zip(kstart[0].tolist(), width[0].tolist())]
    except ValueError:
        return starts, ends, fast  # the per-line walk raises "bad member name"
    slot = {name.lower(): j for j, name in enumerate(names)}
    matched = group[same]
    fast[matched] = True
    for k, key in enumerate(keys):
        j = slot.get(key)
        if j is not None:
            member = idx[same, j]
            starts[k, matched] = value_start[member] - ls[matched]
            ends[k, matched] = value_stop[member] - ls[matched]
    return starts, ends, fast


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
# One block's (or group's) lines and the value spans found in them
# ---------------------------------------------------------------------------
class _Lines(BlockLines):
    """The lines of one indexed block or stream group, and the value
    spans their tokenizations have found, a column at a time."""

    def __init__(self, scan, buffer, base, line_starts, line_ends, known):
        super().__init__(scan, buffer, base, line_starts, line_ends, known)
        n = self.n
        #: rows fully tokenized so far, and the union attributes' value
        #: spans on them (``NO_POS``: member absent)
        self.full = np.zeros(n, dtype=bool)
        self.starts = {attr: np.full(n, NO_POS, dtype=np.int64)
                       for attr in scan.union_attrs}
        self.ends = {attr: np.full(n, NO_POS, dtype=np.int64)
                     for attr in scan.union_attrs}
        #: rows the structural index has seen, and those it resolved
        self.indexed = np.zeros(n, dtype=bool)
        self.fast = np.zeros(n, dtype=bool)

    def spans(self, attr: int, rows: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray]:
        """``NO_POS`` where the member is absent. TOKENIZE is charged
        one row at a time in row order: nothing for a row already fully
        tokenized; the value's bytes for a row whose map position is
        known (a single-value scan); the whole line otherwise — a full
        tokenization, through the structural index where it resolves
        the line and the per-line walk where it does not. A malformed
        line raises after exactly the charges of the rows before it."""
        line_starts = self.line_starts[rows]
        lengths = self.line_ends[rows] - line_starts
        full = self.full[rows]
        hint = np.full(len(rows), NO_POS, dtype=np.int64)
        column = self.known.get(attr)
        if column is not None:
            inside = rows < len(column)
            hint[inside] = column[rows[inside]]
        hinted = ~full & (hint >= 0) & (hint < lengths)
        tokenized = ~full & ~hinted
        self._index(rows[tokenized & ~self.indexed[rows]])
        charged = hinted | tokenized
        units = np.where(tokenized, lengths, 0)
        starts = np.full(len(rows), NO_POS, dtype=np.int64)
        ends = starts.copy()
        walk = hinted | (tokenized & ~self.fast[rows])
        for i in np.flatnonzero(walk).tolist():
            lo = int(line_starts[i])
            line = self.buffer[lo:lo + int(lengths[i])]
            try:
                if hinted[i]:
                    start = int(hint[i])
                    end = value_end(line, start)
                    units[i] = end - start
                    starts[i], ends[i] = lo + start, lo + end
                else:
                    self._record(int(rows[i]), lo, member_spans(line)[0])
            except JSONLFormatError:
                self.scan.model.charge_each(CostEvent.TOKENIZE,
                                            units[:i][charged[:i]])
                raise
        self.scan.model.charge_each(CostEvent.TOKENIZE, units[charged])
        self.full[rows[tokenized]] = True
        spanned = ~hinted
        starts[spanned] = self.starts[attr][rows[spanned]]
        ends[spanned] = self.ends[attr][rows[spanned]]
        return starts, ends

    def _index(self, rows: np.ndarray) -> None:
        """Run the structural index over ``rows``; record the spans of
        the lines it resolves."""
        if not len(rows):
            return
        union_attrs = self.scan.union_attrs
        rel_starts, rel_ends, fast = block_member_spans(
            self.buffer, self.line_starts[rows], self.line_ends[rows],
            [self.scan.keys[attr] for attr in union_attrs])
        self.indexed[rows] = True
        resolved = rows[fast]
        self.fast[resolved] = True
        base = self.line_starts[resolved]
        for k, attr in enumerate(union_attrs):
            rel = rel_starts[k, fast]
            present = rel != NO_POS
            at = resolved[present]
            self.starts[attr][at] = base[present] + rel[present]
            self.ends[attr][at] = base[present] + rel_ends[k, fast][present]

    def _record(self, row: int, lo: int, spans: dict) -> None:
        """Record one per-line walk's spans (line-relative, at ``lo``)."""
        keys = self.scan.keys
        for attr in self.scan.union_attrs:
            span = spans.get(keys[attr])
            if span is not None:
                self.starts[attr][row] = lo + span[0]
                self.ends[attr][row] = lo + span[1]

    def positions(self) -> dict[int, np.ndarray]:
        """The value positions of the fully tokenized lines."""
        discovered: dict[int, np.ndarray] = {}
        full = np.flatnonzero(self.full)
        for attr in self.scan.union_attrs:
            starts = self.starts[attr][full]
            present = starts != NO_POS
            if present.any():
                rows = full[present]
                column = np.full(self.n, NO_POS, dtype=np.int32)
                column[rows] = starts[present] - self.line_starts[rows]
                discovered[attr] = column
        return discovered


# ---------------------------------------------------------------------------
# Per-scan compute: what is genuinely JSONL about a block scan
# ---------------------------------------------------------------------------
class JsonlScan(BlockScan):
    """One batch scan over one JSON-Lines table: the per-format half of
    :class:`~repro.core.blockscan.BlockScan` — its lines, value
    conversion, map lookups and the fast path's cached columns."""

    indexed_lines = stream_lines = _Lines

    def __init__(self, access, *scan_args):
        super().__init__(access, *scan_args)
        self.keys = access.keys

    def _convert(self, attr: int, buffer, starts: np.ndarray,
                 ends: np.ndarray) -> tuple[list | None, np.ndarray | None]:
        """``NO_POS`` starts are absent members. Bare numeric tokens go
        through the byte-matrix ``astype`` fast path the CSV scan uses
        (:func:`~repro.core.blockscan.decode_numeric_spans`); a quoted
        VARCHAR token without escapes or control bytes is sliced and
        decoded; every other token — and any numeric batch the fast
        path refuses — goes through :meth:`JsonlAccess._convert_value`,
        value-for-value identical."""
        n = len(starts)
        if not n:
            return [], None
        family = self._families[attr]
        self.model.convert(family, n)
        if family in NUMERIC_DTYPES:
            fast = self._fast_numeric(attr, buffer, starts, ends, family)
            if fast is not None:
                return fast
        convert = self.access._convert_value
        values = []
        for start, end in zip(starts.tolist(), ends.tolist()):
            token = None if start == NO_POS else buffer[start:end]
            if family == "str" and token is not None \
                    and token[:1] == b'"' and not _NEEDS_JSON.search(token):
                values.append(token[1:-1].decode("utf-8", "replace"))
            else:
                values.append(convert(attr, token))
        return values, None

    def _fast_numeric(self, attr: int, buffer, starts, ends, family: str):
        """Bare numeric tokens through one gathered byte matrix; quoted,
        ``null`` and missing tokens through the scalar conversion. None
        when there is no bare token or the matrix is refused."""
        arr = np.frombuffer(buffer, dtype=np.uint8)
        dirty = starts == NO_POS
        dirty |= arr[np.where(dirty, 0, starts)] == _QUOTE
        maybe_null = np.flatnonzero(~dirty & (ends - starts == 4))
        dirty[maybe_null] = (arr[starts[maybe_null, None] + np.arange(4)]
                             == _NULL).all(axis=1)
        clean = np.flatnonzero(~dirty)
        if not len(clean):
            return None
        parsed = decode_numeric_spans(arr, starts[clean], ends[clean],
                                      NUMERIC_DTYPES[family])
        if parsed is None:
            return None
        if len(clean) == len(starts):
            return None, parsed
        values = np.empty(len(starts), dtype=object)
        values[clean] = parsed.tolist()
        convert = self.access._convert_value
        for i in np.flatnonzero(dirty).tolist():
            start = int(starts[i])
            values[i] = convert(attr, None if start == NO_POS
                                else buffer[start:int(ends[i])])
        return values.tolist(), None

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


# ---------------------------------------------------------------------------
# Access method
# ---------------------------------------------------------------------------
class JsonlAccess(RawFileAccess):
    """In-situ scan over one JSON-Lines table (PM + cache + stats). The
    shell — §4.5 refresh, scan prologue/epilogue, quarantine sidecar,
    error annotation — is :class:`~repro.core.blockscan.RawFileAccess`;
    this class adds value conversion and the JSONL line split."""

    scan_class = JsonlScan

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

    #: The paper model's JSONL tokenizer is string/escape/bracket aware
    #: — a state machine per byte, not a memchr-style delimiter scan —
    #: so a tokenized character is priced at ~3x the engine's rate. A
    #: virtual-cost rate: it does not depend on how this module
    #: implements tokenizing (per line or by the block structural index).
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
