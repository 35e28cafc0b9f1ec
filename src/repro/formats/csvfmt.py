"""CSV tokenizing primitives — scalar and vectorized.

The scalar functions (:func:`split_line`, :func:`field_spans_prefix`,
:func:`span_forward`, :func:`span_backward`) are pure functions over
``bytes``: they find line boundaries and attribute spans and report *how
many characters they had to examine*, so the caller (the in-situ scan)
can charge the cost model precisely. This separation is what lets tests
assert the paper's mechanisms — e.g. "selective tokenizing touches fewer
characters" — as exact counters.

The vectorized layer (:func:`newline_offsets`, :class:`BlockTokenizer`,
:func:`block_field_spans`, :func:`block_span_forward`,
:func:`block_span_backward`) computes the same spans for a whole block
of lines at once with NumPy. The key observation: once the delimiter
positions of a buffer are materialized as one sorted array ``D``
(``np.flatnonzero``), the *j*-th delimiter of any line is
``D[searchsorted(D, line_start) + j]`` — tokenizing forward or backward
from any known attribute position becomes pure index arithmetic, with
no per-row byte scanning. The ``block_*`` functions are pinned to their
scalar counterparts (spans and chars-scanned both) by property tests.

What a line means as a row is written once too: :func:`convert_field`
(the value rule every reader follows), :func:`read_records` (the line
walk of the engines that parse every record) and :class:`CsvTolerance`
(a malformed line under a tolerant ``on_error`` policy).

Dialect note: fields are raw bytes between delimiters; no quoting or
escaping (the paper's generated workloads are plain CSV). The generators
in :mod:`repro.workloads` never emit delimiter bytes inside values, and
:func:`split_line` raises on NUL bytes as a cheap corruption guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import CSVFormatError, annotate
from repro.storage.vfs import VirtualFile

NEWLINE = 0x0A  # b"\n"


@dataclass(frozen=True)
class CsvDialect:
    """Delimiter configuration (newline is always ``\\n``)."""

    delimiter: bytes = b","

    @property
    def delim_byte(self) -> int:
        return self.delimiter[0]


DEFAULT_DIALECT = CsvDialect()


def find_line_starts(block: bytes, base_offset: int = 0) -> tuple[list[int], int]:
    """Offsets (absolute, given ``base_offset``) of each line start *after*
    a newline inside ``block``; plus characters scanned.

    The caller seeds the very first line start (offset 0) itself.
    """
    starts: list[int] = []
    search_from = 0
    while True:
        idx = block.find(b"\n", search_from)
        if idx < 0:
            break
        starts.append(base_offset + idx + 1)
        search_from = idx + 1
    return starts, len(block)


def split_line(line: bytes, dialect: CsvDialect = DEFAULT_DIALECT,
               ) -> tuple[list[tuple[int, int]], int]:
    """Spans ``(start, end)`` of every attribute in ``line``; plus chars
    scanned (always the whole line). ``line`` excludes the newline."""
    if b"\x00" in line:
        raise CSVFormatError("NUL byte in CSV line")
    delim = dialect.delimiter
    spans: list[tuple[int, int]] = []
    start = 0
    while True:
        idx = line.find(delim, start)
        if idx < 0:
            spans.append((start, len(line)))
            break
        spans.append((start, idx))
        start = idx + 1
    return spans, len(line)


def convert_field(model, text: str, dtype, column: str):
    """One CSV field's text as its column's value, the rule every CSV
    reader shares: one conversion of ``dtype``'s family is charged to
    ``model``, an empty field of a non-string column is NULL, and text
    ``dtype`` cannot parse raises :func:`field_error`."""
    model.convert(dtype.family, 1)
    if text == "" and dtype.family != "str":
        return None
    try:
        return dtype.parse(text)
    except Exception as exc:
        raise field_error(text, dtype, column) from exc


def field_error(text: str, dtype, column: str) -> CSVFormatError:
    """The error for a field ``dtype`` cannot parse, naming the column
    in the message and in ``context["column"]``."""
    return annotate(
        CSVFormatError(f"cannot parse {text!r} as {dtype.name} "
                       f"(attribute {column})"),
        column=column)


def short_row_error(found: int, column: str) -> CSVFormatError:
    """The error for a line of ``found`` fields that has no field for
    ``column``, named in the message and in ``context["column"]``."""
    return annotate(
        CSVFormatError(f"short row: {found} attributes, attribute "
                       f"{column} missing"),
        column=column)


def read_records(handle: VirtualFile, schema, model,
                 dialect: CsvDialect = DEFAULT_DIALECT,
                 ) -> Iterator[tuple[int, bytes, Iterator]]:
    """The record walk of the engines that parse every record — the
    bulk loader and the external-files straw-man: one ``(row_number,
    line, values)`` per line of ``handle``, read sequentially, charging
    ``newline_scan`` and ``tokenize`` per line. ``values`` is lazy, one
    :func:`convert_field` per column as it is pulled, so a consumer
    prices its own work in between. A line wider than the schema is
    read as its prefix; a shorter one (a blank line too), a NUL byte or
    a value its column cannot parse raises :class:`CSVFormatError` from
    ``values``, with ``row_number`` (and ``column``, but for a NUL)."""
    columns = schema.columns
    reader = LineReader(handle)
    scanned = 0
    for row_number, (_offset, line) in enumerate(reader):
        model.newline_scan(reader.chars_scanned - scanned)
        scanned = reader.chars_scanned
        model.tokenize(len(line))
        yield row_number, line, _record_values(model, line, row_number,
                                               columns, dialect)


def _record_values(model, line: bytes, row_number: int, columns,
                   dialect: CsvDialect) -> Iterator:
    try:
        spans, _ = split_line(line, dialect)
        if len(spans) < len(columns):
            raise short_row_error(len(spans), columns[len(spans)].name)
        for (start, end), column in zip(spans, columns):
            yield convert_field(model, line[start:end].decode(
                "utf-8", "replace"), column.dtype, column.name)
    except CSVFormatError as exc:
        raise annotate(exc, row_number=row_number)


class CsvTolerance:
    """CSV's line split for a tolerant error policy's redo of a failed
    row (:class:`~repro.core.blockscan.ErrorPolicy`), shared by the CSV
    access methods — PostgresRaw's and the external-files straw-man's,
    which supply ``schema`` and ``dialect``."""

    def _tolerant_fetch(self, model, line: bytes, policy: str):
        """The whole line is re-tokenized with a plain delimiter split
        (degradation, not the selective §4.1 machinery — malformed
        lines forfeit positional-map and cache participation) and each
        *touched* value is converted individually against ``model``:
        a value beyond the last field (a short row) or one its column
        cannot parse is NULL under ``'null'`` and a reason under
        ``'skip'``."""
        fields = line.decode("utf-8", "replace").split(
            self.dialect.delimiter.decode("utf-8"))

        def fetch(attr):
            column = self.schema.columns[attr]
            try:
                if attr >= len(fields):
                    raise short_row_error(len(fields), column.name)
                return convert_field(model, fields[attr], column.dtype,
                                     column.name), None
            except CSVFormatError as exc:
                return None, (str(exc) if policy == "skip" else None)

        return fetch


def field_spans_prefix(line: bytes, upto: int,
                       dialect: CsvDialect = DEFAULT_DIALECT,
                       ) -> tuple[list[tuple[int, int]], int]:
    """Spans of attributes ``0..upto`` (inclusive) — *selective
    tokenizing* (§4.1): stop as soon as the last required attribute has
    been delimited. Returns ``(spans, chars_scanned)``.

    Raises :class:`CSVFormatError` if the line has fewer attributes.
    """
    delim = dialect.delimiter
    spans: list[tuple[int, int]] = []
    start = 0
    for _ in range(upto + 1):
        idx = line.find(delim, start)
        if idx < 0:
            spans.append((start, len(line)))
            if len(spans) <= upto:
                raise CSVFormatError(
                    f"line has {len(spans)} attributes, need {upto + 1}")
            return spans, len(line)
        spans.append((start, idx))
        start = idx + 1
    return spans, start  # scanned through the delimiter of attr `upto`


def span_forward(line: bytes, known_start: int, steps: int,
                 dialect: CsvDialect = DEFAULT_DIALECT,
                 ) -> tuple[list[tuple[int, int]], int]:
    """From a known attribute start offset, tokenize ``steps`` attributes
    forward — the PM's *incremental parsing* (§4.2). Returns the spans of
    the ``steps + 1`` attributes beginning at ``known_start`` (the known
    one first) and the chars scanned.
    """
    delim = dialect.delimiter
    spans: list[tuple[int, int]] = []
    start = known_start
    for _ in range(steps + 1):
        idx = line.find(delim, start)
        if idx < 0:
            spans.append((start, len(line)))
            if len(spans) < steps + 1:
                raise CSVFormatError(
                    f"ran out of attributes scanning forward "
                    f"({len(spans)} of {steps + 1})")
            return spans, len(line) - known_start
        spans.append((start, idx))
        start = idx + 1
    return spans, start - known_start


def span_backward(line: bytes, known_start: int, steps: int,
                  dialect: CsvDialect = DEFAULT_DIALECT,
                  ) -> tuple[list[tuple[int, int]], int]:
    """From a known attribute start, tokenize ``steps`` attributes
    *backward* (§4.2: "jumps ... and tokenizes backwards").

    Returns spans of the ``steps`` attributes before the known one, in
    file order (earliest first), plus chars scanned.
    """
    if steps <= 0:
        return [], 0
    delim_byte = dialect.delim_byte
    # known_start - 1 is the delimiter that ends the previous attribute.
    boundaries: list[int] = []   # start offsets, collected right-to-left
    pos = known_start - 1
    scanned = 0
    remaining = steps
    while remaining > 0:
        end = pos          # delimiter position ending this attribute
        pos -= 1
        while pos >= 0 and line[pos] != delim_byte:
            pos -= 1
        scanned += end - pos
        boundaries.append(pos + 1)
        remaining -= 1
        if pos < 0 and remaining > 0:
            raise CSVFormatError(
                f"ran out of attributes scanning backward "
                f"({steps - remaining} of {steps})")
    starts = boundaries[::-1]
    spans = []
    for i, start in enumerate(starts):
        end = starts[i + 1] - 1 if i + 1 < len(starts) else known_start - 1
        spans.append((start, end))
    return spans, scanned


# ---------------------------------------------------------------------------
# Vectorized (block-at-a-time) tokenizing
# ---------------------------------------------------------------------------
def newline_offsets(block: bytes | memoryview) -> np.ndarray:
    """Offsets of every newline byte inside ``block`` (int64, sorted) —
    the vectorized counterpart of the :func:`find_line_starts` loop."""
    arr = np.frombuffer(block, dtype=np.uint8)
    return np.flatnonzero(arr == NEWLINE).astype(np.int64)


class BlockTokenizer:
    """Delimiter index over one contiguous byte buffer.

    ``base`` is the absolute file offset of ``buffer[0]``; every
    position consumed or produced by this class is absolute, so callers
    can mix positional-map offsets and line spans without translation.
    """

    __slots__ = ("base", "delims", "ndelims")

    def __init__(self, buffer: bytes | memoryview, base: int = 0,
                 dialect: CsvDialect = DEFAULT_DIALECT):
        self.base = base
        arr = np.frombuffer(buffer, dtype=np.uint8)
        self.delims = np.flatnonzero(
            arr == dialect.delim_byte).astype(np.int64)
        if base:
            self.delims += base
        self.ndelims = len(self.delims)

    def delim_index(self, positions: np.ndarray) -> np.ndarray:
        """Index (into the delimiter array) of the first delimiter at or
        after each position."""
        return np.searchsorted(self.delims, positions)

    def boundary(self, indexes: np.ndarray, line_ends: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, is_delim)`` for delimiter ``indexes``, clipped
        per row at ``line_ends``: where a line has no such delimiter the
        position is the line end and ``is_delim`` is False."""
        if self.ndelims == 0:
            return line_ends.copy(), np.zeros(len(indexes), dtype=bool)
        clipped = np.clip(indexes, 0, self.ndelims - 1)
        positions = self.delims[clipped]
        is_delim = ((indexes >= 0) & (indexes < self.ndelims)
                    & (positions < line_ends))
        return np.where(is_delim, positions, line_ends), is_delim


def block_field_spans(tok: BlockTokenizer, line_starts: np.ndarray,
                      line_ends: np.ndarray, upto: int,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`field_spans_prefix` over a block of lines.

    Returns ``(starts, ends, scanned)`` where ``starts``/``ends`` are
    ``(nrows, upto + 1)`` absolute span matrices and ``scanned`` is the
    per-row chars-examined count (identical to the scalar function's).
    Raises :class:`CSVFormatError` if any line has fewer attributes.
    """
    nrows = len(line_starts)
    starts = np.empty((nrows, upto + 1), dtype=np.int64)
    ends = np.empty_like(starts)
    starts[:, 0] = line_starts
    idx0 = tok.delim_index(line_starts)
    for j in range(upto + 1):
        bounds, is_delim = tok.boundary(idx0 + j, line_ends)
        ends[:, j] = bounds
        if j < upto:
            if not is_delim.all():
                short = int(np.flatnonzero(~is_delim)[0])
                raise annotate(
                    CSVFormatError(
                        f"line has {j + 1} attributes, need {upto + 1} "
                        f"(row {short} of block)"),
                    row_in_block=short)
            starts[:, j + 1] = bounds + 1
    scanned = np.minimum(ends[:, upto] + 1, line_ends) - line_starts
    return starts, ends, scanned


def block_span_forward(tok: BlockTokenizer, known_starts: np.ndarray,
                       steps: int, line_ends: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`span_forward`: from known attribute starts,
    tokenize ``steps`` attributes forward on every line at once.

    Returns ``(starts, ends, scanned)`` — ``(nrows, steps + 1)`` span
    matrices (the known attribute first) plus per-row chars scanned.
    """
    nrows = len(known_starts)
    starts = np.empty((nrows, steps + 1), dtype=np.int64)
    ends = np.empty_like(starts)
    starts[:, 0] = known_starts
    idx0 = tok.delim_index(known_starts)
    for j in range(steps + 1):
        bounds, is_delim = tok.boundary(idx0 + j, line_ends)
        ends[:, j] = bounds
        if j < steps:
            if not is_delim.all():
                found = j + 1
                raise CSVFormatError(
                    f"ran out of attributes scanning forward "
                    f"({found} of {steps + 1})")
            starts[:, j + 1] = bounds + 1
    scanned = np.minimum(ends[:, steps] + 1, line_ends) - known_starts
    return starts, ends, scanned


def block_span_backward(tok: BlockTokenizer, known_starts: np.ndarray,
                        steps: int, line_starts: np.ndarray,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`span_backward`: tokenize ``steps`` attributes
    *backward* from known attribute starts on every line at once.

    Returns ``(starts, ends, scanned)`` — ``(nrows, steps)`` span
    matrices in file order (earliest attribute first) plus per-row chars
    scanned, matching the scalar function exactly.
    """
    nrows = len(known_starts)
    if steps <= 0:
        empty = np.empty((nrows, 0), dtype=np.int64)
        return empty, empty.copy(), np.zeros(nrows, dtype=np.int64)
    idx0 = tok.delim_index(known_starts)   # delim at known_start-1 is idx0-1
    first_idx = tok.delim_index(line_starts)
    # Backward attr m (1 = nearest) ends at delimiter idx0-m; it exists
    # only while idx0-m >= first_idx.
    if int((idx0 - first_idx).min()) < steps:
        short = int(np.flatnonzero((idx0 - first_idx) < steps)[0])
        found = int((idx0 - first_idx)[short])
        raise CSVFormatError(
            f"ran out of attributes scanning backward "
            f"({found} of {steps})")
    starts = np.empty((nrows, steps), dtype=np.int64)
    ends = np.empty_like(starts)
    for m in range(1, steps + 1):
        col = steps - m                    # file order: earliest first
        prev_idx = idx0 - m - 1
        has_prev = prev_idx >= first_idx
        prev = np.where(has_prev, tok.delims[np.maximum(prev_idx, 0)],
                        line_starts - 1)
        starts[:, col] = prev + 1
        # Attr `col` ends one byte before the next attribute's start
        # (the scalar function's convention).
        ends[:, col] = tok.delims[idx0 - m]
    # Chars scanned telescopes: from the delimiter ending the attribute
    # before the known one back to the position just before the earliest
    # attribute found.
    scanned = known_starts - starts[:, 0]
    return starts, ends, scanned


class LineReader:
    """Streams ``(line_start_offset, line_bytes)`` pairs from a costed
    :class:`VirtualFile`, reading in large sequential blocks.

    Disk cost is charged by the file handle; the newline scan itself is
    *not* charged here — the caller decides (a PostgresRaw scan that
    already has the line index jumps without scanning; a first pass
    charges ``tokenize`` per char via the ``chars_scanned`` counter).
    """

    def __init__(self, handle: VirtualFile, block_size: int = 256 * 1024,
                 start_offset: int = 0):
        self.handle = handle
        self.block_size = block_size
        self.start_offset = start_offset
        self.chars_scanned = 0

    def __iter__(self) -> Iterator[tuple[int, bytes]]:
        self.handle.seek(self.start_offset)
        buf = b""
        buf_start = self.start_offset  # absolute offset of buf[0]
        while True:
            block = self.handle.read_sequential(self.block_size)
            if not block:
                break
            self.chars_scanned += len(block)
            buf += block
            cursor = 0
            while True:
                idx = buf.find(b"\n", cursor)
                if idx < 0:
                    break
                yield buf_start + cursor, buf[cursor:idx]
                cursor = idx + 1
            buf = buf[cursor:]
            buf_start += cursor
        if buf:
            yield buf_start, buf


def write_csv(rows: Iterator[list[str]] | list[list[str]],
              dialect: CsvDialect = DEFAULT_DIALECT) -> bytes:
    """Render pre-formatted string rows as CSV bytes (used by generators
    and by tests; values must not contain the delimiter or newlines)."""
    delim = dialect.delimiter.decode("ascii")
    out: list[str] = []
    for row in rows:
        for value in row:
            if delim in value or "\n" in value:
                raise CSVFormatError(
                    f"value contains delimiter/newline: {value!r}")
        out.append(delim.join(row))
    return ("\n".join(out) + "\n").encode("utf-8") if out else b""
