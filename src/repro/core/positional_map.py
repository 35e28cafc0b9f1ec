"""The adaptive positional map (§4.2, Figure 2).

Low-level metadata about the structure of a raw file, built as a side
effect of query processing and used to navigate back to attribute values
without re-tokenizing.

Structure
---------
* A **line index**: absolute byte offsets of tuple (line) starts. This is
  the "minimal map maintaining positional information only for the end of
  lines" that even the cache-only PostgresRaw variant keeps (§5.1.2).
* **Chunks**, partitioned vertically and horizontally: a chunk holds the
  relative-to-line-start offsets (int32 — the paper's "relative positions
  reduce storage requirements" point) of one *group* of attributes
  (attributes requested together, in query order — "the attributes do not
  necessarily appear in the map in the same order as in the raw file")
  for one block of rows.
* An **attribute-order directory** per block: which attributes are
  indexed where — the paper's "higher level data structure ... used to
  quickly determine the position of a given attribute in the positional
  map".

Maintenance: chunks are LRU-evicted to stay within ``budget_bytes``;
with spilling enabled, evicted chunks are written to the VFS and read
back (at I/O cost) on demand instead of being discarded (§4.2
Maintenance). Dropping any part of the map is always safe — positions
served are exact or absent, never wrong.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

import numpy as np

from repro.errors import StorageError
from repro.simcost.model import CostModel
from repro.storage.vfs import VirtualFS

#: (group, block) — group is the ordered tuple of attribute indexes.
ChunkKey = tuple[tuple[int, ...], int]

#: sentinel inside chunks (and in the columns :meth:`PositionalMap.
#: positions` returns): position unknown for this row
NO_POS = -1


class PositionalMap:
    """Adaptive positional map for one raw file."""

    def __init__(
        self,
        model: CostModel,
        nattrs: int,
        row_block_size: int = 1024,
        budget_bytes: int | None = None,
        spill_vfs: VirtualFS | None = None,
        spill_prefix: str = "__pm_spill__",
    ):
        self.model = model
        self.nattrs = nattrs
        self.row_block_size = row_block_size
        self.budget_bytes = budget_bytes
        self.spill_vfs = spill_vfs
        self.spill_prefix = spill_prefix

        self._line_starts: list[int] = []
        self._file_length: int | None = None  # set when EOF position known
        self._newline_terminated = True       # last line ends with \n?

        self._chunks: OrderedDict[ChunkKey, np.ndarray] = OrderedDict()
        self._chunk_bytes = 0
        #: block -> {attr -> (chunk_key, column_in_chunk)}
        self._directory: dict[int, dict[int, tuple[ChunkKey, int]]] = {}
        self._spilled: dict[ChunkKey, str] = {}
        self._spill_counter = 0
        self.evictions = 0
        self.spill_loads = 0

    # ------------------------------------------------------------------
    # Line index
    # ------------------------------------------------------------------
    @property
    def known_line_count(self) -> int:
        """Number of consecutive-from-zero lines with known start offsets."""
        return len(self._line_starts)

    def append_line_start(self, offset: int) -> None:
        """Record the start offset of the next line (must be appended in
        file order)."""
        if self._line_starts and offset <= self._line_starts[-1]:
            raise StorageError(
                f"line starts must be strictly increasing "
                f"({offset} after {self._line_starts[-1]})")
        self._line_starts.append(offset)
        self.model.map_insert(1)

    def append_line_starts(self, offsets) -> None:
        """Bulk :meth:`append_line_start` — one strictly-increasing check
        and one cost charge for a whole batch of discovered lines."""
        offsets = np.asarray(offsets, dtype=np.int64)
        if len(offsets) == 0:
            return
        if (self._line_starts and offsets[0] <= self._line_starts[-1]) or \
                (len(offsets) > 1 and (np.diff(offsets) <= 0).any()):
            raise StorageError("line starts must be strictly increasing")
        self._line_starts.extend(offsets.tolist())
        self.model.map_insert(len(offsets))

    def set_file_length(self, length: int,
                        newline_terminated: bool | None = None) -> None:
        """Record the file length so the last line's end is known.
        ``newline_terminated`` says whether the final byte is a newline
        (an unterminated last line extends to EOF itself); None keeps
        the current belief (files start as newline-terminated, the
        write_csv contract)."""
        self._file_length = length
        if newline_terminated is not None:
            self._newline_terminated = newline_terminated

    def invalidate_file_length(self) -> None:
        """Forget the EOF position (file was appended to, §4.5)."""
        self._file_length = None

    @property
    def has_file_length(self) -> bool:
        """True when the EOF position is known — which implies the line
        index is a complete cover of the file (it is only set by code
        that scanned through to the end)."""
        return self._file_length is not None

    def line_start(self, row: int) -> int | None:
        if 0 <= row < len(self._line_starts):
            self.model.map_access(1)
            return self._line_starts[row]
        return None

    def line_span(self, row: int) -> tuple[int, int] | None:
        """Absolute ``(start, end)`` of line ``row`` excluding the newline,
        or None if either endpoint is unknown."""
        if not 0 <= row < len(self._line_starts):
            return None
        start = self._line_starts[row]
        if row + 1 < len(self._line_starts):
            self.model.map_access(2)
            return (start, self._line_starts[row + 1] - 1)
        if self._file_length is not None:
            self.model.map_access(2)
            end = self._file_length
            if end > start and self._ends_with_newline():
                end -= 1
            return (start, end)
        return None

    def _ends_with_newline(self) -> bool:
        # Set by whichever scan reached EOF; generated CSVs always end
        # with a newline (write_csv guarantees it) but externally
        # supplied files may not.
        return self._newline_terminated

    def has_line_spans(self, lo: int, hi: int) -> bool:
        """Uncharged probe: would :meth:`line_spans_block` succeed for
        ``lo..hi-1``? Replicates its boundary checks without building
        arrays or charging map accesses — the scan kernels' fast path
        tests coverage with it before committing to a block."""
        if lo < 0 or hi <= lo or hi > len(self._line_starts):
            return False
        if hi == len(self._line_starts) and self._file_length is None:
            return False
        return True

    def line_spans_block(self, lo: int, hi: int,
                         ) -> tuple[np.ndarray, np.ndarray] | None:
        """Absolute ``(starts, ends)`` arrays for lines ``lo..hi-1``
        (ends exclude the newline), or None if any span is unknown —
        the batch scan's bulk :meth:`line_span`."""
        if lo < 0 or hi <= lo or hi > len(self._line_starts):
            return None
        known = len(self._line_starts)
        if hi == known and self._file_length is None:
            return None  # last known line's end is undiscovered
        starts = np.array(self._line_starts[lo:hi], dtype=np.int64)
        ends = np.empty(hi - lo, dtype=np.int64)
        ends[:-1] = starts[1:] - 1
        if hi < known:
            ends[-1] = self._line_starts[hi] - 1
        else:
            end = self._file_length
            if end > starts[-1] and self._ends_with_newline():
                end -= 1
            ends[-1] = end
        self.model.map_access(2 * (hi - lo))
        return starts, ends

    # ------------------------------------------------------------------
    # Attribute chunks
    # ------------------------------------------------------------------
    def block_of(self, row: int) -> int:
        return row // self.row_block_size

    def insert_chunk(self, group: Iterable[int], block: int,
                     matrix: np.ndarray) -> None:
        """Store relative offsets for ``group`` attributes over ``block``.

        ``matrix`` has one row per tuple in the block (tail blocks are
        shorter) and one column per attribute in ``group`` order.
        """
        group = tuple(group)
        if matrix.ndim != 2 or matrix.shape[1] != len(group):
            raise StorageError(
                f"chunk matrix shape {matrix.shape} does not match group "
                f"of {len(group)} attributes")
        matrix = np.ascontiguousarray(matrix, dtype=np.int32)
        key: ChunkKey = (group, block)
        old = self._chunks.pop(key, None)
        if old is not None:
            self._chunk_bytes -= old.nbytes
        self._chunks[key] = matrix
        self._chunk_bytes += matrix.nbytes
        self.model.map_insert(matrix.size)
        directory = self._directory.setdefault(block, {})
        for col, attr in enumerate(group):
            directory[attr] = (key, col)
        self._spilled.pop(key, None)
        self._enforce_budget()

    def _enforce_budget(self) -> None:
        if self.budget_bytes is None:
            return
        while self._chunk_bytes > self.budget_bytes and self._chunks:
            key, matrix = self._chunks.popitem(last=False)
            self._chunk_bytes -= matrix.nbytes
            self.evictions += 1
            if self.spill_vfs is not None:
                self._spill(key, matrix)
            else:
                self._forget(key)

    def _spill(self, key: ChunkKey, matrix: np.ndarray) -> None:
        path = f"{self.spill_prefix}/chunk_{self._spill_counter}.pm"
        self._spill_counter += 1
        self.spill_vfs.create(path)
        handle = self.spill_vfs.open(path, self.model)
        handle.append(matrix.tobytes())
        self._spilled[key] = path
        # Directory entries stay: the positions are still reachable.

    def _forget(self, key: ChunkKey) -> None:
        group, block = key
        directory = self._directory.get(block)
        if not directory:
            return
        for col, attr in enumerate(group):
            if directory.get(attr, (None, None))[0] == key:
                del directory[attr]
        if not directory:
            del self._directory[block]

    def _load_spilled(self, key: ChunkKey) -> np.ndarray | None:
        """Read an evicted chunk back from the VFS — with self-healing:
        a read failure or geometry mismatch (truncated / corrupted spill
        file) drops the chunk instead of crashing. The positional map
        is always a safe-to-lose accelerator (§4.2): callers fall back
        to re-tokenizing the raw file, so the worst case is degraded
        performance plus an ``aux_rebuilds`` count, never a wrong
        answer."""
        path = self._spilled.pop(key)
        group, _block = key
        try:
            handle = self.spill_vfs.open(path, self.model)
            raw = handle.read_at(0, handle.size)
            if len(raw) == 0 or len(raw) % (4 * len(group)) != 0:
                raise StorageError(
                    f"spilled PM chunk {path!r} has {len(raw)} bytes, "
                    f"not a whole number of {len(group)}-column int32 "
                    f"rows")
        except StorageError:
            self._forget(key)
            self.model.aux_rebuild(1)
            return None
        matrix = np.frombuffer(raw, dtype=np.int32).reshape(-1, len(group))
        self.spill_loads += 1
        self._chunks[key] = matrix
        self._chunk_bytes += matrix.nbytes
        self._enforce_budget()
        return matrix

    def _chunk(self, key: ChunkKey) -> np.ndarray | None:
        matrix = self._chunks.get(key)
        if matrix is not None:
            self._chunks.move_to_end(key)
            return matrix
        if key in self._spilled:
            return self._load_spilled(key)
        return None

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def indexed_attrs(self, block: int) -> list[int]:
        """Attributes with positions available for ``block`` (sorted by
        file order), whether in memory or spilled."""
        return sorted(self._directory.get(block, ()))

    def positions(self, block: int, attr: int) -> np.ndarray | None:
        """Column of relative offsets of ``attr`` over ``block``, or None.

        Charges one map access per position served (the paper's cost of
        reading the map)."""
        directory = self._directory.get(block)
        if not directory or attr not in directory:
            return None
        key, col = directory[attr]
        matrix = self._chunk(key)
        if matrix is None:  # evicted without spill and directory stale
            return None
        self.model.map_access(matrix.shape[0])
        return matrix[:, col]

    def position(self, row: int, attr: int) -> int | None:
        """Relative offset of ``attr`` in ``row``'s line, or None."""
        block = self.block_of(row)
        directory = self._directory.get(block)
        if not directory or attr not in directory:
            return None
        key, col = directory[attr]
        matrix = self._chunk(key)
        if matrix is None:
            return None
        row_in_block = row - block * self.row_block_size
        if row_in_block >= matrix.shape[0]:
            return None
        self.model.map_access(1)
        return int(matrix[row_in_block, col])

    def nearest_indexed(self, block: int, attr: int,
                        ) -> tuple[int | None, int | None]:
        """Closest indexed attributes at-or-below and at-or-above ``attr``
        for ``block`` — the basis of incremental bidirectional parsing."""
        attrs = self.indexed_attrs(block)
        lo = None
        hi = None
        for a in attrs:
            if a <= attr:
                lo = a
            elif hi is None:
                hi = a
                break
        return lo, hi

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def canonicalize_chunks(self) -> int:
        """Regroup every block's vertical chunks into one canonical
        chunk whose group is the block's *sorted* indexed-attribute
        set — making the map layout independent of the flush order that
        built it (interleaved cursors and parallel workloads group the
        same positions differently depending on which query's flush
        came first; after this pass two maps with the same content are
        byte-identical). Run by the idle tuner (§7 auto-tuning); the
        map's answers are unchanged, only the chunking is.

        Charges ``map_access`` for the positions read and
        ``map_insert`` for the rewritten chunks — honest maintenance
        cost on the engine's clock, which is how the tuner's idle
        budget bounds it. Returns the number of blocks rewritten.
        """
        rewritten = 0
        for block in sorted(self._directory):
            directory = self._directory.get(block)
            if not directory:
                continue
            attrs = sorted(directory)
            keys = {directory[attr][0] for attr in attrs}
            if len(keys) == 1:
                key = next(iter(keys))
                if key[0] == tuple(attrs) and (key in self._chunks
                                               or key in self._spilled):
                    continue  # already canonical (in memory or spilled)
            columns: dict[int, np.ndarray] = {}
            nrows = 0
            for attr in attrs:
                col = self.positions(block, attr)
                if col is not None:
                    columns[attr] = col.copy()
                    nrows = max(nrows, len(col))
            for key in {directory[attr][0] for attr in list(directory)}:
                old = self._chunks.pop(key, None)
                if old is not None:
                    self._chunk_bytes -= old.nbytes
                self._spilled.pop(key, None)
            del self._directory[block]
            if not columns:
                continue
            group = sorted(columns)
            matrix = np.full((nrows, len(group)), NO_POS, dtype=np.int32)
            for col_idx, attr in enumerate(group):
                col = columns[attr]
                matrix[:len(col), col_idx] = col
            self.insert_chunk(tuple(group), block, matrix)
            rewritten += 1
        return rewritten

    @property
    def chunk_bytes(self) -> int:
        """Bytes held by in-memory attribute chunks (the budgeted part)."""
        return self._chunk_bytes

    @property
    def bytes_used(self) -> int:
        """Total in-memory footprint: chunks + line index (8 B/entry)."""
        return self._chunk_bytes + 8 * len(self._line_starts)

    @property
    def pointer_count(self) -> int:
        """Stored positions (attr offsets + line starts) — Fig 3's x-axis."""
        attr_positions = sum(m.size for m in self._chunks.values())
        return attr_positions + len(self._line_starts)

    def drop(self) -> None:
        """Drop the whole map (always safe; next query rebuilds it)."""
        self._chunks.clear()
        self._chunk_bytes = 0
        self._directory.clear()
        self._spilled.clear()
        self._line_starts.clear()
        self._file_length = None
        self._newline_terminated = True
