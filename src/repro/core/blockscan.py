"""One raw-scan shell and one block-streaming driver (NoDB §4).

The paper describes *one* scan operator — selective tokenize/parse,
positional map, cache, statistics, §4.5 append detection — in which
only "find the field" depends on the file format. This module is that
operator's format-agnostic half; :mod:`repro.core.scan_batch` (CSV) and
:mod:`repro.formats.jsonl` plug their per-format compute into it.

* :class:`ErrorPolicy` is the ``on_error`` policy — the tolerant redo
  of a malformed row and the quarantine sidecar, restarted when the
  file is rewritten — that the raw access methods and the
  external-files straw-man share.
* :class:`RawFileAccess` is the *shell* every raw access method
  subclasses: engine wiring, §4.5 ``refresh()``, the scan prologue
  (workload accounting, the §4.4 statistics collector, the costed
  handle), the statistics epilogue and the ``path``/``table`` error
  annotation.
* :class:`BlockScan` is the per-scan *driver* and the *one block
  compute*: the frozen indexed/streaming split, the indexed-region
  block loop (cached-block fast path where the scan's one eligibility
  decision allows it → zero-priced hit, or bailout → strict block →
  tolerant redo), the streaming region's single read →
  newline-discovery → row-block group formation → dispatch →
  ordered-merge loop, and the strict compute of an indexed block and
  of a stream group: cache prefetch, two-phase selective reads (WHERE
  rows, then qualifying rows missing a SELECT attribute), column
  assembly from cache and fresh conversions (:class:`BlockColumn`),
  the predicate mask, §4.4 sampling, and the positional-map / cache
  inserts — applied at once in an indexed block, staged as ``"pm"`` /
  ``"cache"`` ops in a stream group.

What a format supplies, and nothing else:

* a :class:`BlockLines` subclass per region — the block's lines as its
  tokenizer sees them: ``spans(attr, rows)`` (value spans, charging
  TOKENIZE the format's way), ``qualified(qual_idx)`` and
  ``positions()`` (what the block taught the positional map);
* ``_convert(attr, buffer, starts, ends)`` — value conversion of one
  span column;
* ``_known_positions`` (the map lookups an indexed block makes),
  ``_cached_column`` (how the fast path serves a cached column) and
  ``_line_spans`` (the indexed region's: the map's line index, or
  FITS's fixed stride over a file that is all indexed region);
* the tolerant redo's line split (``_tolerant_fetch``).

Fan-out and the staged-op merge: the streaming region's row-block
groups are *pure functions* of their byte slice. Each group computes
against a :class:`~repro.simcost.model.RecordingModel`, producing an
ordered op log — cost charges interleaved (in exact serial charge
order) with staged line-index / positional-map / cache / statistics
operations — plus its output batch; the driver's own read charges are
recorded the same way, and a single-threaded merge replays the logs in
canonical group order against the real structures. Where a group's
compute runs is the loop's only variable: with
``config.scan_workers > 1`` it is submitted to the engine's
:class:`~repro.core.parallel.ScanWorkerPool` while the driver reads up
to ``2 * workers`` groups ahead; without a pool the schedule entry is a
deferred call executed *at merge time*, so an abandoned scan has
computed exactly the groups it delivered and never holds more than one
group's output batch. Replay preserves the serial charge sequence
bit-for-bit, so results, PM/cache contents, counters *and the clock's
float accumulation order* are identical at any worker count. The only
observable difference a pool can make is OS-page-cache residency left
by read-ahead when a scan is abandoned mid-stream (and, under a
capacity-limited page cache, LRU order) — never results, structures or
completed-scan counters.
"""

from __future__ import annotations

import copy
import datetime
import functools
import weakref
from collections import deque
from concurrent.futures import CancelledError
from typing import Iterator, Sequence

import numpy as np

from repro.core.positional_map import NO_POS
from repro.core.statistics import StatsCollector
from repro.errors import (
    ExecutionError,
    FormatError,
    StorageError,
    annotate,
)
from repro.formats.csvfmt import newline_offsets
from repro.kernels import cache as kernel_cache
from repro.simcost.model import RecordingModel
from repro.sql.batch import ColumnBatch, object_nulls
from repro.sql.scanapi import ScanPredicate
from repro.sql.stats import TableStats

#: families whose text form NumPy can parse column-wise via ``astype``
NUMERIC_DTYPES = {"int": np.int64, "float": np.float64}


def decode_numeric_spans(buf_arr: np.ndarray, starts: np.ndarray,
                         ends: np.ndarray, dtype) -> np.ndarray | None:
    """Parse the numeric text fields at ``starts``/``ends`` (offsets
    into ``buf_arr``) in one vectorized shot: gather them into a
    zero-padded fixed-width byte matrix, view it as fixed-length bytes
    and ``astype`` it. Returns None when a field is empty or wider than
    64 bytes, defeats NumPy's parser (the caller falls back to Python,
    which also covers >64-bit ints and ``1_0``-style literals) — or
    holds a NUL byte: the fixed-width view cannot tell a NUL inside a
    field from its own padding and would silently drop a trailing one,
    where the per-field parser rejects the value."""
    widths = ends - starts
    max_width = int(widths.max()) if len(widths) else 0
    if max_width == 0 or max_width > 64:
        return None
    offsets = starts[:, None] + np.arange(max_width)
    matrix = np.where(offsets < ends[:, None],
                      buf_arr[np.minimum(offsets, len(buf_arr) - 1)],
                      0).astype(np.uint8)
    if np.count_nonzero(matrix) != int(widths.sum()):
        return None
    fields = matrix.view(f"S{max_width}").ravel()
    try:
        return fields.astype(dtype)
    except (ValueError, OverflowError):
        return None


def _dates(day_numbers) -> list:
    """Ordinal day numbers as :class:`datetime.date` values."""
    return [datetime.date.fromordinal(v) for v in day_numbers.tolist()]


class BlockColumn:
    """One attribute's values over one block.

    The canonical storage is ``typed`` — a dtype-tagged array (int64 /
    float64, int32 day numbers for cache-served dates, bool) covering
    every *materialized* row — with an object-array view (``values``,
    None where absent/NULL) built lazily only when a consumer needs
    Python objects in an array (row-closure fallbacks, date output;
    stats sampling takes :meth:`at` straight off the typed array).
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
                    out[rows] = (_dates(raw) if self.family == "date"
                                 else raw.tolist())
            elif self.conv_idx is not None and len(self.conv_idx):
                # a streamed SELECT-only column is its converted subset
                out[self.conv_idx] = (
                    self.conv_values if self.conv_typed is None
                    else self.conv_typed.tolist())
            self._values = out
        return self._values

    def set_values(self, values: np.ndarray) -> None:
        self._values = values

    def assign(self, values: np.ndarray) -> "BlockColumn":
        """Store an object array of Python values (None: NULL) as the
        column, typed as well when it is a NULL-free numeric one."""
        self.set_values(values)
        self.nulls = object_nulls(values)
        dtype = NUMERIC_DTYPES.get(self.family)
        if dtype is not None and not self.nulls.any() and self.n:
            try:
                self.typed = values.astype(dtype)
            except (ValueError, TypeError, OverflowError):
                self.typed = None
        return self

    def at(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The values at ``rows`` (None: every row; all of them
        materialized) for §4.4 sampling: a slice of the typed array when
        there is one (day numbers are not values: dates come from the
        object view)."""
        source = self.typed
        if source is None or self.family == "date":
            source = self.values
        return source if rows is None else source[rows]


def predicate_mask(model, predicate: ScanPredicate | None, columns: dict,
                   n: int) -> np.ndarray:
    """Qualifying mask over a block's materialized WHERE columns (attr
    -> :class:`BlockColumn`); one aggregated cost charge. The planner's
    vectorized mask when there is one — over typed arrays where a
    column has them; the widened vectorizer takes object arrays
    (strings, NULL-bearing numerics) in stride — and the row-closure
    fallback otherwise."""
    if predicate is None:
        return np.ones(n, dtype=bool)
    model.predicate(predicate.n_terms * n)
    if predicate.vector_fn is not None:
        arrays = {}
        nulls = {}
        for attr in predicate.attrs:
            column = columns[attr]
            arrays[attr] = (column.typed if column.typed is not None
                            else column.values)
            nulls[attr] = column.nulls
        return predicate.vector_fn(arrays, nulls, n)
    return predicate.row_mask(
        {attr: columns[attr].values for attr in predicate.attrs}, n)


class BlockLines:
    """The lines of one indexed block or stream group as a format's
    tokenizer sees them: ``buffer`` holds their bytes (an indexed
    block's only as far as :meth:`read` has loaded them) and
    ``line_starts`` / ``line_ends`` are offsets into it; ``base`` is
    the file offset of ``buffer[0]`` and ``known`` the map's relative
    positions of the block (attr -> column; empty for a stream group).
    Rows are block- (group-) relative.

    A format subclasses it per region and supplies three steps:
    :meth:`spans`, :meth:`qualified` and :meth:`positions`."""

    def __init__(self, scan, buffer, base: int, line_starts: np.ndarray,
                 line_ends: np.ndarray, known: dict):
        self.scan = scan
        self.buffer = buffer
        self.base = base
        self.line_starts = line_starts
        self.line_ends = line_ends
        self.known = known
        self.n = len(line_starts)
        #: rows whose bytes :meth:`read` has loaded
        self.loaded = np.zeros(self.n, dtype=bool)

    def read(self, handle, mask: np.ndarray) -> bool:
        """One sequential read covering every flagged row not yet
        loaded (stream through small gaps, never seek per tuple — the
        row-at-a-time reference scan's ``_read_runs``); True when it
        read anything."""
        needed = np.flatnonzero(mask & ~self.loaded)
        if not len(needed):
            return False
        lo = int(self.line_starts[needed[0]])
        hi = int(self.line_ends[needed[-1]])
        blob = handle.read_at(self.base + lo, hi - lo)
        self.buffer[lo:lo + len(blob)] = blob
        self.loaded[needed] = True
        return True

    def spans(self, attr: int, rows: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray]:
        """Offsets into ``buffer`` of ``attr``'s values at ``rows``
        (ascending), charging TOKENIZE for what finding them scans;
        raises :class:`~repro.errors.FormatError` on a malformed
        line."""
        raise NotImplementedError

    def qualified(self, qual_idx: np.ndarray) -> None:
        """The predicate chose ``qual_idx``: the step before the
        SELECT-only attributes are asked for at those rows."""

    def positions(self) -> dict[int, np.ndarray]:
        """The attribute positions this block's tokenizing discovered
        (attr -> relative offsets over its rows, ``NO_POS`` holes);
        attributes with none are left out."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# The access-method shell
# ---------------------------------------------------------------------------
class ErrorPolicy:
    """A raw table's error policy (OPTIONS (on_error 'fail'|'skip'|
    'null')) over one file: the tolerant redo of a malformed row and
    the quarantine sidecar of rejected ones, which :meth:`refresh`
    restarts when the file is rewritten. Every access method that reads
    a raw table row by row or block by block — PostgresRaw's and the
    external-files straw-man's — answers a malformed row through this
    one class. Subclasses supply ``_tolerant_fetch``."""

    def __init__(self, vfs, path: str, table_info):
        self.vfs = vfs
        self.path = path
        self._seen_rewrites: int | None = None
        #: per-table error policy (OPTIONS (on_error 'fail'|'skip'|'null'))
        self.on_error = (getattr(table_info, "options", None)
                         or {}).get("on_error", "fail")
        #: quarantine sidecar for rejected rows, plus the row numbers
        #: already written there (warm re-scans re-reject the same rows
        #: deterministically; the sidecar records each row once)
        self._rejects_path = f"__rejects__/{table_info.name.lower()}"
        self._rejected_rows: set[int] = set()

    def tolerant_row(self, model, line: bytes, out_attrs, where_attrs,
                     predicate, policy: str | None = None):
        """Best-effort evaluation of one malformed-or-suspect line
        under a tolerant error policy (``policy``, defaulting to the
        table's ``on_error``): ``'null'`` turns an unconvertible value
        into SQL NULL, ``'skip'`` rejects the whole row. Returns
        ``(qualifies, out_values | None, reject_reason | None)`` — a
        non-None reason means the caller must quarantine the row. All
        charges go to ``model`` so staged (recorded) redo and direct
        redo price identically. The line split and the per-value
        conversion are the format's (:meth:`_tolerant_fetch`); each
        touched value is fetched once."""
        policy = policy or self.on_error
        model.tokenize(len(line))
        try:
            fetch = self._tolerant_fetch(model, line, policy)
        except FormatError as exc:
            return False, None, str(exc)
        values: dict[int, object] = {}

        def reject_reason(attrs):
            for attr in attrs:
                if attr not in values:
                    values[attr], reason = fetch(attr)
                    if reason is not None:
                        return reason
            return None

        if predicate is not None:
            reason = reject_reason(where_attrs)
            if reason is not None:
                return False, None, reason
            model.predicate(predicate.n_terms)
            if predicate.fn({attr: values[attr]
                             for attr in where_attrs}) is not True:
                return False, None, None
        reason = reject_reason(out_attrs)
        if reason is not None:
            return False, None, reason
        model.tuple_form(len(out_attrs))
        return True, [values[attr] for attr in out_attrs], None

    def tolerant_redo(self, model, row_number: int, line: bytes,
                      out_attrs, where_attrs, predicate,
                      reject=None) -> tuple | None:
        """One row redone by :meth:`tolerant_row`: its output tuple if
        it qualifies, else None. A rejected row is handed to
        ``reject(row_number, line, reason)`` (default: the sidecar,
        :meth:`_quarantine_row`) and counted on ``rows_rejected``."""
        qual, out_values, reason = self.tolerant_row(
            model, line, out_attrs, where_attrs, predicate)
        if reason is not None:
            (reject or self._quarantine_row)(row_number, line, reason)
            model.rows_rejected(1)
        return tuple(out_values) if qual else None

    def _tolerant_fetch(self, model, line: bytes, policy: str):
        """Split ``line`` the format's way, as forgivingly as it can,
        and return ``fetch(attr) -> (value, reject_reason | None)``
        converting one value against ``model``: an unconvertible or
        missing value is NULL under ``'null'`` and a reason under
        ``'skip'``. A line that cannot be split at all raises its
        :class:`~repro.errors.FormatError` to reject the whole row."""
        raise NotImplementedError

    def _quarantine_row(self, row_number: int, line: bytes,
                        reason: str) -> None:
        """Record a rejected row in the table's ``__rejects__/`` sidecar
        (free of virtual time — observability, like the counters). The
        caller charges ``rows_rejected``; this only persists the row,
        once per row number per file version."""
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

    def refresh(self) -> None:
        """Detect a rewrite of the file before a scan (§4.5): what was
        learned about the old file goes (:meth:`_drop_structures`)."""
        rewrites = self.vfs.rewrite_count(self.path)
        if self._seen_rewrites not in (None, rewrites):
            self._drop_structures()
        self._seen_rewrites = rewrites

    def _drop_structures(self) -> None:
        """A rewrite changes what row numbers mean: the quarantine
        sidecar starts over with the new file version."""
        self._rejected_rows.clear()
        if self.vfs.exists(self._rejects_path):
            self.vfs.delete(self._rejects_path)


class RawFileAccess(ErrorPolicy):
    """Shell of an access method over one raw file: engine wiring,
    workload accounting, §4.5 refresh, the scan prologue and epilogue
    and a block's cache prefetch; the error policies are
    :class:`ErrorPolicy`'s. Subclasses name their per-scan
    :class:`BlockScan` in ``scan_class`` and supply
    ``_tolerant_fetch``."""

    #: the BlockScan subclass that drives this format's batch scans
    scan_class: type | None = None

    def __init__(self, vfs, path: str, schema, model, config, table_info,
                 positional_map, cache, pool=None):
        super().__init__(vfs, path, table_info)
        self.schema = schema
        self.model = model
        self.config = config
        # Weak: the catalog entry owns its access method, and the
        # back-reference must not keep a dropped engine's tables alive
        # in a reference cycle.
        self._table_info = weakref.ref(table_info)
        self.cache = cache
        self._dtypes = schema.types
        self._families = [t.family for t in schema.types]
        #: workload knowledge for the §7 idle tuner: attr -> request count
        self.attr_request_counts: dict[int, int] = {}
        self.pm = positional_map          # None only in Baseline mode
        #: engine-shared ScanWorkerPool for parallel chunk scans (None
        #: when config.scan_workers == 1)
        self.pool = pool
        self.row_count: int | None = None
        self._seen_size = 0
        #: (data version, attr) of every statistic a live scan collects
        self._collecting: set[tuple[int, int]] = set()

    @property
    def table_info(self):
        """The catalog entry this access method serves. A scan holds it
        for its lifetime; one started after its table was dropped fails
        cleanly."""
        info = self._table_info()
        if info is None:
            raise ExecutionError(
                f"the table over {self.path!r} was dropped; re-run the "
                "query")
        return info

    def _prefetch_cache(self, union_attrs, block: int) -> dict:
        """Fetch the block's cache entries for a scan's attributes (LRU
        touch, hit/miss counters): attr -> cache block or None."""
        if self.cache is None:
            return dict.fromkeys(union_attrs)
        return {attr: self.cache.get(attr, block) for attr in union_attrs}

    @staticmethod
    def _presence_masks(cached: dict, n: int) -> dict:
        """attr -> which of a block's ``n`` rows its prefetched cache
        entry holds (all-False without one)."""
        return {attr: (cache_block.mask_array(n)
                       if cache_block is not None
                       else np.zeros(n, dtype=bool))
                for attr, cache_block in cached.items()}

    # -- external updates (§4.5) ---------------------------------------
    def refresh(self) -> None:
        """Detect external file changes before a scan.

        Appends extend the structures in place; rewrites drop them (the
        map "can be dropped and recreated when needed again")."""
        size = self.vfs.size(self.path)
        if self._seen_rewrites == self.vfs.rewrite_count(self.path) \
                and size > self._seen_size:
            if self.pm is not None:
                self.pm.invalidate_file_length()
            self.row_count = None
            self.table_info.data_version += 1
        super().refresh()
        self._seen_size = size

    def _drop_structures(self) -> None:
        """A rewrite: everything learned about the old file goes."""
        if self.pm is not None:
            self.pm.drop()
        if self.cache is not None:
            self.cache.clear()
        self.row_count = None
        self.table_info.data_version += 1
        super()._drop_structures()

    def estimated_rows(self) -> int | None:
        return self.row_count

    # -- scan entry points ---------------------------------------------
    def scan_batches(self, needed: Sequence[int],
                     predicate: ScanPredicate | None):
        """Columnar pull: yield :class:`~repro.sql.batch.ColumnBatch`
        blocks instead of tuples."""
        def body(handle, *scan_args):
            return self.scan_class(self, *scan_args).run(handle)

        return self._run_scan(needed, predicate, body)

    def _run_scan(self, needed, predicate, body):
        """One scan: the prologue (workload accounting, the §4.4
        statistics collector, the costed file handle), ``body(handle,
        out_attrs, where_attrs, union_attrs, predicate, collector)``'s
        output with format and storage errors annotated (``path=``,
        ``table=``), and the statistics epilogue.

        One owner per statistic: the first live scan to open a
        collector for (data version, attribute) collects it, and a
        scan running at the same time leaves that attribute alone, so
        the statistics two concurrent scans leave do not depend on
        their pace. The claim ends with the scan — finished, failed or
        abandoned."""
        info = self.table_info  # held while the scan runs
        out_attrs = list(needed)
        where_attrs = list(predicate.attrs) if predicate else []
        union_attrs = sorted(set(out_attrs) | set(where_attrs))
        for attr in union_attrs:
            self.attr_request_counts[attr] = \
                self.attr_request_counts.get(attr, 0) + 1
        collector = None
        claims = []
        if self.config.enable_statistics:
            # §4.4: augment incrementally — sample only attributes that
            # have no statistics yet and no other live scan collects.
            claims = [
                (info.data_version, attr) for attr in union_attrs
                if (info.stats is None or not info.stats.has_column(
                    self.schema.columns[attr].name))
                and (info.data_version, attr) not in self._collecting]
            if claims:
                collector = StatsCollector(
                    self.model, self.schema, [attr for _, attr in claims],
                    self.config.stats_sample_target)
                self._collecting.update(claims)
        handle = self.vfs.open(self.path, self.model, notify=False)
        try:
            yield from body(handle, out_attrs, where_attrs, union_attrs,
                            predicate, collector)
        except (FormatError, StorageError) as exc:
            raise annotate(exc, path=self.path, table=info.name)
        else:
            if collector is not None:
                stats = info.stats or TableStats()
                row_count = self.estimated_rows()
                if row_count is None:
                    row_count = info.row_count_hint or 0
                collector.finalize(stats, row_count)
                info.stats = stats
        finally:
            self._collecting.difference_update(claims)

    def _rows_with_known_span(self) -> int:
        """Rows of the indexed region: those whose line span the map
        already knows. Only the map can vouch for that: ``row_count``
        outlives a dropped map (``close()``, ``drop_auxiliary``), and a
        scan abandoned after re-indexing every line of a one-group file
        leaves all of its line starts but no file length."""
        if self.pm is None:
            return 0
        known = self.pm.known_line_count
        if known == 0 or self.pm.has_file_length:
            return known  # complete index (a finished scan, the prewarmer)
        return known - 1  # last known line's end is the next line's start

    def _finish_file(self, row_count: int) -> None:
        self.table_info.row_count_hint = row_count


# ---------------------------------------------------------------------------
# The per-scan driver
# ---------------------------------------------------------------------------
class _Deferred:
    """The pool-less stand-in for a worker future: the call runs when
    the merge asks for its result — compute at merge time, not at
    dispatch."""

    __slots__ = ("_call",)

    def __init__(self, fn, *args):
        self._call = functools.partial(fn, *args)

    def result(self):
        return self._call()

    def cancel(self) -> None:
        return None


class BlockScan:
    """One block scan over one raw table.

    Two regions: the *indexed region* (line spans known — to the
    positional map, or by a fixed row stride — processed strictly
    block-wise, reading only the byte runs actually needed) and the
    *streaming region* (unseen tail — read sequentially, lines
    discovered vectorized, processed in row-block groups). Subclasses
    implement the "what a format supplies" methods below."""

    def __init__(self, access: RawFileAccess, out_attrs, where_attrs,
                 union_attrs, predicate, collector):
        self.access = access
        self.model = access.model
        self.config = access.config
        self.schema = access.schema
        self.pm = access.pm
        self.cache = access.cache
        self.out_attrs = out_attrs
        self.where_attrs = where_attrs
        self.union_attrs = union_attrs
        self.predicate = predicate
        self.collector = collector
        self._families = access._families
        self._dtypes = access._dtypes
        #: the cached-block fast path (repro.kernels) if this scan may
        #: take it, else None — decided once, here, whoever started the
        #: scan; it charges the exact priced events the generic indexed
        #: block charges, in the same order.
        self.kernel = kernel_cache.compile_kernel(self)

    def run(self, handle) -> Iterator[ColumnBatch]:
        # Freeze the indexed/streaming split for the whole scan: a
        # concurrent scan (another cursor on the same table) may grow
        # the positional map while this generator is live, and
        # re-reading the span between regions would skip the rows the
        # other scan just indexed.
        spanned = self.access._rows_with_known_span()
        yield from self._indexed_region(handle, spanned)
        yield from self._streaming_region(handle, spanned)

    # -- what a format supplies ----------------------------------------
    #: the :class:`BlockLines` subclasses of an indexed block and of a
    #: stream group
    indexed_lines: type = BlockLines
    stream_lines: type = BlockLines

    def _convert(self, attr: int, buffer, starts: np.ndarray,
                 ends: np.ndarray) -> tuple[list | None, np.ndarray | None]:
        """Convert the values at ``starts``/``ends`` (offsets into
        ``buffer``), charging one aggregate conversion: ``(None,
        typed)`` when the column came out as a dtype-tagged array (the
        consumers that only need arrays — vector predicates, typed
        cache inserts, typed output — never pay a per-row ``tolist``
        walk), ``(values, None)`` otherwise."""
        raise NotImplementedError

    def _known_positions(self, block: int) -> dict[int, np.ndarray]:
        """The positional-map lookups an indexed block performs before
        touching bytes (attr -> relative-offset column); empty when
        attribute positions are switched off."""
        raise NotImplementedError

    @staticmethod
    def _cached_column(cache_block, n: int, qual: np.ndarray | None = None):
        """How the fast path serves one attribute of a block's first
        ``n`` rows straight from ``cache_block`` (which holds at least
        ``n``): ``(column, null_mask)`` in the form ``vector_fn`` reads,
        or None where the generic compute would not take the column
        from the cache alone. ``qual`` None is a WHERE column — every
        row must be served; otherwise a SELECT-only column, needed at
        the ``qual`` rows only (§4.1 never caches more of it) and
        returned without a null mask. Must stay side-effect-free.

        By default: typed slices only, NULL-free over every cached row
        — where :meth:`_materialize_column` assembles a typed column
        from the cache alone."""
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

    # -- steps of the block compute ------------------------------------
    def _cached_batch(self, columns: dict, qual_idx: np.ndarray,
                      ) -> ColumnBatch:
        """The fast path's output step over ``_cached_column`` columns:
        the SELECT cache-read charges and ``tuple_form`` exactly as
        :meth:`_indexed_block_strict` prices them, day numbers decoded
        (they are a cache/predicate format)."""
        model = self.model
        nqual = len(qual_idx)
        out_columns = []
        for attr in self.out_attrs:
            model.cache_read(nqual)
            picked = columns[attr][qual_idx]
            if self._families[attr] == "date" and picked.dtype != object:
                dates = np.empty(nqual, dtype=object)
                dates[:] = _dates(picked)
                picked = dates
            out_columns.append(picked)
        model.tuple_form(len(out_columns) * nqual)
        if nqual == 0 and out_columns:
            return ColumnBatch([[] for _ in out_columns], 0)
        return ColumnBatch(out_columns, nqual, [None] * len(out_columns))

    def _converted_column(self, lines: BlockLines, attr: int,
                          rows: np.ndarray) -> BlockColumn:
        """``attr`` located and converted at ``rows``: a column holding
        only its fresh conversions."""
        column = BlockColumn(lines.n, self._families[attr])
        column.conv_idx = rows
        column.conv_values = []
        if len(rows):
            starts, ends = lines.spans(attr, rows)
            column.conv_values, column.conv_typed = self._convert(
                attr, lines.buffer, starts, ends)
        return column

    def _materialize_column(self, lines: BlockLines, attr: int,
                            cache_block, cmask: np.ndarray,
                            conv_mask: np.ndarray) -> BlockColumn:
        """Assemble one attribute column of an indexed block: cached
        values where present, fresh conversions for ``conv_mask`` rows.

        When both sources are typed and NULL-free — the typed cache
        hands over array slices, and numeric conversion took the
        ``astype`` fast path — the column is assembled as one typed
        array with no object round-trip: warm scans hand arrays
        straight to the vectorizer."""
        n = lines.n
        column = self._converted_column(lines, attr,
                                        np.flatnonzero(conv_mask))
        conv_idx = column.conv_idx
        conv_typed = column.conv_typed
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
            values[conv_idx] = (column.conv_values if conv_typed is None
                                else conv_typed.tolist())
        return column.assign(values)

    @staticmethod
    def _output_column(column: BlockColumn, qual_idx: np.ndarray):
        """One output column as ``(array, null_mask)`` for the emitted
        batch — typed when the column materialized typed (dates stay
        objects in results: day numbers are a cache/predicate format)."""
        if column.typed is not None and column.family != "date":
            return column.typed[qual_idx], None
        mask = column.nulls[qual_idx]
        return column.values[qual_idx], mask if mask.any() else None

    def _cache_ops(self, block: int, rows_in_block: int, first: int,
                   columns: dict) -> list:
        """The block's fresh conversions as staged ``("cache", ...)``
        inserts, one per union attribute that converted anything
        (block rows offset by ``first``)."""
        if self.cache is None:
            return []
        return [("cache", attr, block, rows_in_block,
                 columns[attr].conv_idx + first, columns[attr].conv_values,
                 columns[attr].conv_typed, self._families[attr])
                for attr in self.union_attrs if len(columns[attr].conv_idx)]

    def _insert_positions(self, block: int,
                          discovered: dict[int, np.ndarray],
                          existing: dict[int, np.ndarray]) -> None:
        """Insert an indexed block's discovered positions (attr -> int32
        relative offsets, ``NO_POS`` holes) as one chunk whose vertical
        group is the attributes that learned something: each column is
        merged with what the map already knows (``existing``), and an
        attribute with nothing new is skipped (§4.2 adaptive
        population; the reference scan's ``_flush_positions``
        semantics exactly)."""
        group = []
        for attr in sorted(discovered):
            already = existing.get(attr)
            column = discovered[attr]
            if already is not None:
                prior = np.full(len(column), NO_POS, dtype=np.int32)
                m = min(len(already), len(column))
                prior[:m] = already[:m]
                merged = np.where(column == NO_POS, prior, column)
                if int((merged != NO_POS).sum()) <= \
                        int((prior != NO_POS).sum()):
                    continue
                discovered[attr] = merged
            group.append(attr)
        if not group:
            return
        matrix = np.column_stack([discovered[attr] for attr in group])
        self.pm.insert_chunk(tuple(group), block, matrix)

    # -- shared row-wise machinery (tolerant redo, error context) -------
    def _line_spans(self, row0: int, row1: int):
        """Absolute ``(starts, ends)`` of rows ``row0..row1`` of the
        indexed region, from the map's line index (charged)."""
        spans = self.pm.line_spans_block(row0, row1)
        if spans is None:
            # The map lost spans this scan froze at start (DROP TABLE,
            # drop_auxiliary, or a budget eviction of the line index
            # under a live scan): fail cleanly instead of unpacking
            # None — a re-run plans against the current catalog.
            raise ExecutionError(
                f"line spans for rows {row0}..{row1} vanished from the "
                "positional map mid-scan (table dropped or map torn "
                "down under a live query); re-run the query")
        return spans

    @staticmethod
    def _lines(starts, ends, buffer, buffer_base: int) -> Iterator[bytes]:
        """The lines spanning ``starts``/``ends`` (absolute offsets) in
        ``buffer``, whose first byte sits at ``buffer_base``."""
        for start, end in zip(starts.tolist(), ends.tolist()):
            yield buffer[start - buffer_base:end - buffer_base]

    def _tolerant_rows(self, row0: int, starts, ends, buffer,
                       buffer_base: int, reject=None) -> ColumnBatch:
        """Row-at-a-time evaluation of a block or group whose strict
        vectorized computation raised under a tolerant error policy:
        each line goes through ``access.tolerant_redo``; a rejected one
        is handed to ``reject(row_number, line, reason)`` (default: the
        sidecar) and counted.
        The rows contribute nothing to the positional map, the cache or
        the statistics samples — degradation, never corruption."""
        rows = []
        for i, line in enumerate(self._lines(starts, ends, buffer,
                                             buffer_base)):
            row = self.access.tolerant_redo(
                self.model, row0 + i, line, self.out_attrs,
                self.where_attrs, self.predicate, reject)
            if row is not None:
                rows.append(row)
        return ColumnBatch.from_rows(rows, len(self.out_attrs))

    def _with_row_number(self, exc: FormatError, row0: int, starts, ends,
                         buffer=None, buffer_base: int = 0) -> FormatError:
        """Give a strict failure under ``on_error 'fail'`` its absolute
        ``row_number`` (setdefault semantics — the innermost annotation
        wins). The vectorized tokenizer's block-relative
        ``row_in_block`` is resolved when present; otherwise the first
        failing row is located by an *uncharged* row-wise pass —
        ``tolerant_row`` under a forced ``'skip'`` against a throw-away
        model — which is the row the scalar oracle stops at (with
        several malformed rows in one block the message may still name
        a later one: the vectorized path fails column-major). Without a
        ``buffer`` (the indexed region) the lines come from the file's
        raw bytes, not a handle: the pass must not touch the clock, the
        OS page cache or the fault schedule."""
        row_in_block = exc.context.get("row_in_block")
        if row_in_block is None:
            if buffer is None:
                buffer = self.access.vfs.read_bytes(self.access.path)
            scratch = RecordingModel()
            for i, line in enumerate(self._lines(starts, ends, buffer,
                                                 buffer_base)):
                if self.access.tolerant_row(
                        scratch, line, self.out_attrs, self.where_attrs,
                        self.predicate, policy="skip")[2] is not None:
                    row_in_block = i
                    break
        if row_in_block is not None:
            annotate(exc, row_number=row0 + row_in_block)
        return exc

    # ==================================================================
    # Indexed region
    # ==================================================================
    def _indexed_region(self, handle, spanned: int) -> Iterator[ColumnBatch]:
        block_size = self.config.row_block_size
        row = 0
        while row < spanned:
            block = row // block_size
            block_end = min((block + 1) * block_size, spanned)
            batch = self._indexed_block(handle, block, row, block_end)
            if batch is not None:
                yield batch
            row = block_end

    def _indexed_block(self, handle, block: int, row0: int,
                       row1: int) -> ColumnBatch | None:
        if self.kernel is not None:
            batch = self.kernel(self, block, row0, row1)
            if batch is not None:
                self.model.kernel_hit()
                return batch
            # The probes were side-effect-free (peek, has_line_spans):
            # the generic path below charges exactly what a kernel-less
            # scan would. Hit and bailout events are zero-priced.
            self.model.kernel_bailout()
        self.model.tuple_overhead(row1 - row0)
        starts, ends = self._line_spans(row0, row1)
        try:
            return self._indexed_block_strict(handle, block, row0, starts,
                                              ends)
        except FormatError as exc:
            if self.access.on_error == "fail":
                raise self._with_row_number(exc, row0, starts, ends)
        # The strict attempt flushed nothing (PM/cache writes happen
        # only at the end of a clean block) and the indexed region
        # always runs on the driver thread, so its partial charges stay
        # on the clock deterministically. Redo row by row over one read
        # of the block's byte span (mostly warm — the strict attempt
        # already touched it), quarantining rejects directly. The redo
        # pays its own map access for the spans, as it always has.
        starts, ends = self._line_spans(row0, row1)
        base = int(starts[0])
        blob = handle.read_at(base, int(ends[-1]) - base)
        return self._tolerant_rows(row0, starts, ends, blob, base)

    def _indexed_block_strict(self, handle, block: int, row0: int,
                              starts: np.ndarray, ends: np.ndarray,
                              ) -> ColumnBatch:
        """Strict compute of one indexed block (rows ``row0`` on; their
        line spans are ``starts``/``ends``), inserting its PM/cache
        contributions only at the end of a clean block; raises
        :class:`~repro.errors.FormatError` on malformed input."""
        model = self.model
        n = len(starts)
        where_attrs = self.where_attrs
        out_attrs = self.out_attrs
        cached = self.access._prefetch_cache(self.union_attrs, block)
        cmask = self.access._presence_masks(cached, n)
        positions = self._known_positions(block)
        base = int(starts[0])
        lines = self.indexed_lines(self, bytearray(int(ends[-1]) - base),
                                   base, starts - base, ends - base,
                                   positions)

        # -- phase W: bytes + conversion for rows whose WHERE
        #    attributes are not fully cached
        need_file = np.zeros(n, dtype=bool)
        for attr in where_attrs:
            need_file |= ~cmask[attr]
        lines.read(handle, need_file)
        columns: dict[int, BlockColumn] = {}
        for attr in where_attrs:
            columns[attr] = self._materialize_column(
                lines, attr, cached[attr], cmask[attr], ~cmask[attr])
            model.cache_read(int(cmask[attr].sum()))
        qual = predicate_mask(model, self.predicate, columns, n)

        collector = self.collector
        if collector is not None and where_attrs:
            # Scalar loop-1 adds: failing rows always; qualifying rows
            # too when there are no SELECT attributes.
            rows = np.flatnonzero(~qual) if out_attrs else np.arange(n)
            collector.add_columns(
                {attr: (columns[attr].at(rows), row0 + rows)
                 for attr in where_attrs if attr in collector.attrs})

        # -- phase S: bytes + conversion for qualifying rows missing a
        #    SELECT attribute (selective parsing, §4.1)
        missing = np.zeros(n, dtype=bool)
        for attr in out_attrs:
            missing |= ~cmask[attr]
        lines.read(handle, qual & missing)
        qual_idx = np.flatnonzero(qual)
        nqual = len(qual_idx)
        out_columns: list = []
        out_nulls: list = []
        for attr in out_attrs:
            column = columns.get(attr)
            if column is None:
                column = columns[attr] = self._materialize_column(
                    lines, attr, cached[attr], cmask[attr],
                    qual & ~cmask[attr])
            model.cache_read(int((cmask[attr] & qual).sum()))
            arr, mask = self._output_column(column, qual_idx)
            out_columns.append(arr)
            out_nulls.append(mask)
        model.tuple_form(len(out_attrs) * nqual)

        if collector is not None:
            # Scalar loop-2 adds, per qualifying row: the WHERE values
            # converted from file this block plus every SELECT value.
            # Without SELECT attributes loop 1 fed those rows already:
            # they are charged again, not fed.
            sampled = {}
            for attr in collector.attrs:
                rows = qual_idx
                if attr not in out_attrs:
                    conv_idx = columns[attr].conv_idx
                    rows = conv_idx[qual[conv_idx]]
                sampled[attr] = rows
            if out_attrs:
                collector.add_columns(
                    {attr: (columns[attr].at(rows), row0 + rows)
                     for attr, rows in sampled.items()})
            else:
                collector.recharge(sum(map(len, sampled.values())))

        # -- PM / cache inserts (whole chunks)
        if self.pm is not None and self.config.enable_positional_map:
            self._insert_positions(block, lines.positions(), positions)
        self._apply_staged(self._cache_ops(block, n, 0, columns))
        if nqual == 0 and out_attrs:
            return ColumnBatch([[] for _ in out_attrs], 0)
        return ColumnBatch(out_columns, nqual, out_nulls)

    # ==================================================================
    # Streaming region
    # ==================================================================
    def _streaming_region(self, handle, spanned: int,
                          ) -> Iterator[ColumnBatch]:
        access = self.access
        pm = self.pm
        if access.row_count is not None and spanned >= access.row_count:
            return  # whole file already indexed
        file_size = handle.size
        # Resume where the indexed region ends; if the map was dropped
        # (or never existed) the streaming region is the whole file.
        if pm is not None and pm.known_line_count > spanned:
            start_offset = pm.line_start(spanned)
        elif pm is not None and spanned > 0:
            start_offset = file_size  # complete index: tail is empty
        else:
            start_offset = 0
            spanned = 0
        if start_offset >= file_size:
            self._finish(spanned, file_size)
            return
        yield from self._stream(file_size, start_offset, spanned)

    def _finish(self, row_count: int, file_size: int,
                newline_terminated: bool | None = None) -> None:
        if self.pm is not None:
            self.pm.set_file_length(file_size,
                                    newline_terminated=newline_terminated)
        self.access.row_count = row_count
        self.access._finish_file(row_count)

    def _stream(self, file_size: int, start_offset: int,
                row: int) -> Iterator[ColumnBatch]:
        """The streaming loop: read sequentially, discover lines, cut
        them into row-block groups, dispatch each group's compute, and
        merge the schedule — recorded read charges and completed groups'
        op logs — in exact serial order. Yields happen at the merge, so
        batch delivery order (and everything else observable through
        the engine) does not depend on where the compute ran; with a
        pool, in-flight futures keep computing across yields, which is
        what lets concurrently admitted queries overlap on it."""
        access = self.access
        block_size = self.config.row_block_size
        read_size = self.config.batch_read_bytes
        pool = access.pool if self.config.scan_workers > 1 else None
        if pool is not None:
            submit, depth = pool.submit, 2 * pool.workers
        else:
            submit, depth = _Deferred, 1
        # ``depth`` bounds the groups in flight, and with them the
        # read-ahead: the driver reads only while fewer are dispatched
        # and unmerged.

        # Reads charge into a recorder so their cost replays in serial
        # order even when the driver reads ahead of the merge.
        read_rec = RecordingModel()
        rhandle = access.vfs.open(access.path, read_rec, notify=False)
        rhandle.seek(start_offset)

        #: (is_group, task) in canonical order; ``task.result()`` is
        #: ``(ops, batch, error)``
        schedule: deque = deque()
        buffer = b""                      # unconsumed bytes ...
        buffer_start = start_offset       # ... and where they begin
        # spans of the discovered lines no group has taken yet
        starts = ends = np.empty(0, dtype=np.int64)
        in_flight = 0
        eof = False
        newline_terminated = True

        def read_more() -> None:
            nonlocal buffer, buffer_start, starts, ends, row
            nonlocal in_flight, eof, newline_terminated
            chunk, error = b"", None
            try:
                chunk = rhandle.read_sequential(read_size)
            except StorageError as exc:
                # Merged like any entry: the retries the failed read
                # was billed replay, then it raises — in order, after
                # every group dispatched before it.
                error = exc
            next_start = int(ends[-1]) + 1 if len(ends) else buffer_start
            end_of_data = buffer_start + len(buffer) + len(chunk)
            if chunk:
                read_rec.newline_scan(len(chunk))
                new_ends = newline_offsets(chunk) + (end_of_data
                                                     - len(chunk))
                buffer += chunk
            else:
                eof = True
                new_ends = np.empty(0, dtype=np.int64)
                if error is None and end_of_data > next_start:
                    # Unterminated last line: the carry is a line.
                    newline_terminated = False
                    new_ends = np.array([end_of_data], dtype=np.int64)
            if len(new_ends):
                new_starts = np.empty_like(new_ends)
                new_starts[0] = next_start
                new_starts[1:] = new_ends[:-1] + 1
                starts = np.concatenate([starts, new_starts])
                ends = np.concatenate([ends, new_ends])
            ops = read_rec.take_ops()
            if ops or error is not None:
                schedule.append(
                    (False, _Deferred(lambda: (ops, None, error))))
            if error is not None:
                return
            # Dispatch complete row-blocks (or everything at EOF). A
            # group's byte window is private to its compute; delimiter
            # and boundary lookups are clipped per line, so spans for
            # in-group lines equal those of tokenizing the whole buffer.
            head = 0
            while head < len(starts):
                take = block_size - row % block_size
                if len(starts) - head < take:
                    if not eof:
                        break
                    take = len(starts) - head
                lo = int(starts[head])
                hi = int(ends[head + take - 1])
                schedule.append((True, submit(
                    self._group_task, row, starts[head:head + take],
                    ends[head:head + take],
                    buffer[lo - buffer_start:hi - buffer_start], lo)))
                in_flight += 1
                row += take
                head += take
            if head:
                consumed = min(hi + 1 - buffer_start, len(buffer))
                buffer = buffer[consumed:]
                buffer_start += consumed
                starts, ends = starts[head:], ends[head:]

        try:
            while True:
                while not eof and in_flight < depth:
                    read_more()
                if not schedule:
                    break
                is_group, task = schedule.popleft()
                try:
                    ops, batch, error = task.result()
                except CancelledError:
                    # CancelledError is a BaseException and would
                    # escape the scheduler's error containment,
                    # leaking the job's admission slot.
                    raise ExecutionError(
                        "scan worker pool was shut down while this "
                        "parallel scan was streaming (engine.close() "
                        "during a live query); re-run the query"
                    ) from None
                if is_group:
                    in_flight -= 1
                self._apply_staged(ops)
                if error is not None:
                    raise error
                if batch is not None:
                    yield batch
        finally:
            # Abandoned scan (or an error raised above): drop the
            # unmerged tail. Its staged deltas are never applied, so
            # structures hold exactly the merged prefix — at any worker
            # count.
            for _, task in schedule:
                task.cancel()
        self._finish(row, file_size, newline_terminated)

    def _group_task(self, row0: int, starts: np.ndarray,
                    ends: np.ndarray, buffer: bytes, buffer_base: int):
        """One group's compute against a recording model. Returns
        ``(ops, batch, error)``; never raises, so the merge can replay
        the charges recorded before a failure (exactly what an inline
        compute would have charged) and then re-raise in canonical
        order. May run on a worker thread: touches no shared engine
        state, only its private byte slice and the recorder."""
        recorder = RecordingModel()
        view = copy.copy(self)
        view.model = recorder
        try:
            batch = view._compute_stream_group(
                recorder.ops, row0, starts, ends, buffer, buffer_base)
            return recorder.ops, batch, None
        except FormatError as exc:
            if self.access.on_error == "fail":
                return recorder.ops, None, self._with_row_number(
                    exc, row0, starts, ends, buffer, buffer_base)
            # Tolerant policy: discard the strict attempt's op log
            # entirely (its charges must not replay — the redo prices
            # the whole group itself, so runs stay bit-identical at any
            # worker count) and recompute the group row by row. The
            # group still stages its line starts (the line *index* is
            # byte geometry, unaffected by malformed fields); rejects
            # are staged as ``("rej", row, line, reason)`` ops so the
            # sidecar write happens at the merge, in canonical order.
            # Like the strict compute, a pure function of the byte
            # slice.
            redo = RecordingModel()
            view = copy.copy(self)
            view.model = redo
            try:
                redo.tuple_overhead(len(starts))
                if self.pm is not None:
                    redo.ops.append(("lines", starts, row0, len(starts)))
                batch = view._tolerant_rows(
                    row0, starts, ends, buffer, buffer_base,
                    lambda *rejected: redo.ops.append(("rej", *rejected)))
                return redo.ops, batch, None
            except Exception as redo_exc:
                return redo.ops, None, redo_exc
        except Exception as exc:  # replayed + re-raised by the merge
            return recorder.ops, None, exc

    def _compute_stream_group(self, ops: list, row0: int,
                              starts: np.ndarray, ends: np.ndarray,
                              buffer: bytes, buffer_base: int,
                              ) -> ColumnBatch:
        """Strict compute of one group of freshly discovered lines — all
        within a single row block — staging its line-index / PM / cache
        / stats contributions into ``ops`` (shared with ``self.model``'s
        charge recorder) instead of touching the shared structures."""
        model = self.model
        n = len(starts)
        out_attrs = self.out_attrs
        block, first_in_block = divmod(row0, self.config.row_block_size)
        model.tuple_overhead(n)

        # Line index: stage the bulk append (the merge trims the prefix
        # an earlier group already recorded).
        if self.pm is not None:
            ops.append(("lines", starts, row0, n))

        lines = self.stream_lines(self, buffer, buffer_base,
                                  starts - buffer_base, ends - buffer_base,
                                  {})
        columns: dict[int, BlockColumn] = {}
        every_row = np.arange(n)
        for attr in self.where_attrs:
            column = columns[attr] = self._converted_column(
                lines, attr, every_row)
            if column.conv_typed is not None:
                column.typed = column.conv_typed
            else:
                values = np.empty(n, dtype=object)
                values[:] = column.conv_values
                column.set_values(values)
                column.nulls = object_nulls(values)
        qual = predicate_mask(model, self.predicate, columns, n)
        qual_idx = np.flatnonzero(qual)
        nqual = len(qual_idx)

        # SELECT-only attributes: located and converted at the
        # qualifying rows only.
        lines.qualified(qual_idx)
        out_columns: list = []
        out_nulls: list = []
        for attr in out_attrs:
            column = columns.get(attr)
            if column is not None:
                arr, mask = self._output_column(column, qual_idx)
            else:
                column = columns[attr] = self._converted_column(
                    lines, attr, qual_idx)
                arr, mask = column.conv_values, None
                if column.conv_typed is not None and \
                        column.family != "date":
                    arr = column.conv_typed
            out_columns.append(arr)
            out_nulls.append(mask)
        model.tuple_form(len(out_attrs) * nqual)

        if self.collector is not None:
            # §4.4: WHERE values of every row, SELECT-only values of the
            # qualifying rows (whose conversions this scan actually
            # paid) — those as converted, with no block-wide view.
            sampled = {}
            for attr in self.collector.attrs:
                column = columns[attr]
                if attr in self.where_attrs:
                    sampled[attr] = column.at(), row0 + every_row
                else:
                    sampled[attr] = (column.conv_values
                                     if column.conv_typed is None
                                     else column.conv_typed), row0 + qual_idx
            ops.append(("collect", sampled))

        # -- stage the inserts: positional-map chunk, then cache chunks
        rows_in_block = first_in_block + n
        if self.config.enable_positional_map and self.pm is not None:
            discovered = lines.positions()
            if discovered:
                attrs = sorted(discovered)
                matrix = np.full((rows_in_block, len(attrs)), NO_POS,
                                 dtype=np.int32)
                for col, attr in enumerate(attrs):
                    matrix[first_in_block:, col] = discovered[attr]
                ops.append(("pm", block, attrs, matrix))
        ops.extend(self._cache_ops(block, rows_in_block, first_in_block,
                                   columns))
        if nqual == 0 and out_attrs:
            return ColumnBatch([[] for _ in out_attrs], 0)
        return ColumnBatch(out_columns, nqual, out_nulls)

    # ------------------------------------------------------------------
    # Staged-op merge (single-threaded, canonical group order)
    # ------------------------------------------------------------------
    def _apply_staged(self, ops: list) -> None:
        """Replay one op log against the real model and structures.

        Entries are ``("c", event, units)`` charges and the staged
        structural operations, in the exact order an inline compute
        would have performed them — so the clock, the positional map,
        the cache and the statistics samples evolve identically. A
        ``"collect"`` op carries a group's sampled value columns with
        their row positions; the collector samples and charges them
        here, on the real model."""
        model = self.model
        for op in ops:
            tag = op[0]
            if tag == "c":
                model.charge(op[1], op[2])
            elif tag == "lines":
                # Bulk line-index append, trimmed of the prefix an
                # earlier group (or scan) already recorded.
                _, starts, row0, n = op
                known = self.pm.known_line_count
                if row0 > known:
                    # The map lost lines this scan already indexed
                    # (dropped under it: DROP TABLE, drop_auxiliary,
                    # engine.close()); appending would file these lines
                    # under the wrong row numbers.
                    raise ExecutionError(
                        f"line index for rows {known}..{row0} vanished "
                        "from the positional map mid-scan; re-run the "
                        "query")
                if row0 + n > known:
                    self.pm.append_line_starts(
                        starts[max(0, known - row0):])
            elif tag == "collect":
                self.collector.add_columns(op[1])
            elif tag == "rej":
                # Quarantine decided inside a group: the sidecar write
                # happens here, in canonical merge order (the
                # rows_rejected charge replays as an ordinary "c" op).
                self.access._quarantine_row(op[1], op[2], op[3])
            elif tag == "pm":
                # A group's position matrix, its holes filled from what
                # the map already knows for the block (an earlier group,
                # a previous partial scan), inserted as one chunk.
                _, block, attrs, matrix = op
                for col, attr in enumerate(attrs):
                    existing = self.pm.positions(block, attr)
                    if existing is not None:
                        overlap = min(len(existing), len(matrix))
                        column = matrix[:overlap, col]
                        unknown = column == NO_POS
                        column[unknown] = existing[:overlap][unknown]
                self.pm.insert_chunk(tuple(attrs), block, matrix)
            else:  # "cache"
                _, attr, block, rows_in_block, rows, values, typed, \
                    family = op
                self.cache.put_column(attr, block, rows_in_block, rows,
                                      values, family, typed_values=typed)
