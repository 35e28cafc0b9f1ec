"""Partitioned multi-file tables: a format wrapper with zone-map pruning.

Real raw data is a *directory* of files, not one file. This wrapper
extends the paper's adaptive-auxiliary-structure idea (§4) to file
granularity: ``CREATE TABLE t (...) USING csv OPTIONS (path
'events-*.csv')`` expands the glob, binds one child access method per
file through the wrapped :class:`~repro.formats.registry.FormatAdapter`
(csv, jsonl and fits work unchanged), and accumulates a **zone map**
per file — exact min/max per attribute plus the row count — harvested
from the child's §4.4 statistics samples the first time each file is
scanned. A predicate whose interval cannot intersect a file's zone
skips the file entirely; the planner surfaces pruned/scanned file
counts in EXPLAIN, and the scan charges them as the (deliberately
zero-priced) ``files_scanned`` / ``files_pruned`` counters.

Determinism contract: children are scanned one after another in
canonical filename order, and each is a normal single-file table built
on the engine itself — the wrapped format's own cost model and the
engine's shared row-block worker pool. Within a file the row-block
groups fan out across that pool exactly as for any table
(:class:`~repro.core.blockscan.BlockScan` reads on the driver thread and
applies staged deltas only at its in-order merge), so results, per-file
positional-map/cache contents, every counter and the virtual clock are
bit-identical at any ``scan_workers`` — also after a scan that errors
or is abandoned mid-flight, because no file is touched before the
serial order reaches it.

Zone-map soundness: bounds come from
:class:`~repro.core.statistics.BottomKSampler`'s exact extremes and
are used only when the collecting scan observed *every* row of the
file (true for WHERE attributes, and for all attributes of an
unfiltered scan). SQL three-valued logic makes min/max over non-null
values sufficient: NULL comparisons are UNKNOWN and UNKNOWN rows are
filtered. A ``partition_by '<column> from filename'`` option
additionally seeds each file's zone for that column from the
filename's glob-wildcard text (hive-style partitioning: the user
asserts every row's value equals the filename key), enabling pruning
before any file has been scanned.
"""

from __future__ import annotations

import datetime
import fnmatch
import hashlib
import json
import re
import weakref
from dataclasses import dataclass
from typing import Sequence

from repro.errors import CatalogError
from repro.formats.registry import (
    FormatAdapter,
    get_format,
    register_format,
    sniff_format,
)
from repro.sql.catalog import TableInfo
from repro.sql.optimizer import zone_may_match
from repro.sql.scanapi import ScanPredicate
from repro.sql.stats import ColumnStats, TableStats

_GLOB_CHARS = frozenset("*?[")
_PARTITION_BY_RE = re.compile(
    r"^\s*([A-Za-z_]\w*)\s+from\s+filename\s*$", re.IGNORECASE)

#: Zone-map sidecars live under their own VFS prefix (never inside the
#: data directories, so a table glob like ``data/*`` cannot match
#: them). Like the positional map and binary cache, they are engine
#: metadata — written and read uncosted — but unlike those they are
#: persisted to the VFS, so a fresh engine over the same VFS starts
#: with warm per-file zone maps (file pruning before any rescan).
_ZONE_PREFIX = "__zones__/"


def _file_fingerprint(vfs, path: str) -> str:
    """Content fingerprint of a data file: hash of its first and last
    OS-cache block plus the size. The (rewrite_count, size) staleness
    guard cannot see a same-size in-place mutation made behind the
    engine's back; hashing the head and tail blocks catches it without
    paying a full-file read on every zone load."""
    from repro.storage.vfs import OS_CACHE_BLOCK
    data = vfs.read_bytes(path)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(len(data)).encode())
    digest.update(b"\x00")
    digest.update(data[:OS_CACHE_BLOCK])
    digest.update(b"\x00")
    digest.update(data[-OS_CACHE_BLOCK:])
    return digest.hexdigest()


def _payload_checksum(payload: dict) -> str:
    """Integrity checksum over the sidecar payload itself (everything
    except the checksum field), so bit rot in the sidecar is detected
    rather than silently steering pruning decisions."""
    body = {key: value for key, value in payload.items()
            if key != "checksum"}
    encoded = json.dumps(body, sort_keys=True, default=str).encode()
    return hashlib.blake2b(encoded, digest_size=16).hexdigest()


def _pack_zone_value(value):
    """JSON-encode one zone bound, tagging types JSON cannot round-trip
    natively (dates as ISO strings)."""
    if isinstance(value, datetime.date):
        return {"date": value.isoformat()}
    return value


def _unpack_zone_value(value):
    if isinstance(value, dict):
        return datetime.date.fromisoformat(value["date"])
    return value


def _is_glob(path) -> bool:
    return isinstance(path, str) and any(ch in _GLOB_CHARS for ch in path)


def maybe_wrap_partitioned(adapter: FormatAdapter,
                           options: dict) -> FormatAdapter:
    """Wrap ``adapter`` in a :class:`PartitionedAdapter` when the DDL
    asked for a multi-file table (glob path or ``partition_by``)."""
    if isinstance(adapter, PartitionedAdapter):
        return adapter
    if _is_glob(options.get("path")) or "partition_by" in options:
        return PartitionedAdapter(inner=adapter)
    return adapter


def expand_glob(vfs, pattern: str) -> list[str]:
    """VFS paths matching ``pattern``, sorted (the canonical child
    order every scan and merge uses)."""
    if not _is_glob(pattern):
        return [pattern] if vfs.exists(pattern) else []
    return sorted(path for path in vfs.listdir()
                  if fnmatch.fnmatchcase(path, pattern)
                  and not path.startswith(_ZONE_PREFIX))


def _parse_partition_by(spec) -> str:
    match = _PARTITION_BY_RE.match(spec) if isinstance(spec, str) else None
    if match is None:
        raise CatalogError(
            f"option 'partition_by' must look like '<column> from "
            f"filename', got {spec!r}")
    return match.group(1).lower()


def _key_extractor(pattern: str):
    """Map a matched path to the text the glob wildcards consumed
    (``events-*.csv`` + ``events-2024-01-07.csv`` -> ``2024-01-07``);
    the whole stem for non-glob patterns."""
    wild = [i for i, ch in enumerate(pattern) if ch in _GLOB_CHARS]
    if not wild:
        def stem(path: str) -> str | None:
            base = path.rsplit("/", 1)[-1]
            dot = base.rfind(".")
            return base[:dot] if dot > 0 else base
        return stem
    prefix = pattern[:wild[0]]
    suffix = pattern[wild[-1] + 1:]

    def extract(path: str) -> str | None:
        if (path.startswith(prefix) and path.endswith(suffix)
                and len(path) >= len(prefix) + len(suffix)):
            return path[len(prefix):len(path) - len(suffix)]
        return None
    return extract


def _child_options(options: dict, path: str) -> dict:
    """One file's options: the table's, minus the wrapper's own keys,
    with ``path`` bound to that file."""
    child = {key: value for key, value in options.items()
             if key not in ("partition_by", "format")}
    child["path"] = path
    return child


@dataclass
class PartitionSelection:
    """One pruning decision: how many files the predicate left alive."""

    total: int
    scanned: int
    pruned: int
    #: summed row count of surviving files when every one is known
    est_rows: int | None = None


class _Partition:
    """One file of a partitioned table: child access + zone map."""

    __slots__ = ("path", "key", "info", "access", "zone", "row_count",
                 "empty", "_seen_rewrites", "_seen_size")

    def __init__(self, path: str, key):
        self.path = path
        self.key = key
        self.info: TableInfo | None = None
        self.access = None
        self.zone: dict[str, tuple] = {}
        self.row_count: int | None = None
        self.empty = False
        self._seen_rewrites: int | None = None
        self._seen_size = 0

    def bounds_of(self, name: str):
        if self.empty:
            return (None, None)  # zero rows: nothing can match
        return self.zone.get(name.lower())


class PartitionedAccess:
    """Access method over one glob of files, one child access each."""

    def __init__(self, engine, info: TableInfo, inner: FormatAdapter,
                 options: dict):
        # Weak: the engine's catalog owns this access method (and the
        # catalog entry it serves).
        self._engine = weakref.ref(engine)
        self._table_info = weakref.ref(info)
        self.vfs = engine.vfs
        self.model = engine.model
        self.schema = info.schema
        self.inner = inner
        self.options = options
        self.pattern = options.get("path", "")
        #: per-table error policy, inherited by every child access
        #: through ``_child_options`` (surfaced by EXPLAIN here).
        self.on_error = options.get("on_error", "fail")
        self.parts: list[_Partition] = []
        self._by_path: dict[str, _Partition] = {}
        self._folded = None
        self.partition_column: str | None = None
        spec = options.get("partition_by")
        if spec is not None:
            self.partition_column = _parse_partition_by(spec)
            if not info.schema.has_column(self.partition_column):
                raise CatalogError(
                    f"partition_by column {self.partition_column!r} is "
                    f"not in the schema of {info.name!r}")
        self._extract_key = _key_extractor(self.pattern)
        self._expand()
        if not self.parts:
            raise CatalogError(
                f"no files match {self.pattern!r} for table "
                f"{info.name!r}")

    @property
    def engine(self):
        return self._engine()

    @property
    def table_info(self) -> TableInfo:
        return self._table_info()

    # -- partition lifecycle -------------------------------------------
    def _build_part(self, path: str) -> _Partition:
        part = _Partition(path, self._extract_key(path))
        child_options = _child_options(self.options, path)
        part.info = TableInfo(
            name=f"{self.table_info.name}#{path}",
            schema=self.schema, path=path, format=self.inner.name,
            options=child_options, external=self.table_info.external)
        part.access = part.info.access = self.inner.build_access(
            self.engine, part.info, child_options)
        part._seen_rewrites = self.vfs.rewrite_count(path)
        part._seen_size = self.vfs.size(path)
        if self.partition_column is not None:
            part.zone[self.partition_column] = self._seed_bounds(part)
        self._load_zone(part)
        return part

    # -- zone persistence ----------------------------------------------
    def _zone_path(self, part: _Partition) -> str:
        return _ZONE_PREFIX + part.path.lstrip("/")

    def _persist_zone(self, part: _Partition) -> None:
        """Write the file's zone map to its sidecar so the next engine
        over this VFS prunes without rescanning. Catalog metadata, so
        the write is uncosted (``write_bytes`` bypasses costed
        handles), mirroring how the zone itself is consulted at plan
        time for free."""
        if part.row_count is None:
            return
        payload = {
            "rewrites": part._seen_rewrites,
            "size": part._seen_size,
            "row_count": part.row_count,
            "empty": part.empty,
            "zone": {name: [_pack_zone_value(lo), _pack_zone_value(hi)]
                     for name, (lo, hi) in part.zone.items()},
        }
        payload["fingerprint"] = _file_fingerprint(self.vfs, part.path)
        payload["checksum"] = _payload_checksum(payload)
        self.vfs.write_bytes(self._zone_path(part),
                             json.dumps(payload).encode())

    def _load_zone(self, part: _Partition) -> None:
        """Restore a sidecar written by a previous engine — but only
        when its recorded (rewrite_count, size) still matches the data
        file, i.e. the bounds provably cover every current row."""
        path = self._zone_path(part)
        if not self.vfs.exists(path):
            return
        try:
            payload = json.loads(self.vfs.read_bytes(path).decode())
        except (ValueError, UnicodeDecodeError):
            self._quarantine_zone(part, path)
            return  # corrupt sidecar: quarantined, rebuilt on next scan
        if (not isinstance(payload, dict)
                or payload.get("checksum") != _payload_checksum(payload)):
            self._quarantine_zone(part, path)
            return  # sidecar body doesn't match its checksum
        if (payload.get("rewrites") != part._seen_rewrites
                or payload.get("size") != part._seen_size):
            return  # data file changed since the sidecar was written
        if payload.get("fingerprint") != _file_fingerprint(self.vfs,
                                                           part.path):
            # Same (rewrites, size) but different bytes: the file was
            # mutated in place behind the engine's back. The recorded
            # bounds may no longer cover every row — quarantine.
            self._quarantine_zone(part, path)
            return
        row_count = payload.get("row_count")
        if not isinstance(row_count, int):
            return
        part.row_count = row_count
        part.empty = bool(payload.get("empty"))
        for name, bounds in payload.get("zone", {}).items():
            if not self.schema.has_column(name):
                continue
            try:
                part.zone[name.lower()] = (_unpack_zone_value(bounds[0]),
                                           _unpack_zone_value(bounds[1]))
            except (KeyError, IndexError, TypeError, ValueError):
                continue

    def _quarantine_zone(self, part: _Partition, path: str) -> None:
        """Drop an untrustworthy sidecar (corrupt, checksum mismatch, or
        fingerprint-detected in-place mutation): delete it, count the
        degradation, and let the next scan rebuild it from the raw file
        — graceful degradation, never a wrong pruning decision."""
        if self.vfs.exists(path):
            self.vfs.delete(path)
        self.model.aux_rebuild(1)

    def _seed_bounds(self, part: _Partition) -> tuple:
        if part.key is None:
            raise CatalogError(
                f"cannot derive a partition key for {part.path!r} from "
                f"pattern {self.pattern!r}")
        idx = self.schema.index_of(self.partition_column)
        try:
            value = self.schema.columns[idx].dtype.parse(part.key)
        except Exception as exc:
            raise CatalogError(
                f"partition key {part.key!r} of {part.path!r} is not a "
                f"valid {self.schema.columns[idx].dtype.name}: {exc}"
            ) from exc
        return (value, value)

    def _teardown_part(self, part: _Partition) -> None:
        self.inner.teardown(self.engine, part.info)
        part.access = part.info.access = None

    def _expand(self) -> None:
        """(Re-)expand the glob: new files appear in sorted order,
        vanished files are torn down. Pure catalog work — uncosted."""
        matched = expand_glob(self.vfs, self.pattern)
        matched_set = set(matched)
        for path in list(self._by_path):
            if path not in matched_set:
                self._teardown_part(self._by_path.pop(path))
        for path in matched:
            if path not in self._by_path:
                self._by_path[path] = self._build_part(path)
        self.parts = [self._by_path[path] for path in matched]

    # -- AccessMethod protocol -----------------------------------------
    def refresh(self) -> None:
        before = {part.path for part in self.parts}
        self._expand()
        changed = {part.path for part in self.parts} != before
        for part in self.parts:
            refresh = getattr(part.access, "refresh", None)
            if refresh is not None:
                refresh()
            rewrites = self.vfs.rewrite_count(part.path)
            size = self.vfs.size(part.path)
            if part._seen_rewrites is None:
                part._seen_rewrites, part._seen_size = rewrites, size
                continue
            if rewrites != part._seen_rewrites or size > part._seen_size:
                # Rewritten or appended: the zone (and the child stats
                # it was harvested from) no longer covers every row.
                part.info.stats = None
                part.zone = {}
                part.row_count = None
                part.empty = False
                changed = True
                if self.partition_column is not None:
                    part.zone[self.partition_column] = \
                        self._seed_bounds(part)
            part._seen_rewrites, part._seen_size = rewrites, size
        if changed:
            # Plan-time folds over zone maps (and rollups built from
            # this table) must be invalidated *now*, not at the next
            # stats install — move the table's data version so the
            # catalog epoch advances immediately.
            self.table_info.data_version += 1

    def estimated_rows(self) -> int | None:
        rows = 0
        for part in self.parts:
            if part.row_count is None:
                return None
            rows += part.row_count
        return rows

    # -- pruning --------------------------------------------------------
    def _split(self, conjuncts: list) -> tuple[list, list]:
        if not conjuncts:
            return list(self.parts), []
        survivors: list[_Partition] = []
        pruned: list[_Partition] = []
        for part in self.parts:
            if all(zone_may_match(conjunct, part.bounds_of)
                   for conjunct in conjuncts):
                survivors.append(part)
            else:
                pruned.append(part)
        return survivors, pruned

    def select_partitions(self, conjuncts: list | None
                          ) -> PartitionSelection:
        """The pruning decision for a conjunct list — consulted by the
        planner for EXPLAIN/estimates and by every scan for the real
        file selection. Free of virtual time (catalog work)."""
        survivors, pruned = self._split(list(conjuncts or []))
        est: int | None = 0
        for part in survivors:
            if part.row_count is None:
                est = None
                break
            est += part.row_count
        return PartitionSelection(total=len(self.parts),
                                  scanned=len(survivors),
                                  pruned=len(pruned), est_rows=est)

    # -- scanning -------------------------------------------------------
    def scan_batches(self, needed: Sequence[int],
                     predicate: ScanPredicate | None):
        info = self.table_info  # held while the scan runs
        conjuncts = (list(predicate.conjuncts or [])
                     if predicate is not None else [])
        survivors, pruned = self._split(conjuncts)
        self.model.files_scanned(len(survivors))
        self.model.files_pruned(len(pruned))
        for part in survivors:
            yield from part.access.scan_batches(needed, predicate)
            self._harvest(part)
        self._fold_parent_stats(info)

    # -- zone-map harvesting ---------------------------------------------
    def _harvest(self, part: _Partition) -> None:
        """After a completed child scan, lift the child's §4.4 exact
        extremes into the file's zone map — but only for attributes
        whose collection observed every row of the file."""
        estimated = getattr(part.access, "estimated_rows", None)
        rows = estimated() if estimated is not None else None
        if rows is None:
            return
        part.row_count = rows
        part.empty = rows == 0
        stats = part.info.stats
        if stats is not None and rows > 0:
            for column in self.schema:
                col = stats.column(column.name)
                if col is None or col.observed_rows != rows:
                    continue
                if (col.observed_min is None
                        and col.observed_nulls < col.observed_rows):
                    continue  # unorderable values: no usable bounds
                part.zone[column.name.lower()] = (col.observed_min,
                                                  col.observed_max)
        self._persist_zone(part)

    def _fold_parent_stats(self, info: TableInfo) -> None:
        """Aggregate child statistics into the parent's TableStats so
        the optimizer (and prepared-statement re-planning via the
        catalog stats epoch) sees the table, not the files. Idempotent
        per child-stats state — no version churn without new data."""
        state = tuple(
            (part.info.stats.version if part.info.stats else 0,
             part.row_count)
            for part in self.parts)
        if state == self._folded:
            return
        self._folded = state
        if any(part.row_count is None for part in self.parts):
            return
        total = sum(part.row_count for part in self.parts)
        stats = info.stats or TableStats()
        stats.set_row_count(total)
        for column in self.schema:
            merged = self._merge_column(column.name, total)
            if merged is None:
                continue
            existing = stats.column(column.name)
            if existing is not None and (
                    existing.null_frac, existing.n_distinct,
                    existing.min_value, existing.max_value) == (
                    merged.null_frac, merged.n_distinct,
                    merged.min_value, merged.max_value):
                continue
            stats.set_column(merged)
        info.stats = stats
        info.row_count_hint = total

    def _merge_column(self, name: str, total_rows: int
                      ) -> ColumnStats | None:
        children = []
        for part in self.parts:
            if part.info.stats is None:
                return None
            col = part.info.stats.column(name)
            if col is None:
                return None
            children.append((part.row_count or 0, col))
        if not children:
            return None
        merged = ColumnStats(name=name)
        weight = sum(rows for rows, _ in children)
        if weight:
            merged.null_frac = sum(
                rows * col.null_frac for rows, col in children) / weight
        merged.n_distinct = min(
            float(max(total_rows, 1)),
            sum(max(col.n_distinct, 1.0) for _, col in children))
        mins = [col.min_value for _, col in children
                if col.min_value is not None]
        maxs = [col.max_value for _, col in children
                if col.max_value is not None]
        try:
            merged.min_value = min(mins) if mins else None
            merged.max_value = max(maxs) if maxs else None
        except TypeError:
            merged.min_value = merged.max_value = None
        return merged


# ---------------------------------------------------------------------------
# Adapter
# ---------------------------------------------------------------------------
class PartitionedAdapter(FormatAdapter):
    """The wrapper adapter. Reached two ways: automatically, when a
    CREATE's path contains glob characters (or a ``partition_by``
    option) — the resolved inner adapter is wrapped per-table — or
    explicitly via ``USING partitioned OPTIONS (format 'csv', ...)``
    through the registry singleton."""

    name = "partitioned"

    def __init__(self, inner: FormatAdapter | None = None):
        self.inner = inner

    def _resolve_inner(self, options: dict) -> FormatAdapter:
        if self.inner is not None:
            return self.inner
        fmt = options.get("format")
        if fmt is not None:
            inner = get_format(str(fmt))
        else:
            inner = sniff_format(str(options.get("path", "")))
        if isinstance(inner, PartitionedAdapter):
            raise CatalogError("cannot nest partitioned formats")
        return inner

    def validate_options(self, engine, options: dict) -> dict:
        options = dict(options)
        pattern = options.get("path")
        if not isinstance(pattern, str) or not pattern:
            raise CatalogError(
                "option 'path' must be a file path or glob pattern")
        inner = self._resolve_inner(options)
        unknown = (set(options)
                   - set(inner.allowed_options)
                   - {"partition_by", "format"})
        if unknown:
            raise CatalogError(
                f"format {inner.name!r} (partitioned) does not accept "
                f"option(s) {sorted(unknown)}")
        if "partition_by" in options:
            _parse_partition_by(options["partition_by"])
        paths = expand_glob(engine.vfs, pattern)
        if not paths:
            raise CatalogError(f"no files match {pattern!r}")
        for path in paths:
            inner.validate_options(engine,
                                   _child_options(options, path))
        return options

    def infer_schema(self, engine, options: dict):
        inner = self._resolve_inner(options)
        paths = expand_glob(engine.vfs, options.get("path", ""))
        if not paths:
            return None
        return inner.infer_schema(
            engine, _child_options(options, paths[0]))

    def check_schema(self, engine, schema, options: dict) -> None:
        inner = self._resolve_inner(options)
        for path in expand_glob(engine.vfs, options.get("path", "")):
            inner.check_schema(engine,
                               schema, _child_options(options, path))

    def build_access(self, engine, info, options: dict):
        inner = self._resolve_inner(options)
        return PartitionedAccess(engine, info, inner, options)

    def teardown(self, engine, info) -> None:
        super().teardown(engine, info)
        access = info.access
        if isinstance(access, PartitionedAccess):
            for part in access.parts:
                access._teardown_part(part)
            access.parts = []
            access._by_path.clear()


register_format(PartitionedAdapter())
