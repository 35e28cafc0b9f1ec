"""Catalog: schemas and the table namespace.

The paper keeps PostgreSQL's catalog but marks tables as *in situ*: the
schema is declared a priori (§3.1 — schema discovery is out of scope).
*How* a table's tuples are reached is not catalog knowledge anymore:
``CREATE TABLE ... USING <format>`` resolves a
:class:`~repro.formats.registry.FormatAdapter` that builds the access
method bound at the plan leaf; the catalog only records the format name
for introspection (``SHOW TABLES``) and teardown (``DROP TABLE``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.errors import CatalogError, PlanningError
from repro.sql.datatypes import DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.stats import TableStats


@dataclass(frozen=True)
class Column:
    """One attribute of a table."""

    name: str
    dtype: DataType
    nullable: bool = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name} {self.dtype.name}"


class Schema:
    """An ordered list of columns with by-name lookup."""

    def __init__(self, columns: list[Column] | list[tuple[str, DataType]]):
        normalized: list[Column] = []
        for col in columns:
            if isinstance(col, Column):
                normalized.append(col)
            else:
                name, dtype = col
                normalized.append(Column(name, dtype))
        self.columns = normalized
        self._index = {c.name.lower(): i for i, c in enumerate(normalized)}
        if len(self._index) != len(normalized):
            raise CatalogError("duplicate column names in schema")

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def types(self) -> list[DataType]:
        return [c.dtype for c in self.columns]

    @property
    def arity(self) -> int:
        return len(self.columns)

    def index_of(self, name: str) -> int:
        """Position of column ``name`` (case-insensitive)."""
        idx = self._index.get(name.lower())
        if idx is None:
            raise PlanningError(f"unknown column: {name!r}")
        return idx

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schema({', '.join(map(repr, self.columns))})"


@dataclass
class TableInfo:
    """Everything the engine knows about one table.

    ``path`` is the VFS path of the raw file (in-situ/external tables)
    or of the heap file (loaded tables). ``format`` names the
    :class:`~repro.formats.registry.FormatAdapter` that built — and at
    DROP tears down — the table; ``options`` are its validated CREATE
    options and ``external`` records a ``CREATE EXTERNAL TABLE``
    binding. ``access`` is the access-method object serving this
    table's scans. ``stats`` holds optimizer statistics — for
    PostgresRaw these appear adaptively (§4.4); for loaded engines they
    are built at load time.
    """

    name: str
    schema: Schema
    path: str = ""
    format: str = ""
    options: dict = field(default_factory=dict)
    external: bool = False
    access: object | None = None
    stats: "TableStats | None" = None
    row_count_hint: int | None = None
    extra: dict = field(default_factory=dict)
    #: Bumped when the *data* under the table visibly changed (a raw
    #: file was rewritten or appended to, a partition invalidated).
    #: Statistics versions only move when stats are (re)installed, which
    #: happens lazily at the next scan — too late for plan-time folds
    #: (zone-map aggregates, rollup routing) that must be invalidated
    #: the moment the change is detected by ``refresh()``.
    data_version: int = 0

    @property
    def stats_epoch(self) -> int:
        """Version of this table's statistics (0 = none yet). Moves
        whenever a scan's §4.4 collection — or a loaded engine's
        ANALYZE — installs or augments stats, and whenever a refresh
        detects the underlying data changed (``data_version``)."""
        stats_version = self.stats.version if self.stats is not None else 0
        return stats_version + self.data_version


class Catalog:
    """Case-insensitive table namespace for one engine."""

    def __init__(self):
        self._tables: dict[str, TableInfo] = {}
        self._retired_stats_epoch = 0

    def register(self, info: TableInfo) -> TableInfo:
        key = info.name.lower()
        if key in self._tables:
            raise CatalogError(f"table already registered: {info.name!r}")
        self._tables[key] = info
        return info

    def drop(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"unknown table: {name!r}")
        # Retire the dropped table's stats version *plus one* so the
        # catalog epoch strictly advances: plans cached before the drop
        # must re-plan on their next execution — binding the new access
        # method after a drop + re-register, or failing cleanly when
        # the table is simply gone — and later stats arrivals on other
        # tables can never sum back to a previously seen epoch.
        self._retired_stats_epoch += self._tables[key].stats_epoch + 1
        del self._tables[key]

    def rename(self, name: str, new_name: str) -> TableInfo:
        """``ALTER TABLE name RENAME TO new_name``: re-key the entry in
        place. The :class:`TableInfo` object (access method, stats,
        auxiliary structures) survives untouched — derived objects that
        hold it by identity (rollups) stay valid — but the catalog
        epoch is bumped so plans cached under the old name re-plan and
        fail cleanly instead of reading a phantom binding."""
        info = self.get(name)
        key = name.lower()
        new_key = new_name.lower()
        if new_key != key and new_key in self._tables:
            raise CatalogError(
                f"table already registered: {new_name!r}")
        del self._tables[key]
        info.name = new_name
        self._tables[new_key] = info
        self.bump_epoch()
        return info

    def bump_epoch(self) -> None:
        """Strictly advance :attr:`stats_epoch` without touching any
        table's own statistics: renames and derived-object changes
        (CREATE/DROP ROLLUP) invalidate cached plans this way."""
        self._retired_stats_epoch += 1

    def get(self, name: str) -> TableInfo:
        info = self._tables.get(name.lower())
        if info is None:
            raise CatalogError(f"unknown table: {name!r}")
        return info

    def has(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> list[TableInfo]:
        return list(self._tables.values())

    @property
    def stats_epoch(self) -> int:
        """Catalog-wide statistics epoch: changes whenever any table's
        statistics change (PostgresRaw collects them adaptively during
        scans, §4.4 — i.e. *after* plans may already be cached).
        Prepared statements snapshot this at plan time and re-plan when
        it moves, so optimizer decisions frozen before statistics
        existed are revisited once they arrive. Monotone: dropped
        tables' versions are retired into a floor, never subtracted."""
        return self._retired_stats_epoch + sum(
            info.stats_epoch for info in self._tables.values())

    def __contains__(self, name: str) -> bool:
        return self.has(name)

    def __len__(self) -> int:
        return len(self._tables)
