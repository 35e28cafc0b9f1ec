"""The pluggable raw-format adapter registry.

NoDB declares schemas a priori and queries files in place (§3.1); *which
kinds of files* should not be a closed set. A :class:`FormatAdapter`
owns everything format-specific about a table: option validation,
schema inference (formats that carry their own header), schema/file
compatibility checks, access-method construction — including the wiring
of auxiliary structures (positional map, binary cache, statistics
participation) appropriate to the owning engine — and teardown at
``DROP TABLE``.

The catalog, planner and engines never branch on a format again: the
``CREATE TABLE ... USING <format>`` DDL path resolves the adapter here,
and the access method it builds is consumed through the duck-typed
:class:`~repro.sql.scanapi.AccessMethod` protocol. Registering a new
adapter (:func:`register_format`) is the entire integration surface —
see :mod:`repro.formats.jsonl` for a complete third-party-style example
that touches neither the planner nor the catalog.

Engine policy
-------------
Adapters consult two engine attributes instead of engine classes:

* ``engine.in_situ_policy`` — ``"raw"`` (PostgresRaw: full auxiliary
  structures per its config), ``"external"`` (the straw-man: full
  re-parse, no auxiliary state), or ``None`` (the engine does not scan
  raw files; e.g. a loaded DBMS, which uses the ``heap`` adapter's load
  path instead).
* ``engine.config`` — the :class:`~repro.core.config.PostgresRawConfig`
  of raw engines; absent elsewhere.

``CREATE EXTERNAL TABLE`` forces the ``"external"`` binding on an
engine whose policy allows raw scans at all — the paper's §5.1.4
comparison inside one engine, differing only in auxiliary structures.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.errors import CatalogError
from repro.formats.csvfmt import CsvDialect

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.catalog import Schema, TableInfo


class FormatAdapter:
    """One raw format's integration contract.

    Subclasses set :attr:`name` (the ``USING <name>`` token),
    :attr:`extensions` (for ``USING``-less sniffing) and the option
    sets, then implement :meth:`build_access`. Everything else has
    sensible defaults.
    """

    #: the format name used in ``CREATE TABLE ... USING <name>``
    name: str = "?"
    #: file extensions claimed for sniffing when ``USING`` is omitted
    extensions: tuple[str, ...] = ()
    #: option keys that must be present / may be present
    required_options: frozenset[str] = frozenset({"path"})
    allowed_options: frozenset[str] = frozenset({"path"})

    # ------------------------------------------------------------------
    def validate_options(self, engine, options: dict) -> dict:
        """Check and normalize ``OPTIONS (...)``; raises
        :class:`CatalogError` on unknown keys, missing required keys or
        unusable values. The default checks key sets and that ``path``
        names an existing file."""
        unknown = set(options) - set(self.allowed_options)
        if unknown:
            raise CatalogError(
                f"format {self.name!r} does not accept option(s) "
                f"{sorted(unknown)}; allowed: "
                f"{sorted(self.allowed_options)}")
        missing = set(self.required_options) - set(options)
        if missing:
            raise CatalogError(
                f"format {self.name!r} requires option(s) "
                f"{sorted(missing)}")
        path = options.get("path")
        if path is not None:
            if not isinstance(path, str) or not path:
                raise CatalogError("option 'path' must be a file path")
            if not engine.vfs.exists(path):
                raise CatalogError(f"raw file does not exist: {path!r}")
        return dict(options)

    def infer_schema(self, engine, options: dict) -> "Schema | None":
        """The schema carried by the file itself (FITS headers), or
        None when the user must declare one (§3.1 — schema discovery
        is out of scope for text formats)."""
        return None

    def check_schema(self, engine, schema: "Schema",
                     options: dict) -> None:
        """Validate a declared schema against the file (e.g. arity
        checks). Raises :class:`CatalogError` on mismatch."""

    def build_access(self, engine, info: "TableInfo", options: dict):
        """Construct and return the access method serving ``info``,
        wiring whatever auxiliary structures the engine's policy and
        config call for."""
        raise NotImplementedError

    def cost_profile(self, engine) -> "object | None":
        """Per-format :class:`~repro.simcost.profiles.CostProfile`
        override, or None to bill at the engine's profile. A format
        whose raw-file CPU work is priced differently from the
        engine's calibration (e.g. JSONL tokenization is string/escape
        aware, ~3x a delimiter scan per byte) returns an adjusted
        profile here; :meth:`scan_model` applies it. Must be
        idempotent under re-derivation (it may be called with an
        engine whose model already carries the override)."""
        return None

    def scan_model(self, engine):
        """The cost model this format's access method should charge:
        the engine's own model when :meth:`cost_profile` returns None
        (or returns the profile already in force), otherwise a model
        sharing the engine's clock but priced at the format profile —
        one ledger, per-format rates."""
        from repro.simcost.model import CostModel

        model = engine.model
        profile = self.cost_profile(engine)
        if profile is None or profile == model.profile:
            return model
        return CostModel(model.clock, profile)

    def teardown(self, engine, info: "TableInfo") -> None:
        """Release per-table auxiliary state at ``DROP TABLE``: the
        default drops the positional map and cache (always safe, §4.2)
        and detaches a file-system-interface prewarmer if one is
        attached."""
        prewarmer = info.extra.pop("prewarmer", None)
        if prewarmer is not None:
            prewarmer.detach()
        access = info.access
        positional_map = getattr(access, "pm", None)
        if positional_map is not None:
            positional_map.drop()
        cache = getattr(access, "cache", None)
        if cache is not None:
            cache.clear()

    # ------------------------------------------------------------------
    def build_raw_structures(self, engine, info: "TableInfo",
                             model=None):
        """The standard auxiliary-structure wiring for an in-situ
        table under a ``"raw"`` policy: a :class:`~repro.core.
        positional_map.PositionalMap` (kept even in cache-only mode —
        the §5.1.2 "minimal map" of line ends; attribute chunks are
        gated inside scans) and a :class:`~repro.core.cache.
        BinaryCache`, both per the engine's config. Returns
        ``(positional_map_or_None, cache_or_None)`` — the shared
        helper raw adapters (CSV, JSONL, yours) call from
        :meth:`build_access`."""
        from repro.core.cache import BinaryCache
        from repro.core.positional_map import PositionalMap

        config = engine.config
        model = model if model is not None else engine.model
        positional_map = None
        if config.enable_positional_map or config.enable_cache:
            positional_map = PositionalMap(
                model, info.schema.arity,
                row_block_size=config.row_block_size,
                budget_bytes=config.pm_budget_bytes,
                spill_vfs=engine.vfs if config.pm_spill_enabled else None,
                spill_prefix=f"{config.pm_spill_path}/{info.name.lower()}",
            )
        cache = (BinaryCache(model, config.cache_budget_bytes)
                 if config.enable_cache else None)
        return positional_map, cache

    def _policy(self, engine, external: bool) -> str:
        """The binding policy for this table: the engine's in-situ
        policy, downgraded to ``"external"`` by CREATE EXTERNAL
        TABLE."""
        policy = getattr(engine, "in_situ_policy", None)
        if policy is None:
            raise CatalogError(
                f"engine {type(engine).__name__} does not scan raw "
                f"files in situ; format {self.name!r} is unavailable "
                "(loaded engines use USING heap)")
        return "external" if external else policy


#: the valid values of the per-table ``on_error`` option
ON_ERROR_POLICIES = ("fail", "skip", "null")


def validate_on_error(options: dict) -> None:
    """Normalize and validate the per-table ``on_error`` error policy
    (shared by every raw text adapter that supports tolerant scans):
    ``'fail'`` (default) propagates the first malformed row as a typed
    error; ``'skip'`` quarantines malformed rows to a ``__rejects__/``
    sidecar and counts them in ``rows_rejected``; ``'null'`` keeps the
    row, reading unparseable touched values as NULL."""
    policy = options.get("on_error")
    if policy is None:
        return
    if not isinstance(policy, str) or \
            policy.lower() not in ON_ERROR_POLICIES:
        raise CatalogError(
            f"option 'on_error' must be one of "
            f"{', '.join(repr(p) for p in ON_ERROR_POLICIES)}; got "
            f"{policy!r}")
    options["on_error"] = policy.lower()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_REGISTRY: dict[str, FormatAdapter] = {}


def register_format(adapter: FormatAdapter,
                    replace: bool = False) -> FormatAdapter:
    """Register ``adapter`` under its :attr:`~FormatAdapter.name` —
    the public extension point. With ``replace=False`` a name
    collision raises :class:`CatalogError`."""
    key = adapter.name.lower()
    if not replace and key in _REGISTRY:
        raise CatalogError(f"format already registered: {adapter.name!r}")
    _REGISTRY[key] = adapter
    return adapter


def get_format(name: str) -> FormatAdapter:
    """The adapter registered under ``name`` (case-insensitive);
    unknown names raise :class:`CatalogError` listing what exists."""
    adapter = _REGISTRY.get(name.lower())
    if adapter is None:
        raise CatalogError(
            f"unknown format {name!r} in USING clause; registered "
            f"formats: {', '.join(available_formats())}")
    return adapter


def has_format(name: str) -> bool:
    return name.lower() in _REGISTRY


def available_formats() -> list[str]:
    """Registered format names, sorted."""
    return sorted(_REGISTRY)


def sniff_format(path: str) -> FormatAdapter:
    """Resolve an adapter from a file extension when ``USING`` is
    omitted. Unknown extensions raise :class:`CatalogError`."""
    lowered = path.lower()
    for adapter in _REGISTRY.values():
        if any(lowered.endswith(ext) for ext in adapter.extensions):
            return adapter
    raise CatalogError(
        f"cannot infer a format for {path!r}; add USING <format> "
        f"(registered formats: {', '.join(available_formats())})")


# ---------------------------------------------------------------------------
# Built-in adapters
# ---------------------------------------------------------------------------
class CsvAdapter(FormatAdapter):
    """The paper's main case (§4): delimited text, schema declared a
    priori. Under a ``"raw"`` policy the access method is the adaptive
    in-situ scan (positional map + binary cache + statistics per the
    engine's config); under ``"external"`` it is the straw-man full
    re-parse with no auxiliary structures."""

    name = "csv"
    extensions = (".csv", ".tbl", ".tsv", ".txt")
    allowed_options = frozenset({"path", "delimiter", "on_error"})

    def validate_options(self, engine, options: dict) -> dict:
        options = super().validate_options(engine, options)
        delimiter = options.get("delimiter")
        if delimiter is not None:
            if not isinstance(delimiter, str) or \
                    len(delimiter.encode()) != 1 or delimiter == "\n":
                raise CatalogError(
                    f"option 'delimiter' must be a single byte, got "
                    f"{delimiter!r}")
        validate_on_error(options)
        return options

    def _dialect(self, engine, options: dict) -> CsvDialect:
        delimiter = options.get("delimiter")
        if delimiter is not None:
            return CsvDialect(delimiter.encode())
        config = getattr(engine, "config", None)
        return config.dialect if config is not None else CsvDialect()

    def check_schema(self, engine, schema, options: dict) -> None:
        """Declaring *more* attributes than the file's first line holds
        is a registration error (every scan would fail tokenizing);
        declaring fewer is fine — selective tokenizing never looks past
        the largest requested attribute."""
        # Inspect only the first line: find + slice, no whole-file
        # split copy, and no costed handle — declaration stays free on
        # the engine's clock.
        data = engine.vfs.read_bytes(options["path"])
        newline = data.find(b"\n")
        first_line = data[:newline] if newline >= 0 else data
        if not first_line:
            return  # empty file: zero rows of any arity
        fields = first_line.count(
            self._dialect(engine, options).delimiter) + 1
        if schema.arity > fields:
            raise CatalogError(
                f"schema declares {schema.arity} column(s) but "
                f"{options['path']!r} has {fields} field(s) on its "
                "first line")

    def build_access(self, engine, info, options: dict):
        from repro.engines.access import ExternalAccess

        dialect = self._dialect(engine, options)
        if self._policy(engine, info.external) == "external":
            return ExternalAccess(engine.vfs, info.path, info.schema,
                                  engine.model, info, dialect=dialect)

        from repro.core.scan import RawCsvAccess

        config = engine.config
        if dialect != config.dialect:
            config = dataclasses.replace(config, dialect=dialect)
        positional_map, cache = self.build_raw_structures(engine, info)
        return RawCsvAccess(engine.vfs, info.path, info.schema,
                            engine.model, config, info, positional_map,
                            cache, pool=getattr(engine, "scan_pool", None))


class FitsAdapter(FormatAdapter):
    """FITS binary tables (§5.3). The schema comes from the file's own
    header — no declaration needed; a declared one must match it."""

    name = "fits"
    extensions = (".fits", ".fit")

    def parse_table(self, vfs, path: str):
        """Parse the file's header into a
        :class:`~repro.formats.fits.FitsTableInfo` — shared with the
        CFITSIO comparator so format knowledge stays here."""
        from repro.formats.fits import parse_fits_from_vfs

        return parse_fits_from_vfs(vfs, path)

    def _parsed(self, engine, options: dict):
        """Parse once per CREATE: the options dict flows through
        infer_schema -> check_schema -> build_access, so it carries the
        parse (popped before the options land in the catalog entry)."""
        fits = options.get("_fits")
        if fits is None:
            fits = self.parse_table(engine.vfs, options["path"])
            options["_fits"] = fits
        return fits

    def infer_schema(self, engine, options: dict):
        return self._parsed(engine, options).schema

    def check_schema(self, engine, schema, options: dict) -> None:
        file_schema = self._parsed(engine, options).schema
        if [c.name.lower() for c in schema] != \
                [c.name.lower() for c in file_schema]:
            raise CatalogError(
                f"declared columns {[c.name for c in schema]} do not "
                f"match the FITS header of {options['path']!r} "
                f"({[c.name for c in file_schema]})")

    def build_access(self, engine, info, options: dict):
        fits = options.pop("_fits", None)
        if self._policy(engine, info.external) == "external":
            raise CatalogError(
                "format 'fits' has no external-files binding; use a "
                "raw (in-situ) engine")
        from repro.core.cache import BinaryCache
        from repro.core.fits_scan import RawFitsAccess

        config = engine.config
        if fits is None:
            fits = self.parse_table(engine.vfs, info.path)
        cache = (BinaryCache(engine.model, config.cache_budget_bytes)
                 if config.enable_cache else None)
        return RawFitsAccess(engine.vfs, info.path, fits, engine.model,
                             config, info, cache)


class HeapAdapter(FormatAdapter):
    """The conventional load-then-query path: ``CREATE TABLE ... USING
    heap OPTIONS (path '<csv>')`` bulk-loads the CSV into binary heap
    pages on the engine's clock and binds a buffer-pool scan. Only
    engines with a buffer pool (:class:`~repro.engines.loaded.
    LoadedDBMS`) support the CSV-load path.

    A second, hidden channel materializes *computed* tuples instead of
    a file: ``options['_rows']`` (a list of tuples, with an optional
    ``'_path'`` heap placement) is how CTAS and rollup builds store
    query results through this adapter on any engine — the serving
    pool comes from ``engine.materialization_pool()``."""

    name = "heap"

    def validate_options(self, engine, options: dict) -> dict:
        if "_rows" in options:
            # Materialization channel: no source path to check.
            unknown = set(options) - {"_rows", "_path"}
            if unknown:
                raise CatalogError(
                    f"format 'heap' row materialization does not "
                    f"accept option(s) {sorted(unknown)}")
            if not isinstance(options["_rows"], list):
                raise CatalogError(
                    "hidden option '_rows' must be a list of tuples")
            return dict(options)
        return super().validate_options(engine, options)

    def build_access(self, engine, info, options: dict):
        if info.external:
            raise CatalogError(
                "EXTERNAL makes no sense for loaded heap tables")

        from repro.engines.access import HeapAccess
        from repro.storage.heap import HeapFile
        from repro.storage.loader import BulkLoader, load_rows
        from repro.storage.record import RecordCodec
        from repro.storage.toast import ToastReader

        if "_rows" in options:
            result_rows = options.pop("_rows")
            heap_path = options.pop("_path", None) or \
                f"__heap__/{engine.name}/{info.name.lower()}.heap"
            pool = engine.materialization_pool()
            rows, stats = load_rows(engine.vfs, engine.model, heap_path,
                                    info.schema, result_rows)
            pool.invalidate(heap_path)
        else:
            pool = getattr(engine, "pool", None)
            if pool is None:
                raise CatalogError(
                    f"format 'heap' requires a loading engine with a "
                    f"buffer pool; {type(engine).__name__} has none")
            csv_path = options["path"]
            heap_path = f"__heap__/{engine.name}/{info.name.lower()}.heap"
            loader = BulkLoader(engine.vfs, engine.model)
            rows, stats = loader.load(csv_path, heap_path, info.schema)
            info.extra["source_path"] = csv_path
        heap = HeapFile(engine.vfs, heap_path)
        toast = (ToastReader(engine.vfs, heap_path + ".toast",
                             engine.model)
                 if engine.vfs.exists(heap_path + ".toast") else None)
        info.stats = stats
        info.row_count_hint = rows
        # The catalog entry points at the loaded heap, not the source.
        info.path = heap_path
        return HeapAccess(heap, pool, RecordCodec(info.schema),
                          info.schema, engine.model, row_count=rows,
                          toast=toast)


register_format(CsvAdapter())
register_format(FitsAdapter())
register_format(HeapAdapter())
