"""PostgresRaw: the NoDB engine (§4).

Tables are declared, never loaded: ``CREATE TABLE ... USING <format>``
records the schema and binds an in-situ access method built by the
table's :class:`~repro.formats.registry.FormatAdapter`; the first query
touches the raw file. The engine itself holds no format knowledge — it only
advertises ``in_situ_policy = "raw"`` and its config, which adapters
consult to wire per-table auxiliary structures (positional map, binary
cache, statistics participation).
"""

from __future__ import annotations

from repro.core.cache import BinaryCache
from repro.core.config import PostgresRawConfig
from repro.core.parallel import ScanWorkerPool
from repro.core.positional_map import PositionalMap
from repro.core.prewarm import FsInterfacePrewarmer
from repro.engines.base import Database
from repro.errors import CatalogError
from repro.simcost.profiles import POSTGRES_RAW_PROFILE, CostProfile
from repro.storage.vfs import VirtualFS


class PostgresRaw(Database):
    """The paper's prototype: a row-store DBMS querying raw files in situ."""

    in_situ_policy = "raw"

    def __init__(self, config: PostgresRawConfig | None = None,
                 vfs: VirtualFS | None = None,
                 profile: CostProfile = POSTGRES_RAW_PROFILE):
        config = config if config is not None else PostgresRawConfig()
        if vfs is None and config.fault_seed is not None:
            # Fault-injection opt-in (config.fault_seed / the
            # REPRO_FAULT_SEED CI leg): engines that would build their
            # own private VFS get the fault-injecting one, so every
            # costed read runs the retry/degradation machinery. An
            # explicitly passed VFS is never wrapped — its faultiness
            # is the caller's decision.
            from repro.storage.faults import FaultInjectingVFS
            vfs = FaultInjectingVFS.from_config(config)
        super().__init__(profile, vfs)
        self.config = config
        self.use_statistics = self.config.enable_statistics
        #: one worker pool per engine (None when scans are serial):
        #: every raw scan fans its streaming row-block groups out here,
        #: so concurrently admitted queries overlap on the same workers
        #: (see api/scheduler.py).
        self.scan_pool = (ScanWorkerPool(self.config.scan_workers)
                          if self.config.scan_workers > 1 else None)

    def stream_block_rows(self) -> int:
        """Streaming cursors buffer at the raw scan's block granularity
        (the unit of PM chunking, caching and batch emission)."""
        return self.config.row_block_size

    def close(self) -> None:
        """Release engine resources: the scan worker pool's threads and
        every table's auxiliary state, torn down by the table's format
        adapter exactly as at DROP TABLE — a file-system-interface
        prewarmer detached from the (possibly shared) VFS, positional
        map dropped, cache cleared, partition children torn down — so a
        closed engine holds no structure worth reclaiming and nothing
        outside it still calls into it, even before the cycle collector
        runs. Idempotent, and not terminal: tables stay registered, the
        pool restarts lazily and the structures rebuild on the next
        query (a detached prewarmer stays detached). A raw scan still
        streaming when the engine closes fails cleanly on its next
        fetch that needs the lost structures (ExecutionError, slot
        released) — close when the engine is quiescent to avoid that."""
        from repro.sql.ddl import teardown_table

        if self.scan_pool is not None:
            self.scan_pool.close()
        for info in self.catalog.tables():
            teardown_table(self, info)

    # ------------------------------------------------------------------
    # §7 File System Interface
    # ------------------------------------------------------------------
    def enable_fs_interface(self, table: str) -> FsInterfacePrewarmer:
        """Watch the table's raw file through the file-system layer:
        reads by *other* programs opportunistically extend the line
        index (§7 "File System Interface")."""
        info = self.catalog.get(table)
        positional_map = self.positional_map_of(table)
        if positional_map is None:
            raise CatalogError(
                f"table {info.name!r} keeps no positional map; nothing "
                "to prewarm")
        existing = info.extra.get("prewarmer")
        if existing is not None:
            return existing
        prewarmer = FsInterfacePrewarmer(self.vfs, info.path,
                                         positional_map, self.model)
        prewarmer.attach()
        info.extra["prewarmer"] = prewarmer
        return prewarmer

    def disable_fs_interface(self, table: str) -> None:
        info = self.catalog.get(table)
        prewarmer = info.extra.pop("prewarmer", None)
        if prewarmer is not None:
            prewarmer.detach()

    # ------------------------------------------------------------------
    # Introspection (used by experiments and examples)
    # ------------------------------------------------------------------
    def positional_map_of(self, table: str) -> PositionalMap | None:
        access = self.catalog.get(table).access
        return getattr(access, "pm", None)

    def cache_of(self, table: str) -> BinaryCache | None:
        access = self.catalog.get(table).access
        return getattr(access, "cache", None)

    def auxiliary_bytes(self, table: str) -> dict[str, int]:
        """Current footprint of the table's auxiliary structures."""
        positional_map = self.positional_map_of(table)
        cache = self.cache_of(table)
        return {
            "positional_map": positional_map.bytes_used if positional_map
            else 0,
            "cache": cache.bytes_used if cache else 0,
        }

    def drop_auxiliary(self, table: str) -> None:
        """Drop the table's map and cache (always safe, §4.2)."""
        positional_map = self.positional_map_of(table)
        if positional_map is not None:
            positional_map.drop()
        cache = self.cache_of(table)
        if cache is not None:
            cache.clear()
