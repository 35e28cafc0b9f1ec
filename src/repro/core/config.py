"""PostgresRaw configuration knobs.

Defaults follow the paper's prototype: positional map, cache and
statistics all enabled, unlimited budgets (the experiments that sweep
budgets set them explicitly), 1024-row horizontal chunks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import BudgetError
from repro.formats.csvfmt import DEFAULT_DIALECT, CsvDialect


def _env_default(name: str, parse, default):
    """A ``default_factory`` value read from the environment variable
    ``name`` (the CI matrix legs set them to run the whole suite under
    another configuration): unset or blank gives ``default``, and so
    does a value ``parse`` rejects with ``ValueError`` — an unusable
    value must not make every config construction raise."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        return default


@dataclass
class PostgresRawConfig:
    """Tuning knobs for a PostgresRaw engine instance.

    Attributes
    ----------
    enable_positional_map / enable_cache / enable_statistics:
        Feature switches for the Fig 5 / Fig 12 ablations.
    pm_budget_bytes:
        Storage threshold for the positional map (§4.2 Maintenance);
        ``None`` = unlimited. LRU eviction keeps the map within budget.
    pm_spill_enabled / pm_spill_path:
        When enabled, chunks evicted from the map are written to the VFS
        under ``pm_spill_path`` instead of discarded, and can be read
        back at I/O cost (§4.2 Maintenance, second paragraph).
    cache_budget_bytes:
        Storage threshold for the binary cache (§4.3); ``None`` =
        unlimited. LRU with conversion-cost priority.
    row_block_size:
        Rows per horizontal chunk — the unit of PM chunking, caching and
        prefetching. "Each chunk fits comfortably in the CPU caches."
    eager_prefix_indexing:
        §4.2 Map Population: "if a query requires attributes in positions
        10 and 15, all positions from 1 to 15 may be kept". When True,
        every attribute tokenized on the way to a requested one is also
        added to the map (as part of the query's chunk group) — a
        per-scan attribute set of the same block scan, in both regions.
    stats_sample_target:
        Sample size per column for on-the-fly statistics (§4.4).
    batch_read_bytes:
        Sequential read granularity of the streaming region (256 KiB,
        the read size of the row-at-a-time reference scan in
        ``tests/oracle/``, so I/O cost accounting is comparable between
        the two).
    scan_workers:
        Workers for the batch streaming region (OLA-RAW-style parallel
        chunk scans). There is one loop at every setting: each
        row-block group computes against a recorder, producing column
        batches plus *staged* positional-map / cache deltas that a
        single-threaded merge applies in canonical group order. ``1``
        (the default) has no pool — a group's compute runs when the
        merge reaches it; ``N > 1`` submits groups to ``N`` pool
        workers while the driver reads up to ``2N`` groups ahead — so
        results, PM/cache contents and simcost counters are
        bit-identical at any worker count. A partitioned table scans
        its files in order, each one fanning out this way. Defaults
        to ``$REPRO_SCAN_WORKERS`` when set, clamped to at least 1.
    scan_kernels:
        When True (the default), every batch scan of a CSV or JSONL
        table — from a session, ``Database.query``, a rollup build or a
        partitioned table's file — whose predicate is absent or
        vectorized and which collects no §4.4 statistics serves the
        indexed blocks it finds fully cached through one fast-path
        function (:mod:`repro.kernels`), skipping the generic per-block
        setup while charging the exact same priced events in the same
        order. Results, PM/cache contents, priced counters and the
        virtual clock are bit-identical to the generic pipeline, which
        remains the differential oracle and runs every block the fast
        path cannot serve. Defaults to ``$REPRO_SCAN_KERNELS`` when set
        (``0``, ``false`` and ``off`` disable; anything else enables).
    fault_seed:
        When not None, engines constructed without an explicit VFS wrap
        it in a :class:`~repro.storage.faults.FaultInjectingVFS` seeded
        here: a deterministic schedule of transient I/O errors and
        injected latency drives every read through the real retry /
        degradation machinery. Defaults to ``$REPRO_FAULT_SEED`` when
        set (the CI fault-injection leg).
    fault_rate:
        Probability (per file/block/fault-kind triple, decided by the
        seeded hash schedule — never by call order) that a fault fires.
    query_deadline:
        Default per-query deadline in virtual seconds (None = no
        deadline), overridable per call via ``cursor.execute(...,
        timeout=)``. Enforced by the scheduler at batch boundaries.
    """

    enable_positional_map: bool = True
    enable_cache: bool = True
    enable_statistics: bool = True
    pm_budget_bytes: int | None = None
    pm_spill_enabled: bool = False
    pm_spill_path: str = "__pm_spill__"
    cache_budget_bytes: int | None = None
    row_block_size: int = 1024
    eager_prefix_indexing: bool = False
    stats_sample_target: int = 1000
    batch_read_bytes: int = 256 * 1024
    scan_workers: int = field(default_factory=lambda: _env_default(
        "REPRO_SCAN_WORKERS", lambda raw: max(1, int(raw)), 1))
    scan_kernels: bool = field(default_factory=lambda: _env_default(
        "REPRO_SCAN_KERNELS",
        lambda raw: raw.lower() not in ("0", "false", "off"), True))
    fault_seed: int | None = field(default_factory=lambda: _env_default(
        "REPRO_FAULT_SEED", int, None))
    fault_rate: float = 0.05
    query_deadline: float | None = None
    dialect: CsvDialect = field(default_factory=lambda: DEFAULT_DIALECT)

    def __post_init__(self) -> None:
        if self.row_block_size <= 0:
            raise BudgetError("row_block_size must be positive")
        if self.batch_read_bytes <= 0:
            raise BudgetError("batch_read_bytes must be positive")
        if self.scan_workers < 1:
            raise BudgetError("scan_workers must be >= 1")
        if self.pm_budget_bytes is not None and self.pm_budget_bytes <= 0:
            raise BudgetError("pm_budget_bytes must be positive or None")
        if self.cache_budget_bytes is not None and self.cache_budget_bytes <= 0:
            raise BudgetError("cache_budget_bytes must be positive or None")
        if self.stats_sample_target <= 0:
            raise BudgetError("stats_sample_target must be positive")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise BudgetError("fault_rate must be within [0, 1]")
        if self.query_deadline is not None and self.query_deadline <= 0:
            raise BudgetError("query_deadline must be positive or None")
