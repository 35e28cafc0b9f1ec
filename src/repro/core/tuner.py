"""Idle-time auto-tuning (§7 "Auto Tuning Tools").

"Auto tuning tools for NoDB systems, given a budget of idle time and
workload knowledge, have the opportunity to exploit idle time as best
as possible, loading and indexing as much of the relevant data as
possible. The rest of the data remains unloaded and unindexed until
relevant queries arrive."

:class:`IdleTuner` implements that: workload knowledge comes from the
per-attribute request counts the scans record (plus explicit hints),
and :meth:`exploit_idle_time` spends a virtual-seconds budget warming
the most valuable attributes — populating the positional map, the
binary cache and statistics — stopping when the budget runs out.

:meth:`regroup_maps` is the second idle-time chore: canonical
positional-map chunk regrouping. Chunk *grouping* records which
query's flush first combined the attributes, so interleaved or
parallel workloads leave flush-order-dependent layouts even when the
map *content* is identical; regrouping rewrites every block to one
sorted-attribute chunk, making layouts converge regardless of
workload order (and letting differential harnesses compare maps
byte-for-byte after any interleaving).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import ReproError


@dataclass
class TuningReport:
    """What one idle period accomplished."""

    seconds_used: float = 0.0
    warmed: list[tuple[str, str]] = field(default_factory=list)  # (table, col)
    exhausted_budget: bool = False

    def __str__(self) -> str:  # pragma: no cover - display helper
        warmed = ", ".join(f"{t}.{c}" for t, c in self.warmed) or "nothing"
        return (f"TuningReport({self.seconds_used:.3f}s used, "
                f"warmed: {warmed})")


@dataclass
class RollupProposal:
    """A hot GROUP BY pattern the router observed that no fresh rollup
    covers: build a rollup over ``dims`` storing ``aggs``."""

    table: str
    dims: tuple[str, ...]
    aggs: tuple[tuple[str, str], ...]  # AggSigs: (func, column|'*')
    requests: int


@dataclass
class RollupTuningReport:
    """What one rollup-focused idle period accomplished."""

    seconds_used: float = 0.0
    rebuilt: list[str] = field(default_factory=list)
    built: list[str] = field(default_factory=list)
    exhausted_budget: bool = False

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (f"RollupTuningReport({self.seconds_used:.3f}s used, "
                f"rebuilt: {', '.join(self.rebuilt) or 'nothing'}, "
                f"built: {', '.join(self.built) or 'nothing'})")


class IdleTuner:
    """Spends idle time warming a PostgresRaw engine's structures."""

    def __init__(self, engine):
        from repro.core.engine import PostgresRaw
        if not isinstance(engine, PostgresRaw):
            raise ReproError("IdleTuner tunes PostgresRaw engines")
        self.engine = engine
        self._hints: Counter = Counter()

    # ------------------------------------------------------------------
    def hint(self, table: str, columns: list[str], weight: int = 1) -> None:
        """Declare expected workload interest ("workload knowledge")."""
        info = self.engine.catalog.get(table)
        for column in columns:
            info.schema.index_of(column)  # validate
            self._hints[(info.name.lower(), column.lower())] += weight

    def _observed_counts(self) -> Counter:
        """Workload discovered on the fly: per-attribute request counts
        recorded by the raw scans."""
        counts: Counter = Counter()
        for info in self.engine.catalog.tables():
            access = info.access
            recorded = getattr(access, "attr_request_counts", None)
            if not recorded:
                continue
            for attr, count in recorded.items():
                name = info.schema.columns[attr].name.lower()
                counts[(info.name.lower(), name)] += count
        return counts

    def candidates(self) -> list[tuple[str, str]]:
        """(table, column) pairs ranked by expected value."""
        merged = self._observed_counts()
        merged.update(self._hints)
        return [key for key, _count in merged.most_common()]

    # ------------------------------------------------------------------
    def exploit_idle_time(self, budget_seconds: float) -> TuningReport:
        """Warm attributes in value order until the budget is spent.

        The budget is enforced on the engine's virtual clock: tuning
        stops after the attribute that crosses it (work, like a real
        background job, is not interrupted mid-attribute).
        """
        if budget_seconds <= 0:
            raise ReproError("idle budget must be positive")
        clock = self.engine.clock
        start = clock.checkpoint()
        report = TuningReport()
        for table, column in self.candidates():
            if clock.elapsed_since(start) >= budget_seconds:
                report.exhausted_budget = True
                break
            info = self.engine.catalog.get(table)
            access = info.access
            attr = info.schema.index_of(column)
            if self._fully_warm(access, attr):
                continue
            for _batch in access.scan_batches([attr], None):
                pass  # consuming the scan populates map/cache/stats
            report.warmed.append((info.name, column))
        report.seconds_used = clock.elapsed_since(start)
        report.exhausted_budget = (report.exhausted_budget
                                   or report.seconds_used >= budget_seconds)
        return report

    # ------------------------------------------------------------------
    # Rollup proposals (the router's hot-pattern log -> CREATE ROLLUP)
    # ------------------------------------------------------------------
    def rollup_candidates(self) -> list[RollupProposal]:
        """Hot aggregate patterns no fresh rollup covers, hottest
        first. Patterns whose table vanished (or was renamed away and
        back differently) are skipped, not errors."""
        proposals = []
        catalog = self.engine.catalog
        registry = self.engine.rollups
        for key, count in self.engine.router.patterns.most_common():
            table, dims, sigs = key
            if not catalog.has(table):
                continue
            info = catalog.get(table)
            covered = any(
                rollup.is_fresh(catalog) and rollup.covers(dims, sigs)
                for rollup in registry.for_source(info))
            if not covered:
                proposals.append(RollupProposal(
                    table=info.name, dims=dims, aggs=sigs,
                    requests=count))
        return proposals

    def exploit_idle_time_for_rollups(
            self, budget_seconds: float) -> RollupTuningReport:
        """Spend idle time on rollup maintenance: first rebuild stale
        rollups whose source still exists, then build proposed ones
        from the hot-pattern log. Budget semantics match
        :meth:`exploit_idle_time` — enforced on the virtual clock, work
        is not interrupted mid-build."""
        from repro.rollup.builder import build_rollup, rebuild_rollup
        from repro.rollup.metadata import signature_expr

        if budget_seconds <= 0:
            raise ReproError("idle budget must be positive")
        clock = self.engine.clock
        catalog = self.engine.catalog
        start = clock.checkpoint()
        report = RollupTuningReport()

        def out_of_budget() -> bool:
            if clock.elapsed_since(start) >= budget_seconds:
                report.exhausted_budget = True
                return True
            return False

        for rollup in self.engine.rollups.rollups():
            if out_of_budget():
                break
            if rollup.is_fresh(catalog):
                continue
            source = rollup.source
            if not (catalog.has(source.name)
                    and catalog.get(source.name) is source):
                continue  # source gone for good; DROP ROLLUP is manual
            rebuild_rollup(self.engine, rollup)
            report.rebuilt.append(rollup.name)

        for proposal in self.rollup_candidates():
            if out_of_budget():
                break
            source = catalog.get(proposal.table)
            name = self._rollup_name(proposal.table)
            aggs = [signature_expr(sig) for sig in proposal.aggs]
            built = build_rollup(self.engine, name, source,
                                 proposal.dims, aggs)
            self.engine.rollups.register(built)
            catalog.bump_epoch()
            report.built.append(name)

        report.seconds_used = clock.elapsed_since(start)
        report.exhausted_budget = (report.exhausted_budget
                                   or report.seconds_used >= budget_seconds)
        return report

    def _rollup_name(self, table: str) -> str:
        base = f"auto_{table.lower()}"
        registry = self.engine.rollups
        if not registry.has(base) and not self.engine.catalog.has(base):
            return base
        suffix = 2
        while registry.has(f"{base}_{suffix}") or \
                self.engine.catalog.has(f"{base}_{suffix}"):
            suffix += 1
        return f"{base}_{suffix}"

    def regroup_maps(self, table: str | None = None) -> int:
        """Canonicalize positional-map chunk groups (all tables, or
        just ``table``): each indexed block ends up as one chunk keyed
        by its sorted attribute set, so maps built by differently
        interleaved workloads become byte-identical. Content is
        untouched; the rewrite is charged to the engine's clock as map
        maintenance. Returns the number of blocks rewritten."""
        if table is not None:
            infos = [self.engine.catalog.get(table)]
        else:
            infos = self.engine.catalog.tables()
        rewritten = 0
        for info in infos:
            positional_map = getattr(info.access, "pm", None)
            if positional_map is not None:
                rewritten += positional_map.canonicalize_chunks()
        return rewritten

    def _fully_warm(self, access, attr: int) -> bool:
        """Is this attribute already answerable from the cache alone?"""
        cache = getattr(access, "cache", None)
        row_count = getattr(access, "row_count", None)
        if cache is None or row_count is None:
            return False
        block_size = self.engine.config.row_block_size
        blocks = -(-row_count // block_size) if row_count else 0
        for block in range(blocks):
            cache_block = cache.get(attr, block)
            if cache_block is None or not cache_block.complete:
                return False
        return True
