"""Database: the shared declarative query path.

Every engine — PostgresRaw, loaded comparators, external-files
straw-men — parses, plans and executes queries identically; they differ
only in the access methods their catalogs bind (and in their calibrated
cost profiles). This is the paper's experimental control: PostgresRaw
"shares the same query execution engine" as PostgreSQL (§5).

Tables are declared in SQL, as in §3.1: ``CREATE TABLE t (...) USING
csv OPTIONS (path '...')`` through :meth:`Database.query` or a session.
:meth:`Database.run_ddl` hands the statement to the format registry,
the one place tables are built.

Two public surfaces sit on this path. :meth:`Database.query` is the
original one-shot call: parse, plan, run to completion, return an eager
:class:`~repro.sql.executor.QueryResult`. The session/cursor façade in
:mod:`repro.api` (``repro.connect(engine=...)``) reuses the same
pieces — :meth:`parse_sql`, :meth:`plan_select`, :meth:`refresh_for` —
but keeps the parsed AST and physical plan cached in prepared
statements and streams results batch-at-a-time through a shared
:class:`~repro.api.scheduler.Scheduler`.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.simcost.clock import VirtualClock
from repro.simcost.model import CostModel
from repro.simcost.profiles import CostProfile
from repro.sql.ast_nodes import Exists, Explain, Select, Statement, is_ddl
from repro.sql.batch import DEFAULT_BATCH_ROWS
from repro.sql.catalog import Catalog
from repro.sql.executor import (
    QueryResult,
    counters_delta,
    execute,
    explain_result,
)
from repro.sql.expressions import split_conjuncts
from repro.sql.optimizer import Optimizer
from repro.sql.parser import parse
from repro.sql.planner import PlannedQuery, Planner
from repro.storage.vfs import VirtualFS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.scheduler import Scheduler
    from repro.api.session import Session


class Database:
    """Base engine: catalog + SQL front end + virtual clock.

    Parameters
    ----------
    profile:
        The engine's calibrated cost profile.
    vfs:
        The "machine" this engine runs on. Engines sharing a VFS share
        raw files and the simulated OS page cache; by default each
        engine gets its own machine.
    """

    #: how this engine binds raw files, consulted by format adapters:
    #: ``"raw"`` (in-situ with auxiliary structures), ``"external"``
    #: (straw-man full re-parse), or None (does not scan raw files).
    in_situ_policy: str | None = None

    def __init__(self, profile: CostProfile, vfs: VirtualFS | None = None):
        from repro.rollup.metadata import RollupRegistry
        from repro.rollup.router import QueryRouter

        self.vfs = vfs if vfs is not None else VirtualFS()
        self.clock = VirtualClock()
        self.model = CostModel(self.clock, profile)
        self.catalog = Catalog()
        self.use_statistics = True
        #: materialized rollups registered on this engine (CREATE
        #: ROLLUP / idle tuning) and the planner-side router that
        #: rewrites covered aggregate queries to probe them.
        self.rollups = RollupRegistry()
        self.router = QueryRouter(self)
        self._materialization_pool = None
        #: live sessions attached via :meth:`connect` (repro.api); weak,
        #: since each session holds its engine
        self.sessions: "weakref.WeakSet[Session]" = weakref.WeakSet()
        self._scheduler: "Scheduler | None" = None

    @property
    def name(self) -> str:
        return self.model.profile.name

    # ------------------------------------------------------------------
    def query(self, sql: str) -> QueryResult:
        """Parse and execute one statement — SELECT, EXPLAIN SELECT
        (plans without executing), or DDL (CREATE/DROP/SHOW/DESCRIBE,
        dispatched to the format-adapter registry). One path for every
        statement kind; the session layer reuses the same split."""
        start = self.clock.checkpoint()
        counters_before = dict(self.clock.counters)
        parsed = parse(sql)
        self.model.query_overhead()
        if is_ddl(parsed):
            columns, rows = self.run_ddl(parsed)
            return QueryResult(
                columns=columns, rows=rows,
                elapsed=self.clock.elapsed_since(start),
                counters=counters_delta(self.clock.counters,
                                        counters_before),
                plan={"op": type(parsed).__name__})
        if isinstance(parsed, Explain):
            select = parsed.select
            self._refresh_tables(select)
            return explain_result(self._plan(select), self.model, start,
                                  counters_before)
        self._refresh_tables(parsed)
        planned = self._plan(parsed)
        return execute(planned, self.model, start, counters_before)

    def run_ddl(self, statement) -> tuple[list[str], list[tuple]]:
        """Execute a parsed DDL statement against this engine's catalog
        through the format registry; returns ``(columns, rows)``."""
        from repro.sql.ddl import execute_ddl

        return execute_ddl(self, statement)

    def explain(self, sql: str) -> dict:
        """The physical plan summary for ``sql`` (no execution).
        Accepts either a bare SELECT or an EXPLAIN-prefixed one."""
        parsed = parse(sql)
        select = parsed.select if isinstance(parsed, Explain) else parsed
        return self._plan(select).describe()

    # ------------------------------------------------------------------
    # Session support (repro.api) — the same parse/plan/refresh pieces
    # query() uses, exposed separately so prepared statements can cache
    # their outputs and re-execute with zero parse/plan work.
    # ------------------------------------------------------------------
    def connect(self, *, max_in_flight: int | None = None,
                statement_cache_size: int = 32) -> "Session":
        """Open a :class:`~repro.api.session.Session` on this engine.

        Sessions attached to one engine share its scheduler, so queries
        from all of them are admitted against a single max-in-flight
        gate (``max_in_flight`` is applied when the engine's scheduler
        is first created)."""
        from repro.api.session import Session

        return Session(self, max_in_flight=max_in_flight,
                       statement_cache_size=statement_cache_size)

    def shared_scheduler(self, max_in_flight: int | None = None,
                         ) -> "Scheduler":
        """The engine's single admission scheduler (created on first
        use; later ``max_in_flight`` values are ignored so concurrent
        sessions cannot silently re-gate each other)."""
        if self._scheduler is None:
            from repro.api.scheduler import Scheduler

            self._scheduler = Scheduler(
                self, max_in_flight=max_in_flight
                if max_in_flight is not None else 4)
        return self._scheduler

    def attach_session(self, session: "Session") -> None:
        self.sessions.add(session)

    def detach_session(self, session: "Session") -> None:
        self.sessions.discard(session)

    def stream_block_rows(self) -> int:
        """Rows per block a streaming cursor should expect from this
        engine (the peak-buffering unit; PostgresRaw overrides with its
        configured scan block size)."""
        return DEFAULT_BATCH_ROWS

    def parse_sql(self, sql: str) -> Statement:
        """Parse one statement (no planning, no catalog access)."""
        return parse(sql)

    def plan_select(self, select: Select) -> PlannedQuery:
        """Plan a parsed SELECT against the current catalog/statistics."""
        return self._plan(select)

    def refresh_for(self, select: Select) -> None:
        """Per-execution refresh hook: give access methods a chance to
        notice external file updates (§4.5). Prepared statements call
        this on every re-execution even though parse/plan are skipped."""
        self._refresh_tables(select)

    def materialization_pool(self):
        """The buffer pool serving materialized heaps (CTAS tables,
        rollups). Loading engines reuse their own pool; raw engines —
        which deliberately have no ``pool`` attribute, in-situ scans
        never touch one — get a private pool created on first use."""
        pool = getattr(self, "pool", None)
        if pool is not None:
            return pool
        if self._materialization_pool is None:
            from repro.storage.buffer import BufferPool

            self._materialization_pool = BufferPool(self.vfs, self.model)
        return self._materialization_pool

    def _plan(self, select: Select):
        from repro.rollup.router import RoutedQuery

        optimizer = Optimizer(use_stats=self.use_statistics)
        routed, miss = self.router.route(select, optimizer)
        if routed is not None:
            return routed
        planned = Planner(self.catalog, self.model, optimizer).plan(select)
        if miss is not None:
            self.model.rollup_miss()
            return RoutedQuery(planned.root, planned.names,
                               f"none ({miss})")
        return planned

    def _refresh_tables(self, select: Select) -> None:
        for name in self._tables_of(select):
            if self.catalog.has(name):
                access = self.catalog.get(name).access
                refresh = getattr(access, "refresh", None)
                if refresh is not None:
                    refresh()

    def _tables_of(self, select: Select) -> list[str]:
        names = [ref.name for ref in select.tables]
        for conjunct in split_conjuncts(select.where):
            node = conjunct
            if hasattr(node, "operand"):
                node = getattr(node, "operand")
            if isinstance(conjunct, Exists):
                names.extend(self._tables_of(conjunct.subquery))
            elif isinstance(node, Exists):
                names.extend(self._tables_of(node.subquery))
        return names

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Total virtual seconds this engine has spent (loads+queries)."""
        return self.clock.now()

    def counters(self) -> dict[str, float]:
        return self.clock.snapshot()

    @property
    def rows_materialized(self) -> int:
        """Running total of per-row tuples materialized inside operator
        trees (batch->row transpositions; see
        :attr:`repro.simcost.model.CostModel.rows_materialized`). Stays
        zero while plans execute fully columnar."""
        return self.model.rows_materialized
