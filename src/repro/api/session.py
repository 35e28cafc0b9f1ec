"""Sessions and prepared statements — the ``repro.connect()`` surface.

A :class:`Session` attaches to one engine (any :class:`repro.Database`
subclass) and hands out :class:`~repro.api.cursor.Cursor` objects. The
paper's usage model (§3.1) is "point at the file and query" — so the
session removes the remaining per-query ceremony: statements prepare
once (parse + plan cached in a :class:`PreparedStatement`, motivated by
caching compiled query artifacts across invocations), re-execution
binds ``?`` parameters into the cached physical plan with **zero**
parse/plan work, and results stream through the engine's shared
:class:`~repro.api.scheduler.Scheduler` so many sessions can query one
engine concurrently under a single admission gate. What a prepared
statement caches is parse + plan only: whether a scan's cached blocks
take the fast path (:mod:`repro.kernels`) is decided by the scan
itself, so a session's execution and a one-shot ``Database.query`` of
the same SQL run the same scan.

Cost scoping: every job charges its own clock/counter deltas (see the
scheduler), and the session aggregates its jobs — ``session.elapsed()``
/ ``session.counters()`` are this client's share of the engine's work.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Sequence

from repro.api.exceptions import (
    InterfaceError,
    OperationalError,
    ProgrammingError,
    translate_errors,
)
from repro.api.scheduler import QueryJob
from repro.sql.ast_nodes import Explain, ParamBinding, Select, is_ddl
from repro.sql.executor import QueryResult, counters_delta, explain_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.cursor import Cursor
    from repro.engines.base import Database
    from repro.sql.planner import PlannedQuery


class _SessionOwned:
    """A statement holds its session weakly: the session caches its
    prepared statements, so a strong back-reference would be a cycle
    keeping a dropped, unclosed session — and its engine — alive until
    the cycle collector runs. Executing a statement whose session is
    gone raises :class:`~repro.api.exceptions.InterfaceError`."""

    def __init__(self, session: "Session"):
        self._session = weakref.ref(session)

    @property
    def session(self) -> "Session":
        session = self._session()
        if session is None:
            raise InterfaceError(
                "the session this statement was prepared on is gone")
        return session


class DDLStatement(_SessionOwned):
    """A parsed DDL statement (CREATE/DROP/SHOW/DESCRIBE).

    The front end splits statements once, at parse time: SELECT/EXPLAIN
    become :class:`PreparedStatement` (planned, cached, parameterized);
    DDL becomes this — no plan, no parameters, never cached, and every
    :meth:`execute` re-runs the statement against the live catalog
    through :meth:`~repro.engines.base.Database.run_ddl`. Both kinds
    flow through the same cursor/fetch machinery, so ``SHOW TABLES``
    streams like any result set.
    """

    is_explain = False
    param_count = 0

    def __init__(self, session: "Session", sql: str, node):
        super().__init__(session)
        self.sql = sql
        self.node = node
        self.plan: dict = {"op": type(node).__name__}

    def execute(self, params: Sequence = ()) -> "Cursor":
        """Run on a fresh cursor of the owning session."""
        return self.session.cursor().execute(self, params)


class PreparedStatement(_SessionOwned):
    """A statement parsed and planned once, executable many times.

    ``execute`` re-binds the statement's ``?`` placeholders by mutating
    the shared :class:`~repro.sql.ast_nodes.ParamBinding` the cached
    plan's compiled closures read at evaluation time — no re-parse, no
    re-plan (assertable: the engine's ``query_overhead`` counter only
    moves at prepare time).

    One exception keeps cached plans honest: PostgresRaw collects
    optimizer statistics *during* scans (§4.4), i.e. potentially after
    this statement froze its plan — later statistics could flip an
    aggregation strategy or join order. The statement snapshots the
    catalog's stats epoch at plan time and transparently re-plans (no
    re-parse; the shared parameter binding is preserved) when the
    epoch has moved. Re-plans are counted in
    ``session.stats["replans"]`` and never touch ``query_overhead``.
    """

    def __init__(self, session: "Session", sql: str,
                 parsed: Select | Explain, planned: "PlannedQuery",
                 prepare_elapsed: float, prepare_counters: dict):
        super().__init__(session)
        self.sql = sql
        self.is_explain = isinstance(parsed, Explain)
        self.select: Select = (parsed.select if isinstance(parsed, Explain)
                               else parsed)
        self.param_count: int = parsed.param_count
        self.binding: Optional[ParamBinding] = parsed.binding
        self.planned = planned
        #: the immutable plan summary, walked once here so every
        #: re-execution can reuse it (until a stats-epoch re-plan
        #: replaces both)
        self.plan: dict = planned.describe()
        #: catalog stats epoch the current plan was built under
        self.stats_epoch: int = session.engine.catalog.stats_epoch
        self.prepare_elapsed = prepare_elapsed
        self.prepare_counters = dict(prepare_counters)
        #: jobs currently streaming from this statement's cached plan
        self._live_jobs: set[QueryJob] = set()

    def _replan_if_stale(self) -> None:
        """Re-plan from the cached AST when statistics arrived since
        the current plan was built. Jobs already streaming keep their
        old plan trees; new executions get the stats-informed one."""
        engine = self.session.engine
        epoch = engine.catalog.stats_epoch
        if epoch == self.stats_epoch:
            return
        clock = engine.clock
        start = clock.checkpoint()
        before = dict(clock.counters)
        self.planned = engine.plan_select(self.select)
        self.plan = self.planned.describe()
        self.stats_epoch = epoch
        self.session.stats["replans"] += 1
        # Like prepare cost, re-plan cost is session work.
        self.session._charge(clock.elapsed_since(start),
                             counters_delta(clock.counters, before))

    def conflicts_with(self, params: Sequence) -> bool:
        """True when executing with ``params`` would re-bind under a
        result that is still streaming from this statement's cached
        plan (whose compiled closures read the shared binding live)."""
        if not self.param_count or not self._live_jobs:
            return False
        values = tuple(params) if params is not None else ()
        return (self.binding.values is not None
                and values != self.binding.values)

    def bind(self, params: Sequence) -> None:
        """Validate and install one execution's parameter values."""
        values = tuple(params) if params is not None else ()
        if len(values) != self.param_count:
            raise ProgrammingError(
                f"statement takes {self.param_count} parameter(s), "
                f"got {len(values)}: {self.sql!r}")
        if not self.param_count:
            return
        if self.conflicts_with(values):
            raise OperationalError(
                "prepared statement still has a streaming result in "
                "flight; fetch it to completion or close its cursor "
                "before re-executing with different parameters")
        self.binding.bind(values)

    def execute(self, params: Sequence = ()) -> "Cursor":
        """Run on a fresh cursor of the owning session."""
        return self.session.cursor().execute(self, params)


class Session:
    """One client's connection to a shared engine.

    Parameters
    ----------
    engine:
        The engine to attach to (its catalog, clock and scheduler are
        shared with every other session on it).
    max_in_flight:
        Admission gate width — applied only if this session is the one
        that first creates the engine's scheduler.
    statement_cache_size:
        LRU capacity for transparently caching prepared statements by
        SQL text (``cursor.execute(sql)`` with a repeated string hits
        the cache and skips parse/plan). ``0`` disables caching,
        ``None`` is unbounded.
    """

    def __init__(self, engine: "Database", max_in_flight: int | None = None,
                 statement_cache_size: int | None = 32):
        self.engine = engine
        self.scheduler = engine.shared_scheduler(max_in_flight)
        self.closed = False
        self._statement_cache_size = statement_cache_size
        self._statements: OrderedDict[str, PreparedStatement] = OrderedDict()
        #: unfinished jobs started by this session (cursors come and
        #: go; the jobs are what hold scheduler slots and buffers)
        self._jobs: set[QueryJob] = set()
        self._elapsed = 0.0
        self._counters: dict[str, float] = {}
        #: observers of this session's cost deltas — each is called as
        #: ``hook(elapsed, counters)`` for every charge. The server
        #: front end uses this to roll per-session ledgers up into
        #: per-tenant quota accounting without touching the engine.
        self.cost_hooks: list = []
        self.stats = {"parses": 0, "plans": 0, "replans": 0,
                      "statement_cache_hits": 0, "queries": 0}
        engine.attach_session(self)

    # -- cursors and execution ---------------------------------------------
    def cursor(self) -> "Cursor":
        from repro.api.cursor import Cursor

        self._check_open()
        return Cursor(self)

    def execute(self, sql, params: Sequence = ()) -> "Cursor":
        """Convenience: ``session.cursor().execute(sql, params)``."""
        return self.cursor().execute(sql, params)

    def query(self, sql, params: Sequence = ()) -> QueryResult:
        """Eager convenience: execute and drain into a QueryResult."""
        cursor = self.execute(sql, params)
        try:
            return cursor.result()
        finally:
            cursor.close()

    # -- prepared statements -----------------------------------------------
    def prepare(self, sql: str) -> "PreparedStatement | DDLStatement":
        """Parse + plan ``sql`` once; the result re-executes with new
        parameters at zero parse/plan cost. DDL text comes back as a
        :class:`DDLStatement` (no plan; each execute hits the catalog
        afresh)."""
        self._check_open()
        return self._prepared(sql)

    def _statement_for_execute(self, sql: str,
                               params: Sequence) -> PreparedStatement:
        """The statement a string-SQL execute should run: the cached
        one — unless re-binding it with ``params`` would corrupt a
        stream still flowing from its shared plan, in which case this
        execution pays for a private, uncached parse/plan."""
        cached = self._statements.get(sql)
        if cached is not None and cached.conflicts_with(params):
            return self._prepared(sql, use_cache=False)
        return self._prepared(sql)

    def _prepared(self, sql: str,
                  use_cache: bool = True) -> "PreparedStatement | DDLStatement":
        if use_cache:
            cached = self._statements.get(sql)
            if cached is not None:
                self._statements.move_to_end(sql)
                self.stats["statement_cache_hits"] += 1
                return cached
        with translate_errors():
            clock = self.engine.clock
            start = clock.checkpoint()
            before = dict(clock.counters)
            parsed = self.engine.parse_sql(sql)
            self.stats["parses"] += 1
            if is_ddl(parsed):
                # The statement-dispatch split: DDL is never planned or
                # cached — each execution runs against the live catalog
                # (its query_overhead is charged per execution).
                return DDLStatement(self, sql, parsed)
            self.engine.model.query_overhead()
            select = (parsed.select if isinstance(parsed, Explain)
                      else parsed)
            self.engine.refresh_for(select)
            planned = self.engine.plan_select(select)
            self.stats["plans"] += 1
            prepare_elapsed = clock.elapsed_since(start)
            prepare_counters = counters_delta(clock.counters, before)
        # Prepare cost is session work (it belongs to no single
        # execution of the statement).
        self._charge(prepare_elapsed, prepare_counters)
        statement = PreparedStatement(self, sql, parsed, planned,
                                      prepare_elapsed, prepare_counters)
        if use_cache and self._statement_cache_size != 0:
            self._statements[sql] = statement
            while (self._statement_cache_size is not None
                   and len(self._statements) > self._statement_cache_size):
                self._statements.popitem(last=False)
        return statement

    # -- job plumbing (used by Cursor) ---------------------------------------
    def _start_job(self, statement: "PreparedStatement | DDLStatement",
                   params: Sequence,
                   timeout: float | None = None) -> QueryJob:
        self._check_open()
        if timeout is None:
            config = getattr(self.engine, "config", None)
            timeout = getattr(config, "query_deadline", None)
        if statement.session is not self:
            raise InterfaceError(
                "prepared statement belongs to a different session")
        if isinstance(statement, DDLStatement):
            return self._run_ddl_job(statement, params)
        with translate_errors():
            if statement.is_explain:
                # EXPLAIN executes nothing; its cached plan is
                # available without binding any parameters (refreshed
                # first if statistics arrived since it was built).
                statement._replan_if_stale()
                columns, rows = explain_rows(statement.plan)
                job = QueryJob.completed(self, statement.sql, columns,
                                         rows, statement.plan)
                self.stats["queries"] += 1
                return job
            statement.bind(params)
            self.engine.refresh_for(statement.select)
            statement._replan_if_stale()
            job = QueryJob(self, statement.sql, statement.planned,
                           statement=statement, plan=statement.plan,
                           timeout=timeout)
            statement._live_jobs.add(job)
            self._jobs.add(job)
            try:
                self.scheduler.submit(job)
            except BaseException:
                # Admission rejected (bounded accept queue saturated):
                # the job never existed as far as ledgers or the
                # statement's re-bind lock are concerned.
                self._jobs.discard(job)
                statement._live_jobs.discard(job)
                raise
        self.stats["queries"] += 1
        return job

    def _run_ddl_job(self, statement: DDLStatement,
                     params: Sequence) -> QueryJob:
        """Execute DDL synchronously into a born-finished job: catalog
        statements touch no scan slots, so they bypass admission the
        way EXPLAIN does, but their (small) engine cost is still
        charged to the job/session ledgers."""
        if params:
            raise ProgrammingError(
                f"DDL statements take no parameters: {statement.sql!r}")
        with translate_errors():
            clock = self.engine.clock
            start = clock.checkpoint()
            before = dict(clock.counters)
            self.engine.model.query_overhead()
            columns, rows = self.engine.run_ddl(statement.node)
            job = QueryJob.completed(self, statement.sql, columns, rows,
                                     statement.plan)
            job.charge(clock.elapsed_since(start),
                       counters_delta(clock.counters, before))
        self.stats["queries"] += 1
        return job

    def _settle_job(self, job: QueryJob) -> None:
        self._jobs.discard(job)
        if job.statement is not None:
            job.statement._live_jobs.discard(job)

    def _charge(self, elapsed: float, counters: dict[str, float]) -> None:
        self._elapsed += elapsed
        for key, units in counters.items():
            self._counters[key] = self._counters.get(key, 0) + units
        for hook in self.cost_hooks:
            hook(elapsed, counters)

    # -- per-session accounting ---------------------------------------------
    def elapsed(self) -> float:
        """Virtual seconds of engine work this session has caused."""
        return self._elapsed

    def counters(self) -> dict[str, float]:
        """This session's share of the engine's cost-event units."""
        return dict(self._counters)

    # -- lifecycle -----------------------------------------------------------
    def _check_open(self) -> None:
        if self.closed:
            raise InterfaceError("session is closed")

    def close(self) -> None:
        """Cancel this session's unfinished jobs (releasing their
        scheduler slots and buffers) and detach from the engine.
        Cursors of a closed session report ``closed`` and refuse
        further use."""
        if self.closed:
            return
        for job in list(self._jobs):
            self.scheduler.cancel(job)
        self._statements.clear()
        self.engine.detach_session(self)
        self.closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def connect(engine: "Database | None" = None, *, vfs=None, config=None,
            max_in_flight: int | None = None,
            statement_cache_size: int | None = 32) -> Session:
    """Open a session — the public entry point of the API layer.

    ``engine`` may be any existing :class:`repro.Database`; omit it to
    get a session on a fresh :class:`repro.PostgresRaw` (``vfs`` /
    ``config`` are forwarded). Multiple ``connect(engine=shared)``
    calls attach independent sessions whose queries are admitted by the
    engine's single scheduler.
    """
    if engine is None:
        from repro.core.engine import PostgresRaw

        engine = PostgresRaw(config=config, vfs=vfs)
    elif vfs is not None or config is not None:
        raise InterfaceError(
            "vfs/config are only used when connect() creates the engine; "
            "pass them to the engine constructor instead")
    return Session(engine, max_in_flight=max_in_flight,
                   statement_cache_size=statement_cache_size)
