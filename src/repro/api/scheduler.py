"""Query admission and cooperative streaming execution.

One engine serves many sessions, but it is a single (virtual-time)
machine: the :class:`Scheduler` is the gate in front of it. Queries are
admitted FIFO up to ``max_in_flight``; admitted queries execute
cooperatively — each :meth:`Scheduler.advance` call pulls exactly one
:class:`~repro.sql.batch.ColumnBatch` from one query's live iterator,
so concurrent cursors interleave at batch boundaries and a fetch on a
still-queued query drives the in-flight ones forward until a slot
frees (the single-threaded analogue of blocking on admission).

With parallel chunk scans (``config.scan_workers > 1``) admitted
queries genuinely *overlap on workers* instead of merely taking turns:
a scan's batch iterator dispatches row-block groups to the engine's
shared :class:`~repro.core.parallel.ScanWorkerPool` and keeps them in
flight **across yields**, so while one query's pull runs its
single-threaded merge here, the other in-flight queries' dispatched
groups are still computing on the pool. The scheduler itself stays
single-threaded — that is what keeps admission, structure mutation and
accounting deterministic — but the compute under it is concurrent.

Every pull is bracketed by engine clock/counter checkpoints and the
delta is charged to the pulling :class:`QueryJob` alone, so per-query —
and, summed, per-session — resource accounting falls out of the cost
model without any global instrumentation (cf. resource-utilization
monitoring for raw-data query processing). Worker-side charges fold
into the same ledgers: each group computes against a per-worker
:class:`~repro.simcost.model.RecordingModel` and the scan replays the
recorded deltas inside the owning query's pull, so a job's counters
include every unit its workers spent — and :attr:`QueryJob.
worker_tasks` counts the pool tasks its pulls dispatched.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import QueryTimeoutError, ServerBusyError, annotate
from repro.sql.batch import ColumnBatch
from repro.sql.executor import (
    QueryResult,
    counters_delta,
    execute_batches,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import PreparedStatement, Session
    from repro.sql.planner import PlannedQuery


class QueryJob:
    """One query's life inside the scheduler.

    Holds the live batch iterator, the bounded row buffer cursors fetch
    from, and the query's own cost ledger (clock/counter deltas charged
    at every pull). States: ``queued`` (submitted, waiting for a slot),
    ``running`` (iterator live), ``finished``, ``failed``, ``closed``.
    """

    __slots__ = ("session", "sql", "planned", "names", "plan", "statement",
                 "state", "buffer", "counters", "elapsed", "rows_produced",
                 "rows_fetched", "peak_buffered", "rows_materialized",
                 "worker_tasks", "error", "timeout", "deadline", "_iterator")

    def __init__(self, session: "Session", sql: str,
                 planned: "PlannedQuery | None",
                 statement: "PreparedStatement | None" = None,
                 plan: dict | None = None,
                 timeout: float | None = None):
        self.session = session
        self.sql = sql
        self.planned = planned
        self.names: list[str] = list(planned.names) if planned else []
        # The plan summary is immutable per physical plan; prepared
        # statements pass their cached copy so re-execution does not
        # re-walk the plan tree.
        self.plan: dict = (plan if plan is not None
                           else planned.describe() if planned else {})
        self.statement = statement
        self.state = "queued"
        self.buffer: deque = deque()
        self.counters: dict[str, float] = {}
        self.elapsed = 0.0
        self.rows_produced = 0
        self.rows_fetched = 0
        self.peak_buffered = 0
        self.rows_materialized = 0
        #: scan-pool tasks dispatched during this query's pulls — the
        #: query's share of the engine's worker fan-out (0 under serial
        #: scans)
        self.worker_tasks = 0
        self.error: Optional[BaseException] = None
        #: virtual-seconds budget for this query (None = unlimited);
        #: the absolute deadline is fixed on the engine clock at
        #: admission, so queueing time does not count against it.
        self.timeout = timeout
        self.deadline: float | None = None
        self._iterator: Optional[Iterator[ColumnBatch]] = None

    # -- lifecycle ---------------------------------------------------------
    @classmethod
    def completed(cls, session: "Session", sql: str, names: list[str],
                  rows: list[tuple], plan: dict) -> "QueryJob":
        """A job born finished (EXPLAIN: the plan itself is the result)."""
        job = cls(session, sql, None, plan=plan)
        job.names = list(names)
        job.buffer.extend(rows)
        job.rows_produced = len(rows)
        job.peak_buffered = len(rows)
        job.state = "finished"
        return job

    def start(self) -> None:
        self._iterator = execute_batches(self.planned)
        if self.timeout is not None:
            clock = self.session.engine.clock
            self.deadline = clock.now() + self.timeout
        self.state = "running"

    @property
    def done(self) -> bool:
        return self.state in ("finished", "failed", "closed")

    def charge(self, elapsed: float, counters: dict[str, float]) -> None:
        """Attribute one region of engine work to this query."""
        self.elapsed += elapsed
        for key, units in counters.items():
            self.counters[key] = self.counters.get(key, 0) + units
        self.session._charge(elapsed, counters)

    def to_result(self, rows: list[tuple]) -> QueryResult:
        return QueryResult(columns=list(self.names), rows=rows,
                           elapsed=self.elapsed, counters=dict(self.counters),
                           plan=self.plan,
                           rows_materialized=self.rows_materialized)


class Scheduler:
    """FIFO admission with a max-in-flight gate over one shared engine."""

    def __init__(self, engine, max_in_flight: int = 4,
                 max_queued: int | None = None):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if max_queued is not None and max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        # Weak: the engine owns its scheduler (see QueryRouter).
        self._engine = weakref.ref(engine)
        self.max_in_flight = max_in_flight
        #: bound on the accept queue (waiting jobs). ``None`` — the
        #: in-process default — queues without limit, preserving the
        #: original blocking-admission semantics. A server front end
        #: sets a bound so saturation surfaces as a typed
        #: :class:`~repro.errors.ServerBusyError` (back-pressure)
        #: instead of unbounded queueing.
        self.max_queued = max_queued
        #: queries cancelled before their stream finished (also charged
        #: as the zero-priced ``queries_abandoned`` engine counter)
        self.abandoned = 0
        self._running: list[QueryJob] = []
        self._waiting: deque[QueryJob] = deque()
        self._rr = 0  # round-robin pointer for driving foreign jobs

    # -- introspection -----------------------------------------------------
    @property
    def engine(self):
        return self._engine()

    @property
    def in_flight(self) -> int:
        return len(self._running)

    @property
    def queued(self) -> int:
        return len(self._waiting)

    @property
    def saturated(self) -> bool:
        """True when a new submission would be rejected: every slot is
        running and the bounded accept queue (if any) is full."""
        return (self.max_queued is not None
                and len(self._running) >= self.max_in_flight
                and len(self._waiting) >= self.max_queued)

    # -- admission ---------------------------------------------------------
    def submit(self, job: QueryJob) -> None:
        """Queue a job; it is admitted immediately when a slot is free
        and no earlier job is still waiting (strict FIFO). With a
        bounded accept queue (``max_queued``), a submission that finds
        both the gate and the queue full is rejected with
        :class:`~repro.errors.ServerBusyError` before any engine work
        happens."""
        if self.saturated:
            raise annotate(
                ServerBusyError(
                    f"admission gate saturated: {len(self._running)} "
                    f"queries in flight (max {self.max_in_flight}) and "
                    f"{len(self._waiting)} waiting (max {self.max_queued}); "
                    f"retry later"),
                in_flight=len(self._running), queued=len(self._waiting),
                max_in_flight=self.max_in_flight, max_queued=self.max_queued)
        self._waiting.append(job)
        self._refill()

    def _refill(self) -> None:
        while self._waiting and len(self._running) < self.max_in_flight:
            job = self._waiting.popleft()
            job.start()
            self._running.append(job)

    # -- cooperative stepping ----------------------------------------------
    def advance(self, job: QueryJob) -> bool:
        """Make one unit of progress on behalf of ``job``: pull one
        batch from it — or, while it is still queued, from the oldest
        in-flight queries (round-robin) until a slot frees and the job
        is admitted. Returns False once the job is done."""
        if job.state == "queued":
            self._drive_until_admitted(job)
        if job.done:
            return False
        self._pull(job)
        return not job.done

    def drain(self, job: QueryJob) -> None:
        """Run ``job`` to completion (the eager path)."""
        while self.advance(job):
            pass

    def _drive_until_admitted(self, job: QueryJob) -> None:
        """Free a slot by completing in-flight work (round-robin, one
        batch at a time). Victim jobs buffer the rows they produce for
        their own cursors — so a half-read query abandoned by its
        client ends up fully buffered when admission pressure forces
        it to completion. That is the deliberate trade-off of a strict
        FIFO gate in one thread: the streaming bound (one block past
        the fetch) is a guarantee to the *fetching* client, not to
        clients who leave results unread. Under parallel chunk scans
        the drive itself is fast — each victim's remaining groups
        compute on the worker pool while this thread only merges — but
        eliminating the buffering entirely would need per-slot driver
        threads (a recorded ROADMAP follow-on)."""
        while job.state == "queued":
            if not self._running:
                self._refill()
                continue
            victim = self._running[self._rr % len(self._running)]
            self._rr += 1
            self._pull(victim)

    def _pull(self, job: QueryJob) -> None:
        """One batch from ``job``'s iterator, its cost charged to the
        job's own ledger. Any failure — engine error or plain Python
        exception from expression evaluation — is recorded on the job
        (raised to *its* cursor at fetch time), never propagated to
        whichever client happened to be driving the scheduler."""
        clock = self.engine.clock
        if job.deadline is not None and clock.now() >= job.deadline:
            # Cooperative cancellation at a batch boundary: the query
            # never observes the deadline mid-batch. Closing the live
            # iterator reuses the abandoned-scan cleanup contract
            # (generator close — partial positional-map/cache state is
            # kept, worker groups are discarded), and the work already
            # pulled stays charged to this job's and its session's
            # ledgers.
            if job._iterator is not None:
                job._iterator.close()
            self._settle(job, "failed", annotate(
                QueryTimeoutError(
                    f"query exceeded its deadline of {job.timeout} "
                    f"virtual seconds ({job.elapsed:.6g}s of engine "
                    f"work charged)"),
                timeout=job.timeout))
            return
        model = self.engine.model
        pool = getattr(self.engine, "scan_pool", None)
        before_seconds = clock.checkpoint()
        before_counters = dict(clock.counters)
        before_materialized = model.rows_materialized
        before_tasks = pool.tasks_submitted if pool is not None else 0
        batch = None
        exhausted = False
        error: Optional[BaseException] = None
        try:
            batch = next(job._iterator)
        except StopIteration:
            exhausted = True
        except Exception as exc:
            error = exc
        finally:
            job.charge(clock.elapsed_since(before_seconds),
                       counters_delta(clock.counters, before_counters))
            job.rows_materialized += (model.rows_materialized
                                      - before_materialized)
            if pool is not None:
                # The scheduler is single-threaded, so every pool task
                # dispatched during this pull belongs to this job.
                job.worker_tasks += pool.tasks_submitted - before_tasks
        if error is not None:
            self._settle(job, "failed", error)
            return
        if exhausted:
            self._settle(job, "finished")
            return
        if batch.nrows:
            job.buffer.extend(batch.iter_rows())
            job.rows_produced += batch.nrows
            if len(job.buffer) > job.peak_buffered:
                job.peak_buffered = len(job.buffer)

    def cancel(self, job: QueryJob) -> None:
        """Abandon a job: close its live iterator (scans keep their
        partial positional-map/cache state, as with any abandoned
        generator) and release its slot. The remaining batches are
        never produced, let alone buffered — early close is how a
        cursor (or a server on behalf of a disconnected client) stops
        an unfinished query from consuming its scheduler slot. Each
        abandon is counted (zero-priced ``queries_abandoned``)."""
        if job.done:
            return
        self.abandoned += 1
        self.engine.model.query_abandoned()
        if job.state == "queued":
            try:
                self._waiting.remove(job)
            except ValueError:
                pass
            job.state = "closed"
            job.session._settle_job(job)
            return
        if job._iterator is not None:
            job._iterator.close()
        self._settle(job, "closed")

    def _settle(self, job: QueryJob, state: str,
                error: Optional[BaseException] = None) -> None:
        job.state = state
        job.error = error
        if job in self._running:
            self._running.remove(job)
        job.session._settle_job(job)
        self._refill()
