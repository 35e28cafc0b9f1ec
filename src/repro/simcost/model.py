"""CostModel: the facade components use to charge events.

A model binds one :class:`VirtualClock` to one :class:`CostProfile` and
exposes intention-revealing helpers (``tokenize(n)``, ``convert(type, n)``)
so call sites read like a description of the work being done.

Batch charging convention: every helper takes a unit *count*, so the
vectorized scan pipeline charges once per row block with aggregate
units (``tuple_overhead(nrows)``, ``convert(family, ncolumn_values)``,
``predicate(n_terms * nrows)``) instead of once per row. Unit totals —
and therefore virtual time — match the per-row call pattern for I/O,
conversion, tuple, predicate, map and cache events, and for streaming
tokenization (the block scan replays a row-at-a-time locate-state
machine to charge identical units). The one permitted deviation from
the row-at-a-time reference scan (``tests/oracle/``) is TOKENIZE in
the *indexed* region: the reference's incremental stepping sometimes
re-scans a field it already delimited, while the block scan charges
each byte span once — so warm partial-coverage scans may charge
slightly fewer tokenize units than the reference (never more work, and
zero in both once the map covers the query).

Column-at-a-time bookkeeping keeps the convention exact where the unit
count alone would not: §4.4 sampling prices each sampled value as one
``stats_sample(1)`` and JSONL prices each full tokenization as one
``tokenize(len(line))`` — their per-value ancestors charged value by
value — so a column is charged through :meth:`CostModel.charge_each`
(``charge_repeat`` is its all-ones case), which performs the same N
float additions on the clock instead of one ``sum * rate`` (equal
units, but a different sum in the last digits).

Parallel chunk scans keep the convention exact: workers charge into
:class:`RecordingModel` op logs that the scan's single-threaded merge
replays against the real model in serial charge order, so counters —
and the clock's float accumulation — are independent of
``scan_workers``.
"""

from __future__ import annotations

import numpy as np

from repro.simcost.clock import CostEvent, VirtualClock
from repro.simcost.profiles import POSTGRES_RAW_PROFILE, CostProfile

#: Maps SQL type families to their conversion event (see datatypes.py).
_CONVERT_EVENTS = {
    "int": CostEvent.CONVERT_INT,
    "float": CostEvent.CONVERT_FLOAT,
    "date": CostEvent.CONVERT_DATE,
    "str": CostEvent.CONVERT_STR,
    "bool": CostEvent.CONVERT_INT,
}


class CostModel:
    """Charges priced events against a clock.

    Parameters
    ----------
    clock:
        The engine's virtual clock; created if not supplied.
    profile:
        The calibrated price list (defaults to the PostgresRaw profile).
    """

    def __init__(
        self,
        clock: VirtualClock | None = None,
        profile: CostProfile = POSTGRES_RAW_PROFILE,
    ):
        self.clock = clock if clock is not None else VirtualClock()
        self.profile = profile

    @property
    def rows_materialized(self) -> int:
        """Observability counter (NOT a priced event, NOT in the clock
        ledger): per-row Python tuples materialized from columnar
        batches inside the operator tree — an operator's batch path
        falling back to its row closures. Final result assembly (draining
        the plan root into a QueryResult or cursor buffer) does not
        count. A fully columnar plan keeps this at zero; it is kept
        out of the clock counters so cost parity assertions against
        the row-at-a-time reference engine (``tests/oracle/``) stay
        byte-identical. The storage lives
        on the shared clock so per-format models (one engine clock,
        several :class:`CostProfile` bindings) aggregate into one
        engine-level total."""
        return self.clock.rows_materialized

    @rows_materialized.setter
    def rows_materialized(self, value: int) -> None:
        self.clock.rows_materialized = value

    def charge(self, event: CostEvent, units: float = 1) -> None:
        """Charge ``units`` of an arbitrary event."""
        self.clock.charge(event, units, self.profile.rate(event))

    def charge_each(self, event: CostEvent, units) -> None:
        """One ``charge(event, u)`` per entry of ``units``, in order (see
        :meth:`VirtualClock.charge_each`): bit-identical on the clock to
        that many separate calls."""
        self.clock.charge_each(event, units, self.profile.rate(event))

    def charge_repeat(self, event: CostEvent, times: int) -> None:
        """``times`` consecutive one-unit charges of ``event``: the
        all-ones case of :meth:`charge_each`."""
        if times < 0:
            raise ValueError(f"negative repeat for {event}: {times}")
        self.charge_each(event, np.ones(times, dtype=np.int64))

    # -- disk ------------------------------------------------------------
    def disk_read(self, nbytes: int, warm: bool = False) -> None:
        event = CostEvent.DISK_READ_WARM if warm else CostEvent.DISK_READ_COLD
        self.charge(event, nbytes)

    def disk_seek(self, count: int = 1) -> None:
        self.charge(CostEvent.DISK_SEEK, count)

    def disk_write(self, nbytes: int) -> None:
        self.charge(CostEvent.DISK_WRITE, nbytes)

    # -- raw-file CPU work -------------------------------------------------
    def tokenize(self, nchars: int) -> None:
        self.charge(CostEvent.TOKENIZE, nchars)

    def newline_scan(self, nchars: int) -> None:
        self.charge(CostEvent.NEWLINE_SCAN, nchars)

    def convert(self, family: str, count: int = 1) -> None:
        """Charge ``count`` string->binary conversions for a type family.

        ``family`` is one of ``int``, ``float``, ``date``, ``str``, ``bool``
        (see :meth:`repro.sql.datatypes.DataType.family`).
        """
        self.charge(_CONVERT_EVENTS[family], count)

    def tuple_form(self, nattrs: int) -> None:
        self.charge(CostEvent.TUPLE_FORM, nattrs)

    # -- auxiliary structures ---------------------------------------------
    def map_access(self, npositions: int = 1) -> None:
        self.charge(CostEvent.MAP_ACCESS, npositions)

    def map_insert(self, npositions: int = 1) -> None:
        self.charge(CostEvent.MAP_INSERT, npositions)

    def cache_read(self, nvalues: int = 1) -> None:
        self.charge(CostEvent.CACHE_READ, nvalues)

    def cache_write(self, nvalues: int = 1) -> None:
        self.charge(CostEvent.CACHE_WRITE, nvalues)

    def stats_sample(self, nvalues: int = 1) -> None:
        self.charge(CostEvent.STATS_SAMPLE, nvalues)

    # -- executor -----------------------------------------------------------
    def predicate(self, count: int = 1) -> None:
        self.charge(CostEvent.PREDICATE_EVAL, count)

    def aggregate(self, count: int = 1) -> None:
        self.charge(CostEvent.AGGREGATE_STEP, count)

    def hash_probe(self, count: int = 1) -> None:
        self.charge(CostEvent.HASH_PROBE, count)

    def sort_compare(self, count: int = 1) -> None:
        self.charge(CostEvent.SORT_COMPARE, count)

    def tuple_overhead(self, count: int = 1) -> None:
        self.charge(CostEvent.TUPLE_OVERHEAD, count)

    def materialize_rows(self, count: int = 1) -> None:
        """Record ``count`` batch->tuple materializations (see
        ``rows_materialized``; free of virtual time by design)."""
        self.rows_materialized += count

    def query_overhead(self) -> None:
        self.charge(CostEvent.QUERY_OVERHEAD, 1)

    # -- partitioned tables --------------------------------------------------
    def files_scanned(self, count: int = 1) -> None:
        self.charge(CostEvent.FILES_SCANNED, count)

    def files_pruned(self, count: int = 1) -> None:
        self.charge(CostEvent.FILES_PRUNED, count)

    # -- rollup router -------------------------------------------------------
    def rollup_hit(self, count: int = 1) -> None:
        self.charge(CostEvent.ROLLUP_HITS, count)

    def rollup_miss(self, count: int = 1) -> None:
        self.charge(CostEvent.ROLLUP_MISSES, count)

    # -- scan kernels --------------------------------------------------------
    def kernel_hit(self, count: int = 1) -> None:
        self.charge(CostEvent.KERNEL_HITS, count)

    def kernel_bailout(self, count: int = 1) -> None:
        self.charge(CostEvent.KERNEL_BAILOUTS, count)

    # -- fault tolerance -----------------------------------------------------
    def io_stall(self, seconds: float) -> None:
        """Stall the virtual clock for ``seconds`` of injected I/O
        latency or transient-retry backoff (units are raw seconds)."""
        self.charge(CostEvent.IO_STALL, seconds)

    def io_retry(self, count: int = 1) -> None:
        self.charge(CostEvent.IO_RETRIES, count)

    def rows_rejected(self, count: int = 1) -> None:
        self.charge(CostEvent.ROWS_REJECTED, count)

    def aux_rebuild(self, count: int = 1) -> None:
        self.charge(CostEvent.AUX_REBUILDS, count)

    # -- scheduler / server front end ----------------------------------------
    def query_abandoned(self, count: int = 1) -> None:
        """Record ``count`` queries cancelled before their stream
        finished (zero-priced: abandoning a result must not perturb
        priced cost comparisons)."""
        self.charge(CostEvent.QUERIES_ABANDONED, count)

    # -- loaded-engine binary pages ------------------------------------------
    def deserialize(self, nattrs: int) -> None:
        self.charge(CostEvent.DESERIALIZE, nattrs)

    def toast_fetch(self, nvalues: int = 1) -> None:
        self.charge(CostEvent.TOAST_FETCH, nvalues)

    def serialize(self, nattrs: int) -> None:
        self.charge(CostEvent.SERIALIZE, nattrs)

    # -- introspection ---------------------------------------------------------
    def now(self) -> float:
        return self.clock.now()

    def count(self, event: CostEvent) -> float:
        return self.clock.count(event)


class RecordingModel(CostModel):
    """A cost model that records charges instead of advancing a clock.

    The streaming scan driver (:class:`repro.core.blockscan.BlockScan`)
    hands one of these to each row-block group's compute — on a pool
    worker or inline — and records its own read charges into another:
    the tokenize / convert / predicate work charges into an ordered op
    log (``ops``), and the single-threaded merge replays that log into
    the engine's real model in canonical group order — so the clock's
    float accumulation order, and therefore virtual time, is
    *bit-identical* regardless of worker count. Because the replay
    happens inside the owning query's batch pull, the scheduler's
    per-job counter-delta accounting attributes every worker's units to
    the right query with no extra bookkeeping.

    The op log is shared with the worker's structural staging: entries
    are ``("c", event, units)`` charge records interleaved (in exact
    serial charge order) with the staged positional-map / cache /
    statistics operations the merge applies against the shared
    structures (see ``BlockScan._apply_staged``). A
    :meth:`charge_each` (and so a ``charge_repeat``) is recorded as the
    separate charges it stands for, so a replay is always a plain walk
    over charge records and adds them to the clock one by one, as the
    serial scan did.
    """

    def __init__(self):
        super().__init__()
        self.ops: list = []

    def charge(self, event: CostEvent, units: float = 1) -> None:
        self.ops.append(("c", event, units))

    def charge_each(self, event: CostEvent, units) -> None:
        # Recorded expanded, so every replay loop stays a plain walk
        # over ``("c", event, units)`` entries.
        self.ops.extend([("c", event, u) for u in np.asarray(units).tolist()])

    def take_ops(self) -> list:
        """Drain and return the recorded ops (used by the scan driver
        to snapshot one read's charges into the merge schedule)."""
        ops = self.ops
        self.ops = []
        return ops
