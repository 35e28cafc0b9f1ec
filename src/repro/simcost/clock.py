"""Virtual clock and cost ledger.

The clock is the single source of "time" in the library. Components
never read the wall clock; they charge events and the clock advances by
``units * rate``. The ledger keeps per-event unit counts so tests can
assert *mechanism* (e.g. selective tokenizing touched fewer characters)
independently of the calibrated prices.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


class CostEvent(enum.Enum):
    """Every priced event in the system.

    The unit of each event is noted in parentheses.
    """

    DISK_READ_COLD = "disk_read_cold"        # bytes read missing the OS cache
    DISK_READ_WARM = "disk_read_warm"        # bytes read served by the OS cache
    DISK_SEEK = "disk_seek"                  # seeks (random repositioning)
    DISK_WRITE = "disk_write"                # bytes written
    TOKENIZE = "tokenize"                    # characters scanned for delimiters
    NEWLINE_SCAN = "newline_scan"            # characters scanned for line ends
    CONVERT_INT = "convert_int"              # string->int conversions
    CONVERT_FLOAT = "convert_float"          # string->float conversions
    CONVERT_DATE = "convert_date"            # string->date conversions
    CONVERT_STR = "convert_str"              # string field extractions
    TUPLE_FORM = "tuple_form"                # attributes placed into tuples
    MAP_ACCESS = "map_access"                # positional-map position fetches
    MAP_INSERT = "map_insert"                # positional-map position inserts
    CACHE_READ = "cache_read"                # values served from binary cache
    CACHE_WRITE = "cache_write"              # values inserted into binary cache
    PREDICATE_EVAL = "predicate_eval"        # predicate evaluations
    AGGREGATE_STEP = "aggregate_step"        # aggregate accumulator updates
    HASH_PROBE = "hash_probe"                # hash table probes (joins/aggs)
    SORT_COMPARE = "sort_compare"            # comparisons while sorting
    DESERIALIZE = "deserialize"              # binary page attr deserializations
    TOAST_FETCH = "toast_fetch"              # out-of-line (TOAST) value fetches
    SERIALIZE = "serialize"                  # binary page attr serializations
    TUPLE_OVERHEAD = "tuple_overhead"        # per-tuple executor overhead
    STATS_SAMPLE = "stats_sample"            # values sampled into statistics
    QUERY_OVERHEAD = "query_overhead"        # per-query setup (parse/plan)
    FILES_SCANNED = "files_scanned"          # partition files actually scanned
    FILES_PRUNED = "files_pruned"            # partition files skipped via zone maps
    ROLLUP_HITS = "rollup_hits"              # aggregate queries routed to a rollup
    ROLLUP_MISSES = "rollup_misses"          # aggregate queries falling back to raw
    KERNEL_HITS = "kernel_hits"              # indexed blocks served by the cached-block fast path
    KERNEL_BAILOUTS = "kernel_bailouts"      # indexed blocks the fast path probed and left to the generic path
    IO_STALL = "io_stall"                    # virtual seconds stalled on injected I/O latency / retry backoff
    ROWS_REJECTED = "rows_rejected"          # malformed raw rows quarantined under on_error skip/null
    IO_RETRIES = "io_retries"                # transient I/O errors retried by the storage layer
    AUX_REBUILDS = "aux_rebuilds"            # auxiliary structures quarantined after integrity failure
    QUERIES_ABANDONED = "queries_abandoned"  # submitted queries cancelled before their stream finished


def _fold(start, terms: np.ndarray):
    """``start + terms[0] + terms[1] + ...`` added strictly left to
    right, as a Python number."""
    return np.add.accumulate(np.concatenate(([start], terms)))[-1].item()


@dataclass
class VirtualClock:
    """Accumulates virtual seconds and per-event unit counts.

    A clock belongs to one engine instance. ``checkpoint``/``elapsed_since``
    let callers time a region (e.g. a single query) without resetting.
    """

    seconds: float = 0.0
    counters: Counter = field(default_factory=Counter)
    #: Observability counter (not a priced event, not in ``counters``):
    #: per-row Python tuples materialized from columnar batches at
    #: operator boundaries. It lives on the clock — not on the
    #: :class:`~repro.simcost.model.CostModel` — so every model sharing
    #: one engine clock (e.g. per-format cost-profile models) aggregates
    #: into the same total.
    rows_materialized: int = 0

    def charge(self, event: CostEvent, units: float, rate: float) -> None:
        """Record ``units`` of ``event`` priced at ``rate`` seconds/unit."""
        if units < 0:
            raise ValueError(f"negative units for {event}: {units}")
        self.counters[event] += units
        self.seconds += units * rate

    def charge_each(self, event: CostEvent, units, rate: float) -> None:
        """One :meth:`charge` of ``event`` per entry of ``units``, in
        order, in one call — what a column-at-a-time step charges where
        its per-value ancestor charged once per value. Ledger and clock
        are advanced by the same sequential additions (a left fold:
        ``np.add.accumulate`` adds strictly in order), not by one
        ``sum * rate``, so virtual time stays bit-identical to the
        per-value call pattern."""
        units = np.asarray(units)
        if not len(units):
            return  # no charge at all: the ledger gains no zero entry
        if units.min() < 0:
            raise ValueError(f"negative units for {event}: {units.min()}")
        self.counters[event] = _fold(self.counters[event], units)
        self.seconds = _fold(self.seconds, units * rate)

    def advance(self, seconds: float) -> None:
        """Advance the clock by a raw amount of virtual seconds."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self.seconds += seconds

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.seconds

    def checkpoint(self) -> float:
        """A point-in-time marker; pass to :meth:`elapsed_since`."""
        return self.seconds

    def elapsed_since(self, checkpoint: float) -> float:
        """Virtual seconds elapsed since ``checkpoint``."""
        return self.seconds - checkpoint

    def count(self, event: CostEvent) -> float:
        """Total units charged for ``event`` so far."""
        return self.counters.get(event, 0)

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy of the counters, keyed by event value."""
        return {event.value: units for event, units in self.counters.items()}

    def reset(self) -> None:
        """Zero the clock and all counters."""
        self.seconds = 0.0
        self.counters.clear()
        self.rows_materialized = 0
