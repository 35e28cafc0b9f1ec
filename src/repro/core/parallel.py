"""Worker pool for parallel chunk scans (OLA-RAW-style fan-out).

The batch streaming region partitions freshly discovered lines into
row-block groups; with ``config.scan_workers > 1`` those groups are
computed on this pool while the scan driver keeps reading ahead and a
single-threaded merge applies each group's staged positional-map /
cache / statistics deltas in canonical group order (see
:class:`repro.core.blockscan.BlockScan` — the one driver every
line-oriented raw format shares; without a pool the same loop runs each
group's compute when the merge reaches it).

Threads are the right first backend: the group kernels are
NumPy-heavy — delimiter ``searchsorted`` arithmetic, fixed-width
byte-matrix ``astype`` conversion, vectorized predicate masks — which
release the GIL for their C loops. The abstraction is deliberately
process-ready, though: a task is a *pure function of its arguments*
(the worker receives a private byte slice, returns staged deltas, and
never touches shared engine state), so a process-pool backend only
needs to marshal the arguments — a recorded follow-on in ROADMAP.md.

One pool is owned per engine and shared by every scan, so concurrently
admitted queries genuinely overlap on the same workers: while the
scheduler merges one query's groups on the main thread, the other
queries' dispatched groups keep computing here.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor

from repro.errors import BudgetError


class ScanWorkerPool:
    """A lazily started thread pool for scan group compute.

    ``submit`` returns a :class:`concurrent.futures.Future`; tasks must
    be pure functions of their arguments (the process-pool contract).
    ``tasks_submitted`` is a monotone counter the scheduler snapshots
    to attribute worker fan-out to individual queries.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise BudgetError("worker pool needs at least one worker")
        self.workers = workers
        self.tasks_submitted = 0
        self._executor: ThreadPoolExecutor | None = None

    def submit(self, fn, *args) -> Future:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-scan")
        self.tasks_submitted += 1
        return self._executor.submit(fn, *args)

    @property
    def started(self) -> bool:
        return self._executor is not None

    def close(self) -> None:
        """Shut the pool down (idempotent); running tasks finish,
        queued ones are dropped."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
