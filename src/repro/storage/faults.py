"""Deterministic I/O fault injection over the virtual filesystem.

:class:`FaultInjectingVFS` wraps the normal :class:`~repro.storage.vfs.
VirtualFS` read path with a *seeded schedule* of faults: transient read
errors (retried by the storage layer with bounded, virtually-billed
backoff), injected latency stalls, and externally scheduled truncation
or in-place corruption. Chaos tests drive queries through the real scan
pipeline against this VFS instead of mocking reads.

Determinism contract: whether a fault fires at a given ``(path, block,
kind)`` is a pure function of the seed and those coordinates — never of
call order, wall-clock time or thread interleaving. All costed reads
happen on the scan driver thread in a deterministic order (parallel
chunk scans record read charges into op logs replayed serially), so the
injected retries and stalls land on the virtual clock in the same order
at any ``scan_workers`` count: results, structures, counters and the
clock stay bit-identical.

The retry loop is modeled *inside* the hook: a transient fault at a
block costs ``io_retries`` counter units plus exponentially growing
``io_stall`` virtual seconds, then the read proceeds normally (the
bytes themselves are served by the ordinary read path). Faults resolve
per (path, block): once a block's transient faults have been retried
through, later reads of the same block are clean — flaky storage, not
permanently bad sectors. Permanently bad regions are scheduled
explicitly via :meth:`schedule_error`, and exhaust the retry budget
into a typed :class:`~repro.errors.IOFaultError`.
"""

from __future__ import annotations

import hashlib

from repro.errors import IOFaultError, annotate
from repro.storage.vfs import OS_CACHE_BLOCK, OSPageCache, VirtualFS


class FaultInjectingVFS(VirtualFS):
    """A :class:`VirtualFS` whose costed reads fault on a seeded schedule.

    Parameters
    ----------
    seed:
        Schedule seed; two instances with the same seed fault
        identically for the same paths and offsets.
    rate:
        Probability (per (path, block, kind)) that a fault fires.
    latency:
        Virtual seconds of stall injected when a latency fault fires.
    retry_limit / backoff:
        Bounded-retry budget for transient faults: a transient fault
        needs between 1 and ``retry_limit`` retries (hash-decided),
        each stalling the clock by ``backoff * 2**attempt`` seconds.
        Scheduled hard errors burn the whole budget and then raise
        :class:`~repro.errors.IOFaultError`.
    """

    def __init__(self, seed: int = 0, rate: float = 0.05,
                 latency: float = 0.0005, retry_limit: int = 3,
                 backoff: float = 0.001,
                 os_cache: OSPageCache | None = None):
        super().__init__(os_cache=os_cache)
        self.seed = seed
        self.rate = rate
        self.latency = latency
        self.retry_limit = max(0, retry_limit)
        self.backoff = backoff
        #: (kind, path, block, detail) tuples, for test assertions
        self.fault_log: list[tuple] = []
        #: (path, block) transient faults already retried through
        self._resolved: set[tuple[str, int]] = set()
        #: paths (or (path, block)) scheduled to fail permanently
        self._hard_errors: set = set()
        #: path -> (after_reads, keep_bytes) pending truncations
        self._truncations: dict[str, tuple[int, int]] = {}
        #: per-path costed read counts (truncation trigger)
        self._read_counts: dict[str, int] = {}

    # -- schedule (pure function of seed/path/block/kind) -------------------
    def _fraction(self, path: str, block: int, kind: str) -> float:
        digest = hashlib.blake2b(
            f"{self.seed}:{path}:{block}:{kind}".encode(),
            digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2**64

    def _transient_fails(self, path: str, block: int) -> int:
        """How many attempts of this block fail transiently (0 = clean).
        Always within the retry budget, so organic transient faults
        degrade into retries, never into errors."""
        if self.retry_limit == 0 or self.rate == 0.0:
            return 0
        if self._fraction(path, block, "transient") >= self.rate:
            return 0
        return 1 + int(self._fraction(path, block, "fails")
                       * self.retry_limit) % self.retry_limit

    def _has_latency(self, path: str, block: int) -> bool:
        return (self.rate > 0.0 and self.latency > 0.0
                and self._fraction(path, block, "latency") < self.rate)

    # -- explicit fault scheduling (test APIs) ------------------------------
    def schedule_error(self, path: str, block: int | None = None) -> None:
        """Make costed reads of ``path`` (or just one of its blocks)
        permanently fail: the retry budget is burned — charged like any
        transient fault — and then a typed ``IOFaultError`` raises."""
        self._hard_errors.add(path if block is None else (path, block))

    def resolve_error(self, path: str, block: int | None = None) -> None:
        """Clear a scheduled hard error — the bad sector was repaired.
        Subsequent reads succeed (tests use this to assert the engine
        recovers once the fault goes away)."""
        self._hard_errors.discard(path if block is None else (path, block))

    def schedule_truncation(self, path: str, after_reads: int,
                            keep_bytes: int) -> None:
        """Truncate ``path`` to ``keep_bytes`` once its costed-read
        count exceeds ``after_reads`` — a mid-scan truncation by an
        external actor, applied through the real mutation path (bumps
        the rewrite counter, so §4.5 refresh resets structures on the
        next query)."""
        self._truncations[path] = (after_reads, max(0, keep_bytes))

    def external_overwrite(self, path: str, offset: int,
                           data: bytes) -> None:
        """Mutate file bytes in place *without* touching generation or
        rewrite counters — the truly-external same-size rewrite the
        (rewrites, size) staleness guards cannot see. Content
        fingerprints on auxiliary sidecars exist to catch exactly
        this."""
        entry = self._entry(path)
        entry.data[offset:offset + len(data)] = data
        self.os_cache.invalidate(path)

    # -- the hook -----------------------------------------------------------
    def fault_check(self, path, offset, length, model) -> None:
        count = self._read_counts.get(path, 0) + 1
        self._read_counts[path] = count
        pending = self._truncations.get(path)
        if pending is not None and count > pending[0]:
            del self._truncations[path]
            entry = self._entry(path)
            if len(entry.data) > pending[1]:
                del entry.data[pending[1]:]
                entry.generation += 1
                entry.rewrites += 1
                self.os_cache.invalidate(path)
                self.fault_log.append(("truncation", path, 0, pending[1]))

        block = offset // OS_CACHE_BLOCK
        if self._has_latency(path, block):
            self.fault_log.append(("latency", path, block, self.latency))
            if model is not None:
                model.io_stall(self.latency)

        hard = path in self._hard_errors or (path, block) in self._hard_errors
        fails = self.retry_limit if hard else self._transient_fails(
            path, block)
        if not fails:
            return
        key = (path, block)
        if not hard and key in self._resolved:
            return
        backoff = self.backoff
        for attempt in range(1, fails + 1):
            self.fault_log.append(("transient", path, block, attempt))
            if model is not None:
                model.io_retry(1)
                model.io_stall(backoff)
            backoff *= 2
        if hard:
            self.fault_log.append(("hard", path, block, self.retry_limit))
            raise annotate(
                IOFaultError(
                    f"I/O error reading {path!r} at offset {offset}: "
                    f"retry budget ({self.retry_limit}) exhausted"),
                path=path, byte_offset=offset)
        self._resolved.add(key)

    @classmethod
    def from_config(cls, config,
                    os_cache: OSPageCache | None = None,
                    ) -> "FaultInjectingVFS":
        """Build from a :class:`~repro.core.config.PostgresRawConfig`
        (``fault_seed`` must be set)."""
        return cls(seed=config.fault_seed, rate=config.fault_rate,
                   os_cache=os_cache)
