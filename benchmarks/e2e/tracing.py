"""Span tracing from outside the engine.

The benchmark measures layers by wrapping their public entry points
from its own files (the in-engine ``model.span`` primitive of ROADMAP
direction 1 is a later change that this benchmark will judge). A span
is ``(id, name, start, end, parent, round_id)`` on ``perf_counter``
time; spans stay in memory and are written out when the run ends.
Generator boundaries are timed per ``next()``, so a lazy operator tree
attributes time to whichever layer is actually running. A layer's
*self* time is its span minus the part its children cover.

End-to-end numbers are always measured with the wrappers
*uninstalled* (``install`` returns the undo); the traced half of a
traced run gives the per-layer numbers and the ratio of the two halves
is ``host.trace_overhead_ratio``.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import itertools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

now = time.perf_counter


class Tracer:
    """In-memory span recorder. The current span is a context
    variable, so engine threads and asyncio tasks each keep their own
    parent chain."""

    def __init__(self):
        self.spans: list[tuple] = []
        #: spans are recorded only while the wrappers are installed
        self.enabled = False
        # ids stay unique when spans of several processes (client,
        # server subprocesses) are analysed together
        self._ids = itertools.count(os.getpid() * 10 ** 9)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_span", default=None)
        self._round: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_round", default=None)

    def set_round(self, round_id: int | None) -> None:
        """Tag the calling thread's following spans with a round."""
        self._round.set(round_id)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set((sid, name))
        start = now()
        try:
            yield sid
        finally:
            end = now()
            self._current.reset(token)
            self.spans.append((sid, name, start, end,
                               parent[0] if parent else None,
                               self._round.get()))

    def current_name(self) -> str | None:
        current = self._current.get()
        return current[1] if current else None

    def add(self, name: str, start: float, seconds: float) -> None:
        """Record a childless span the caller timed itself."""
        if self.enabled:
            parent = self._current.get()
            self.spans.append((next(self._ids), name, start, start + seconds,
                               parent[0] if parent else None,
                               self._round.get()))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_iter(self, name: str, fn):
        """Wrap a function returning an iterator: one span per
        ``next()``; closing the wrapper closes the wrapped iterator
        (the scheduler's abandoned-scan contract)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs))
        return traced

    def _iterate(self, name: str, iterator):
        iterator = iter(iterator)
        try:
            while True:
                with self.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def wrap_row_iter(self, name: str, fn, chunk: int = 1024):
        """Like :meth:`wrap_iter` for row-at-a-time iterators: the time
        inside ``next()`` is summed and recorded once per ``chunk``
        rows, because a span per row would cost more than the row."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._iterate_rows(name, fn(*args, **kwargs), chunk)
        return traced

    def _iterate_rows(self, name: str, iterator, chunk: int):
        iterator = iter(iterator)
        first, busy, pulled = None, 0.0, 0
        try:
            while True:
                start = now()
                if first is None:
                    first = start
                try:
                    row = next(iterator)
                except StopIteration:
                    return
                finally:
                    busy += now() - start
                pulled += 1
                if pulled == chunk:
                    self.add(name, first, busy)
                    first, busy, pulled = None, 0.0, 0
                yield row
        finally:
            if first is not None:
                self.add(name, first, busy)
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def dicts(self) -> list[dict]:
        return [dict(zip(("id", "name", "start", "end", "parent",
                          "round_id"), span)) for span in self.spans]


def _patch(undo: list, owner, attr: str, make) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    undo.append((owner, attr, original))


def install(tracer: Tracer, server: bool = False):
    """Wrap the layer boundaries; returns a function that restores
    them. ``server=True`` also wraps the asyncio front end (used by
    ``serve.py`` inside the server subprocess)."""
    import repro.api.scheduler as scheduler
    import repro.kernels.cache as kernel_cache
    from repro.engines.base import Database
    from repro.server import protocol
    from repro.sql.batch import ColumnBatch
    from repro.sql.operators import ScanOp

    undo: list = []
    _patch(undo, Database, "parse_sql",
           lambda f: tracer.wrap("sql.parse", f))
    _patch(undo, Database, "plan_select",
           lambda f: tracer.wrap("sql.plan", f))
    _patch(undo, scheduler, "execute_batches",
           lambda f: tracer.wrap_iter("sql.exec", f))
    _patch(undo, ScanOp, "batches",
           lambda f: tracer.wrap_iter("core.scan", f))
    _patch(undo, ScanOp, "rows",
           lambda f: tracer.wrap_row_iter("core.scan_rows", f))
    _patch(undo, kernel_cache, "compile_kernel",
           lambda f: tracer.wrap("kernels.compile", f))
    _patch(undo, protocol, "encode",
           lambda f: tracer.wrap("server.encode", f))
    _patch(undo, protocol, "decode",
           lambda f: tracer.wrap("server.decode", f))

    def assemble(original):
        # iter_rows is lazy (a zip): materialize inside the span so the
        # tuple-forming work is attributed here and not to whoever
        # happens to consume the iterator. Called under an operator it
        # is a row-path fallback (rows_materialized > 0), not final
        # result assembly.
        @functools.wraps(original)
        def traced(batch):
            inside = tracer.current_name() in ("sql.exec", "core.scan")
            with tracer.span("sql.materialize" if inside
                             else "sql.assemble"):
                return iter(list(original(batch)))
        return traced
    _patch(undo, ColumnBatch, "iter_rows", assemble)

    if server:
        from repro.server.server import QueryServer

        def dispatch(original):
            @functools.wraps(original)
            async def traced(self, conn, message):
                with tracer.span("server.dispatch"):
                    return await original(self, conn, message)
            return traced

        def run_engine(original):
            # server.hop covers submit -> result; its child
            # server.engine is the closure on the engine thread, so the
            # hop's self time is executor queueing + thread wake-up +
            # loop resume.
            @functools.wraps(original)
            async def traced(self, fn, *args):
                with tracer.span("server.hop"):
                    context = contextvars.copy_context()

                    def on_engine_thread():
                        with tracer.span("server.engine"):
                            return fn(*args)
                    return await original(
                        self, lambda: context.run(on_engine_thread))
            return traced
        _patch(undo, QueryServer, "_dispatch", dispatch)
        _patch(undo, QueryServer, "_run_engine", run_engine)

    tracer.enabled = True

    def uninstall() -> None:
        tracer.enabled = False
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------
def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> self seconds (duration minus direct children)."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def by_name(spans: list[dict], rounds=None) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds and count, over the
    spans whose ``round_id`` is in ``rounds`` (all when None)."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"total": 0.0, "self": 0.0, "count": 0})
    for s in spans:
        if rounds is not None and s["round_id"] not in rounds:
            continue
        entry = out[s["name"]]
        entry["total"] += s["end"] - s["start"]
        entry["self"] += selfs[s["id"]]
        entry["count"] += 1
    return out


def assign_rounds(spans: list[dict], windows: list[dict]) -> None:
    """Give spans recorded in another process (the server) the
    ``round_id`` of the client round whose time window contains them
    (``perf_counter`` is one system-wide monotonic clock on Linux).
    Only meaningful while a single client is driving the server."""
    windows = sorted(windows, key=lambda w: w["start"])
    starts = [w["start"] for w in windows]
    for s in spans:
        k = bisect.bisect_right(starts, s["start"]) - 1
        if k >= 0 and s["end"] <= windows[k]["end"]:
            s["round_id"] = windows[k]["round_id"]
