"""Plan execution and query results.

One pull mode serves every engine. :func:`execute_batches` is the
streaming core: it pulls :class:`~repro.sql.batch.ColumnBatch` blocks
from the plan root — raw-file, heap and external scans all feed the
same columnar operators — and cursors in :mod:`repro.api` hold this
iterator live and materialize only what ``fetchmany`` asks for.
:func:`execute` is the eager convenience built on top: it drains the
stream into a :class:`QueryResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import UnknownColumnError
from repro.simcost.model import CostModel
from repro.sql.batch import ColumnBatch, batches_to_rows
from repro.sql.planner import PlannedQuery


def column_index(name: str, columns: list[str]) -> int:
    """Position of ``name`` in a result's column list; raises
    :class:`UnknownColumnError` naming the column and what is
    available. Shared by :meth:`QueryResult.column` and the cursor
    ``description`` path in :mod:`repro.api`."""
    try:
        return columns.index(name)
    except ValueError:
        raise UnknownColumnError(name, columns) from None


@dataclass
class QueryResult:
    """The materialized result of one query.

    ``elapsed`` is virtual seconds of engine work for this query (parse
    + plan + execute under the cost model); ``counters`` is the delta of
    cost-event units it consumed; ``plan`` is the physical plan summary
    (useful to observe optimizer decisions, e.g. Figure 12).
    """

    columns: list[str]
    rows: list[tuple]
    elapsed: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    plan: dict = field(default_factory=dict)
    #: per-row tuples materialized inside the operator tree (upstream
    #: of final result assembly) while producing this result — 0 for a
    #: fully columnar plan. Kept separate from ``counters``
    #: (it is an observability metric, not a priced cost event).
    rows_materialized: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> list:
        """All values of one result column."""
        index = column_index(name, self.columns)
        return [row[index] for row in self.rows]

    def scalar(self):
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ValueError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}")
        return self.rows[0][0]

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]


def execute_batches(planned: PlannedQuery) -> Iterator[ColumnBatch]:
    """The streaming execution core: pull the plan root block-at-a-time.

    Nothing is materialized beyond the block in flight (and what a
    blocking operator — a join's build side, a sort — holds), so a
    cursor can fetch incrementally from an arbitrarily large scan."""
    return planned.root.batches()


def counters_delta(counters_after, counters_before: dict) -> dict:
    """Per-event difference of two counter snapshots (by event value),
    keeping only events that moved."""
    return {
        event.value: counters_after[event] - counters_before.get(event, 0)
        for event in counters_after
        if counters_after[event] != counters_before.get(event, 0)
    }


def execute(planned: PlannedQuery, model: CostModel,
            start: float | None = None,
            counters_before: dict | None = None) -> QueryResult:
    """Run a planned query to completion, timing it on the virtual
    clock. ``start``/``counters_before`` let the caller include
    parse/plan overhead in the reported elapsed time.

    This is the eager convenience over :func:`execute_batches`: the
    whole stream is drained into one materialized result."""
    if start is None:
        start = model.clock.checkpoint()
    if counters_before is None:
        counters_before = dict(model.clock.counters)
    materialized_before = model.rows_materialized
    rows = list(batches_to_rows(execute_batches(planned)))
    elapsed = model.clock.elapsed_since(start)
    delta = counters_delta(model.clock.counters, counters_before)
    return QueryResult(columns=planned.names, rows=rows, elapsed=elapsed,
                       counters=delta, plan=planned.describe(),
                       rows_materialized=(model.rows_materialized
                                          - materialized_before))


#: plan-dict keys holding child plans, in render order
_PLAN_CHILD_KEYS = ("input", "left", "right", "outer", "inner")


def render_plan(plan: dict) -> list[str]:
    """Flatten a ``describe()`` plan dict into indented text lines —
    the rows of an ``EXPLAIN`` result — followed by one
    ``kernel: <note> [<table>]`` row per scan that reports one."""
    lines: list[str] = []
    notes: list[str] = []

    def walk(node: dict, depth: int) -> None:
        attrs = ", ".join(f"{key}={value!r}" for key, value in node.items()
                          if key not in ("op", "kernel")
                          and key not in _PLAN_CHILD_KEYS)
        prefix = "  " * depth + ("-> " if depth else "")
        lines.append(f"{prefix}{node['op']}" + (f" ({attrs})" if attrs
                                                else ""))
        if "kernel" in node:
            notes.append(f"kernel: {node['kernel']} [{node['table']}]")
        for key in _PLAN_CHILD_KEYS:
            child = node.get(key)
            if isinstance(child, dict):
                walk(child, depth + 1)

    walk(plan, 0)
    return lines + notes


def explain_rows(plan: dict) -> tuple[list[str], list[tuple]]:
    """The result shape of ``EXPLAIN``: column names + one text row per
    plan node. Single source for both the legacy ``Database.query``
    path and the session/cursor path."""
    return ["QUERY PLAN"], [(line,) for line in render_plan(plan)]


def explain_result(planned: PlannedQuery, model: CostModel,
                   start: float | None = None,
                   counters_before: dict | None = None) -> QueryResult:
    """The result of ``EXPLAIN <select>``: one text row per plan node
    (the summary the executor normally records in ``QueryResult.plan``),
    with the plan dict itself still attached as ``plan``."""
    if start is None:
        start = model.clock.checkpoint()
    if counters_before is None:
        counters_before = dict(model.clock.counters)
    plan = planned.describe()
    elapsed = model.clock.elapsed_since(start)
    delta = counters_delta(model.clock.counters, counters_before)
    columns, rows = explain_rows(plan)
    return QueryResult(columns=columns, rows=rows, elapsed=elapsed,
                       counters=delta, plan=plan)
