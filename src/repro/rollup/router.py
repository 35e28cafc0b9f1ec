"""The query router: aggregate queries -> rollup probes.

Sits inside ``Database._plan``. For every single-table aggregate query
it (1) records the grouping pattern for the idle tuner's rollup
proposals and (2) matches the query against the engine's registered
rollups, rewriting a covered query to probe the smallest fresh rollup
instead of rescanning the raw file.

Routing is invisible until it can matter: with no rollups registered,
queries plan exactly as before — no counters, no EXPLAIN annotation.
Once rollups exist, every aggregate query either probes one
(``rollup: <name>`` in EXPLAIN, ``rollup_hits`` on the clock) or falls
back to the raw scan with the reason (``rollup: none (...)``,
``rollup_misses``).

Bit-identity: routed answers must equal raw-scan answers exactly.
Dimension-subset re-aggregation is lossless for count/sum(int)/min/max
(float sums are only routed on exact dimension matches); predicate
columns must be rollup dimensions, so WHERE qualifies whole stored
groups; builds pin hash aggregation (heap order = the raw file's
first-seen group order) and probes pin whatever strategy the raw plan
would have chosen, so row order matches too.
"""

from __future__ import annotations

import weakref
from collections import Counter
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.rollup.builder import ForcedAggOptimizer
from repro.rollup.metadata import RollupInfo, agg_signature
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Exists,
    Expr,
    FuncCall,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Star,
    TableRef,
    UnaryOp,
)
from repro.sql.catalog import Catalog, TableInfo
from repro.sql.expressions import (
    _children,
    collect_aggregates,
    collect_column_refs,
    expr_key,
)
from repro.sql.operators import PlanOp
from repro.sql.planner import PlannedQuery, Planner, _rewrite, render_expr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.optimizer import Optimizer

#: aggregate functions whose state a rollup can store
_ROUTABLE_FUNCS = {"sum", "avg", "min", "max", "count"}


class RoutedQuery(PlannedQuery):
    """A planned query whose routing decision shows up in EXPLAIN as a
    top-level ``rollup`` attribute: the probed rollup's name, or
    ``none (<reason>)`` for an annotated fallback."""

    def __init__(self, root: PlanOp, names: list[str], rollup_label: str):
        super().__init__(root, names)
        self.rollup_label = rollup_label

    def describe(self) -> dict:
        out = dict(self.root.describe())
        out["rollup"] = self.rollup_label
        return out


class _Shape:
    """The routable skeleton of one aggregate query."""

    __slots__ = ("info", "binding", "dims", "agg_sigs", "where_cols",
                 "aliases")

    def __init__(self, info, binding, dims, agg_sigs, where_cols,
                 aliases):
        self.info = info
        self.binding = binding
        self.dims = dims              # ordered group dims, lower-cased
        self.agg_sigs = agg_sigs      # ordered deduplicated AggSigs
        self.where_cols = where_cols  # frozenset of predicate columns
        self.aliases = aliases        # select-item aliases, lower-cased


def _contains_exists(expr: Expr | None) -> bool:
    if expr is None:
        return False
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Exists):
            return True
        stack.extend(_children(node))
    return False


def _bare_refs(expr: Expr | None, out: list) -> None:
    """ColumnRefs *outside* aggregate calls (the refs that must be
    grouping dimensions or select aliases)."""
    if expr is None:
        return
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        return
    if isinstance(expr, ColumnRef):
        out.append(expr)
        return
    for child in _children(expr):
        _bare_refs(child, out)


def _map_expr(expr: Expr, fn) -> Expr:
    """Structural rebuild with subtree interception: ``fn`` returns a
    replacement node or None to recurse (Parameter/Literal/Star nodes
    pass through untouched, preserving prepared-statement bindings)."""
    replaced = fn(expr)
    if replaced is not None:
        return replaced
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, _map_expr(expr.left, fn),
                        _map_expr(expr.right, fn))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _map_expr(expr.operand, fn))
    if isinstance(expr, FuncCall):
        args = tuple(a if isinstance(a, Star) else _map_expr(a, fn)
                     for a in expr.args)
        return FuncCall(expr.name, args, expr.distinct)
    if isinstance(expr, CaseExpr):
        whens = tuple((_map_expr(c, fn), _map_expr(r, fn))
                      for c, r in expr.whens)
        else_result = (_map_expr(expr.else_result, fn)
                       if expr.else_result is not None else None)
        return CaseExpr(whens, else_result)
    if isinstance(expr, LikeExpr):
        return LikeExpr(_map_expr(expr.operand, fn), expr.pattern,
                        expr.negated)
    if isinstance(expr, InList):
        return InList(_map_expr(expr.operand, fn),
                      tuple(_map_expr(i, fn) for i in expr.items),
                      expr.negated)
    if isinstance(expr, Between):
        return Between(_map_expr(expr.operand, fn),
                       _map_expr(expr.low, fn),
                       _map_expr(expr.high, fn), expr.negated)
    if isinstance(expr, IsNull):
        return IsNull(_map_expr(expr.operand, fn), expr.negated)
    return expr


def _display(expr: Expr) -> str:
    """The output name the raw planner would give an un-aliased item
    (resolution lower-cases column names before rendering)."""
    return render_expr(
        _rewrite(expr, lambda ref: ColumnRef(ref.name.lower())))


class QueryRouter:
    """Per-engine routing state: the hot-pattern log and the matching/
    rewriting logic. One instance lives on each :class:`~repro.engines.
    base.Database` as ``engine.router``."""

    def __init__(self, engine):
        # Weak: the engine owns its router, and the back-reference must
        # not keep a closed, dropped engine alive in a reference cycle.
        self._engine = weakref.ref(engine)
        #: (table, dims-incl-predicates, agg sigs) -> times requested;
        #: feeds :meth:`repro.core.tuner.IdleTuner.rollup_candidates`.
        self.patterns: Counter = Counter()

    @property
    def engine(self):
        return self._engine()

    # ------------------------------------------------------------------
    def route(self, select: Select, optimizer: "Optimizer",
              ) -> tuple[PlannedQuery | None, str | None]:
        """Returns ``(plan, None)`` on a routed hit, ``(None, reason)``
        for an annotated fallback, ``(None, None)`` when routing does
        not apply (non-aggregate query, or no rollups registered)."""
        info = self._single_source(select)
        if info is None:
            return None, None
        shape, reason = self._shape(select, info)
        if shape is None and reason is None:
            return None, None  # not an aggregate query
        if shape is not None:
            self._observe(shape)
        if not len(self.engine.rollups):
            return None, None  # invisible until rollups exist
        if shape is None:
            return None, reason
        best, why_not = self._pick(self.engine.rollups.for_source(info),
                                   shape)
        if best is None:
            return None, why_not or "no rollup on table"
        probe = self._plan_probe(select, shape, best, optimizer)
        if probe is None:
            return None, f"{best.name}: probe planning failed"
        self.engine.model.rollup_hit()
        return probe, None

    # ------------------------------------------------------------------
    def _single_source(self, select: Select) -> TableInfo | None:
        if len(select.tables) != 1:
            return None
        name = select.tables[0].name
        catalog = self.engine.catalog
        if not catalog.has(name):
            return None
        return catalog.get(name)

    def _column_of(self, ref: ColumnRef, binding: str,
                   info: TableInfo) -> str | None:
        if ref.table is not None and ref.table.lower() != binding:
            return None
        name = ref.name.lower()
        return name if info.schema.has_column(name) else None

    def _shape(self, select: Select, info: TableInfo,
               ) -> tuple[_Shape | None, str | None]:
        aggs: list[FuncCall] = []
        seen: set[str] = set()

        def note(found) -> None:
            for agg in found:
                key = expr_key(agg)
                if key not in seen:
                    seen.add(key)
                    aggs.append(agg)

        for item in select.items:
            note(collect_aggregates(item.expr))
        note(collect_aggregates(select.having))
        for order in select.order_by:
            note(collect_aggregates(order.expr))
        if not aggs and not select.group_by:
            return None, None

        if any(isinstance(item.expr, Star) for item in select.items):
            return None, "SELECT *"
        binding = select.tables[0].binding.lower()
        aliases = frozenset(item.alias.lower() for item in select.items
                            if item.alias)
        alias_exprs = {item.alias.lower(): item.expr
                      for item in select.items if item.alias}

        dims: list[str] = []
        for group in select.group_by:
            expr = group
            if (isinstance(expr, ColumnRef) and expr.table is None
                    and not info.schema.has_column(expr.name.lower())):
                expr = alias_exprs.get(expr.name.lower(), expr)
            if not isinstance(expr, ColumnRef):
                return None, "non-column group expression"
            column = self._column_of(expr, binding, info)
            if column is None:
                return None, "unresolved group column"
            if column not in dims:
                dims.append(column)

        agg_sigs: list[tuple[str, str]] = []
        for agg in aggs:
            if agg.name not in _ROUTABLE_FUNCS:
                return None, f"unsupported aggregate {agg.name!r}"
            if agg.distinct:
                return None, "DISTINCT aggregate"
            if agg.name == "count" and (
                    not agg.args or isinstance(agg.args[0], Star)):
                sig = ("count", "*")
            else:
                if len(agg.args) != 1 or \
                        not isinstance(agg.args[0], ColumnRef):
                    return None, "aggregate over expression"
                column = self._column_of(agg.args[0], binding, info)
                if column is None:
                    return None, "unresolved aggregate column"
                sig = (agg.name, column)
            if sig not in agg_sigs:
                agg_sigs.append(sig)

        if _contains_exists(select.where) or \
                _contains_exists(select.having):
            return None, "subquery predicate"
        where_cols: set[str] = set()
        for ref in collect_column_refs(select.where):
            column = self._column_of(ref, binding, info)
            if column is None:
                return None, "unresolved predicate column"
            where_cols.add(column)

        dim_set = set(dims)
        bare: list[ColumnRef] = []
        for item in select.items:
            _bare_refs(item.expr, bare)
        _bare_refs(select.having, bare)
        for order in select.order_by:
            _bare_refs(order.expr, bare)
        for ref in bare:
            column = self._column_of(ref, binding, info)
            if column in dim_set:
                continue
            if column is None and ref.table is None and \
                    ref.name.lower() in aliases:
                continue
            return None, "ungrouped column"

        return _Shape(info, binding, tuple(dims), tuple(agg_sigs),
                      frozenset(where_cols), aliases), None

    # ------------------------------------------------------------------
    def _observe(self, shape: _Shape) -> None:
        key = (shape.info.name.lower(),
               tuple(sorted(set(shape.dims) | shape.where_cols)),
               tuple(sorted(shape.agg_sigs)))
        self.patterns[key] += 1

    # ------------------------------------------------------------------
    def _pick(self, candidates: list[RollupInfo], shape: _Shape,
              ) -> tuple[RollupInfo | None, str | None]:
        best = None
        reasons = []
        for rollup in candidates:
            why = self._covers(rollup, shape)
            if why is None:
                if best is None or rollup.row_count < best.row_count:
                    best = rollup
            else:
                reasons.append(f"{rollup.name}: {why}")
        if best is not None:
            return best, None
        return None, "; ".join(reasons) if reasons else None

    def _covers(self, rollup: RollupInfo, shape: _Shape) -> str | None:
        if not rollup.is_fresh(self.engine.catalog):
            return "stale"
        needed_dims = set(shape.dims) | shape.where_cols
        if not needed_dims <= set(rollup.dims):
            return "dimensions not covered"
        for sig in shape.agg_sigs:
            if not rollup.provides(sig):
                return f"missing {sig[0]}({sig[1]})"
        if set(rollup.dims) != set(shape.dims):
            # The probe re-aggregates multiple stored groups per output
            # group; float addition order would differ from the raw scan.
            for func, column in shape.agg_sigs:
                if func in ("sum", "avg") and \
                        shape.info.schema.column(column).dtype.family \
                        == "float":
                    return "float re-aggregation"
        return None

    # ------------------------------------------------------------------
    def _plan_probe(self, select: Select, shape: _Shape,
                    rollup: RollupInfo, optimizer: "Optimizer",
                    ) -> PlannedQuery | None:
        # The raw plan's aggregation strategy decides group-row order;
        # pin the probe to it. Planning is plan-time-only work — the
        # probe's saving is in execution, which never touches the raw
        # file.
        raw = Planner(self.engine.catalog, self.engine.model,
                      optimizer).plan(select)
        strategy = self._agg_strategy_of(raw.describe()) or "hash"
        try:
            probe_select = self._rewrite_select(select, shape, rollup)
            catalog = Catalog()
            catalog.register(rollup.table)
            forced = ForcedAggOptimizer(optimizer.use_stats, strategy)
            planned = Planner(catalog, self.engine.model,
                              forced).plan(probe_select)
        except ReproError:  # pragma: no cover - defensive fallback
            return None
        return RoutedQuery(planned.root, planned.names, rollup.name)

    def _agg_strategy_of(self, plan: dict) -> str | None:
        if plan.get("op") == "Aggregate":
            return plan.get("strategy")
        for value in plan.values():
            if isinstance(value, dict):
                found = self._agg_strategy_of(value)
                if found is not None:
                    return found
        return None

    def _rewrite_select(self, select: Select, shape: _Shape,
                        rollup: RollupInfo) -> Select:
        rollup_cols = set(rollup.dims) | set(rollup.storage.values())
        aliases = shape.aliases
        global_agg = not select.group_by

        def fn(expr):
            if isinstance(expr, FuncCall) and expr.is_aggregate:
                return self._rewrite_agg(expr, rollup, global_agg)
            if isinstance(expr, ColumnRef):
                name = expr.name.lower()
                if name in rollup_cols:
                    return ColumnRef(name)
                if expr.table is None and name in aliases:
                    return expr  # resolves against the probe's items
                return ColumnRef(name)
            return None

        items = [SelectItem(_map_expr(item.expr, fn),
                            item.alias or _display(item.expr))
                 for item in select.items]
        probe = Select(
            items=items,
            tables=[TableRef(rollup.table.name)],
            where=(_map_expr(select.where, fn)
                   if select.where is not None else None),
            group_by=[_map_expr(g, fn) for g in select.group_by],
            having=(_map_expr(select.having, fn)
                    if select.having is not None else None),
            order_by=[OrderItem(_map_expr(o.expr, fn), o.descending)
                      for o in select.order_by],
            limit=select.limit,
        )
        probe.param_count = select.param_count
        probe.binding = select.binding
        return probe

    def _rewrite_agg(self, agg: FuncCall, rollup: RollupInfo,
                     global_agg: bool) -> Expr:
        sig = agg_signature(agg)
        func, column = sig
        storage = rollup.storage
        if func == "count":
            # SUM over an empty input is NULL where COUNT is 0: a
            # global probe over a filtered-empty rollup must still say 0.
            inner = FuncCall("sum", (ColumnRef(storage[sig]),))
            if global_agg:
                return CaseExpr(((IsNull(inner), Literal(0)),), inner)
            return inner
        if func == "avg":
            total = FuncCall("sum", (ColumnRef(storage[("sum", column)]),))
            count = FuncCall("sum",
                             (ColumnRef(storage[("count", column)]),))
            return BinaryOp("/", total, count)
        return FuncCall("sum" if func == "sum" else func,
                        (ColumnRef(storage[sig]),))
