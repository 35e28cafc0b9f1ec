"""Query planner: resolved AST -> physical operator tree.

Pipeline: name resolution -> predicate classification (pushdown /
equi-join edges / residual / EXISTS) -> scan leaves with selective
column lists and pushed predicates -> greedy join tree (optimizer) ->
semi-joins -> aggregation (hash or sort, optimizer) -> HAVING -> ORDER
BY -> projection -> LIMIT.

The scan leaf is the only place engines differ (§4.1: "PostgresRaw
overrides the scan operator ... while the remaining query plan ...
works without changes").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanningError
from repro.simcost.model import CostModel
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
    collect_aggregates,
    collect_column_refs,
    compile_expr,
    conjoin,
    contains_parameter,
    expr_key,
    split_conjuncts,
)
from repro.sql.operators import (
    AggSpec,
    FilterOp,
    GateOp,
    HashAggregateOp,
    HashJoinOp,
    HashSemiJoinOp,
    LimitOp,
    NestedLoopJoinOp,
    PlanOp,
    ProjectOp,
    ScanOp,
    SortAggregateOp,
    SortOp,
)
from repro.sql.optimizer import Optimizer
from repro.sql.scanapi import ScanPredicate
from repro.sql.vectorize import build_vector_predicate, build_vector_value


@dataclass
class PlannedQuery:
    root: PlanOp
    names: list[str]

    def describe(self) -> dict:
        return self.root.describe()


def render_expr(expr: Expr) -> str:
    """Readable column-name rendering for un-aliased select items."""
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, FuncCall):
        args = ", ".join(
            "*" if isinstance(a, Star) else render_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, BinaryOp):
        return f"({render_expr(expr.left)} {expr.op} {render_expr(expr.right)})"
    if isinstance(expr, UnaryOp):
        return f"{expr.op} {render_expr(expr.operand)}"
    if isinstance(expr, CaseExpr):
        return "case"
    return type(expr).__name__.lower()


def _rewrite(expr: Expr, resolve) -> Expr:
    """Rebuild ``expr`` with every ColumnRef replaced via ``resolve``.

    Exists nodes are left alone — the semi-join planner resolves their
    subqueries with the proper nested scope.
    """
    if isinstance(expr, ColumnRef):
        return resolve(expr)
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, _rewrite(expr.left, resolve),
                        _rewrite(expr.right, resolve))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _rewrite(expr.operand, resolve))
    if isinstance(expr, FuncCall):
        args = tuple(a if isinstance(a, Star) else _rewrite(a, resolve)
                     for a in expr.args)
        return FuncCall(expr.name, args, expr.distinct)
    if isinstance(expr, CaseExpr):
        whens = tuple((_rewrite(c, resolve), _rewrite(r, resolve))
                      for c, r in expr.whens)
        else_result = (_rewrite(expr.else_result, resolve)
                       if expr.else_result is not None else None)
        return CaseExpr(whens, else_result)
    if isinstance(expr, LikeExpr):
        return LikeExpr(_rewrite(expr.operand, resolve), expr.pattern,
                        expr.negated)
    if isinstance(expr, InList):
        return InList(_rewrite(expr.operand, resolve),
                      tuple(_rewrite(i, resolve) for i in expr.items),
                      expr.negated)
    if isinstance(expr, Between):
        return Between(_rewrite(expr.operand, resolve),
                       _rewrite(expr.low, resolve),
                       _rewrite(expr.high, resolve), expr.negated)
    if isinstance(expr, IsNull):
        return IsNull(_rewrite(expr.operand, resolve), expr.negated)
    return expr


class _Scope:
    """Name resolution over the query's table bindings (+ outer scope
    for correlated subqueries)."""

    def __init__(self, bindings: dict[str, TableInfo],
                 outer: "_Scope | None" = None):
        self.bindings = bindings
        self.outer = outer

    def resolve(self, ref: ColumnRef) -> tuple[ColumnRef, bool]:
        """Canonical ref + whether it came from the outer scope."""
        name = ref.name.lower()
        if ref.table is not None:
            binding = ref.table.lower()
            info = self.bindings.get(binding)
            if info is not None:
                if not info.schema.has_column(name):
                    raise PlanningError(
                        f"column {ref.display!r} not in table {info.name!r}")
                return ColumnRef(name, binding), False
            if self.outer is not None:
                resolved, _ = self.outer.resolve(ref)
                return resolved, True
            raise PlanningError(f"unknown table reference: {ref.table!r}")
        matches = [binding for binding, info in self.bindings.items()
                   if info.schema.has_column(name)]
        if len(matches) > 1:
            raise PlanningError(f"ambiguous column: {ref.name!r}")
        if len(matches) == 1:
            return ColumnRef(name, matches[0]), False
        if self.outer is not None:
            resolved, _ = self.outer.resolve(ref)
            return resolved, True
        raise PlanningError(f"unknown column: {ref.name!r}")


class Planner:
    def __init__(self, catalog: Catalog, model: CostModel,
                 optimizer: Optimizer | None = None):
        self.catalog = catalog
        self.model = model
        self.optimizer = optimizer if optimizer is not None else Optimizer()

    # ------------------------------------------------------------------
    def plan(self, select: Select) -> PlannedQuery:
        bindings = self._bind_tables(select.tables)
        scope = _Scope(bindings)
        resolve = self._strict_resolver(scope)

        items = self._expand_star(select.items, bindings)
        items = [SelectItem(_rewrite(item.expr, resolve), item.alias)
                 for item in items]
        alias_map = {item.alias.lower(): item.expr
                     for item in items if item.alias}

        where = (_rewrite(select.where, resolve)
                 if select.where is not None else None)
        group_by = [self._resolve_with_aliases(g, alias_map, resolve)
                    for g in select.group_by]
        having = (self._resolve_with_aliases(select.having, alias_map,
                                             resolve)
                  if select.having is not None else None)
        order_by = [
            OrderItem(self._resolve_with_aliases(o.expr, alias_map, resolve),
                      o.descending)
            for o in select.order_by
        ]

        pushed, join_edges, residual, semijoins, const_conjuncts = (
            self._classify_where(where, bindings))

        # Columns each binding must emit from its scan.
        needed: dict[str, list[ColumnRef]] = {b: [] for b in bindings}
        seen: set[str] = set()

        def note(expr: Expr | None) -> None:
            for ref in collect_column_refs(expr):
                key = expr_key(ref)
                if key not in seen:
                    seen.add(key)
                    needed[ref.table].append(ref)

        for item in items:
            note(item.expr)
        for group in group_by:
            note(group)
        note(having)
        for order in order_by:
            note(order.expr)
        for conjunct in residual:
            note(conjunct)
        for left_ref, right_ref in join_edges:
            note(left_ref)
            note(right_ref)
        for exists_expr, outer_refs in semijoins:
            for ref in outer_refs:
                note(ref)

        relation, est_rows = self._plan_relational(
            bindings, pushed, join_edges, residual, needed)

        if const_conjuncts:
            # Conjuncts holding ? placeholders cannot be folded at plan
            # time (prepared statements plan once, bind many times);
            # they become a gate evaluated once per execution.
            static = [c for c in const_conjuncts
                      if not contains_parameter(c)]
            dynamic = [c for c in const_conjuncts if contains_parameter(c)]
            if static:
                value_fns = [compile_expr(c, lambda node: None)
                             for c in static]
                if not all(fn(()) is True for fn in value_fns):
                    relation = LimitOp(self.model, relation, 0)
            if dynamic:
                relation = GateOp(
                    self.model, relation,
                    compile_expr(conjoin(dynamic), lambda node: None),
                    n_terms=len(dynamic))

        for exists_expr, _outer_refs in semijoins:
            relation = self._plan_semijoin(relation, exists_expr, scope)

        aggregates = []
        for item in items:
            aggregates.extend(collect_aggregates(item.expr))
        aggregates.extend(collect_aggregates(having))
        for order in order_by:
            aggregates.extend(collect_aggregates(order.expr))
        unique_aggs: dict[str, FuncCall] = {}
        for agg in aggregates:
            unique_aggs.setdefault(expr_key(agg), agg)

        if unique_aggs or group_by:
            relation = self._plan_aggregate(relation, group_by,
                                            list(unique_aggs.values()),
                                            bindings, est_rows)

        if having is not None:
            resolver = _resolver_for(relation.layout)
            having_conjuncts = split_conjuncts(having)
            relation = FilterOp(self.model, relation,
                                compile_expr(having, resolver),
                                n_terms=len(having_conjuncts),
                                label="Having",
                                vector_fn=build_vector_predicate(
                                    having_conjuncts, resolver))

        if order_by:
            resolver = _resolver_for(relation.layout)
            key_fns = [compile_expr(o.expr, resolver) for o in order_by]
            relation = SortOp(self.model, relation, key_fns,
                              [o.descending for o in order_by],
                              key_idx=[resolver(o.expr)
                                       for o in order_by])

        resolver = _resolver_for(relation.layout)
        fns = [compile_expr(item.expr, resolver) for item in items]
        names = [item.alias or render_expr(item.expr) for item in items]
        layout = {expr_key(item.expr): i for i, item in enumerate(items)}
        col_indices = [resolver(item.expr) for item in items]
        relation = ProjectOp(
            self.model, relation, fns, layout, names,
            col_indices=col_indices,
            value_fns=[None if index is not None
                       else build_vector_value(item.expr, resolver)
                       for item, index in zip(items, col_indices)])

        if select.limit is not None:
            relation = LimitOp(self.model, relation, select.limit)
        return PlannedQuery(relation, names)

    # ------------------------------------------------------------------
    def _bind_tables(self, refs: list[TableRef]) -> dict[str, TableInfo]:
        if not refs:
            raise PlanningError("query has no FROM clause")
        bindings: dict[str, TableInfo] = {}
        for ref in refs:
            binding = ref.binding.lower()
            if binding in bindings:
                raise PlanningError(f"duplicate table binding: {binding!r}")
            bindings[binding] = self.catalog.get(ref.name)
        return bindings

    def _strict_resolver(self, scope: _Scope):
        def resolve(ref: ColumnRef) -> ColumnRef:
            resolved, is_outer = scope.resolve(ref)
            if is_outer:
                raise PlanningError(
                    f"correlated reference {ref.display!r} outside EXISTS")
            return resolved
        return resolve

    def _expand_star(self, items: list[SelectItem],
                     bindings: dict[str, TableInfo]) -> list[SelectItem]:
        expanded: list[SelectItem] = []
        for item in items:
            if isinstance(item.expr, Star):
                for binding, info in bindings.items():
                    for column in info.schema:
                        expanded.append(SelectItem(
                            ColumnRef(column.name.lower(), binding)))
            else:
                expanded.append(item)
        return expanded

    def _resolve_with_aliases(self, expr: Expr, alias_map, resolve) -> Expr:
        """GROUP BY / HAVING / ORDER BY may reference select aliases."""
        if (isinstance(expr, ColumnRef) and expr.table is None
                and expr.name.lower() in alias_map):
            try:
                return resolve(expr)
            except PlanningError:
                return alias_map[expr.name.lower()]
        return _rewrite(expr, resolve)

    # ------------------------------------------------------------------
    def _classify_where(self, where: Expr | None,
                        bindings: dict[str, TableInfo]):
        pushed: dict[str, list[Expr]] = {b: [] for b in bindings}
        join_edges: list[tuple[ColumnRef, ColumnRef]] = []
        residual: list[Expr] = []
        semijoins: list[tuple[Exists, list[ColumnRef]]] = []
        const_conjuncts: list[Expr] = []
        for conjunct in split_conjuncts(where):
            normalized = conjunct
            if (isinstance(normalized, UnaryOp) and normalized.op == "not"
                    and isinstance(normalized.operand, Exists)):
                inner = normalized.operand
                normalized = Exists(inner.subquery, not inner.negated)
            if isinstance(normalized, Exists):
                outer_refs = self._correlated_outer_refs(normalized, bindings)
                semijoins.append((normalized, outer_refs))
                continue
            refs = collect_column_refs(normalized)
            tables = {ref.table for ref in refs}
            if not tables:
                const_conjuncts.append(normalized)
            elif len(tables) == 1:
                pushed[tables.pop()].append(normalized)
            elif (isinstance(normalized, BinaryOp) and normalized.op == "="
                    and isinstance(normalized.left, ColumnRef)
                    and isinstance(normalized.right, ColumnRef)
                    and normalized.left.table != normalized.right.table):
                join_edges.append((normalized.left, normalized.right))
            else:
                residual.append(normalized)
        return pushed, join_edges, residual, semijoins, const_conjuncts

    def _correlated_outer_refs(self, exists_expr: Exists,
                               outer_bindings: dict[str, TableInfo],
                               ) -> list[ColumnRef]:
        """Outer columns an EXISTS conjunct correlates on (these must be
        present in the outer relation's output)."""
        sub = exists_expr.subquery
        inner_bindings = self._bind_tables(sub.tables)
        scope = _Scope(inner_bindings, _Scope(outer_bindings))
        outer_refs: list[ColumnRef] = []
        for conjunct in split_conjuncts(sub.where):
            for ref in collect_column_refs(conjunct):
                resolved, is_outer = scope.resolve(ref)
                if is_outer:
                    outer_refs.append(resolved)
        return outer_refs

    # ------------------------------------------------------------------
    def _build_scan(self, binding: str, info: TableInfo,
                    pushed: list[Expr], needed_refs: list[ColumnRef],
                    ) -> tuple[ScanOp, float]:
        schema = info.schema
        if not needed_refs:
            # A scan must emit something (e.g. COUNT(*) queries): use the
            # first column, the cheapest to tokenize.
            needed_refs = [ColumnRef(schema.columns[0].name.lower(), binding)]
        needed_idx = [schema.index_of(ref.name) for ref in needed_refs]
        layout = {expr_key(ref): i for i, ref in enumerate(needed_refs)}
        predicate = None
        if pushed:
            conjoined = conjoin(pushed)

            def attr_resolver(node, _binding=binding, _schema=schema):
                if isinstance(node, ColumnRef) and node.table == _binding:
                    return _schema.index_of(node.name)
                return None

            fn = compile_expr(conjoined, attr_resolver)
            attrs = sorted({schema.index_of(ref.name)
                            for ref in collect_column_refs(conjoined)})
            vector_fn = build_vector_predicate(pushed, attr_resolver)
            predicate = ScanPredicate(attrs, fn, n_terms=len(pushed),
                                      conjuncts=pushed,
                                      vector_fn=vector_fn)
        if info.access is None:
            raise PlanningError(
                f"table {info.name!r} has no access method bound")
        scan = ScanOp(self.model, layout, info.access, needed_idx,
                      predicate, info.name)
        est = self.optimizer.scan_rows(info, pushed)
        # Partitioned tables: intersect pushed conjuncts with per-file
        # zone maps at plan time — EXPLAIN shows the pruning decision
        # and the estimate shrinks to the surviving files' rows.
        select_fn = getattr(info.access, "select_partitions", None)
        if select_fn is not None:
            selection = select_fn(pushed)
            scan.partitions = selection
            if selection.est_rows is not None:
                est = self.optimizer.scan_rows(
                    info, pushed, base_rows=float(selection.est_rows))
        return scan, est

    def _plan_relational(self, bindings: dict[str, TableInfo],
                         pushed: dict[str, list[Expr]],
                         join_edges: list[tuple[ColumnRef, ColumnRef]],
                         residual: list[Expr],
                         needed: dict[str, list[ColumnRef]],
                         ) -> tuple[PlanOp, float]:
        scans: dict[str, ScanOp] = {}
        est: dict[str, float] = {}
        for binding, info in bindings.items():
            scans[binding], est[binding] = self._build_scan(
                binding, info, pushed[binding], needed[binding])

        edge_pairs = {tuple(sorted((l.table, r.table)))
                      for l, r in join_edges}
        order = self.optimizer.order_bindings(list(bindings), est,
                                              edge_pairs)
        current: PlanOp = scans[order[0]]
        current_est = est[order[0]]
        bound = {order[0]}
        remaining_residual = list(residual)

        for binding in order[1:]:
            incoming = scans[binding]
            edges_here: list[tuple[ColumnRef, ColumnRef]] = []
            for left_ref, right_ref in join_edges:
                if left_ref.table in bound and right_ref.table == binding:
                    edges_here.append((left_ref, right_ref))
                elif right_ref.table in bound and left_ref.table == binding:
                    edges_here.append((right_ref, left_ref))
            if edges_here:
                # Build on the smaller side (HashJoinOp builds right).
                if est[binding] <= current_est:
                    left, right = current, incoming
                    left_keys = [l for l, _ in edges_here]
                    right_keys = [r for _, r in edges_here]
                else:
                    left, right = incoming, current
                    left_keys = [r for _, r in edges_here]
                    right_keys = [l for l, _ in edges_here]
                layout = dict(left.layout)
                shift = len(left.layout)
                for key, idx in right.layout.items():
                    layout[key] = idx + shift
                left_resolver = _resolver_for(left.layout)
                right_resolver = _resolver_for(right.layout)
                current = HashJoinOp(
                    self.model, left, right,
                    [compile_expr(k, left_resolver) for k in left_keys],
                    [compile_expr(k, right_resolver) for k in right_keys],
                    layout,
                    left_key_idx=[left_resolver(k) for k in left_keys],
                    right_key_idx=[right_resolver(k) for k in right_keys])
                current_est = self.optimizer.join_output_rows(
                    current_est, est[binding], len(edges_here))
            else:
                layout = dict(current.layout)
                shift = len(current.layout)
                for key, idx in incoming.layout.items():
                    layout[key] = idx + shift
                current = NestedLoopJoinOp(self.model, current, incoming,
                                           layout)
                current_est = self.optimizer.join_output_rows(
                    current_est, est[binding], 0)
            bound.add(binding)
            current, remaining_residual = self._attach_residual(
                current, remaining_residual, bound)

        current, remaining_residual = self._attach_residual(
            current, remaining_residual, bound)
        if remaining_residual:
            raise PlanningError(
                f"unplaceable predicates: {remaining_residual!r}")
        return current, current_est

    def _attach_residual(self, plan: PlanOp, residual: list[Expr],
                         bound: set[str]) -> tuple[PlanOp, list[Expr]]:
        remaining: list[Expr] = []
        ready: list[Expr] = []
        for conjunct in residual:
            tables = {ref.table for ref in collect_column_refs(conjunct)}
            if tables <= bound:
                ready.append(conjunct)
            else:
                remaining.append(conjunct)
        if ready:
            resolver = _resolver_for(plan.layout)
            plan = FilterOp(self.model, plan,
                            compile_expr(conjoin(ready), resolver),
                            n_terms=len(ready),
                            vector_fn=build_vector_predicate(ready,
                                                             resolver))
        return plan, remaining

    # ------------------------------------------------------------------
    def _plan_semijoin(self, outer: PlanOp, exists_expr: Exists,
                       outer_scope: _Scope) -> PlanOp:
        sub = exists_expr.subquery
        inner_bindings = self._bind_tables(sub.tables)
        overlap = set(inner_bindings) & set(outer_scope.bindings)
        if overlap:
            raise PlanningError(
                f"EXISTS subquery reuses outer binding names: {overlap}")
        scope = _Scope(inner_bindings, outer_scope)

        inner_pushed: dict[str, list[Expr]] = {b: [] for b in inner_bindings}
        inner_edges: list[tuple[ColumnRef, ColumnRef]] = []
        inner_residual: list[Expr] = []
        correlations: list[tuple[ColumnRef, ColumnRef]] = []  # (inner, outer)

        for conjunct in split_conjuncts(sub.where):
            is_outer_flags: dict[str, bool] = {}

            def resolve(ref: ColumnRef) -> ColumnRef:
                resolved, is_outer = scope.resolve(ref)
                is_outer_flags[expr_key(resolved)] = is_outer
                return resolved

            rewritten = _rewrite(conjunct, resolve)
            refs = collect_column_refs(rewritten)
            outer_refs = [r for r in refs if is_outer_flags.get(expr_key(r))]
            inner_refs = [r for r in refs
                          if not is_outer_flags.get(expr_key(r))]
            if not outer_refs:
                tables = {ref.table for ref in inner_refs}
                if len(tables) == 1:
                    inner_pushed[tables.pop()].append(rewritten)
                elif (isinstance(rewritten, BinaryOp)
                        and rewritten.op == "="
                        and isinstance(rewritten.left, ColumnRef)
                        and isinstance(rewritten.right, ColumnRef)):
                    inner_edges.append((rewritten.left, rewritten.right))
                else:
                    inner_residual.append(rewritten)
                continue
            if (isinstance(rewritten, BinaryOp) and rewritten.op == "="
                    and isinstance(rewritten.left, ColumnRef)
                    and isinstance(rewritten.right, ColumnRef)
                    and len(outer_refs) == 1 and len(inner_refs) == 1):
                if is_outer_flags[expr_key(rewritten.left)]:
                    correlations.append((rewritten.right, rewritten.left))
                else:
                    correlations.append((rewritten.left, rewritten.right))
                continue
            raise PlanningError(
                "only equality correlations are supported in EXISTS "
                f"(got {conjunct!r})")
        if not correlations:
            raise PlanningError("uncorrelated EXISTS is not supported")

        inner_needed: dict[str, list[ColumnRef]] = {b: []
                                                    for b in inner_bindings}
        seen: set[str] = set()
        for ref_list in ([i for i, _ in correlations],
                         [r for c in inner_residual
                          for r in collect_column_refs(c)],
                         [r for e in inner_edges for r in e]):
            for ref in ref_list:
                key = expr_key(ref)
                if key not in seen:
                    seen.add(key)
                    inner_needed[ref.table].append(ref)
        inner_plan, _ = self._plan_relational(
            inner_bindings, inner_pushed, inner_edges, inner_residual,
            inner_needed)

        outer_resolver = _resolver_for(outer.layout)
        inner_resolver = _resolver_for(inner_plan.layout)
        outer_key_fns = [compile_expr(o, outer_resolver)
                         for _, o in correlations]
        inner_key_fns = [compile_expr(i, inner_resolver)
                         for i, _ in correlations]
        return HashSemiJoinOp(
            self.model, outer, inner_plan, outer_key_fns, inner_key_fns,
            negated=exists_expr.negated,
            outer_key_idx=[outer_resolver(o) for _, o in correlations],
            inner_key_idx=[inner_resolver(i) for i, _ in correlations])

    # ------------------------------------------------------------------
    def _plan_aggregate(self, child: PlanOp, group_by: list[Expr],
                        aggregates: list[FuncCall],
                        bindings: dict[str, TableInfo],
                        input_est: float) -> PlanOp:
        resolver = _resolver_for(child.layout)
        group_fns = [compile_expr(g, resolver) for g in group_by]
        specs: list[AggSpec] = []
        for agg in aggregates:
            if agg.name == "count" and (not agg.args
                                        or isinstance(agg.args[0], Star)):
                specs.append(AggSpec("count_star", None, expr_key(agg)))
            else:
                if len(agg.args) != 1:
                    raise PlanningError(
                        f"{agg.name}() takes exactly one argument")
                arg_fn = compile_expr(agg.args[0], resolver)
                specs.append(AggSpec(agg.name, arg_fn, expr_key(agg),
                                     agg.distinct))
        layout: dict[str, int] = {}
        for i, group in enumerate(group_by):
            layout[expr_key(group)] = i
        for j, spec in enumerate(specs):
            layout[spec.key] = len(group_by) + j

        group_cols: list[tuple[TableInfo, str]] = []
        for group in group_by:
            for ref in collect_column_refs(group):
                group_cols.append((bindings[ref.table], ref.name))
        strategy = self.optimizer.agg_strategy(group_cols, input_est,
                                               has_group_by=bool(group_by))
        op_cls = HashAggregateOp if strategy == "hash" else SortAggregateOp
        # Vectorized twins of the row closures: group keys and aggregate
        # arguments as column functions (None where not vectorizable —
        # the operator then falls back to the row path wholesale).
        group_value_fns = [build_vector_value(g, resolver)
                           for g in group_by]
        agg_value_fns = [
            None if spec.func == "count_star"
            else build_vector_value(agg.args[0], resolver)
            for spec, agg in zip(specs, aggregates)
        ]
        return op_cls(self.model, child, group_fns, specs, layout,
                      group_value_fns=group_value_fns,
                      agg_value_fns=agg_value_fns)


def _resolver_for(layout: dict[str, int]):
    def resolve(node):
        return layout.get(expr_key(node))
    return resolve
