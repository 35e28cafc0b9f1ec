"""Vectorized predicate and value compilation for columnar execution.

Two compilers live here:

* :func:`build_vector_predicate` turns a conjunct list into a *mask
  function* over NumPy columns. The planner compiles pushed-down WHERE
  conjuncts twice: once into the row closure every engine path
  understands (``ScanPredicate.fn``) and — when every conjunct has a
  vectorizable shape — into this mask builder
  (``ScanPredicate.vector_fn``). The same builder serves the
  operator-level :class:`~repro.sql.operators.FilterOp` (residual and
  HAVING predicates) with a layout-based resolver.
* :func:`build_vector_value` turns a *value* expression (aggregate
  argument, GROUP BY key, computed SELECT item) into a column function
  — plain columns, constants, ``+ - * /`` arithmetic and searched
  ``CASE`` over them — so grouped aggregation and projection can run
  without materializing rows.

Both derive from the one expression AST the row compiler
(:func:`~repro.sql.expressions.compile_expr`) interprets; a shape
neither covers returns None and the *caller* keeps its row closure for
that one operator — never for the plan.

Supported predicate shapes: comparisons between a column and a
constant expression (either side; parameters included — see below) or
between two columns, BETWEEN / NOT BETWEEN, IN / NOT IN lists,
IS [NOT] NULL, [NOT] LIKE, and arbitrary AND/OR trees of such terms.
Not covered: ``NOT (...)``, arithmetic or CASE *inside* a predicate,
and INTERVAL arithmetic in value expressions (``Interval`` needs the
row path's special cases). Constants may be any parameter-free,
column-free expression (``DATE '1998-12-01' - INTERVAL '90' DAY``
folds at evaluation time) **or contain ``?`` placeholders**: parameter
slots are read when the mask is built, so a prepared statement re-binds
and stays on the batch path — the mask is simply rebuilt per
execution, which is once per scanned block.

Columns arrive as either dtype-tagged arrays (int64/float64/bool,
int32/int64 day numbers for dates) or object arrays of Python values;
every term handles both, computing over the non-NULL subset for object
columns. SQL three-valued logic is preserved in *is-TRUE* form: each
term's mask is True exactly where the row predicate would return
``True`` — which is all a WHERE clause observes — so AND/OR compose as
``&``/``|`` without tracking unknowns separately.
"""

from __future__ import annotations

import datetime
from typing import Callable, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpr,
    InList,
    IntervalLiteral,
    IsNull,
    LikeExpr,
    UnaryOp,
)
from repro.sql.batch import object_nulls
from repro.sql.expressions import (
    _children,
    collect_column_refs,
    compile_expr,
    like_to_regex,
)

#: (columns, nulls, nrows) -> (nrows,) bool is-TRUE mask. ``columns``
#: maps a column slot (file-attribute index at scan level, batch column
#: index at operator level) to an ndarray via ``[]``; ``nulls`` maps a
#: slot to a bool NULL mask (or None) via ``.get``.
VectorFn = Callable[[dict, dict, int], np.ndarray]

#: (columns, nulls, nrows) -> (values ndarray | scalar, null mask | None)
ValueFn = Callable[[dict, dict, int], tuple]

_COMPARES = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

_ARITH = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.true_divide,
}


def _const_fn(node) -> Optional[Callable[[], object]]:
    """A zero-argument closure evaluating a column-free expression —
    literals, constant arithmetic, and ``?`` parameter slots (read at
    call time, so re-binding a prepared statement re-evaluates). None
    when the expression references columns or cannot compile."""
    if collect_column_refs(node):
        return None
    try:
        fn = compile_expr(node, lambda _n: None)
    except Exception:
        return None
    return lambda _fn=fn: _fn(())


def _null_of(column: np.ndarray, mask: Optional[np.ndarray],
             ) -> Optional[np.ndarray]:
    """Resolve a column's NULL mask: trust the explicit mask; derive
    one for object columns; typed columns without a mask have none."""
    if mask is not None:
        return mask
    if column.dtype == object:
        computed = object_nulls(column)
        return computed if computed.any() else None
    return None


def _mask_compare(column: np.ndarray, null_mask: Optional[np.ndarray],
                  op: str, value, nrows: int) -> np.ndarray:
    """is-TRUE mask of ``column <op> value`` (NULL rows are False)."""
    if value is None:
        return np.zeros(nrows, dtype=bool)
    if column.dtype == object:
        out = np.zeros(nrows, dtype=bool)
        if null_mask is not None and null_mask.any():
            valid = np.flatnonzero(~null_mask)
            if len(valid):
                out[valid] = np.asarray(
                    _COMPARES[op](column[valid], value), dtype=bool)
        else:
            out[:] = np.asarray(_COMPARES[op](column, value), dtype=bool)
        return out
    if isinstance(value, datetime.date):
        if np.issubdtype(column.dtype, np.integer):
            value = value.toordinal()  # int-day date columns
        else:
            value = None
    if value is None or not isinstance(value, (int, float, np.integer,
                                               np.floating)):
        # Type-mismatched equality mirrors Python: never equal.
        if op == "=":
            out = np.zeros(nrows, dtype=bool)
        elif op == "<>":
            out = np.ones(nrows, dtype=bool)
        else:
            raise TypeError(
                f"cannot order-compare typed column with {value!r}")
    else:
        out = _COMPARES[op](column, value)
    if null_mask is not None:
        out = out & ~null_mask
    return out


def _valid_mask(column: np.ndarray, null_mask: Optional[np.ndarray],
                nrows: int) -> np.ndarray:
    if null_mask is None:
        return np.ones(nrows, dtype=bool)
    return ~null_mask


def _days_if_dates(side: np.ndarray, other: np.ndarray) -> np.ndarray:
    """``side`` as int day numbers when it is an object array of
    ``date``s meeting an int-day date array (``other``: one column
    cache-served typed, this one NULL-holed or freshly parsed)."""
    if (side.dtype == object and other.dtype != object
            and np.issubdtype(other.dtype, np.integer)
            and isinstance(side[0], datetime.date)):
        return np.fromiter((v.toordinal() for v in side.tolist()),
                           dtype=np.int64, count=len(side))
    return side


def _compare_columns(left: np.ndarray, left_nulls: Optional[np.ndarray],
                     right: np.ndarray, right_nulls: Optional[np.ndarray],
                     op: str, nrows: int) -> np.ndarray:
    """is-TRUE mask of ``left <op> right`` over two columns (a NULL on
    either side is False). Typed pairs compare through the ufunc; as
    soon as one side is an object array the comparison runs over the
    both-valid subset with Python semantics per element — mismatched
    types are never equal and raise on ordering, exactly as the row
    closure does."""
    null_mask = _combine_nulls(left_nulls, right_nulls)
    ufunc = _COMPARES[op]
    if left.dtype != object and right.dtype != object:
        out = ufunc(left, right)
        return out if null_mask is None else out & ~null_mask
    if null_mask is not None and null_mask.any():
        out = np.zeros(nrows, dtype=bool)
        valid = np.flatnonzero(~null_mask)
        out[valid] = _compare_columns(left[valid], None, right[valid],
                                      None, op, len(valid))
        return out
    if not nrows:
        return np.zeros(0, dtype=bool)
    left, right = _days_if_dates(left, right), _days_if_dates(right, left)
    if left.dtype == object or right.dtype == object:
        # Typed entries become plain Python ints/floats.
        left, right = left.astype(object), right.astype(object)
    return np.asarray(ufunc(left, right), dtype=bool)


def _mask_like(column: np.ndarray, null_mask: Optional[np.ndarray],
               regex, negated: bool, nrows: int) -> np.ndarray:
    """is-TRUE mask of ``column [NOT] LIKE pattern``: one pass over the
    non-NULL values as a plain list — no tuples, no per-row closure."""
    if null_mask is not None and null_mask.any():
        out = np.zeros(nrows, dtype=bool)
        valid = np.flatnonzero(~null_mask)
        out[valid] = _mask_like(column[valid], None, regex, negated,
                                len(valid))
        return out
    match = regex.match
    return np.fromiter(((match(v) is None) == negated
                        for v in column.tolist()),
                       dtype=bool, count=nrows)


def _vectorize(node, resolver) -> Optional[VectorFn]:
    """An is-TRUE mask function for one predicate subtree, or None."""
    if isinstance(node, BinaryOp) and node.op in ("and", "or"):
        left = _vectorize(node.left, resolver)
        right = _vectorize(node.right, resolver)
        if left is None or right is None:
            return None
        if node.op == "and":
            return lambda c, u, n: left(c, u, n) & right(c, u, n)
        return lambda c, u, n: left(c, u, n) | right(c, u, n)

    if isinstance(node, BinaryOp) and node.op in _COMPARES:
        left_slot = resolver(node.left)
        right_slot = resolver(node.right)
        if left_slot is not None and right_slot is not None:
            def _columns(columns, nulls, nrows, _l=left_slot,
                         _r=right_slot, _op=node.op):
                left, right = columns[_l], columns[_r]
                return _compare_columns(
                    left, _null_of(left, nulls.get(_l)),
                    right, _null_of(right, nulls.get(_r)), _op, nrows)
            return _columns
        if left_slot is not None and right_slot is None:
            slot, op, const = left_slot, node.op, _const_fn(node.right)
        elif right_slot is not None and left_slot is None:
            slot, op, const = (right_slot, _FLIPPED[node.op],
                               _const_fn(node.left))
        else:
            return None
        if const is None:
            return None

        def _compare(columns, nulls, nrows, _s=slot, _op=op, _c=const):
            column = columns[_s]
            return _mask_compare(column, _null_of(column, nulls.get(_s)),
                                 _op, _c(), nrows)
        return _compare

    if isinstance(node, Between):
        slot = resolver(node.operand)
        if slot is None:
            return None
        low = _const_fn(node.low)
        high = _const_fn(node.high)
        if low is None or high is None:
            return None
        negated = node.negated

        def _between(columns, nulls, nrows, _s=slot, _lo=low, _hi=high,
                     _neg=negated):
            column = columns[_s]
            null_mask = _null_of(column, nulls.get(_s))
            lo, hi = _lo(), _hi()
            if lo is None or hi is None:
                return np.zeros(nrows, dtype=bool)
            inside = (_mask_compare(column, null_mask, ">=", lo, nrows)
                      & _mask_compare(column, null_mask, "<=", hi, nrows))
            if not _neg:
                return inside
            return _valid_mask(column, null_mask, nrows) & ~inside
        return _between

    if isinstance(node, InList):
        slot = resolver(node.operand)
        if slot is None:
            return None
        items = [_const_fn(item) for item in node.items]
        if any(item is None for item in items):
            return None
        negated = node.negated

        def _in(columns, nulls, nrows, _s=slot, _items=items,
                _neg=negated):
            column = columns[_s]
            null_mask = _null_of(column, nulls.get(_s))
            contained = np.zeros(nrows, dtype=bool)
            for item in _items:
                contained |= _mask_compare(column, null_mask, "=",
                                           item(), nrows)
            if not _neg:
                return contained
            return _valid_mask(column, null_mask, nrows) & ~contained
        return _in

    if isinstance(node, IsNull):
        slot = resolver(node.operand)
        if slot is None:
            return None
        negated = node.negated

        def _is_null(columns, nulls, nrows, _s=slot, _neg=negated):
            column = columns[_s]
            null_mask = _null_of(column, nulls.get(_s))
            if null_mask is None:
                null_mask = np.zeros(nrows, dtype=bool)
            return ~null_mask if _neg else null_mask.copy()
        return _is_null

    if isinstance(node, LikeExpr):
        slot = resolver(node.operand)
        if slot is None:
            return None

        def _like(columns, nulls, nrows, _s=slot,
                  _regex=like_to_regex(node.pattern), _neg=node.negated):
            column = columns[_s]
            return _mask_like(column, _null_of(column, nulls.get(_s)),
                              _regex, _neg, nrows)
        return _like

    return None


def _safe_resolver(resolver):
    """``resolver`` with lookup failures (a resolver may raise on nodes
    it does not know) reported as *unresolved*."""
    def resolve(node):
        try:
            return resolver(node)
        except Exception:
            return None
    return resolve


def build_vector_predicate(conjuncts, resolver) -> Optional[VectorFn]:
    """A mask function equivalent to ``AND`` of ``conjuncts`` (in
    is-TRUE terms), or None when any conjunct has a shape the
    vectorizer does not cover.

    ``resolver`` maps an AST node to a column slot (or None). At scan
    level that is the file-attribute resolver the row compiler uses
    (hits only :class:`ColumnRef`); at operator level it is a batch
    layout lookup, which also resolves pre-computed aggregates.
    """
    resolve = _safe_resolver(resolver)
    terms: list[VectorFn] = []
    for conjunct in conjuncts:
        term = _vectorize(conjunct, resolve)
        if term is None:
            return None
        terms.append(term)

    def evaluate(columns: dict, nulls: dict, nrows: int) -> np.ndarray:
        mask = np.ones(nrows, dtype=bool)
        for term in terms:
            mask &= term(columns, nulls, nrows)
        return mask

    return evaluate


# ---------------------------------------------------------------------------
# Value vectorization (aggregate arguments, GROUP BY keys)
# ---------------------------------------------------------------------------
def _combine_nulls(left: Optional[np.ndarray],
                   right: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if left is None:
        return right
    if right is None:
        return left
    return left | right


def _contains_interval(expr) -> bool:
    """INTERVAL arithmetic needs the row path's ``_arith`` special
    cases (``Interval`` defines no ``__radd__``); the vectorizer
    refuses such expressions so the operator falls back to rows."""
    if isinstance(expr, IntervalLiteral):
        return True
    return any(_contains_interval(child) for child in _children(expr))


def _magnitude(values) -> int:
    """Largest absolute value of an int array / scalar, as a Python int
    (``abs`` of int64 min would itself wrap)."""
    if isinstance(values, np.ndarray):
        if not len(values):
            return 0
        return max(int(values.max()), -int(values.min()))
    return abs(values)


def _exact_arith(ufunc, left, right):
    """``ufunc(left, right)``, except that int64 operands whose result
    could wrap are computed as Python ints (object arrays) — the row
    path's arithmetic is arbitrary-precision."""
    if (ufunc is not np.true_divide and value_kind(left) == "int"
            and value_kind(right) == "int"):
        lmax, rmax = _magnitude(left), _magnitude(right)
        peak = lmax * rmax if ufunc is np.multiply else lmax + rmax
        if peak >= (1 << 63):
            if isinstance(left, np.ndarray):
                left = left.astype(object)
            else:
                right = right.astype(object)
    return ufunc(left, right)


def _guard_division(divisor) -> None:
    """Mirror the row path's explicit zero check (ExecutionError, not a
    silent inf/nan under a NumPy warning)."""
    if isinstance(divisor, np.ndarray):
        zero = np.any(divisor == 0)
    else:
        zero = divisor == 0
    if zero:
        raise ExecutionError("division by zero")


def value_kind(values) -> str:
    """``'int'`` / ``'float'`` for natively typed numeric data (a
    dtype-tagged array, or a Python scalar that fits one); ``'object'``
    for everything else (strings, dates, bools, NULL-holed object
    arrays, ints beyond int64)."""
    if isinstance(values, np.ndarray):
        if np.issubdtype(values.dtype, np.integer):
            return "int"
        if np.issubdtype(values.dtype, np.floating):
            return "float"
    elif isinstance(values, float):
        return "float"
    elif (isinstance(values, int) and not isinstance(values, bool)
            and -(1 << 63) <= values < (1 << 63)):
        return "int"
    return "object"


class _RowSubset:
    """A ``columns`` / ``nulls`` mapping restricted to a row subset —
    gathers lazily, only for the slots a CASE branch actually reads."""

    __slots__ = ("source", "rows")

    def __init__(self, source, rows: np.ndarray):
        self.source = source
        self.rows = rows

    def __getitem__(self, slot):
        return self.source[slot][self.rows]

    def get(self, slot):
        mask = self.source.get(slot)
        return None if mask is None else mask[self.rows]


def _merge_branches(parts: list, picks: list, unmatched, nrows: int):
    """Scatter per-branch ``(values, null_mask)`` results back into one
    column. The result stays dtype-tagged only when every branch has
    the same numeric kind; an int/float mix (``THEN price ELSE 0``)
    becomes an object array of the branches' own Python values, so a
    downstream SUM adds exactly what the row path adds — a group fed
    only by the ``ELSE 0`` arm totals int ``0``, not ``0.0``."""
    kinds = {value_kind(values) for values, _ in parts
             if values is not None}
    if kinds == {"int"}:
        out = np.zeros(nrows, dtype=np.int64)
    elif kinds == {"float"}:
        out = np.zeros(nrows, dtype=np.float64)
    else:
        out = np.empty(nrows, dtype=object)
    null_mask = np.zeros(nrows, dtype=bool)
    if unmatched is not None:  # no ELSE: unmatched rows are NULL
        null_mask |= unmatched
    for (values, part_nulls), rows in zip(parts, picks):
        if values is None:  # a NULL constant branch
            null_mask[rows] = True
            continue
        out[rows] = values
        if part_nulls is not None:
            null_mask[rows] = part_nulls
    if not null_mask.any():
        return out, None
    if out.dtype == object:
        out[null_mask] = None
    return out, null_mask


def build_vector_value(expr, resolver) -> Optional[ValueFn]:
    """Compile a value expression to ``fn(columns, nulls, nrows) ->
    (values, null_mask)``. ``values`` is a column-shaped ndarray (or a
    plain scalar for constants, to be broadcast by the consumer);
    ``null_mask`` is a bool ndarray or None. Covers resolved columns,
    constant subexpressions, unary minus, ``+ - * /`` arithmetic and
    searched ``CASE`` — enough for TPC-H Q1-style
    ``sum(price * (1 - discount))`` and Q12/Q14-style
    ``sum(CASE WHEN ... THEN ... ELSE 0 END)`` shapes. Returns None for
    anything else (the operator falls back to rows).
    """
    return _value_fn(expr, _safe_resolver(resolver))


def _value_fn(expr, resolver) -> Optional[ValueFn]:
    slot = resolver(expr)
    if slot is not None:
        def _column(columns, nulls, nrows, _s=slot):
            column = columns[_s]
            return column, _null_of(column, nulls.get(_s))
        return _column

    const = _const_fn(expr)
    if const is not None:
        def _const(columns, nulls, nrows, _c=const):
            return _c(), None
        return _const

    if isinstance(expr, BinaryOp) and expr.op in _ARITH:
        if _contains_interval(expr):
            return None
        left = _value_fn(expr.left, resolver)
        right = _value_fn(expr.right, resolver)
        if left is None or right is None:
            return None
        ufunc = _ARITH[expr.op]
        is_division = expr.op == "/"

        def _arith(columns, nulls, nrows, _l=left, _r=right, _u=ufunc,
                   _div=is_division):
            lv, ln = _l(columns, nulls, nrows)
            rv, rn = _r(columns, nulls, nrows)
            null_mask = _combine_nulls(ln, rn)
            if null_mask is not None and null_mask.any():
                out = np.empty(nrows, dtype=object)
                valid = np.flatnonzero(~null_mask)
                lv_sub = lv[valid] if isinstance(lv, np.ndarray) else lv
                rv_sub = rv[valid] if isinstance(rv, np.ndarray) else rv
                if _div:
                    _guard_division(rv_sub)
                out[valid] = _exact_arith(_u, lv_sub, rv_sub)
                return out, null_mask
            if _div:
                _guard_division(rv)
            return _exact_arith(_u, lv, rv), null_mask
        return _arith

    if isinstance(expr, CaseExpr):
        conditions = [_vectorize(cond, resolver) for cond, _ in expr.whens]
        results = [_value_fn(result, resolver) for _, result in expr.whens]
        has_else = expr.else_result is not None
        if has_else:
            results.append(_value_fn(expr.else_result, resolver))
        if any(fn is None for fn in conditions + results):
            return None

        def _case(columns, nulls, nrows, _conds=conditions,
                  _results=results, _else=has_else):
            # First match wins: each WHEN claims the still-unclaimed
            # rows where its condition is TRUE (NULL is not TRUE).
            remaining = np.ones(nrows, dtype=bool)
            picks = []
            for cond in _conds:
                take = cond(columns, nulls, nrows) & remaining
                remaining &= ~take
                picks.append(np.flatnonzero(take))
            if _else:
                picks.append(np.flatnonzero(remaining))
            # Every branch is evaluated over exactly its own rows (a
            # guarded ``b <> 0 THEN a / b`` must not divide elsewhere)
            # — empty selections included, so the result type below
            # depends on the expression, not on which rows a block
            # happens to hold.
            parts = [fn(_RowSubset(columns, rows), _RowSubset(nulls, rows),
                        len(rows))
                     for fn, rows in zip(_results, picks)]
            return _merge_branches(parts, picks,
                                   None if _else else remaining, nrows)
        return _case

    if isinstance(expr, UnaryOp) and expr.op == "-":
        operand = _value_fn(expr.operand, resolver)
        if operand is None:
            return None

        def _neg(columns, nulls, nrows, _o=operand):
            value, null_mask = _o(columns, nulls, nrows)
            if null_mask is not None and null_mask.any():
                out = np.empty(nrows, dtype=object)
                valid = np.flatnonzero(~null_mask)
                out[valid] = np.negative(value[valid])
                return out, null_mask
            return np.negative(value), null_mask
        return _neg

    return None
