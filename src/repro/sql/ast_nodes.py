"""AST node definitions for the SQL subset.

The subset covers everything the paper's workloads need: select-project-
aggregate queries with multi-table (comma or JOIN ... ON) joins, WHERE
with AND/OR/NOT, comparisons, BETWEEN, IN, LIKE, IS NULL, correlated
EXISTS; GROUP BY, HAVING, ORDER BY, LIMIT; CASE WHEN; arithmetic; DATE
and INTERVAL literals with date arithmetic (TPC-H Q1..Q19 subset).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

Expr = Union[
    "Literal", "ColumnRef", "Star", "BinaryOp", "UnaryOp", "FuncCall",
    "CaseExpr", "LikeExpr", "InList", "Between", "IsNull", "Exists",
    "IntervalLiteral", "Parameter",
]

AGGREGATE_FUNCTIONS = {"sum", "avg", "min", "max", "count"}


@dataclass(frozen=True)
class Literal:
    value: object  # int | float | str | datetime.date | bool | None


class ParamBinding:
    """The mutable parameter slots of one parsed statement.

    Every ``?`` placeholder in a statement shares the statement's single
    binding; :class:`Parameter` nodes compile to closures that read
    their slot at evaluation time, so a cached physical plan re-binds by
    mutating this object — no re-parse, no re-plan.
    """

    __slots__ = ("values",)

    def __init__(self):
        self.values: tuple | None = None  # None = not bound yet

    def bind(self, values) -> None:
        self.values = tuple(values)

    def __repr__(self) -> str:  # stable: feeds expr_key via Select repr
        return "ParamBinding()"


@dataclass(frozen=True)
class Parameter:
    """A ``?`` placeholder; ``index`` is its 0-based position in the
    statement. The binding is identity-only state (excluded from
    equality/repr) linking the node to its statement's slots."""

    index: int
    binding: ParamBinding = field(compare=False, repr=False, hash=False,
                                  default=None)


@dataclass(frozen=True)
class IntervalLiteral:
    amount: int
    unit: str  # 'day' | 'month' | 'year'


@dataclass(frozen=True)
class ColumnRef:
    name: str
    table: Optional[str] = None

    @property
    def display(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star:
    """``*`` — only valid inside COUNT(*) or as the lone select item."""


@dataclass(frozen=True)
class BinaryOp:
    op: str  # + - * / = <> < <= > >= AND OR
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp:
    op: str  # NOT, -
    operand: Expr


@dataclass(frozen=True)
class FuncCall:
    name: str  # lower-cased
    args: tuple
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS


@dataclass(frozen=True)
class CaseExpr:
    whens: tuple  # tuple[(condition, result), ...]
    else_result: Optional[Expr] = None


@dataclass(frozen=True)
class LikeExpr:
    operand: Expr
    pattern: str
    negated: bool = False


@dataclass(frozen=True)
class InList:
    operand: Expr
    items: tuple
    negated: bool = False


@dataclass(frozen=True)
class Between:
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNull:
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class Exists:
    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is referred to by in the query."""
        return self.alias or self.name


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass
class Select:
    items: list[SelectItem] = field(default_factory=list)
    tables: list[TableRef] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    #: number of ``?`` placeholders and the binding they share (set by
    #: the parser on the statement's top-level Select).
    param_count: int = 0
    binding: Optional[ParamBinding] = None


@dataclass(frozen=True)
class Explain:
    """``EXPLAIN <select>``: plan the query, emit the plan, run nothing."""

    select: "Select"

    @property
    def param_count(self) -> int:
        return self.select.param_count

    @property
    def binding(self) -> Optional[ParamBinding]:
        return self.select.binding


# ---------------------------------------------------------------------------
# DDL statements (CREATE/DROP/SHOW/DESCRIBE) — executed against the
# catalog through the format-adapter registry, never planned.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnDef:
    """One declared column of ``CREATE TABLE``: the parser resolves the
    SQL type name (with args) to a :class:`~repro.sql.datatypes.
    DataType` eagerly so bad types fail with a token position."""

    name: str
    dtype: object  # DataType
    nullable: bool = True


@dataclass
class CreateTable:
    """``CREATE [EXTERNAL] TABLE t (cols...) USING fmt OPTIONS (...)``.

    ``format`` is None when ``USING`` was omitted (the registry sniffs
    it from the path's extension). ``schema`` is the programmatic
    channel for a prebuilt :class:`~repro.sql.catalog.Schema` that
    bypasses ``columns``: CTAS passes its result schema and
    ``LoadedDBMS.load_csv`` the schema it was handed.
    """

    name: str
    columns: tuple = ()
    format: Optional[str] = None
    options: dict = field(default_factory=dict)
    external: bool = False
    schema: object | None = None
    #: ``IF NOT EXISTS``: an existing name is a no-op, not an error
    if_not_exists: bool = False
    #: ``CREATE TABLE t AS SELECT ...`` — the materializing query; when
    #: set, ``columns``/``format``/``options`` stay empty and the table
    #: is loaded through the heap adapter from the query's result.
    as_select: Optional["Select"] = None


@dataclass(frozen=True)
class DropTable:
    """``DROP TABLE t``: unregister + tear down auxiliary structures."""

    name: str
    #: ``IF EXISTS``: a missing name is a no-op, not an error
    if_exists: bool = False


@dataclass(frozen=True)
class AlterTableRename:
    """``ALTER TABLE t RENAME TO u``: re-key the catalog entry."""

    name: str
    new_name: str
    #: ``IF EXISTS``: a missing name is a no-op, not an error
    if_exists: bool = False


@dataclass(frozen=True)
class CreateRollup:
    """``CREATE ROLLUP r ON t (dims...) AGG (aggs...)``.

    ``dims`` are column names; ``aggs`` are the parsed aggregate
    :class:`FuncCall` expressions (``sum(x)``, ``count(*)``, ...)."""

    name: str
    table: str
    dims: tuple  # tuple[str, ...]
    aggs: tuple  # tuple[FuncCall, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropRollup:
    """``DROP ROLLUP r``: unregister + drop the materialized heap."""

    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class ShowTables:
    """``SHOW TABLES``: one row per registered table."""


@dataclass(frozen=True)
class DescribeTable:
    """``DESCRIBE t``: one row per column of the table's schema."""

    name: str


#: every DDL statement kind the dispatcher recognizes
DDL_NODES = (CreateTable, DropTable, ShowTables, DescribeTable,
             AlterTableRename, CreateRollup, DropRollup)

Statement = Union["Select", "Explain", CreateTable, DropTable,
                  ShowTables, DescribeTable, AlterTableRename,
                  CreateRollup, DropRollup]


def is_ddl(statement) -> bool:
    """True for catalog statements (everything but SELECT/EXPLAIN)."""
    return isinstance(statement, DDL_NODES)
