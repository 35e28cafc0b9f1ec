"""DDL execution: catalog statements through the format registry.

``CREATE [EXTERNAL] TABLE`` is the paper's §3.1 "declare the schema and
mark the table as in situ" step as real SQL: the format adapter
resolved from ``USING <format>`` (or sniffed from the path) validates
the options, supplies or checks the schema, and constructs the access
method — including auxiliary-structure wiring. Engines contribute no
format knowledge; they differ only in the policy attributes the
adapters consult (see :mod:`repro.formats.registry`), which is exactly
the paper's experimental control.

``CREATE TABLE ... AS SELECT`` runs the query through the normal
planner (it may itself be routed to a rollup) and materializes the
result through the ``heap`` adapter's row channel — an instant
materialized view of raw files. ``CREATE ROLLUP`` builds a
dimension/aggregate summary the query router can probe; ``DROP TABLE``
cascades to the table's rollups.

Every statement returns ``(columns, rows)`` so DDL and SELECT flow
through one result shape in both :meth:`repro.engines.base.Database.
query` and the session/cursor path.
"""

from __future__ import annotations

import datetime

from repro.errors import CatalogError, ExecutionError
from repro.formats.partitioned import maybe_wrap_partitioned
from repro.formats.registry import FormatAdapter, get_format, sniff_format
from repro.sql.ast_nodes import (
    AlterTableRename,
    ColumnRef,
    CreateRollup,
    CreateTable,
    DescribeTable,
    DropRollup,
    DropTable,
    FuncCall,
    Literal,
    ShowTables,
)
from repro.sql.catalog import Column, Schema, TableInfo
from repro.sql.datatypes import BIGINT, BOOLEAN, DATE, FLOAT, varchar

Result = tuple[list[str], list[tuple]]


def execute_ddl(engine, statement) -> Result:
    """Run one DDL statement against ``engine``'s catalog."""
    if isinstance(statement, CreateTable):
        if statement.as_select is not None:
            return _create_as_select(engine, statement)
        return _create_table(engine, statement)
    if isinstance(statement, DropTable):
        return _drop_table(engine, statement)
    if isinstance(statement, AlterTableRename):
        return _alter_rename(engine, statement)
    if isinstance(statement, CreateRollup):
        return _create_rollup(engine, statement)
    if isinstance(statement, DropRollup):
        return _drop_rollup(engine, statement)
    if isinstance(statement, ShowTables):
        return _show_tables(engine)
    if isinstance(statement, DescribeTable):
        return _describe(engine, statement)
    raise ExecutionError(
        f"not a DDL statement: {type(statement).__name__}")


def _create_table(engine, statement: CreateTable) -> Result:
    if engine.catalog.has(statement.name):
        if statement.if_not_exists:
            return ["status"], [
                (f"CREATE TABLE {statement.name} skipped (exists)",)]
        # Fail before any auxiliary structure is built or file loaded.
        raise CatalogError(
            f"table already registered: {statement.name!r}")
    path = statement.options.get("path", "")
    if statement.format is not None:
        adapter = get_format(statement.format)
    else:
        adapter = sniff_format(path if isinstance(path, str) else "")
    # A glob path (or partition_by) turns any raw format into a
    # partitioned table: the wrapper binds one child access per file
    # through the adapter resolved above.
    adapter = maybe_wrap_partitioned(adapter, statement.options)
    options = adapter.validate_options(engine, dict(statement.options))

    if statement.schema is not None:  # register_* shim channel
        schema = statement.schema
    elif statement.columns:
        schema = Schema([Column(col.name, col.dtype, col.nullable)
                         for col in statement.columns])
    else:
        schema = adapter.infer_schema(engine, options)
        if schema is None:
            raise CatalogError(
                f"format {adapter.name!r} cannot infer a schema from "
                f"{options.get('path')!r}; declare the columns in "
                "CREATE TABLE (§3.1: the schema is a priori knowledge)")
    if statement.columns or statement.schema is not None:
        adapter.check_schema(engine, schema, options)

    info = TableInfo(name=statement.name, schema=schema,
                     path=options.get("path", ""), format=adapter.name,
                     options=options, external=statement.external)
    info.access = adapter.build_access(engine, info, options)
    engine.catalog.register(info)
    return ["status"], [(f"CREATE TABLE {statement.name}",)]


# ---------------------------------------------------------------------------
# CREATE TABLE ... AS SELECT
# ---------------------------------------------------------------------------
def _create_as_select(engine, statement: CreateTable) -> Result:
    if engine.catalog.has(statement.name):
        if statement.if_not_exists:
            return ["status"], [
                (f"CREATE TABLE {statement.name} skipped (exists)",)]
        raise CatalogError(
            f"table already registered: {statement.name!r}")
    from repro.sql.batch import batches_to_rows
    from repro.sql.executor import execute_batches

    select = statement.as_select
    # Let access methods notice external file updates (§4.5), then plan
    # through the normal path — the materializing query may itself be
    # routed to a rollup.
    engine.refresh_for(select)
    planned = engine.plan_select(select)
    rows = list(batches_to_rows(execute_batches(planned)))
    schema = _result_schema(engine, planned.names, rows, select)
    synthetic = CreateTable(name=statement.name, format="heap",
                            options={"_rows": rows}, schema=schema)
    _create_table(engine, synthetic)
    return ["status"], [
        (f"CREATE TABLE {statement.name} AS SELECT ({len(rows)} rows)",)]


def _result_schema(engine, names, rows, select) -> Schema:
    columns = []
    for index, name in enumerate(names):
        values = [row[index] for row in rows]
        dtype = _dtype_of_values(values)
        if dtype is None:
            dtype = _dtype_of_expr(engine, select, index)
        columns.append(Column(name, dtype))
    try:
        return Schema(columns)
    except CatalogError as exc:
        raise CatalogError(
            f"CTAS result columns must have distinct names "
            f"({names}); add aliases — {exc}") from exc


def _dtype_of_values(values):
    """Value-based CTAS column typing; None when no non-NULL value
    exists to look at (fall back to the expression)."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    if all(isinstance(v, bool) for v in present):
        return BOOLEAN
    if all(isinstance(v, int) and not isinstance(v, bool)
           for v in present):
        return BIGINT
    if all(isinstance(v, (int, float)) and not isinstance(v, bool)
           for v in present):
        return FLOAT
    if all(isinstance(v, datetime.date) for v in present):
        return DATE
    if all(isinstance(v, str) for v in present):
        return varchar()
    raise CatalogError(
        "CTAS cannot infer a single column type from mixed values; "
        "cast or restructure the query")


def _dtype_of_expr(engine, select, index):
    """Expression-based fallback for all-NULL/empty CTAS columns."""
    if index < len(select.items):
        expr = select.items[index].expr
        if isinstance(expr, FuncCall) and expr.name == "count":
            return BIGINT
        if isinstance(expr, FuncCall) and expr.name == "avg":
            return FLOAT
        target = expr
        if isinstance(expr, FuncCall) and \
                expr.name in ("sum", "min", "max") and expr.args and \
                isinstance(expr.args[0], ColumnRef):
            target = expr.args[0]
        if isinstance(target, ColumnRef):
            name = target.name.lower()
            for ref in select.tables:
                if engine.catalog.has(ref.name):
                    schema = engine.catalog.get(ref.name).schema
                    if schema.has_column(name):
                        dtype = schema.column(name).dtype
                        if isinstance(expr, FuncCall) and \
                                expr.name == "sum":
                            return (BIGINT if dtype.family == "int"
                                    else FLOAT)
                        return dtype
        if isinstance(target, Literal):
            dtype = _dtype_of_values([target.value])
            if dtype is not None:
                return dtype
    return varchar()


def teardown_table(engine, info) -> None:
    """Release one table's auxiliary state through the format adapter
    that built it (the base adapter's generic teardown for a table
    registered outside the registry). Used by DROP TABLE and by
    ``PostgresRaw.close()``, after which a still-registered table
    rebuilds its structures on its next scan."""
    try:
        adapter = get_format(info.format) if info.format else None
    except CatalogError:
        adapter = None
    (adapter or FormatAdapter()).teardown(engine, info)


def _drop_table(engine, statement: DropTable) -> Result:
    """Unregister + tear down. Like unlinking an open file, DROP does
    not wait for in-flight queries: a live scan that was reading the
    raw file directly (cold) streams its remaining rows; one that was
    navigating the positional map fails cleanly on its next fetch
    (``ExecutionError``/``OperationalError`` advising a re-run). Drop
    when the table is quiescent to avoid either."""
    if statement.if_exists and not engine.catalog.has(statement.name):
        return ["status"], [
            (f"DROP TABLE {statement.name} skipped (absent)",)]
    info = engine.catalog.get(statement.name)
    teardown_table(engine, info)
    # Dropping the source invalidates its rollups for good (a future
    # table under the same name is a different table): cascade.
    rollups = getattr(engine, "rollups", None)
    if rollups is not None:
        from repro.rollup.builder import drop_storage

        for rollup in rollups.drop_for_source(info):
            drop_storage(engine, rollup)
    # Unbind so any still-cached plan node holding this TableInfo fails
    # loudly instead of silently scanning a torn-down access method.
    info.access = None
    engine.catalog.drop(statement.name)
    return ["status"], [(f"DROP TABLE {statement.name}",)]


def _alter_rename(engine, statement: AlterTableRename) -> Result:
    if statement.if_exists and not engine.catalog.has(statement.name):
        return ["status"], [
            (f"ALTER TABLE {statement.name} skipped (absent)",)]
    engine.catalog.rename(statement.name, statement.new_name)
    return ["status"], [
        (f"ALTER TABLE {statement.name} RENAME TO "
         f"{statement.new_name}",)]


# ---------------------------------------------------------------------------
# CREATE/DROP ROLLUP
# ---------------------------------------------------------------------------
def _create_rollup(engine, statement: CreateRollup) -> Result:
    if engine.rollups.has(statement.name):
        if statement.if_not_exists:
            return ["status"], [
                (f"CREATE ROLLUP {statement.name} skipped (exists)",)]
        raise CatalogError(
            f"rollup already registered: {statement.name!r}")
    from repro.rollup.builder import build_rollup

    source = engine.catalog.get(statement.table)
    rollup = build_rollup(engine, statement.name, source,
                          statement.dims, statement.aggs)
    engine.rollups.register(rollup)
    # Cached aggregate plans must get a chance to re-route.
    engine.catalog.bump_epoch()
    return ["status"], [
        (f"CREATE ROLLUP {statement.name} ON {source.name} "
         f"({rollup.row_count} rows)",)]


def _drop_rollup(engine, statement: DropRollup) -> Result:
    if statement.if_exists and not engine.rollups.has(statement.name):
        return ["status"], [
            (f"DROP ROLLUP {statement.name} skipped (absent)",)]
    from repro.rollup.builder import drop_storage

    rollup = engine.rollups.drop(statement.name)
    drop_storage(engine, rollup)
    engine.catalog.bump_epoch()
    return ["status"], [(f"DROP ROLLUP {statement.name}",)]


def _show_tables(engine) -> Result:
    rows = [(info.name, info.format or "?", info.schema.arity, info.path)
            for info in sorted(engine.catalog.tables(),
                               key=lambda info: info.name.lower())]
    return ["table", "format", "columns", "path"], rows


def _describe(engine, statement: DescribeTable) -> Result:
    info = engine.catalog.get(statement.name)
    rows = [(column.name, column.dtype.name,
             "YES" if column.nullable else "NO")
            for column in info.schema]
    return ["column", "type", "nullable"], rows
