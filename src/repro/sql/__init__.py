"""SQL substrate: lexer, parser, catalog, planner, optimizer, executor.

This package is the "rest of PostgreSQL" the paper keeps unchanged: a
declarative front end and a Volcano-style executor. Engines differ only
in the access method bound at plan leaves (raw scan, heap scan, external
scan), exactly as PostgresRaw overrides PostgreSQL's scan operator.
"""

from repro.sql.catalog import Catalog, Column, Schema, TableInfo
from repro.sql.datatypes import (
    BOOLEAN,
    DATE,
    FLOAT,
    INTEGER,
    DataType,
    Interval,
    char,
    decimal,
    type_from_sql,
    varchar,
)
from repro.sql.executor import QueryResult

__all__ = [
    "Catalog",
    "Schema",
    "Column",
    "TableInfo",
    "DataType",
    "Interval",
    "INTEGER",
    "FLOAT",
    "DATE",
    "BOOLEAN",
    "varchar",
    "char",
    "decimal",
    "type_from_sql",
    "QueryResult",
]
