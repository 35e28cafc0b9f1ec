"""Shared harness for the figure-reproduction benchmarks.

Every ``bench_figNN_*.py`` file reproduces one table/figure from the
paper's evaluation (§5–§6): it builds the figure's workload at laptop
scale, runs it on deterministic virtual time, prints the series next to
the paper's claim, and asserts the *shape* (who wins, by roughly what
factor, where crossovers fall); ``python -m pytest benchmarks -q -s``
prints them all. (Real wall clock is ``benchmarks/e2e``'s job — see its
README.)
"""

from __future__ import annotations

from repro import (
    CSV_ENGINE_PROFILE,
    DBMS_X_EXTERNAL_PROFILE,
    DBMS_X_PROFILE,
    MYSQL_PROFILE,
    ExternalFilesDBMS,
    LoadedDBMS,
    PostgresRaw,
    PostgresRawConfig,
    VirtualFS,
)
from repro.workloads.micro import generate_micro_csv, micro_schema
from repro.workloads.tpch import generate_tpch, tpch_schema


def header(figure: str, claim: str) -> None:
    print()
    print("=" * 72)
    print(f"{figure}")
    print(f"paper claim: {claim}")
    print("=" * 72)


def table(columns: list[str], rows: list[list]) -> None:
    widths = [max(len(str(col)), 12) for col in columns]
    print("  ".join(str(c).rjust(w) for c, w in zip(columns, widths)))
    for row in rows:
        cells = []
        for value, width in zip(row, widths):
            if isinstance(value, float):
                cells.append(f"{value:.4f}".rjust(width))
            else:
                cells.append(str(value).rjust(width))
        print("  ".join(cells))


def create_table(engine, name: str, path: str, schema=None,
                 fmt: str = "csv") -> None:
    """Declare ``name`` over the raw file at ``path`` as a user does
    (§3.1): ``CREATE TABLE name (...) USING fmt OPTIONS (path '...')``
    text, with the columns rendered from ``schema`` (None: the format
    reads them from the file, like FITS). It runs through
    ``engine.run_ddl``, so declaring a table charges no
    ``query_overhead`` to the figure's clock."""
    columns = ""
    if schema is not None:
        columns = " (" + ", ".join(f"{c.name} {c.dtype.name}"
                                   for c in schema.columns) + ")"
    engine.run_ddl(engine.parse_sql(
        f"CREATE TABLE {name}{columns} USING {fmt} "
        f"OPTIONS (path '{path}')"))


def micro_engine(vfs: VirtualFS, rows: int, nattrs: int,
                 config: PostgresRawConfig | None = None,
                 table_name: str = "m", path: str = "m.csv",
                 seed: int = 0) -> PostgresRaw:
    """A PostgresRaw over a fresh §5.1 micro file on ``vfs``."""
    if not vfs.exists(path):
        generate_micro_csv(vfs, path, rows, nattrs, seed=seed)
    engine = PostgresRaw(config=config, vfs=vfs)
    create_table(engine, table_name, path, micro_schema(nattrs))
    return engine


def loaded_engine(vfs: VirtualFS, nattrs: int, profile=None,
                  table_name: str = "m", path: str = "m.csv",
                  ) -> tuple[LoadedDBMS, float]:
    """A loaded comparator over the same file; returns (engine, load s)."""
    engine = (LoadedDBMS(profile=profile, vfs=vfs) if profile is not None
              else LoadedDBMS(vfs=vfs))
    load_seconds = engine.load_csv(table_name, path, micro_schema(nattrs))
    return engine, load_seconds


def external_engine(vfs: VirtualFS, nattrs: int, profile=CSV_ENGINE_PROFILE,
                    table_name: str = "m", path: str = "m.csv",
                    ) -> ExternalFilesDBMS:
    engine = ExternalFilesDBMS(profile=profile, vfs=vfs)
    create_table(engine, table_name, path, micro_schema(nattrs))
    return engine


def tpch_raw(vfs: VirtualFS, data, config: PostgresRawConfig | None = None,
             ) -> PostgresRaw:
    engine = PostgresRaw(config=config, vfs=vfs)
    for table, path in data.paths.items():
        create_table(engine, table, path, tpch_schema(table))
    return engine


def tpch_loaded(vfs: VirtualFS, data, profile=None,
                ) -> tuple[LoadedDBMS, float]:
    engine = (LoadedDBMS(profile=profile, vfs=vfs) if profile is not None
              else LoadedDBMS(vfs=vfs))
    load_seconds = sum(engine.load_csv(t, p, tpch_schema(t))
                       for t, p in data.paths.items())
    return engine, load_seconds


def build_tpch(scale_factor: float = 0.0008, seed: int = 0):
    vfs = VirtualFS()
    data = generate_tpch(vfs, scale_factor=scale_factor, seed=seed)
    return vfs, data


__all__ = [
    "header", "table", "micro_engine", "loaded_engine", "external_engine",
    "tpch_raw", "tpch_loaded", "build_tpch",
    "DBMS_X_PROFILE", "MYSQL_PROFILE", "CSV_ENGINE_PROFILE",
    "DBMS_X_EXTERNAL_PROFILE",
]
