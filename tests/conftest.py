"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import (
    INTEGER,
    FLOAT,
    DATE,
    LoadedDBMS,
    PostgresRaw,
    PostgresRawConfig,
    Schema,
    VirtualFS,
    varchar,
)
from repro.simcost.model import CostModel
from repro.workloads.micro import generate_micro_csv, micro_schema
from repro.workloads.tpch import generate_tpch, tpch_schema

PEOPLE_CSV = (
    b"1,alice,30,170.5,2001-05-20\n"
    b"2,bob,25,182.0,1998-11-02\n"
    b"3,carol,35,165.2,1990-01-15\n"
    b"4,dave,28,190.1,1996-07-30\n"
    b"5,erin,25,158.7,1999-03-08\n"
)


def people_schema() -> Schema:
    return Schema([
        ("id", INTEGER),
        ("name", varchar()),
        ("age", INTEGER),
        ("height", FLOAT),
        ("birth", DATE),
    ])


def create_table(engine, name: str, path: str, schema: Schema | None = None,
                 fmt: str = "csv"):
    """Declare ``name`` over the raw file at ``path`` as a user does
    (§3.1): ``CREATE TABLE name (...) USING fmt OPTIONS (path '...')``
    text, with the columns rendered from ``schema`` (None: the format
    reads them from the file, like FITS). It runs through
    ``engine.run_ddl``, so declaring a table charges no
    ``query_overhead``, unlike ``engine.query`` of the same text.
    Returns the catalog entry."""
    columns = ""
    if schema is not None:
        columns = " (" + ", ".join(f"{c.name} {c.dtype.name}"
                                   for c in schema.columns) + ")"
    engine.run_ddl(engine.parse_sql(
        f"CREATE TABLE {name}{columns} USING {fmt} "
        f"OPTIONS (path '{path}')"))
    return engine.catalog.get(name)


@pytest.fixture
def vfs() -> VirtualFS:
    return VirtualFS()


@pytest.fixture
def model() -> CostModel:
    return CostModel()


@pytest.fixture
def people_vfs() -> VirtualFS:
    fs = VirtualFS()
    fs.create("people.csv", PEOPLE_CSV)
    return fs


@pytest.fixture
def people_raw(people_vfs) -> PostgresRaw:
    db = PostgresRaw(vfs=people_vfs)
    create_table(db, "people", "people.csv", people_schema())
    return db


@pytest.fixture
def people_loaded(people_vfs) -> LoadedDBMS:
    db = LoadedDBMS(vfs=people_vfs)
    db.load_csv("people", "people.csv", people_schema())
    return db


@pytest.fixture
def micro_vfs() -> VirtualFS:
    """A small §5.1-style micro file: 600 rows x 20 int attributes."""
    fs = VirtualFS()
    generate_micro_csv(fs, "micro.csv", rows=600, nattrs=20, seed=7)
    return fs


@pytest.fixture
def micro_raw(micro_vfs) -> PostgresRaw:
    db = PostgresRaw(
        config=PostgresRawConfig(row_block_size=128), vfs=micro_vfs)
    create_table(db, "micro", "micro.csv", micro_schema(20))
    return db


@pytest.fixture(scope="session")
def tpch_tiny():
    """Session-scoped tiny TPC-H dataset (generation is the slow part)."""
    fs = VirtualFS()
    data = generate_tpch(fs, scale_factor=0.0004, seed=3)
    return fs, data


def fresh_raw_tpch(tpch_tiny, config: PostgresRawConfig | None = None,
                   engine=PostgresRaw) -> PostgresRaw:
    fs, data = tpch_tiny
    db = engine(config=config, vfs=fs)
    for table, path in data.paths.items():
        create_table(db, table, path, tpch_schema(table))
    return db


def fresh_loaded_tpch(tpch_tiny) -> LoadedDBMS:
    fs, data = tpch_tiny
    db = LoadedDBMS(vfs=fs)
    for table, path in data.paths.items():
        db.load_csv(table, path, tpch_schema(table))
    return db


# The lockstep harness's long run (CI's lockstep-soak job):
#     pytest tests/test_lockstep.py --hypothesis-profile=soak \
#         --hypothesis-seed=<fixed>
settings.register_profile("soak", max_examples=2000, deadline=None,
                          database=None)
