"""Coverage for remaining seams: executor results, engine base helpers,
workload generators, and a cross-engine SQL property test."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    LoadedDBMS,
    PostgresRaw,
    QueryResult,
    Schema,
    VirtualFS,
)
from repro.formats.fits import BLOCK, parse_fits, write_bintable
from repro.workloads.micro import generate_micro_csv, micro_schema
from repro.workloads.queries import (
    epoch_queries,
    projectivity_query,
    random_projection_query,
    selectivity_query,
)

from conftest import create_table


class TestQueryResult:
    def test_scalar_requires_1x1(self):
        result = QueryResult(columns=["a", "b"], rows=[(1, 2)])
        with pytest.raises(ValueError):
            result.scalar()
        result = QueryResult(columns=["a"], rows=[(1,), (2,)])
        with pytest.raises(ValueError):
            result.scalar()

    def test_column_unknown_name(self):
        result = QueryResult(columns=["a"], rows=[(1,)])
        with pytest.raises(ValueError):
            result.column("zz")

    def test_iteration_and_len(self):
        result = QueryResult(columns=["a"], rows=[(1,), (2,)])
        assert list(result) == [(1,), (2,)]
        assert len(result) == 2


class TestEngineBaseHelpers:
    def test_tables_of_includes_exists_subqueries(self, people_vfs):
        db = PostgresRaw(vfs=people_vfs)
        create_table(db, "people", "people.csv", Schema(
            [("id", __import__("repro").INTEGER)]))
        from repro.sql.parser import parse
        select = parse(
            "SELECT id FROM people WHERE EXISTS "
            "(SELECT * FROM other WHERE x = id)")
        names = db._tables_of(select)
        assert "people" in names and "other" in names

    def test_counters_returns_plain_dict(self, people_raw):
        people_raw.query("SELECT name FROM people")
        counters = people_raw.counters()
        assert isinstance(counters, dict)
        assert counters.get("tuple_overhead", 0) >= 5


class TestWorkloadGenerators:
    def test_random_projection_respects_region(self):
        rng = random.Random(0)
        for _ in range(20):
            sql = random_projection_query(rng, "t", 100, 4, lo=10, hi=20)
            cols = sql.split("SELECT ")[1].split(" FROM")[0].split(", ")
            assert all(10 <= int(c[1:]) <= 20 for c in cols)
            assert len(set(cols)) == 4

    def test_selectivity_query_threshold(self):
        sql = selectivity_query("t", 10, 0.25, 0.5)
        assert "WHERE a1 < 250000000" in sql
        assert sql.count("sum(") == 5

    def test_projectivity_query_width(self):
        sql = projectivity_query("t", 20, 0.1)
        assert sql.count("sum(") == 2

    def test_epoch_queries_deterministic(self):
        first = epoch_queries("t", 50, [(1, 10), (11, 20)], 5, 3, seed=1)
        second = epoch_queries("t", 50, [(1, 10), (11, 20)], 5, 3, seed=1)
        assert first == second
        assert len(first) == 10

    def test_micro_generator_deterministic(self):
        a, b = VirtualFS(), VirtualFS()
        generate_micro_csv(a, "x.csv", 50, 5, seed=3)
        generate_micro_csv(b, "x.csv", 50, 5, seed=3)
        assert a.read_bytes("x.csv") == b.read_bytes("x.csv")
        generate_micro_csv(b, "x.csv", 50, 5, seed=4)
        assert a.read_bytes("x.csv") != b.read_bytes("x.csv")

    def test_zero_rows(self):
        vfs = VirtualFS()
        generate_micro_csv(vfs, "x.csv", 0, 5)
        assert vfs.read_bytes("x.csv") == b""


class TestFitsHeaderEdges:
    def test_header_spanning_multiple_blocks(self):
        # >36 cards forces a 2-block extension header.
        names = [f"col_{i}" for i in range(40)]
        tforms = ["J"] * 40
        rows = [tuple(range(40))]
        data = write_bintable(names, tforms, rows)
        info = parse_fits(data)
        assert len(info.columns) == 40
        assert info.nrows == 1
        assert len(data) % BLOCK == 0

    def test_empty_table(self):
        info = parse_fits(write_bintable(["x"], ["J"], []))
        assert info.nrows == 0


# ---------------------------------------------------------------------------
# Cross-engine SQL property test
# ---------------------------------------------------------------------------
N_ATTRS = 5


def build_pair(rows):
    vfs = VirtualFS()
    payload = "\n".join(",".join(map(str, row)) for row in rows)
    vfs.create("p.csv", (payload + "\n").encode())
    schema = micro_schema(N_ATTRS)
    raw = PostgresRaw(vfs=vfs)
    create_table(raw, "p", "p.csv", schema)
    loaded = LoadedDBMS(vfs=vfs)
    loaded.load_csv("p", "p.csv", schema)
    return raw, loaded


sql_query = st.builds(
    lambda cols, agg, where_attr, threshold, order: (
        "SELECT "
        + (", ".join(f"a{c + 1}" for c in cols) if not agg
           else ", ".join(f"sum(a{c + 1})" for c in cols))
        + " FROM p"
        + (f" WHERE a{where_attr + 1} < {threshold}"
           if where_attr is not None else "")
    ),
    cols=st.lists(st.integers(0, N_ATTRS - 1), min_size=1, max_size=3,
                  unique=True),
    agg=st.booleans(),
    where_attr=st.one_of(st.none(), st.integers(0, N_ATTRS - 1)),
    threshold=st.integers(0, 100),
    order=st.booleans(),
)


class TestSQLDifferentialProperty:
    @given(st.lists(st.lists(st.integers(0, 99), min_size=N_ATTRS,
                             max_size=N_ATTRS), min_size=1, max_size=25),
           st.lists(sql_query, min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_raw_and_loaded_agree_on_random_sql(self, rows, queries):
        raw, loaded = build_pair(rows)
        for sql in queries:
            raw_rows = sorted(map(repr, raw.query(sql).rows))
            loaded_rows = sorted(map(repr, loaded.query(sql).rows))
            assert raw_rows == loaded_rows, sql
