"""Differential tests: PostgresRaw, LoadedDBMS and ExternalFilesDBMS
must return identical result sets for every query — the engine
equivalence invariant."""

import random

import pytest

from repro import (
    DBMS_X_PROFILE,
    ExternalFilesDBMS,
    LoadedDBMS,
    MYSQL_PROFILE,
    PostgresRaw,
    VirtualFS,
)
from repro.workloads.micro import generate_micro_csv, micro_schema
from repro.workloads.queries import (
    random_projection_query,
    selectivity_query,
)

from conftest import create_table

ROWS = 400
ATTRS = 10


@pytest.fixture(scope="module")
def engines():
    vfs = VirtualFS()
    schema = generate_micro_csv(vfs, "m.csv", ROWS, ATTRS, seed=42)
    raw = PostgresRaw(vfs=vfs)
    create_table(raw, "m", "m.csv", schema)
    postgres = LoadedDBMS(vfs=vfs)
    postgres.load_csv("m", "m.csv", schema)
    dbms_x = LoadedDBMS(profile=DBMS_X_PROFILE, vfs=vfs)
    dbms_x.load_csv("m", "m.csv", schema)
    mysql = LoadedDBMS(profile=MYSQL_PROFILE, vfs=vfs)
    mysql.load_csv("m", "m.csv", schema)
    external = ExternalFilesDBMS(vfs=vfs)
    create_table(external, "m", "m.csv", schema)
    return [raw, postgres, dbms_x, mysql, external]


def assert_all_agree(engines, sql):
    results = [sorted(map(repr, engine.query(sql).rows))
               for engine in engines]
    for engine, result in zip(engines[1:], results[1:]):
        assert result == results[0], f"{engine.name} diverged on {sql!r}"


class TestDifferential:
    def test_random_projections(self, engines):
        rng = random.Random(1)
        for _ in range(5):
            sql = random_projection_query(rng, "m", ATTRS, 3)
            assert_all_agree(engines, sql)

    @pytest.mark.parametrize("selectivity", [1.0, 0.5, 0.1, 0.01, 0.0])
    def test_selectivity_sweep(self, engines, selectivity):
        assert_all_agree(engines,
                         selectivity_query("m", ATTRS, selectivity, 0.5))

    @pytest.mark.parametrize("projectivity", [1.0, 0.5, 0.1])
    def test_projectivity_sweep(self, engines, projectivity):
        assert_all_agree(engines,
                         selectivity_query("m", ATTRS, 0.8, projectivity))

    def test_group_by(self, engines):
        assert_all_agree(
            engines,
            "SELECT a1 - a1 + a2, count(*), min(a3) FROM m "
            "GROUP BY a1 - a1 + a2")

    def test_order_by_limit(self, engines):
        # LIMIT needs a total order to be deterministic: a1 may repeat,
        # so break ties with a2 (values are random ints; collisions of
        # the *pair* are vanishingly unlikely but sort both anyway).
        assert_all_agree(engines,
                         "SELECT a1, a2 FROM m ORDER BY a1, a2 LIMIT 17")

    def test_repeat_queries_stay_consistent(self, engines):
        # Warm structures (PM, cache, buffer pools) must not change
        # answers.
        sql = selectivity_query("m", ATTRS, 0.3, 0.3)
        for _ in range(3):
            assert_all_agree(engines, sql)

    def test_complex_predicate(self, engines):
        assert_all_agree(
            engines,
            "SELECT a2 FROM m WHERE (a1 < 500000000 AND a3 > 100000000) "
            "OR a4 BETWEEN 200000000 AND 300000000")

    def test_aggregates_on_empty_selection(self, engines):
        assert_all_agree(
            engines,
            "SELECT count(*), sum(a1), avg(a2), min(a3), max(a4) "
            "FROM m WHERE a1 < 0")

    def test_case_projection(self, engines):
        assert_all_agree(
            engines,
            "SELECT sum(CASE WHEN a1 < 500000000 THEN 1 ELSE 0 END) FROM m")
