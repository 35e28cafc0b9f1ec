"""Tests for the planner's plan shapes and operator semantics."""

import pytest

from repro import (
    INTEGER,
    LoadedDBMS,
    PostgresRaw,
    Schema,
    VirtualFS,
    varchar,
)
from repro.errors import PlanningError
from repro.simcost.clock import CostEvent

from conftest import create_table


@pytest.fixture
def db():
    vfs = VirtualFS()
    vfs.create("orders.csv",
               b"1,100,a\n2,200,b\n3,150,a\n4,300,c\n5,50,b\n")
    vfs.create("customers.csv", b"a,usa\nb,france\nc,japan\n")
    engine = PostgresRaw(vfs=vfs)
    create_table(
        engine, "orders", "orders.csv",
        Schema([("o_id", INTEGER), ("amount", INTEGER),
                ("cust", varchar())]))
    create_table(
        engine, "customers", "customers.csv",
        Schema([("c_id", varchar()), ("country", varchar())]))
    return engine


def op_names(plan):
    names = []
    node = plan
    while node:
        names.append(node["op"])
        node = (node.get("input") or node.get("left")
                or node.get("outer"))
    return names


class TestPlanShapes:
    def test_pushdown_reaches_scan(self, db):
        plan = db.explain("SELECT o_id FROM orders WHERE amount > 100 "
                          "AND cust = 'a'")
        scan = plan["input"]
        assert scan["op"] == "Scan"
        assert scan["pushed_predicates"] == 2

    def test_join_predicate_becomes_hash_join(self, db):
        plan = db.explain(
            "SELECT o_id FROM orders, customers WHERE cust = c_id")
        assert "HashJoin" in op_names(plan)
        assert "NestedLoopJoin" not in op_names(plan)

    def test_cross_join_without_edge(self, db):
        plan = db.explain("SELECT o_id FROM orders, customers")
        assert "NestedLoopJoin" in op_names(plan)

    def test_residual_multi_table_predicate_filters_after_join(self, db):
        plan = db.explain(
            "SELECT o_id FROM orders, customers "
            "WHERE cust = c_id AND (amount > 100 OR country = 'usa')")
        assert "Filter" in op_names(plan)

    def test_exists_becomes_semijoin(self, db):
        plan = db.explain(
            "SELECT c_id FROM customers WHERE EXISTS "
            "(SELECT * FROM orders WHERE cust = c_id)")
        assert "HashSemiJoin" in op_names(plan)

    def test_aggregate_and_sort_and_limit(self, db):
        plan = db.explain(
            "SELECT cust, sum(amount) AS total FROM orders "
            "GROUP BY cust ORDER BY total DESC LIMIT 2")
        names = op_names(plan)
        assert names[0] == "Limit"
        assert "Aggregate" in names
        assert "Sort" in names

    def test_having_adds_filter(self, db):
        plan = db.explain(
            "SELECT cust, count(*) FROM orders GROUP BY cust "
            "HAVING count(*) > 1")
        assert "Having" in op_names(plan)

    def test_scan_column_pruning(self, db):
        plan = db.explain("SELECT o_id FROM orders WHERE amount > 100")
        scan = plan["input"]
        # Only o_id is in the scan output; amount lives in the pushed
        # predicate, not the output.
        assert scan["columns"] == 1

    def test_ambiguous_column_rejected(self, db):
        db.vfs.create("dup.csv", b"1,2\n")
        create_table(db, "dup", "dup.csv",
                     Schema([("o_id", INTEGER), ("x", INTEGER)]))
        with pytest.raises(PlanningError):
            db.query("SELECT o_id FROM orders, dup")

    def test_duplicate_binding_rejected(self, db):
        with pytest.raises(PlanningError):
            db.query("SELECT 1 FROM orders, orders")

    def test_correlated_ref_outside_exists_rejected(self, db):
        with pytest.raises(PlanningError):
            db.query("SELECT country FROM orders")

    def test_uncorrelated_exists_rejected(self, db):
        with pytest.raises(PlanningError):
            db.query("SELECT o_id FROM orders WHERE EXISTS "
                     "(SELECT * FROM customers WHERE c_id = 'a')")

    def test_nonequality_correlation_rejected(self, db):
        with pytest.raises(PlanningError):
            db.query("SELECT c_id FROM customers WHERE EXISTS "
                     "(SELECT * FROM orders WHERE cust > c_id)")

    def test_constant_false_where_yields_empty(self, db):
        result = db.query("SELECT o_id FROM orders WHERE 1 = 2")
        assert result.rows == []

    def test_constant_true_where_is_noop(self, db):
        result = db.query("SELECT o_id FROM orders WHERE 1 = 1")
        assert len(result) == 5


class TestOperatorSemantics:
    def test_join_output(self, db):
        result = db.query(
            "SELECT o_id, country FROM orders, customers "
            "WHERE cust = c_id ORDER BY o_id")
        assert result.rows == [
            (1, "usa"), (2, "france"), (3, "usa"), (4, "japan"),
            (5, "france")]

    def test_join_with_nulls_never_matches(self, db):
        db.vfs.create("n.csv", b"1,\n2,a\n")
        create_table(db, "n", "n.csv",
                     Schema([("k", INTEGER), ("ref", varchar())]))
        result = db.query(
            "SELECT k FROM n, customers WHERE ref = c_id")
        assert result.rows == [(2,)]

    def test_group_by_expression(self, db):
        result = db.query(
            "SELECT amount / 100, count(*) FROM orders "
            "GROUP BY amount / 100 ORDER BY amount / 100")
        # amounts 100,200,150,300,50 -> /100 (float): all distinct groups
        assert result.rows == [(0.5, 1), (1.0, 1), (1.5, 1), (2.0, 1),
                               (3.0, 1)]

    def test_order_by_nulls_last_asc(self, db):
        db.vfs.create("nv.csv", b"1,\n2,5\n3,2\n")
        create_table(db, "nv", "nv.csv",
                     Schema([("k", INTEGER), ("v", INTEGER)]))
        result = db.query("SELECT k FROM nv ORDER BY v")
        assert result.column("k") == [3, 2, 1]

    def test_order_by_desc_nulls_first(self, db):
        db.vfs.create("nv2.csv", b"1,\n2,5\n3,2\n")
        create_table(db, "nv2", "nv2.csv",
                     Schema([("k", INTEGER), ("v", INTEGER)]))
        result = db.query("SELECT k FROM nv2 ORDER BY v DESC")
        assert result.column("k") == [1, 2, 3]

    def test_limit_zero(self, db):
        assert db.query("SELECT o_id FROM orders LIMIT 0").rows == []

    def test_count_distinct(self, db):
        result = db.query("SELECT count(DISTINCT cust) FROM orders")
        assert result.scalar() == 3

    def test_sum_of_empty_group_is_null(self, db):
        result = db.query(
            "SELECT sum(amount), count(*) FROM orders WHERE amount > 999")
        assert result.rows == [(None, 0)]

    def test_avg_ignores_nulls(self, db):
        db.vfs.create("av.csv", b"1,10\n2,\n3,20\n")
        create_table(db, "av", "av.csv",
                     Schema([("k", INTEGER), ("v", INTEGER)]))
        result = db.query("SELECT avg(v), count(v), count(*) FROM av")
        assert result.rows == [(15.0, 2, 3)]

    def test_min_max_on_strings(self, db):
        result = db.query("SELECT min(cust), max(cust) FROM orders")
        assert result.rows == [("a", "c")]

    def test_multi_key_sort_mixed_direction(self, db):
        result = db.query(
            "SELECT cust, amount FROM orders ORDER BY cust ASC, "
            "amount DESC")
        assert result.rows == [
            ("a", 150), ("a", 100), ("b", 200), ("b", 50), ("c", 300)]


class TestCostCharging:
    def test_sort_charges_compares(self, db):
        db.query("SELECT o_id FROM orders ORDER BY amount")
        assert db.model.count(CostEvent.SORT_COMPARE) > 0

    def test_hash_join_charges_probes(self, db):
        db.query("SELECT o_id FROM orders, customers WHERE cust = c_id")
        assert db.model.count(CostEvent.HASH_PROBE) >= 8

    def test_aggregate_charges_steps(self, db):
        db.query("SELECT sum(amount) FROM orders")
        assert db.model.count(CostEvent.AGGREGATE_STEP) == 5


class TestBuildSideChoice:
    def test_build_on_smaller_side(self):
        # 3-row customers should be the hash build side against 1000-row
        # orders, whichever order stats imply.
        vfs = VirtualFS()
        lines = [f"{i},{i % 3}".encode() for i in range(1000)]
        vfs.create("big.csv", b"\n".join(lines) + b"\n")
        vfs.create("small.csv", b"0,x\n1,y\n2,z\n")
        db = LoadedDBMS(vfs=vfs)
        db.load_csv("big", "big.csv",
                    Schema([("b_id", INTEGER), ("b_ref", INTEGER)]))
        db.load_csv("small", "small.csv",
                    Schema([("s_id", INTEGER), ("s_val", varchar())]))
        plan = db.explain(
            "SELECT b_id FROM big, small WHERE b_ref = s_id")
        def find(node, op):
            if node["op"] == op:
                return node
            for key in ("input", "left", "right", "outer", "inner"):
                if key in node:
                    found = find(node[key], op)
                    if found:
                        return found
            return None
        join = find(plan, "HashJoin")
        assert join is not None
        # The right (build) side scans the small table.
        assert join["right"]["table"] == "small"
        assert join["left"]["table"] == "big"
