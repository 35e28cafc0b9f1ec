"""Property-based differential tests for the in-situ scan.

The invariant: whatever sequence of queries runs (warming the map and
cache along the way), every scan's output equals a naive re-parse of
the raw file. This is the PM/cache correctness invariant under
adversarial workloads, checked against ground truth rather than
against another engine (the lockstep harness's job,
``tests/oracle/digest.py``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.scanapi import ScanPredicate
from repro.workloads.micro import micro_schema
from tests.oracle import scan_rows
from tests.oracle.digest import build_engine

N_ATTRS = 6
VALUE_MAX = 1000

rows_strategy = st.lists(
    st.lists(st.integers(0, VALUE_MAX - 1), min_size=N_ATTRS,
             max_size=N_ATTRS),
    min_size=1, max_size=40)

query_strategy = st.tuples(
    st.lists(st.integers(0, N_ATTRS - 1), min_size=1, max_size=4,
             unique=True),                       # projected attrs
    st.one_of(st.none(),
              st.tuples(st.integers(0, N_ATTRS - 1),
                        st.integers(0, VALUE_MAX))),  # optional a<t filter
)

workload_strategy = st.lists(query_strategy, min_size=1, max_size=6)


def access_of(rows, block_size, **config):
    """The engine over ``rows`` (statistics off) and its table's access
    method: an access method refers to its catalog entry weakly, so it
    scans only while its engine lives."""
    db = build_engine({"t": (micro_schema(N_ATTRS),
                             [[str(v) for v in row] for row in rows])},
                      row_block_size=block_size, enable_statistics=False,
                      **config)
    return db, db.catalog.get("t").access


def expected(rows, attrs, filt):
    out = []
    for row in rows:
        if filt is not None:
            attr, threshold = filt
            if not row[attr] < threshold:
                continue
        out.append(tuple(row[a] for a in attrs))
    return out


def run_workload(access, rows, workload):
    for attrs, filt in workload:
        predicate = None
        if filt is not None:
            attr, threshold = filt
            predicate = ScanPredicate(
                [attr], lambda v, a=attr, t=threshold: v[a] < t, 1)
        got = list(scan_rows(access, attrs, predicate))
        assert got == expected(rows, attrs, filt), (attrs, filt)


class TestScanDifferential:
    @given(rows_strategy, workload_strategy, st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_any_workload_matches_ground_truth(self, rows, workload,
                                               block_size):
        _db, access = access_of(rows, block_size)
        run_workload(access, rows, workload)

    @given(rows_strategy, workload_strategy)
    @settings(max_examples=25, deadline=None)
    def test_tight_budgets_never_corrupt_results(self, rows, workload):
        # Evictions (map and cache) may only cost time, never answers.
        _db, access = access_of(rows, 4, pm_budget_bytes=64,
                                cache_budget_bytes=64)
        run_workload(access, rows, workload)

    @given(rows_strategy, workload_strategy)
    @settings(max_examples=25, deadline=None)
    def test_baseline_mode_matches_ground_truth(self, rows, workload):
        _db, access = access_of(rows, 8, enable_positional_map=False,
                                enable_cache=False)
        run_workload(access, rows, workload)

    @given(rows_strategy, workload_strategy)
    @settings(max_examples=25, deadline=None)
    def test_cache_only_mode(self, rows, workload):
        _db, access = access_of(rows, 8, enable_positional_map=False)
        run_workload(access, rows, workload)

    @given(rows_strategy, workload_strategy)
    @settings(max_examples=25, deadline=None)
    def test_pm_only_mode(self, rows, workload):
        _db, access = access_of(rows, 8, enable_cache=False)
        run_workload(access, rows, workload)

    @given(rows_strategy, st.lists(st.integers(0, N_ATTRS - 1),
                                   min_size=1, max_size=3, unique=True),
           st.integers(1, 39))
    @settings(max_examples=25, deadline=None)
    def test_abandoned_generators_leave_consistent_state(self, rows, attrs,
                                                         stop_after):
        _db, access = access_of(rows, 4)
        gen = scan_rows(access, attrs, None)
        for _ in range(min(stop_after, len(rows))):
            try:
                next(gen)
            except StopIteration:
                break
        gen.close()
        got = list(scan_rows(access, attrs, None))
        assert got == expected(rows, attrs, None)
