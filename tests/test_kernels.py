"""Scan kernels: differential fuzz + the per-scan decision.

The kernel path (``repro.kernels``) — the cached-block fast path of the
generic batch scan — must be *invisible* except in wall-clock time and
its own zero-priced counters. The contract under test:

* **On-vs-off parity** — identical result sequences, PM/cache dumps
  and LRU orders, every non-``kernel_*`` counter and the virtual clock,
  with 1 and 4 scan workers, over seeded random schemas/data/workloads
  (CSV) and JSONL tables — unbudgeted, and under cache / positional-map
  budgets small enough that evictions interleave with the fast path —
  through a session and through one-shot ``Database.query`` alike: the
  lockstep harness's ``kernels`` axis (``tests/oracle/digest.py``) on
  pinned scenarios.
* **One unit per block** — every indexed block offered to the fast
  path counts exactly one ``kernel_hits`` (served) or
  ``kernel_bailouts`` (probed and missed).
* **One group compute** — the streaming region has no kernel entry:
  a cold scan of any format runs ``BlockScan._compute_stream_group``.
* **Bailouts are per block** — unsupported block states (string
  columns on CSV, not-yet-cached columns) fall back to the generic
  code for that block only; results never change.
* **One decision per scan** — whoever starts the scan (session,
  ``Database.query``, a partitioned table's file) gets the same
  decision and the same static EXPLAIN row.
"""

import random

import pytest

import repro
from repro import INTEGER, PostgresRaw, PostgresRawConfig, Schema, VirtualFS
from repro.core.blockscan import BlockScan
from repro.formats.csvfmt import write_csv
from repro.formats.jsonl import write_jsonl
from tests.oracle.digest import (
    AXIS,
    PAIR_PREDICATES,
    PAIR_SCHEMA,
    Query,
    Scenario,
    Table,
    build_engine,
    check,
    digest,
    kernels_free,
    pair_table,
    seeded_scenario,
    worker_axes,
)

WORKER_COUNTS = (1, 4)
#: the two ways a query reaches the scan
ENTRIES = ("session", "query")

#: budget regimes the parity fuzz runs under: ``None`` is the
#: unbudgeted engine over random mixed-type tables; the rest run over
#: NULL-free numeric tables — so blocks actually commit — with budgets
#: that keep the cache (and map) evicting while the fast path runs.
PRESSURE = [
    None,
    dict(cache_budget_bytes=600, pm_budget_bytes=None,
         enable_statistics=True),
    dict(cache_budget_bytes=1500, pm_budget_bytes=800,
         enable_statistics=False),
    dict(cache_budget_bytes=4000, pm_budget_bytes=3000,
         enable_statistics=True),
    dict(cache_budget_bytes=4000, enable_positional_map=False,
         enable_statistics=False),
]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def kernel_pair(schema, rows, block_size=16, **config):
    """The same table, kernels on and kernels off."""
    return [build_engine({"t": (schema, rows)}, row_block_size=block_size,
                         scan_kernels=kernels, **config)
            for kernels in (True, False)]


def same_state(on, off) -> bool:
    return kernels_free(digest(on, ["t"])) == kernels_free(digest(off, ["t"]))


def count_kernel_attempts(monkeypatch) -> list:
    """Record every indexed block offered to the fast path."""
    attempts = []
    indexed_block = BlockScan._indexed_block

    def counting(scan, handle, block, row0, row1):
        if scan.kernel is not None:
            attempts.append(block)
        return indexed_block(scan, handle, block, row0, row1)

    monkeypatch.setattr(BlockScan, "_indexed_block", counting)
    return attempts


def kernel_counters(engine):
    return {k: v for k, v in engine.counters().items()
            if k.startswith("kernel_")}


def explain_kernel_lines(session, sql):
    cursor = session.execute("EXPLAIN " + sql)
    return [row[0] for row in cursor.fetchall()
            if row[0].startswith("kernel:")]


def assert_one_unit_per_block(runs, attempts, pressure):
    """Every block offered counts exactly one hit or one bailout, and
    kernels off count no kernel event. Under the roomiest budget a
    query's columns fit the cache, so the fast path must have committed
    some of them; under the tighter ones every block may bail — the
    all-bailout regime is their point."""
    default = PostgresRawConfig().scan_kernels
    final = {dict(variant.config).get("scan_kernels", default):
             {k: v for k, v in digests[-1]["counters"].items()
              if k.startswith("kernel_")}
             for variant, digests in runs.items()}
    assert final[False] == {}
    hits = final[True].get("kernel_hits", 0)
    assert hits + final[True].get("kernel_bailouts", 0) == len(attempts)
    if pressure is not None and pressure["cache_budget_bytes"] >= 4000:
        assert hits > 0


# ---------------------------------------------------------------------------
# Differential fuzz: kernels on vs off must be invisible
# ---------------------------------------------------------------------------
def pressure_workload(seed, pressure, entry, layout, block_size,
                      workers) -> Scenario:
    """The seed's table — random mixed types unbudgeted, NULL-free
    numeric under a budget — and five random statements, each run cold
    and twice warm through ``entry``."""
    return seeded_scenario(seed, 5, block_size, kind="random"
                           if pressure is None else "numeric",
                           layout=layout, entry=entry, repeat=3,
                           scan_workers=workers, **(pressure or {}))


class TestKernelDifferentialFuzz:
    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("pressure", PRESSURE)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", range(6))
    def test_csv_random_workloads_match(self, seed, workers, pressure,
                                        entry, monkeypatch):
        attempts = count_kernel_attempts(monkeypatch)
        runs = check(pressure_workload(72000 + seed, pressure, entry, "csv",
                                       [3, 8, 17, 64], workers),
                     [AXIS["kernels"]])
        assert_one_unit_per_block(runs, attempts, pressure)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_column_pair_and_like_predicates_match(self, workers,
                                                   monkeypatch):
        """Column-vs-column comparisons and LIKE masks are vectorized,
        so their scans are kernel-eligible: on-vs-off must stay
        invisible for them too (string columns and NULLs bail per
        block)."""
        attempts = count_kernel_attempts(monkeypatch)
        table = Table("t", "pair", 72500)
        queries = [f"SELECT x, d1, f2 FROM t WHERE {predicate}"
                   for predicate in PAIR_PREDICATES]
        runs = check(Scenario((table,), tuple(Query(sql, "session")
                                              for sql in queries
                                              for _ in range(2)),
                              (("row_block_size", 16),
                               ("scan_workers", workers))),
                     [AXIS["kernels"]])
        assert attempts
        assert_one_unit_per_block(runs, attempts, None)
        session = repro.connect(build_engine(
            {"t": table.generate()}, row_block_size=16, scan_kernels=True))
        for sql in queries:
            assert explain_kernel_lines(session, sql) == \
                ["kernel: cached-block [t]"], sql

    def test_ineligible_reason_names_the_offending_conjunct(self):
        engine = build_engine({"t": (PAIR_SCHEMA, pair_table(
            random.Random(1), 5))}, row_block_size=16, scan_kernels=True)
        lines = explain_kernel_lines(
            repro.connect(engine),
            "SELECT x FROM t WHERE i1 < i2 AND i1 + i2 > 3")
        assert lines == ["kernel: none (predicate not vectorizable: "
                         "((c:i1+c:i2)>lit)) [t]"]

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("pressure", PRESSURE)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_jsonl_workloads_match(self, workers, pressure, entry,
                                   monkeypatch):
        # Under a budget c is numeric and the table short: every column
        # can be served, and the roomiest budget holds a query's blocks.
        attempts = count_kernel_attempts(monkeypatch)
        table = Table("t", "abcd" if pressure is None else "abcd_numeric")
        queries = [
            "SELECT a, d FROM t WHERE b < 7",       # cold: streaming
            "SELECT c FROM t WHERE a >= 150",       # bail: a not cached
            "SELECT a, b, c, d FROM t",             # no predicate
            "SELECT sum(d) FROM t WHERE b = 3",     # aggregate above scan
        ]
        runs = check(Scenario((table,), tuple(Query(sql, entry)
                                              for sql in queries
                                              for _ in range(3)),
                              (("row_block_size", 32),
                               ("scan_workers", workers),
                               *(pressure or {}).items()), "jsonl"),
                     [AXIS["kernels"]])
        assert_one_unit_per_block(runs, attempts, pressure)

    def test_worker_counts_identical_with_kernels(self):
        """The kernel path preserves the worker-invariance contract: 1
        and 4 workers agree on everything, kernels on — the same blocks
        bail on both sides, so even ``kernel_*`` counters match."""
        check(seeded_scenario(9151, 4, 8, entry="session",
                              scan_kernels=True), worker_axes(1, 4))


# ---------------------------------------------------------------------------
# Bailouts: per-block fallback, never per query
# ---------------------------------------------------------------------------
class TestKernelBailouts:
    def test_uncached_where_column_bails_then_recovers(self):
        rows = [[str(i), str(i % 13), f"w{i % 5}"] for i in range(96)]
        schema = repro.Schema([("a", repro.INTEGER),
                               ("b", repro.INTEGER),
                               ("c", repro.varchar())])
        # Without §4.4 sampling every warm scan may probe: warm `a`
        # only; then the predicate on the uncached `b` must bail per
        # block on the first run and go fully fused on the second.
        on, off = kernel_pair(schema, rows, enable_statistics=False)
        s_on, s_off = repro.connect(on), repro.connect(off)
        for sql in ("SELECT a FROM t WHERE a < 40",
                    "SELECT a FROM t WHERE b = 3",
                    "SELECT a FROM t WHERE b = 3"):
            assert s_on.execute(sql).fetchall() == \
                s_off.execute(sql).fetchall(), sql
            assert same_state(on, off), sql
        counters = kernel_counters(on)
        assert counters.get("kernel_bailouts", 0) > 0
        assert counters.get("kernel_hits", 0) > 0

    def test_string_column_output_stays_identical(self):
        rows = [[str(i), f"name_{i % 9}"] for i in range(64)]
        schema = repro.Schema([("a", repro.INTEGER),
                               ("s", repro.varchar())])
        on, off = kernel_pair(schema, rows, scan_workers=1)
        s_on, s_off = repro.connect(on), repro.connect(off)
        sql = "SELECT s FROM t WHERE a >= 20"
        for _ in range(3):
            assert s_on.execute(sql).fetchall() == \
                s_off.execute(sql).fetchall()
            assert same_state(on, off)

    def test_cold_scan_runs_the_generic_group_compute(self, monkeypatch):
        """The streaming region has no kernel entry: a cold scan of
        either format computes every group with
        ``BlockScan._compute_stream_group`` — the only group compute
        there is — and, having no indexed block, counts no kernel
        event."""
        groups = []
        compute = BlockScan._compute_stream_group

        def counting(scan, ops, row0, *args):
            groups.append((type(scan).__name__, row0))
            return compute(scan, ops, row0, *args)

        monkeypatch.setattr(BlockScan, "_compute_stream_group", counting)
        rows = [[str(i), str(i % 11)] for i in range(80)]
        schema = Schema([("a", INTEGER), ("b", INTEGER)])
        engine = build_engine({"t": (schema, rows)}, row_block_size=16,
                              scan_workers=1, scan_kernels=True)
        write_jsonl([{"a": int(a), "b": int(b)} for a, b in rows],
                    engine.vfs, "t.jsonl")
        engine.query("CREATE TABLE j (a INTEGER, b INTEGER) USING jsonl "
                     "OPTIONS (path 't.jsonl')")
        session = repro.connect(engine)
        for table in ("t", "j"):
            assert session.execute(
                f"SELECT a FROM {table} WHERE b < 5").fetchall() == \
                [(i,) for i in range(80) if i % 11 < 5]
        assert kernel_counters(engine) == {}
        assert groups == [(name, row0)
                          for name in ("BatchCsvScan", "JsonlScan")
                          for row0 in (0, 16, 32, 48, 64)]

    def test_bailouts_cost_nothing(self):
        """kernel_* events are observability, not work: they never move
        the virtual clock (asserted indirectly by every parity test,
        directly here)."""
        rows = [[str(i), str(i % 7)] for i in range(48)]
        schema = repro.Schema([("a", repro.INTEGER),
                               ("b", repro.INTEGER)])
        engine = build_engine({"t": (schema, rows)}, row_block_size=16,
                              scan_kernels=True)
        session = repro.connect(engine)
        for _ in range(3):
            session.execute("SELECT a FROM t WHERE b < 4").fetchall()
        assert kernel_counters(engine)  # events were recorded ...
        clock = engine.clock
        before = clock.now()
        engine.model.kernel_hit(5)
        engine.model.kernel_bailout()
        assert clock.now() == before  # ... at zero price


# ---------------------------------------------------------------------------
# The decision: once per scan, the same for every entry point
# ---------------------------------------------------------------------------
class TestKernelDecision:
    @staticmethod
    def _fresh(kernels=True, **config_kwargs):
        rows = [[str(i), str(i % 11)] for i in range(80)]
        schema = repro.Schema([("a", repro.INTEGER),
                               ("b", repro.INTEGER)])
        return build_engine({"t": (schema, rows)}, row_block_size=16,
                            scan_workers=1, scan_kernels=kernels,
                            **config_kwargs)

    def test_one_shot_queries_take_the_fast_path(self):
        """``Database.query`` gets the fast path with no session: the
        warm re-run of a fully cached 80-row table serves its five
        blocks, one hit each, at the generic path's exact cost."""
        on, off = self._fresh(True), self._fresh(False)
        sql = "SELECT a FROM t WHERE b < 5"
        for _ in range(2):  # cold (collects stats), then warm
            assert on.query(sql).rows == off.query(sql).rows
        warm = on.query(sql)
        assert warm.rows == off.query(sql).rows
        assert {k: v for k, v in warm.counters.items()
                if k.startswith("kernel_")} == {"kernel_hits": 5}
        assert same_state(on, off)

    def test_collecting_scan_never_probes(self, monkeypatch):
        """A scan still sampling §4.4 statistics needs the values the
        generic compute materializes: it decides against the fast path
        once, and no block is probed or counted."""
        attempts = count_kernel_attempts(monkeypatch)
        engine = self._fresh()
        engine.query("SELECT a FROM t")      # cold: indexes the lines
        engine.query("SELECT b FROM t")      # b unsampled: collector
        assert attempts == []
        assert kernel_counters(engine) == {}

    def test_both_entry_points_explain_alike(self):
        engine = self._fresh()
        sql = "EXPLAIN SELECT a FROM t WHERE b < 5"
        one_shot = [row[0] for row in engine.query(sql).rows]
        session = [row[0] for row in
                   repro.connect(engine).execute(sql).fetchall()]
        assert one_shot == session
        assert one_shot[-1] == "kernel: cached-block [t]"

    def test_partitioned_files_take_the_fast_path(self):
        """Each file of a partitioned table is its own block scan and
        decides for itself: a warm range query is served from cache,
        bit-identical to kernels off."""
        def build(kernels):
            vfs = VirtualFS()
            for day in range(3):
                vfs.create(f"ev-{day}.csv", write_csv(
                    [[str(day * 100 + i), str(i % 9)] for i in range(40)]))
            engine = PostgresRaw(
                config=PostgresRawConfig(row_block_size=16,
                                         scan_kernels=kernels), vfs=vfs)
            engine.query("CREATE TABLE ev (id INTEGER, v INTEGER) "
                         "USING csv OPTIONS (path 'ev-*.csv')")
            return engine

        on, off = build(True), build(False)
        sql = "SELECT id FROM ev WHERE v < 4"
        for engine, note in ((on, "cached-block"),
                             (off, "none (scan_kernels disabled)")):
            assert engine.query("EXPLAIN " + sql).rows[-1] == \
                (f"kernel: {note} [ev]",)
        for _ in range(3):
            assert on.query(sql).rows == off.query(sql).rows
        assert on.counters().get("kernel_hits", 0) > 0
        assert {k: v for k, v in on.counters().items()
                if not k.startswith("kernel_")} == off.counters()
        assert on.clock.now() == off.clock.now()

    def test_disabled_config_reports_reason_and_stays_generic(self):
        engine = self._fresh(kernels=False)
        session = repro.connect(engine)
        lines = explain_kernel_lines(session, "SELECT a FROM t")
        assert lines == ["kernel: none (scan_kernels disabled) [t]"]
        session.execute("SELECT a FROM t").fetchall()
        assert kernel_counters(engine) == {}

    def test_env_gate_controls_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_KERNELS", "0")
        assert PostgresRawConfig().scan_kernels is False
        monkeypatch.setenv("REPRO_SCAN_KERNELS", "1")
        assert PostgresRawConfig().scan_kernels is True
