"""Scan kernels: differential fuzz + the per-scan decision.

The kernel path (``repro.kernels``) — the cached-block fast path of the
generic batch scan — must be *invisible* except in wall-clock time and
its own zero-priced counters. The contract under test:

* **On-vs-off parity** — identical result sequences, positional-map
  and binary-cache dumps *and LRU orders*, every non-``kernel_*``
  counter and the virtual clock itself, with 1 and 4 scan workers, over
  seeded random schemas/data/workloads (CSV) and JSONL tables —
  unbudgeted, and under cache / positional-map budgets small enough
  that evictions interleave with the fast path — through a session and
  through one-shot ``Database.query`` alike.
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
from repro import FLOAT, INTEGER, PostgresRaw, PostgresRawConfig, Schema, \
    VirtualFS
from repro.core.blockscan import BlockScan
from repro.formats.csvfmt import write_csv
from repro.formats.jsonl import write_jsonl

from tests.test_batch_differential import (
    cache_dump,
    pm_dump,
    random_query,
    random_schema,
    random_table,
    random_text_value,
)
from tests.test_batch_operators_differential import (
    PAIR_PREDICATES,
    PAIR_SCHEMA,
    pair_table,
)

WORKER_COUNTS = (1, 4)
#: the two ways a query reaches the scan
ENTRIES = ("session", "query")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def kernel_engine(schema, payload: bytes, workers: int, kernels: bool,
                  block_size: int = 16, **config_kwargs) -> PostgresRaw:
    vfs = VirtualFS()
    vfs.create("t.csv", payload)
    engine = PostgresRaw(
        config=PostgresRawConfig(row_block_size=block_size,
                                 scan_workers=workers,
                                 scan_kernels=kernels, **config_kwargs),
        vfs=vfs)
    engine.register_csv("t", "t.csv", schema)
    return engine


def runner(engine, entry: str):
    """``run(sql) -> rows`` through a session or ``Database.query``."""
    if entry == "session":
        session = repro.connect(engine)
        return lambda sql: session.execute(sql).fetchall()
    return lambda sql: engine.query(sql).rows


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


def numeric_table(rng):
    """A NULL-free INTEGER/FLOAT schema and its rows."""
    schema = Schema([(f"c{i}", rng.choice([INTEGER, FLOAT]))
                     for i in range(rng.randint(3, 6))])
    rows = [[random_text_value(rng, col.dtype, nullable=False)
             for col in schema.columns]
            for _ in range(rng.randint(40, 160))]
    return schema, rows


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


def assert_one_unit_per_block(engine, attempts, pressure):
    """Every block offered counts exactly one hit or one bailout. Under
    the roomiest budget a query's columns fit the cache, so the fast
    path must have committed some of them; under the tighter ones every
    block may bail — the all-bailout regime is their point."""
    counters = kernel_counters(engine)
    assert counters.get("kernel_hits", 0) + \
        counters.get("kernel_bailouts", 0) == len(attempts)
    if pressure is not None and pressure["cache_budget_bytes"] >= 4000:
        assert counters.get("kernel_hits", 0) > 0


def comparable_state(engine, table="t"):
    """Everything the parity contract covers — kernel_* counters are
    the kernel path's own observability and are excluded. The LRU key
    orders pin that a probe never touches recency and that a committed
    block touches it in the generic order."""
    pm = engine.positional_map_of(table)
    cache = engine.cache_of(table)
    return {
        "pm": pm_dump(pm),
        "cache": cache_dump(cache),
        "pm_lru": None if pm is None else list(pm._chunks),
        "cache_lru": None if cache is None else list(cache._blocks),
        "counters": {k: v for k, v in engine.counters().items()
                     if not k.startswith("kernel_")},
        "clock": engine.clock.now(),
    }


def kernel_counters(engine):
    return {k: v for k, v in engine.counters().items()
            if k.startswith("kernel_")}


def explain_kernel_lines(session, sql):
    cursor = session.execute("EXPLAIN " + sql)
    return [row[0] for row in cursor.fetchall()
            if row[0].startswith("kernel:")]


# ---------------------------------------------------------------------------
# Differential fuzz: kernels on vs off must be invisible
# ---------------------------------------------------------------------------
class TestKernelDifferentialFuzz:
    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("pressure", PRESSURE)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", range(6))
    def test_csv_random_workloads_match(self, seed, workers, pressure,
                                        entry, monkeypatch):
        rng = random.Random(72000 + seed)
        if pressure is None:
            schema = random_schema(rng)
            rows = random_table(rng, schema)
        else:
            schema, rows = numeric_table(rng)
        payload = write_csv(rows)
        block_size = rng.choice([3, 8, 17, 64])
        queries = [random_query(rng, schema) for _ in range(5)]
        attempts = count_kernel_attempts(monkeypatch)

        on = kernel_engine(schema, payload, workers, True, block_size,
                           **(pressure or {}))
        off = kernel_engine(schema, payload, workers, False, block_size,
                            **(pressure or {}))
        run_on, run_off = runner(on, entry), runner(off, entry)
        for sql in queries:
            for _ in range(3):  # cold + two warm executions per shape
                rows_on = run_on(sql)
                rows_off = run_off(sql)
                assert rows_on == rows_off, f"seed={seed}: {sql!r}"
                assert comparable_state(on) == comparable_state(off), \
                    f"seed={seed} diverged after {sql!r}"
        assert kernel_counters(off) == {}
        assert_one_unit_per_block(on, attempts, pressure)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_column_pair_and_like_predicates_match(self, workers,
                                                   monkeypatch):
        """Column-vs-column comparisons and LIKE masks are vectorized,
        so their scans are kernel-eligible: on-vs-off must stay
        invisible for them too (string columns and NULLs bail per
        block)."""
        attempts = count_kernel_attempts(monkeypatch)
        rng = random.Random(72500)
        payload = write_csv(pair_table(rng, 150))
        on = kernel_engine(PAIR_SCHEMA, payload, workers, True)
        off = kernel_engine(PAIR_SCHEMA, payload, workers, False)
        s_on, s_off = repro.connect(on), repro.connect(off)
        for predicate in PAIR_PREDICATES:
            sql = f"SELECT x, d1, f2 FROM t WHERE {predicate}"
            assert explain_kernel_lines(s_on, sql) == \
                ["kernel: cached-block [t]"], predicate
            explain_kernel_lines(s_off, sql)  # same EXPLAIN charges
            for _ in range(2):  # cold + warm execution of each shape
                assert s_on.execute(sql).fetchall() == \
                    s_off.execute(sql).fetchall(), predicate
            assert comparable_state(on) == comparable_state(off), predicate
        assert attempts
        assert_one_unit_per_block(on, attempts, None)

    def test_ineligible_reason_names_the_offending_conjunct(self):
        engine = kernel_engine(PAIR_SCHEMA, write_csv(pair_table(
            random.Random(1), 5)), 1, True)
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
        rows = [{"a": i, "b": i % 23,
                 "c": f"s{i % 7}" if pressure is None else i % 7,
                 "d": i * 0.25}
                for i in range(400 if pressure is None else 128)]
        c_type = "VARCHAR" if pressure is None else "INTEGER"
        attempts = count_kernel_attempts(monkeypatch)

        def build(kernels):
            vfs = VirtualFS()
            write_jsonl(rows, vfs, "t.jsonl")
            engine = PostgresRaw(
                config=PostgresRawConfig(row_block_size=32,
                                         scan_workers=workers,
                                         scan_kernels=kernels,
                                         **(pressure or {})),
                vfs=vfs)
            engine.query(
                f"CREATE TABLE t (a INTEGER, b INTEGER, c {c_type}, "
                "d FLOAT) USING jsonl OPTIONS (path 't.jsonl')")
            return engine

        on, off = build(True), build(False)
        run_on, run_off = runner(on, entry), runner(off, entry)
        queries = [
            "SELECT a, d FROM t WHERE b < 7",       # cold: streaming
            "SELECT c FROM t WHERE a >= 150",       # bail: a not cached
            "SELECT a, b, c, d FROM t",             # no predicate
            "SELECT sum(d) FROM t WHERE b = 3",     # aggregate above scan
        ]
        for sql in queries:
            for _ in range(3):
                assert run_on(sql) == run_off(sql), sql
                assert comparable_state(on) == comparable_state(off), sql
        assert kernel_counters(off) == {}
        assert_one_unit_per_block(on, attempts, pressure)

    def test_worker_counts_identical_with_kernels(self):
        """The kernel path preserves PR-4's worker-invariance contract:
        1 and 4 workers agree on everything, kernels on."""
        rng = random.Random(9151)
        schema = random_schema(rng)
        payload = write_csv(random_table(rng, schema))
        queries = [random_query(rng, schema) for _ in range(4)]
        engines = {w: kernel_engine(schema, payload, w, True, 8)
                   for w in WORKER_COUNTS}
        sessions = {w: repro.connect(engines[w]) for w in WORKER_COUNTS}
        for sql in queries:
            results = {w: sessions[w].execute(sql).fetchall()
                       for w in WORKER_COUNTS}
            assert results[4] == results[1], sql
            # Same blocks bail on both sides: kernel_* counters match.
            assert engines[4].counters() == engines[1].counters(), sql
            assert comparable_state(engines[4]) == \
                comparable_state(engines[1]), sql


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
        on = kernel_engine(schema, write_csv(rows), 1, True, 16,
                           enable_statistics=False)
        off = kernel_engine(schema, write_csv(rows), 1, False, 16,
                            enable_statistics=False)
        s_on, s_off = repro.connect(on), repro.connect(off)
        for sql in ("SELECT a FROM t WHERE a < 40",
                    "SELECT a FROM t WHERE b = 3",
                    "SELECT a FROM t WHERE b = 3"):
            assert s_on.execute(sql).fetchall() == \
                s_off.execute(sql).fetchall(), sql
            assert comparable_state(on) == comparable_state(off), sql
        counters = kernel_counters(on)
        assert counters.get("kernel_bailouts", 0) > 0
        assert counters.get("kernel_hits", 0) > 0

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
        engine = kernel_engine(schema, write_csv(rows), 1, True, 16)
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

    def test_string_column_output_stays_identical(self):
        rows = [[str(i), f"name_{i % 9}"] for i in range(64)]
        schema = repro.Schema([("a", repro.INTEGER),
                               ("s", repro.varchar())])
        on = kernel_engine(schema, write_csv(rows), 1, True, 16)
        off = kernel_engine(schema, write_csv(rows), 1, False, 16)
        s_on, s_off = repro.connect(on), repro.connect(off)
        sql = "SELECT s FROM t WHERE a >= 20"
        for _ in range(3):
            assert s_on.execute(sql).fetchall() == \
                s_off.execute(sql).fetchall()
            assert comparable_state(on) == comparable_state(off)

    def test_bailouts_cost_nothing(self):
        """kernel_* events are observability, not work: they never move
        the virtual clock (asserted indirectly by every parity test,
        directly here)."""
        rows = [[str(i), str(i % 7)] for i in range(48)]
        schema = repro.Schema([("a", repro.INTEGER),
                               ("b", repro.INTEGER)])
        engine = kernel_engine(schema, write_csv(rows), 1, True, 16)
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
        return kernel_engine(schema, write_csv(rows), 1, kernels, 16,
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
        assert comparable_state(on) == comparable_state(off)

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
