"""Parallel chunk scans: determinism, accounting, and the regroup pass.

The contract — for any workload ``scan_workers`` 1, 2 and 4 give the
same result sequences, PM/cache dumps with their LRU orders, counters
and virtual clock — is the lockstep harness's ``workers`` axis
(``tests/oracle/digest.py``), here on pinned scenarios: random schemas,
both line formats, feature ablations, budgets, prepared statements and
streaming cursors. Also here, on the harness's builder and
digest: a malformed row and a hard read error at any worker count,
abandoned scans under small reads, the pool-less laziness the one-loop
driver depends on (a group is computed when the merge reaches it,
never at dispatch), the failing row's number on every batch path, the
pool's lifecycle, the scheduler's worker overlap accounting
(``QueryJob.worker_tasks``) and the idle tuner's canonical PM chunk
regrouping (flush-order-independent layouts).
"""

import pytest

import repro
from repro import (
    INTEGER,
    IdleTuner,
    PostgresRaw,
    PostgresRawConfig,
    Schema,
)
from repro.core.blockscan import BlockScan
from repro.storage.faults import FaultInjectingVFS
from tests.oracle import OracleRaw
from tests.oracle.digest import (
    Interleave,
    Prepared,
    Scenario,
    Table,
    build_engine,
    check,
    digest,
    micro,
    pm_dump,
    render,
    seeded_scenario,
    structures,
    worker_axes,
)

FORMATS = ("csv", "jsonl")


def micro_engine(fmt: str, workers: int, rows: int, nattrs: int, seed: int,
                 block_size: int, **config_kwargs) -> PostgresRaw:
    """The micro-benchmark integer table ``m`` in either format."""
    return build_engine({"m": micro(rows, nattrs, seed)}, fmt,
                        row_block_size=block_size, scan_workers=workers,
                        **config_kwargs)


WORKER_COUNTS = (1, 2, 4)
#: 1 against 2 and against 4 workers: nothing may differ
WORKER_AXES = worker_axes(*WORKER_COUNTS)


@pytest.mark.parametrize("fmt", FORMATS)
class TestParallelDeterminism:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_workloads_identical_across_worker_counts(self, fmt,
                                                             seed):
        """Result sequences, PM/cache dumps, counters and the clock
        itself must be independent of scan_workers."""
        check(seeded_scenario(61000 + seed, 5, [1, 3, 8, 17, 64],
                              layout=fmt), WORKER_AXES)

    @pytest.mark.parametrize("kwargs", [
        dict(enable_cache=False),
        dict(enable_positional_map=False),
        dict(enable_statistics=False),
        dict(enable_cache=False, enable_statistics=False),
    ])
    def test_feature_ablations_stay_deterministic(self, fmt, kwargs):
        check(seeded_scenario(4711, 4, 8, layout=fmt, **kwargs),
              WORKER_AXES)

    def test_budgeted_structures_identical(self, fmt):
        """Eviction order under PM/cache budgets depends on insert
        order — which the merge keeps canonical."""
        check(seeded_scenario(99, 4, 8, layout=fmt, pm_budget_bytes=400,
                              cache_budget_bytes=600), WORKER_AXES)

    def test_prepared_statements_and_streaming_cursors(self, fmt):
        sql = "SELECT a1, a3 FROM t WHERE a2 < ?"
        scenario = Scenario(
            (Table("t", "micro", 7),),
            (Interleave((sql.replace("?", "600000000"),), 37),
             Prepared(sql, ((600_000_000,), (100_000_000,)))),
            (("row_block_size", 64),), fmt)
        check(scenario, WORKER_AXES[1:])

    def test_malformed_csv_raises_identically(self, fmt):
        """A short line must fail with the same error, after the same
        charges, at any worker count (the merge replays a failed
        group's recorded charges before re-raising in order)."""
        schema = Schema([("c0", INTEGER), ("c1", INTEGER),
                         ("c2", INTEGER)])
        if fmt == "csv":
            rows = [[str(i), str(i * 2), str(i * 3)] for i in range(30)]
            payload = render("csv", schema, rows)[:-1] + b"\n5,6\n"  # short
        else:
            payload = b"".join(
                b'{"c0": %d, "c1": %d, "c2": %d}\n' % (i, i * 2, i * 3)
                for i in range(30)) + b'{"c0": 5, "c1"\n'  # cut-off line
        outcomes = {}
        for workers in WORKER_COUNTS:
            engine = build_engine({"t": (schema, payload)}, fmt,
                                  row_block_size=8, scan_workers=workers)
            with pytest.raises(repro.errors.FormatError) as info:
                engine.query("SELECT c2 FROM t")
            assert info.value.context["row_number"] == 30
            outcomes[workers] = (type(info.value), str(info.value),
                                 engine.counters(), engine.clock.now())
        assert outcomes[2] == outcomes[1]
        assert outcomes[4] == outcomes[1]

    def test_hard_read_error_raises_identically(self, fmt):
        """A read that exhausts its retry budget mid-stream is merged
        like any schedule entry: the groups dispatched before it are
        delivered, the retries it was billed replay, then it raises —
        same delivered rows, counters and clock at any worker count."""
        outcomes = {}
        for workers in WORKER_COUNTS:
            vfs = FaultInjectingVFS(seed=1, rate=0.0)
            engine = micro_engine(fmt, workers, rows=2500, nattrs=5,
                                  seed=3, block_size=32,
                                  batch_read_bytes=700, vfs=vfs)
            # the file's second 64 KiB OS-cache block is a bad sector
            vfs.schedule_error(f"m.{fmt}", block=1)
            cursor = repro.connect(engine=engine).cursor()
            cursor.execute("SELECT a1 FROM m")
            delivered = []
            with pytest.raises(repro.api.exceptions.OperationalError) as info:
                for _ in range(2500 // 50):
                    delivered.extend(cursor.fetchmany(50))
            assert info.value.code == "IO_FAULT"
            assert 0 < len(delivered) < 2500
            assert engine.counters()["io_retries"] > 0
            outcomes[workers] = (delivered, digest(engine, ["m"]))
        assert outcomes[2] == outcomes[1]
        assert outcomes[4] == outcomes[1]

    @pytest.mark.parametrize("read_bytes", [256 * 1024, 700])
    def test_abandoned_scan_leaves_merged_prefix_only(self, fmt,
                                                      read_bytes):
        """Closing a cursor mid-stream cancels the unmerged tail; the
        structures, the priced counters and the clock hold exactly the
        merged prefix at any worker count (read-ahead is recorded, not
        charged, until its turn in the merge), and a following full
        scan converges to the serial engine's state."""
        engines = {}
        for workers in WORKER_COUNTS:
            engine = micro_engine(fmt, workers, rows=400, nattrs=5,
                                  seed=11, block_size=32,
                                  batch_read_bytes=read_bytes)
            engines[workers] = engine
            session = repro.connect(engine=engine)
            cursor = session.execute("SELECT a1 FROM m WHERE a2 > 0")
            assert len(cursor.fetchmany(70)) == 70
            cursor.close()
        for workers in WORKER_COUNTS[1:]:
            assert digest(engines[workers], ["m"]) == \
                digest(engines[1], ["m"])
        after = {w: digest(engines[w], ["m"], engines[w].query(
                     "SELECT a1, a4 FROM m").rows) for w in WORKER_COUNTS}
        for workers in WORKER_COUNTS[1:]:
            assert after[workers] == after[1]

    @pytest.mark.parametrize("kernels", [True, False])
    def test_serial_scan_computes_groups_at_merge(self, fmt, kernels,
                                                  monkeypatch):
        """Without a pool a group's compute is deferred to the merge:
        a scan abandoned after 70 of its rows (blocks of 32, the whole
        file inside one read) has computed exactly the three groups it
        delivered — never the groups it merely dispatched."""
        computed = []
        group_task = BlockScan._group_task

        def counting(scan, row0, *args):
            computed.append(row0)
            return group_task(scan, row0, *args)

        monkeypatch.setattr(BlockScan, "_group_task", counting)
        engine = micro_engine(fmt, 1, rows=400, nattrs=5, seed=11,
                              block_size=32, scan_kernels=kernels)
        cursor = repro.connect(engine=engine).cursor()
        cursor.execute("SELECT a1 FROM m WHERE a2 > 0")
        assert len(cursor.fetchmany(70)) == 70
        cursor.close()
        assert computed == [0, 32, 64]


# ---------------------------------------------------------------------------
# Error context: the failing row's number, on every batch path
# ---------------------------------------------------------------------------
BAD_ROW = 2500
#: shape -> (malformed line, the query it breaks, a query that indexes
#: the file without reading the columns the first one converts)
MALFORMED = {
    "csv": {
        "bad WHERE value": (b"oops,2500,2500",
                            "SELECT b FROM t WHERE a >= 0", "SELECT c FROM t"),
        "bad SELECT value": (b"2500,oops,2500",
                             "SELECT b FROM t WHERE a >= 0", "SELECT c FROM t"),
        "short row": (b"2500,250002500",
                      "SELECT c FROM t WHERE a >= 0", "SELECT a FROM t"),
        # a NUL the fixed-width astype view would take for padding
        "NUL-padded value": (b"2500,250\x00,2500",
                             "SELECT b FROM t WHERE a >= 0",
                             "SELECT c FROM t"),
    },
    "jsonl": {
        "bad WHERE value": (b'{"a": oops, "b": 2500, "c": 2500}',
                            "SELECT b FROM t WHERE a >= 0", "SELECT c FROM t"),
        "bad SELECT value": (b'{"a": 2500, "b": oops, "c": 2500}',
                             "SELECT b FROM t WHERE a >= 0", "SELECT c FROM t"),
        "short row": (b'{"a": 2500, "b": 2500, "c"  2500}',
                      "SELECT b FROM t WHERE a >= 0", "SELECT a FROM t"),
        "NUL-padded value": (b'{"a": 2500, "b": 250\x00, "c": 2500}',
                             "SELECT b FROM t WHERE a >= 0",
                             "SELECT c FROM t"),
    },
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("shape", list(MALFORMED["csv"]))
@pytest.mark.parametrize("region", ["streaming", "indexed"])
class TestErrorRowNumber:
    """Under the default ``on_error 'fail'`` a strict format failure
    reports the row the scalar oracle stops at — found by an uncharged
    row-wise pass, so the failure path's charges do not depend on it."""

    SCHEMA = Schema([("a", INTEGER), ("b", INTEGER), ("c", INTEGER)])

    def clean_line(self, fmt, i):
        if fmt == "csv":
            return b"%d,%d,%d" % (i, i, i)
        return b'{"a": %d, "b": %d, "c": %d}' % (i, i, i)

    def failure(self, fmt, shape, region, engine=PostgresRaw,
                **config_kwargs):
        bad_line, sql, indexing_sql = MALFORMED[fmt][shape]
        lines = [self.clean_line(fmt, i) for i in range(3000)]
        assert len(bad_line) == len(lines[BAD_ROW])
        vfs = FaultInjectingVFS(seed=0, rate=0.0)
        if region == "streaming":
            lines[BAD_ROW] = bad_line       # malformed from the start
        engine = build_engine(
            {"t": (self.SCHEMA, b"\n".join(lines) + b"\n")}, fmt, engine,
            vfs, row_block_size=256, **config_kwargs)
        if region == "indexed":
            # Index the clean file, then break the row in place (same
            # size, no rewrite counter: a truly external edit), so the
            # failure surfaces in the indexed region.
            engine.query(indexing_sql)
            offset = sum(len(line) + 1 for line in lines[:BAD_ROW])
            vfs.external_overwrite(f"t.{fmt}", offset, bad_line)
        with pytest.raises(repro.errors.FormatError) as info:
            engine.query(sql)
        assert info.value.context["table"] == "t"
        return (info.value.context.get("row_number"), str(info.value),
                engine.counters(), engine.clock.now())

    @pytest.mark.parametrize("kernels", [True, False])
    def test_row_number_at_any_worker_count(self, fmt, shape, region,
                                            kernels):
        serial = self.failure(fmt, shape, region, scan_workers=1,
                              scan_kernels=kernels)
        assert serial[0] == BAD_ROW
        assert self.failure(fmt, shape, region, scan_workers=4,
                            scan_kernels=kernels) == serial
        if fmt == "csv":    # the scalar oracle exists for CSV only
            assert self.failure(fmt, shape, region, scan_workers=1,
                                engine=OracleRaw)[0] == serial[0]


class TestPoolLifecycle:
    def test_env_default_clamps_unusable_values(self, monkeypatch):
        for bad in ("0", "-3", "abc"):
            monkeypatch.setenv("REPRO_SCAN_WORKERS", bad)
            assert PostgresRawConfig().scan_workers == 1, bad
        monkeypatch.setenv("REPRO_SCAN_WORKERS", "3")
        assert PostgresRawConfig().scan_workers == 3
        with pytest.raises(repro.errors.BudgetError):
            PostgresRawConfig(scan_workers=0)  # explicit stays strict

    def test_engine_close_releases_and_lazily_restarts_pool(self):
        engine = micro_engine("csv", 2, rows=64, nattrs=4, seed=1,
                              block_size=16)
        first = engine.query("SELECT a1 FROM m").rows
        assert engine.scan_pool.started
        engine.close()
        assert not engine.scan_pool.started
        engine.close()  # idempotent
        # The engine keeps working; the pool restarts on demand.
        engine.drop_auxiliary("m")
        assert engine.query("SELECT a1 FROM m").rows == first
        assert engine.scan_pool.started
        engine.close()

    def test_close_during_live_scan_fails_cleanly(self):
        """engine.close() while a parallel scan is streaming must
        surface a contained engine error on the next fetch — never a
        raw CancelledError (a BaseException that would escape the
        scheduler's containment and leak the admission slot)."""
        engine = micro_engine("csv", 2, rows=2000, nattrs=6, seed=2,
                              block_size=16, batch_read_bytes=512)
        session = repro.connect(engine=engine, max_in_flight=1)
        cursor = session.execute("SELECT a1 FROM m")
        assert len(cursor.fetchmany(20)) == 20  # scan mid-stream
        engine.close()
        from repro.api.exceptions import Error as ApiError
        try:
            while cursor.fetchmany(64):
                pass
        except ApiError:
            pass  # contained DB-API error, not a raw CancelledError
        # Either way the slot was released: with max_in_flight=1 a new
        # query can only be admitted if the wedge never happened, and
        # it runs to completion on the lazily restarted pool.
        fresh = session.execute("SELECT a2 FROM m")
        assert len(fresh.fetchall()) == 2000
        assert engine.shared_scheduler().in_flight == 0


class TestSchedulerWorkerOverlap:
    def micro_engine(self, workers: int) -> PostgresRaw:
        return micro_engine("csv", workers, rows=600, nattrs=8, seed=3,
                            block_size=64)

    def test_serial_engine_has_no_pool(self):
        engine = self.micro_engine(1)
        assert engine.scan_pool is None
        session = repro.connect(engine=engine)
        cursor = session.execute("SELECT a1 FROM m")
        cursor.fetchall()
        assert cursor.worker_tasks == 0

    def test_interleaved_jobs_both_fan_out(self):
        """Two admitted queries interleaved at batch boundaries each
        dispatch their own groups to the shared pool — and keep their
        futures in flight across yields, which is the overlap
        mechanism. Per-job worker_tasks attributes the fan-out."""
        def interleave(engine):
            s1 = repro.connect(engine=engine, max_in_flight=4)
            s2 = repro.connect(engine=engine)
            c1 = s1.execute("SELECT a1 FROM m WHERE a1 > 0")
            c2 = s2.execute("SELECT a2, a5 FROM m")
            out1, out2 = [], []
            while True:
                chunk1, chunk2 = c1.fetchmany(50), c2.fetchmany(50)
                out1.extend(chunk1)
                out2.extend(chunk2)
                if not chunk1 and not chunk2:
                    return c1, c2, out1, out2

        engine = self.micro_engine(2)
        assert engine.scan_pool is not None
        c1, c2, out1, out2 = interleave(engine)
        assert c1.worker_tasks > 0
        assert c2.worker_tasks > 0
        assert engine.scan_pool.tasks_submitted >= (c1.worker_tasks
                                                    + c2.worker_tasks)
        # Same interleave on a serial engine: identical rows and
        # identical structures (the cooperative-interleave differential
        # also spans the worker fan-out).
        serial = self.micro_engine(1)
        assert interleave(serial)[2:] == (out1, out2)
        assert structures(engine, "m") == structures(serial, "m")

    def test_per_job_counters_include_worker_charges(self):
        """Worker-side charges replay inside the owning pull, so the
        per-job ledgers sum to (at most) the engine totals exactly as
        under serial scans."""
        engine = self.micro_engine(4)
        session = repro.connect(engine=engine)
        c1 = session.execute("SELECT a1 FROM m")
        c2 = session.execute("SELECT a3 FROM m")
        while c1.fetchmany(64) or c2.fetchmany(64):
            pass
        counters1, counters2 = c1.counters(), c2.counters()
        totals = engine.counters()
        for event in set(counters1) | set(counters2):
            assert (counters1.get(event, 0) + counters2.get(event, 0)
                    <= totals.get(event, 0) + 1e-9), event
        # The cold scan's conversions happened on workers; they must
        # appear in the first query's ledger.
        assert counters1.get("convert_int", 0) > 0


class TestCanonicalRegroup:
    def build(self, order: tuple[str, ...]) -> PostgresRaw:
        engine = micro_engine("csv", 1, rows=300, nattrs=6, seed=5,
                              block_size=32)
        for sql in order:
            engine.query(sql)
        return engine

    QUERIES = ("SELECT a2 FROM m WHERE a4 > 0",
               "SELECT a3, a5 FROM m",
               "SELECT a1 FROM m WHERE a2 > 0")

    def test_regroup_converges_flush_order_dependent_layouts(self):
        """Different query orders leave the same map *content* but
        different vertical chunk groups; after the idle tuner's
        regroup pass the full dumps are byte-identical."""
        forward = self.build(self.QUERIES)
        backward = self.build(tuple(reversed(self.QUERIES)))
        assert pm_dump(forward.positional_map_of("m")) != \
            pm_dump(backward.positional_map_of("m"))
        rewritten_f = IdleTuner(forward).regroup_maps()
        rewritten_b = IdleTuner(backward).regroup_maps()
        assert rewritten_f > 0 and rewritten_b > 0
        assert pm_dump(forward.positional_map_of("m")) == \
            pm_dump(backward.positional_map_of("m"))

    def test_regroup_is_idempotent_and_content_preserving(self):
        engine = self.build(self.QUERIES)
        pm = engine.positional_map_of("m")
        before = {}
        for block in list(pm._directory):
            for attr in pm.indexed_attrs(block):
                column = pm.positions(block, attr)
                before[(block, attr)] = column.tolist()
        IdleTuner(engine).regroup_maps()
        for (block, attr), expected in before.items():
            got = pm.positions(block, attr)
            assert got is not None
            assert got.tolist()[:len(expected)] == expected, (block, attr)
        dump = pm_dump(pm)
        assert IdleTuner(engine).regroup_maps() == 0  # already canonical
        assert pm_dump(pm) == dump
        # Every block now holds exactly one chunk, sorted group.
        for (group, _block) in pm._chunks:
            assert list(group) == sorted(group)
        # And queries still answer correctly from the regrouped map.
        fresh = self.build(self.QUERIES)
        for sql in self.QUERIES:
            assert engine.query(sql).rows == fresh.query(sql).rows

    def test_regroup_charges_maintenance_cost(self):
        engine = self.build(self.QUERIES)
        before = engine.clock.now()
        inserts_before = engine.counters().get("map_insert", 0)
        IdleTuner(engine).regroup_maps("m")
        assert engine.clock.now() > before
        assert engine.counters().get("map_insert", 0) > inserts_before

    def test_parallel_and_serial_interleaves_converge_after_regroup(self):
        """The de-flake satellite: interleaved streaming cursors under
        different worker counts leave content-equal maps whose layouts
        may differ from a serial run; regroup makes the *full* dumps
        comparable."""
        def run(workers: int) -> PostgresRaw:
            engine = micro_engine("csv", workers, rows=300, nattrs=6,
                                  seed=5, block_size=32)
            session = repro.connect(engine=engine, max_in_flight=4)
            c1 = session.execute(self.QUERIES[0])
            c2 = session.execute(self.QUERIES[1])
            while c1.fetchmany(40) or c2.fetchmany(40):
                pass
            return engine

        for workers in (1, 2):
            inter = run(workers)
            IdleTuner(inter).regroup_maps()
            reference = self.build(self.QUERIES[:2])
            IdleTuner(reference).regroup_maps()
            assert pm_dump(inter.positional_map_of("m")) == \
                pm_dump(reference.positional_map_of("m"))
