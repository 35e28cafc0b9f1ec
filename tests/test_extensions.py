"""Tests for the §7 opportunity features: idle-time auto-tuning and the
file-system-interface prewarmer."""

import pytest

from repro import (
    CostModel,
    IdleTuner,
    LoadedDBMS,
    PostgresRaw,
    PostgresRawConfig,
    VirtualFS,
)
from repro.errors import CatalogError, ReproError
from repro.simcost.clock import CostEvent
from repro.workloads.micro import generate_micro_csv, micro_schema

from conftest import create_table

ATTRS = 10


def make_engine(rows=200, block=64):
    vfs = VirtualFS()
    generate_micro_csv(vfs, "t.csv", rows, ATTRS, seed=6)
    db = PostgresRaw(config=PostgresRawConfig(row_block_size=block),
                     vfs=vfs)
    create_table(db, "t", "t.csv", micro_schema(ATTRS))
    return db


class TestIdleTuner:
    def test_requires_postgresraw(self, people_loaded):
        with pytest.raises(ReproError):
            IdleTuner(people_loaded)

    def test_hint_validates_columns(self):
        db = make_engine()
        tuner = IdleTuner(db)
        with pytest.raises(Exception):
            tuner.hint("t", ["nonexistent"])

    def test_hints_drive_candidates(self):
        db = make_engine()
        tuner = IdleTuner(db)
        tuner.hint("t", ["a3"], weight=5)
        tuner.hint("t", ["a7"], weight=1)
        assert tuner.candidates()[0] == ("t", "a3")

    def test_observed_workload_drives_candidates(self):
        db = make_engine()
        db.query("SELECT a2 FROM t")
        db.query("SELECT a2 FROM t")
        db.query("SELECT a5 FROM t")
        tuner = IdleTuner(db)
        assert tuner.candidates()[0] == ("t", "a2")

    def test_idle_time_warms_hinted_attribute(self):
        db = make_engine()
        tuner = IdleTuner(db)
        tuner.hint("t", ["a4"])
        report = tuner.exploit_idle_time(10.0)
        assert ("t", "a4") in report.warmed
        assert report.seconds_used > 0
        # The tuned attribute is now answerable without file access.
        io_before = (db.model.count(CostEvent.DISK_READ_COLD)
                     + db.model.count(CostEvent.DISK_READ_WARM))
        db.query("SELECT a4 FROM t")
        io_after = (db.model.count(CostEvent.DISK_READ_COLD)
                    + db.model.count(CostEvent.DISK_READ_WARM))
        assert io_after == io_before

    def test_budget_respected(self):
        db = make_engine(rows=400)
        tuner = IdleTuner(db)
        tuner.hint("t", [f"a{i}" for i in range(1, ATTRS + 1)])
        # A budget that fits roughly one attribute's warm-up.
        probe = IdleTuner(make_engine(rows=400))
        probe.hint("t", ["a1"])
        one_attr = probe.exploit_idle_time(10.0).seconds_used
        report = tuner.exploit_idle_time(one_attr * 1.5)
        assert report.exhausted_budget
        assert 1 <= len(report.warmed) < ATTRS

    def test_already_warm_attributes_skipped(self):
        db = make_engine()
        db.query("SELECT a1 FROM t")  # fully caches a1
        tuner = IdleTuner(db)
        report = tuner.exploit_idle_time(10.0)
        assert ("t", "a1") not in report.warmed

    def test_idle_work_materializes_no_tuples(self):
        # Warming drains the block scan: background work forms no
        # per-row tuples, so a columnar engine's counter stays 0.
        db = make_engine(rows=5000, block=1024)
        db.query("SELECT sum(a2) FROM t WHERE a1 < 500000000")
        assert db.rows_materialized == 0
        report = IdleTuner(db).exploit_idle_time(10.0)
        assert report.warmed
        assert db.rows_materialized == 0

    def test_zero_budget_rejected(self):
        tuner = IdleTuner(make_engine())
        with pytest.raises(ReproError):
            tuner.exploit_idle_time(0)

    def test_idle_work_pays_off_at_query_time(self):
        cold = make_engine(rows=400)
        tuned = make_engine(rows=400)
        tuner = IdleTuner(tuned)
        tuner.hint("t", ["a6"])
        tuner.exploit_idle_time(10.0)
        q = "SELECT sum(a6) FROM t"
        assert tuned.query(q).elapsed < cold.query(q).elapsed


class TestFsInterfacePrewarmer:
    def test_requires_positional_map(self):
        vfs = VirtualFS()
        generate_micro_csv(vfs, "t.csv", 50, ATTRS, seed=6)
        db = PostgresRaw(config=PostgresRawConfig(
            enable_positional_map=False, enable_cache=False), vfs=vfs)
        create_table(db, "t", "t.csv", micro_schema(ATTRS))
        with pytest.raises(CatalogError):
            db.enable_fs_interface("t")

    def test_foreign_read_builds_line_index(self):
        db = make_engine(rows=300)
        db.enable_fs_interface("t")
        assert db.positional_map_of("t").known_line_count == 0
        # Another program (a "text editor") reads the file.
        foreign = CostModel()
        handle = db.vfs.open("t.csv", foreign)
        handle.read_at(0, db.vfs.size("t.csv"))
        pm = db.positional_map_of("t")
        assert pm.known_line_count == 300

    def test_engines_own_scans_do_not_recurse(self):
        db = make_engine(rows=100)
        prewarmer = db.enable_fs_interface("t")
        db.query("SELECT a1 FROM t")
        assert prewarmer.bytes_prewarmed == 0

    def test_query_after_prewarm_skips_newline_scan(self):
        db = make_engine(rows=300)
        db.enable_fs_interface("t")
        foreign = CostModel()
        db.vfs.open("t.csv", foreign).read_at(0, db.vfs.size("t.csv"))
        scanned_before = db.model.count(CostEvent.NEWLINE_SCAN)
        result = db.query("SELECT a1 FROM t")
        # The query itself did no newline discovery: the background
        # prewarm already built the line index.
        assert result.counters.get("newline_scan", 0) == 0
        assert len(result) == 300

    def test_partial_foreign_read_extends_frontier_only(self):
        db = make_engine(rows=300)
        db.enable_fs_interface("t")
        size = db.vfs.size("t.csv")
        foreign = CostModel()
        handle = db.vfs.open("t.csv", foreign)
        handle.read_at(0, size // 2)
        pm = db.positional_map_of("t")
        partial = pm.known_line_count
        assert 0 < partial < 300
        # A read beyond the frontier cannot help (non-contiguous).
        handle.read_at(size - 10, 10)
        assert pm.known_line_count == partial
        # Filling the gap completes the index.
        handle.read_at(size // 2, size)
        assert pm.known_line_count == 300

    def test_results_correct_after_prewarm(self):
        plain = make_engine(rows=120)
        warmed = make_engine(rows=120)
        warmed.enable_fs_interface("t")
        foreign = CostModel()
        warmed.vfs.open("t.csv", foreign).read_at(
            0, warmed.vfs.size("t.csv"))
        q = "SELECT a2, a9 FROM t WHERE a1 < 500000000"
        assert warmed.query(q).rows == plain.query(q).rows

    def test_enable_idempotent_disable_detaches(self):
        db = make_engine(rows=50)
        first = db.enable_fs_interface("t")
        second = db.enable_fs_interface("t")
        assert first is second
        db.disable_fs_interface("t")
        foreign = CostModel()
        db.vfs.open("t.csv", foreign).read_at(0, 100)
        assert first.bytes_prewarmed == 0

    def test_loaded_engine_reads_prewarm_the_raw_engine(self):
        # Even a competing DBMS's bulk load warms the NoDB engine.
        db = make_engine(rows=200)
        db.enable_fs_interface("t")
        loaded = LoadedDBMS(vfs=db.vfs)
        loaded.load_csv("t", "t.csv", micro_schema(ATTRS))
        assert db.positional_map_of("t").known_line_count == 200
