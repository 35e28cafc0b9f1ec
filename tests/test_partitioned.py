"""Partitioned multi-file tables: pruning, determinism, differential.

The load-bearing invariants:

* **Oracle differential** — a partitioned table over N files returns
  byte-identical rows, auxiliary structures and (modulo the zero-priced
  ``files_scanned``/``files_pruned`` counters) identical costs as the
  same rows concatenated into one file, for predicates that cannot
  prune (every file's zone intersects), at any worker count; random
  workloads against the single file are the lockstep harness's
  ``glob`` axis (``tests/oracle/digest.py``).
* **Worker invariance** — results, per-file positional-map/cache dumps,
  every counter and the virtual clock are bit-identical between 1 and 4
  scan workers (the harness's ``workers`` axis over globs), also after
  an abandoned cursor, a mid-table error or under a bounded OS page
  cache (files are scanned strictly in order; only row-block groups
  inside a file fan out).
* **Zone-map soundness** — pruning never changes results, only costs:
  NULL-heavy files, all-NULL files and unscanned files are handled by
  three-valued logic and the observed-every-row completeness gate.
"""

from __future__ import annotations

import math
import random

import pytest

import repro
from repro import (
    INTEGER,
    PostgresRaw,
    PostgresRawConfig,
    Schema,
    VirtualFS,
    varchar,
)
from repro.errors import CatalogError, ReproError
from repro.storage.vfs import OSPageCache

from tests.oracle.digest import (
    AXIS,
    build_engine,
    cache_dump,
    check,
    digest,
    pm_dump,
    seeded_scenario,
)

TAGS = "abcdefgh"
EV_SCHEMA = Schema([("id", INTEGER), ("tag", varchar()), ("v", INTEGER)])


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def make_rows(n, seed=0, null_every=0):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        v = i * 10 + rng.randrange(10)
        if null_every and i % null_every == null_every - 1:
            rows.append((i, TAGS[i % len(TAGS)], None))
        else:
            rows.append((i, TAGS[i % len(TAGS)], v))
    return rows


def to_csv(rows):
    return "".join(
        f"{i},{t},{'' if v is None else v}\n" for i, t, v in rows
    ).encode()


def build(rows, files, workers=1, block=4):
    """A partitioned engine over ``files`` equal slices of ``rows``."""
    assert len(rows) % files == 0
    per = len(rows) // files
    vfs = VirtualFS()
    for f in range(files):
        vfs.create(f"ev-{f}.csv", to_csv(rows[f * per:(f + 1) * per]))
    db = PostgresRaw(vfs=vfs, config=PostgresRawConfig(
        scan_workers=workers, row_block_size=block))
    db.query("CREATE TABLE ev (id INTEGER, tag VARCHAR, v INTEGER) "
             "USING csv OPTIONS (path 'ev-*.csv')")
    return db


def build_oracle(rows, workers=1, block=4):
    return build_engine({"ev": (EV_SCHEMA, to_csv(rows))},
                        scan_workers=workers, row_block_size=block)


def files_counters(result):
    return {k: v for k, v in result.counters.items()
            if k.startswith("files_")}


def core_counters(result):
    return {k: v for k, v in result.counters.items()
            if not k.startswith("files_")}


def parts_of(db, table="ev"):
    return db.catalog.get(table).access.parts


# ---------------------------------------------------------------------------
# Basics
# ---------------------------------------------------------------------------
class TestBasics:
    def test_glob_create_and_scan(self):
        db = build(make_rows(24), files=3)
        r = db.query("SELECT count(*) FROM ev")
        assert r.rows == [(24,)]
        assert files_counters(r) == {"files_scanned": 3}

    def test_rows_in_file_order(self):
        rows = make_rows(24)
        db = build(rows, files=3)
        got = db.query("SELECT id FROM ev").rows
        assert got == [(i,) for i, _, _ in rows]

    def test_explain_lists_files(self):
        db = build(make_rows(24), files=3)
        plan = "\n".join(r[0] for r in db.query(
            "EXPLAIN SELECT id FROM ev WHERE v > 0").rows)
        assert "PartitionedAccess" in plan
        assert "files=3" in plan

    def test_no_matching_files_is_catalog_error(self):
        db = PostgresRaw(vfs=VirtualFS())
        with pytest.raises(CatalogError, match="no files match"):
            db.query("CREATE TABLE t (a INTEGER) USING csv "
                     "OPTIONS (path 'missing-*.csv')")

    def test_explicit_partitioned_format(self):
        vfs = VirtualFS()
        vfs.create("a-1.csv", b"1\n")
        vfs.create("a-2.csv", b"2\n")
        db = PostgresRaw(vfs=vfs)
        db.query("CREATE TABLE t (a INTEGER) USING partitioned "
                 "OPTIONS (path 'a-*.csv', format 'csv')")
        assert db.query("SELECT a FROM t ORDER BY a").rows == [(1,), (2,)]
        db.query("DROP TABLE t")

    def test_single_file_path_is_not_wrapped(self):
        vfs = VirtualFS()
        vfs.create("one.csv", b"1\n")
        db = PostgresRaw(vfs=vfs)
        db.query("CREATE TABLE t (a INTEGER) USING csv "
                 "OPTIONS (path 'one.csv')")
        assert db.catalog.get("t").format == "csv"


# ---------------------------------------------------------------------------
# Zone-map pruning
# ---------------------------------------------------------------------------
class TestPruning:
    def test_warm_scan_prunes_after_zone_harvest(self):
        db = build(make_rows(80), files=10)
        sql = "SELECT id FROM ev WHERE v >= 730"
        cold = db.query(sql)
        assert files_counters(cold) == {"files_scanned": 10}
        warm = db.query(sql)
        assert warm.rows == cold.rows
        fc = files_counters(warm)
        assert fc["files_scanned"] <= 2
        assert fc["files_pruned"] >= 8

    def test_acceptance_over_80_percent_pruned_in_explain(self):
        # ISSUE acceptance: EXPLAIN + counters show >80% of files
        # pruned for a selective range predicate on a multi-file table.
        db = build(make_rows(80), files=10)
        db.query("SELECT id FROM ev WHERE v >= 0")  # harvest zones
        plan = "\n".join(r[0] for r in db.query(
            "EXPLAIN SELECT id FROM ev WHERE v >= 730").rows)
        assert "files=10" in plan
        assert "files_pruned=9" in plan
        r = db.query("SELECT id FROM ev WHERE v >= 730")
        assert files_counters(r)["files_pruned"] / 10 > 0.8

    def test_prune_all_returns_empty(self):
        db = build(make_rows(40), files=5)
        db.query("SELECT id FROM ev WHERE v >= 0")
        r = db.query("SELECT id FROM ev WHERE v > 100000")
        assert r.rows == []
        assert files_counters(r) == {"files_pruned": 5}

    def test_equality_and_between_prune(self):
        db = build(make_rows(40), files=5)
        db.query("SELECT id, v FROM ev")  # harvest zones for both
        r = db.query("SELECT id FROM ev WHERE v BETWEEN 90 AND 130")
        assert files_counters(r)["files_pruned"] >= 3
        r2 = db.query("SELECT id FROM ev WHERE id = 3")
        assert files_counters(r2) == {"files_scanned": 1,
                                      "files_pruned": 4}
        assert r2.rows == [(3,)]

    def test_pruning_never_changes_results(self):
        rows = make_rows(48, seed=7)
        part, oracle = build(rows, files=6), build_oracle(rows)
        for sql in ("SELECT id FROM ev WHERE v > 300",
                    "SELECT id FROM ev WHERE v <= 50 OR v >= 400",
                    "SELECT id FROM ev WHERE NOT (v < 250)",
                    "SELECT id FROM ev WHERE v IN (5, 105, 405)"):
            part.query("SELECT v FROM ev")  # keep zones warm
            assert part.query(sql).rows == oracle.query(sql).rows, sql

    def test_null_heavy_files_prune_soundly(self):
        rows = make_rows(48, null_every=3)
        part, oracle = build(rows, files=6), build_oracle(rows)
        part.query("SELECT v FROM ev")
        for sql in ("SELECT id FROM ev WHERE v > 380",
                    "SELECT id FROM ev WHERE v IS NULL",
                    "SELECT count(*) FROM ev WHERE NOT (v > 100)"):
            assert part.query(sql).rows == oracle.query(sql).rows, sql

    def test_all_null_file_is_pruned_for_comparisons(self):
        vfs = VirtualFS()
        vfs.create("n-1.csv", b"1,10\n2,20\n")
        vfs.create("n-2.csv", b"3,\n4,\n")  # v entirely NULL
        db = PostgresRaw(vfs=vfs)
        db.query("CREATE TABLE t (id INTEGER, v INTEGER) USING csv "
                 "OPTIONS (path 'n-*.csv')")
        db.query("SELECT v FROM t")
        r = db.query("SELECT id FROM t WHERE v > 5")
        assert r.rows == [(1,), (2,)]
        assert files_counters(r) == {"files_scanned": 1,
                                     "files_pruned": 1}

    def test_partition_by_prunes_cold(self):
        vfs = VirtualFS()
        for day in ("2024-01-05", "2024-02-06", "2024-03-07"):
            vfs.create(f"pt-{day}.csv",
                       f"{day},1\n{day},2\n".encode())
        db = PostgresRaw(vfs=vfs)
        db.query("CREATE TABLE pt (d DATE, x INTEGER) USING csv OPTIONS "
                 "(path 'pt-*.csv', partition_by 'd from filename')")
        # No file has ever been scanned: the filename key alone prunes.
        r = db.query("SELECT x FROM pt WHERE d = DATE '2024-02-06' "
                     "ORDER BY x")
        assert r.rows == [(1,), (2,)]
        assert files_counters(r) == {"files_scanned": 1,
                                     "files_pruned": 2}

    def test_partition_by_unknown_column_rejected(self):
        vfs = VirtualFS()
        vfs.create("pt-1.csv", b"1\n")
        db = PostgresRaw(vfs=vfs)
        with pytest.raises(CatalogError, match="partition_by"):
            db.query("CREATE TABLE pt (x INTEGER) USING csv OPTIONS "
                     "(path 'pt-*.csv', partition_by 'nope from "
                     "filename')")

    def test_partition_by_bad_spec_rejected(self):
        vfs = VirtualFS()
        vfs.create("pt-1.csv", b"1\n")
        db = PostgresRaw(vfs=vfs)
        with pytest.raises(CatalogError, match="from\\b"):
            db.query("CREATE TABLE pt (x INTEGER) USING csv OPTIONS "
                     "(path 'pt-*.csv', partition_by 'x by name')")


# ---------------------------------------------------------------------------
# Refresh: appended / rewritten / new files
# ---------------------------------------------------------------------------
class TestRefresh:
    def test_new_file_appears_on_next_query(self):
        rows = make_rows(24)
        db = build(rows, files=3)
        assert db.query("SELECT count(*) FROM ev").rows == [(24,)]
        db.vfs.create("ev-3.csv", to_csv(make_rows(8, seed=9)))
        assert db.query("SELECT count(*) FROM ev").rows == [(32,)]

    def test_append_invalidates_zone(self):
        db = build(make_rows(24), files=3)
        db.query("SELECT v FROM ev")  # harvest zones
        # Append a row far outside file 0's zone; a stale zone would
        # wrongly prune the file for this predicate.
        db.vfs.append_bytes("ev-0.csv", b"99,z,100000\n")
        r = db.query("SELECT id FROM ev WHERE v >= 100000")
        assert r.rows == [(99,)]

    def test_rewrite_invalidates_zone(self):
        db = build(make_rows(24), files=3)
        db.query("SELECT v FROM ev")
        db.vfs.write_bytes("ev-1.csv", b"50,z,999999\n")
        r = db.query("SELECT id FROM ev WHERE v = 999999")
        assert r.rows == [(50,)]


# ---------------------------------------------------------------------------
# Differential vs the single-file oracle (satellite 4)
# ---------------------------------------------------------------------------
PRUNE_ZERO = "SELECT tag, v FROM ev WHERE v >= 10 ORDER BY id"


class TestOracleDifferential:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_cold_warm_count_exact_cost_parity(self, workers):
        rows = make_rows(48, seed=3)
        oracle = build_oracle(rows)
        part = build(rows, files=6, workers=workers)
        for sql in (PRUNE_ZERO, PRUNE_ZERO,  # cold, then warm repeat
                    "SELECT count(*) FROM ev"):
            expected, got = oracle.query(sql), part.query(sql)
            assert got.rows == expected.rows
            assert core_counters(got) == core_counters(expected)
            assert math.isclose(got.elapsed, expected.elapsed,
                                rel_tol=1e-9)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_fuzz_rows_match_for_random_predicates(self, workers):
        """Random tables split into 2, 3 or 6 files answer random
        workloads as the single file does (the harness's ``glob``
        axis)."""
        for seed in range(8):
            check(seeded_scenario(100 + seed, 4, 4, files=[2, 3, 6][seed % 3],
                                  scan_workers=workers), [AXIS["glob"]])

    @pytest.mark.parametrize("workers", [1, 4])
    def test_prune_all_leg(self, workers):
        rows = make_rows(48, seed=5)
        oracle = build_oracle(rows)
        part = build(rows, files=6, workers=workers)
        part.query("SELECT v FROM ev")
        sql = "SELECT id FROM ev WHERE v > 100000"
        expected, got = oracle.query(sql), part.query(sql)
        assert got.rows == expected.rows == []
        assert files_counters(got) == {"files_pruned": 6}

    def test_structure_dumps_translate_to_oracle(self):
        # Files of 8 rows with row_block_size 4: child block b of file
        # f is oracle block 2*f + b, and child line starts shift by the
        # file's base byte offset. After identical full-column scans
        # the translated structures must match the oracle's exactly.
        rows = make_rows(48, seed=1)
        oracle = build_oracle(rows)
        part = build(rows, files=6)
        sql = "SELECT id, tag, v FROM ev WHERE v >= 10"
        oracle.query(sql)
        part.query(sql)
        odump = pm_dump(oracle.catalog.get("ev").access.pm)
        ocache = cache_dump(oracle.catalog.get("ev").access.cache)

        starts, length, chunks, directory, spilled, cache = \
            [], 0, {}, {}, {}, {}
        base_bytes, base_blocks = 0, 0
        for part_obj in parts_of(part):
            dump = pm_dump(part_obj.access.pm)
            cdump = cache_dump(part_obj.access.cache)
            starts.extend(s + base_bytes for s in dump["line_starts"])
            for (group, block), matrix in dump["chunks"].items():
                chunks[(group, block + base_blocks)] = matrix
            for block, entries in dump["directory"].items():
                directory[block + base_blocks] = {
                    attr: ((key[0], key[1] + base_blocks), col)
                    for attr, (key, col) in entries.items()}
            spilled.update({k + base_blocks: v
                            for k, v in dump["spilled"].items()})
            for (attr, block), payload in cdump.items():
                cache[(attr, block + base_blocks)] = payload
            base_bytes += dump["file_length"]
            base_blocks += dump["file_length"] and 2
            length = base_bytes
        assert starts == odump["line_starts"]
        assert length == odump["file_length"]
        assert chunks == odump["chunks"]
        assert directory == odump["directory"]
        assert spilled == odump["spilled"]
        assert cache == ocache


# ---------------------------------------------------------------------------
# Worker-count invariance
# ---------------------------------------------------------------------------
class TestWorkerInvariance:
    def test_results_counters_dumps_identical_1_vs_4(self):
        rows = make_rows(64, seed=2)
        runs = {}
        for workers in (1, 4):
            db = build(rows, files=8, workers=workers)
            runs[workers] = [
                (digest(db, ["ev"], result.rows), result.elapsed)
                for result in map(db.query, (
                    PRUNE_ZERO, "SELECT count(*) FROM ev",
                    "SELECT id FROM ev WHERE v > 300 ORDER BY id"))]
        assert runs[1] == runs[4]
        # and the pool really ran row-block groups inside the files
        db = build(rows, files=8, workers=4)
        before = db.scan_pool.tasks_submitted
        db.query("SELECT count(*) FROM ev")
        assert db.scan_pool.tasks_submitted - before >= 8

    @pytest.mark.parametrize("scenario", [
        "abandoned_cursor", "malformed_middle_file", "bounded_os_cache"])
    def test_state_after_event_identical_1_vs_4(self, scenario):
        # Files are scanned strictly in order, so whatever stops a scan
        # early (an abandoned cursor, a typed error in file 3) leaves
        # exactly the structures a serial scan built — and a bounded OS
        # page cache sees the same access order — at any worker count.
        rows = make_rows(64, seed=2)
        follow_up = "SELECT count(*) FROM ev WHERE v > 100"

        def outcome(db, sql):
            try:
                return db.query(sql).rows
            except ReproError as exc:
                return (exc.code, exc.context.get("path"))

        runs = {}
        for workers in (1, 4):
            vfs = (VirtualFS(OSPageCache(capacity_bytes=2 * 64 * 1024))
                   if scenario == "bounded_os_cache" else VirtualFS())
            for f in range(8):
                data = to_csv(rows[f * 8:(f + 1) * 8])
                if scenario == "malformed_middle_file" and f == 3:
                    data += b"99,z,notanint\n"
                vfs.create(f"ev-{f}.csv", data)
            db = PostgresRaw(vfs=vfs, config=PostgresRawConfig(
                scan_workers=workers, row_block_size=4))
            db.query("CREATE TABLE ev (id INTEGER, tag VARCHAR, v INTEGER) "
                     "USING csv OPTIONS (path 'ev-*.csv', on_error 'fail')")
            if scenario == "abandoned_cursor":
                cur = repro.connect(engine=db).execute(
                    "SELECT id, v FROM ev")
                event = cur.fetchone()
                cur.close()
            else:
                event = outcome(db, "SELECT id, v FROM ev WHERE v >= 0")
            runs[workers] = (digest(db, ["ev"], event),
                             digest(db, ["ev"], outcome(db, follow_up)))
        if scenario == "malformed_middle_file":
            assert runs[1][0]["outcome"] == ("CSV_FORMAT", "ev-3.csv")
        assert runs[1] == runs[4]


# ---------------------------------------------------------------------------
# Other formats through the same wrapper
# ---------------------------------------------------------------------------
class TestOtherFormats:
    def test_partitioned_jsonl(self):
        vfs = VirtualFS()
        vfs.create("p-1.jsonl", b'{"a": 1, "b": "x"}\n{"a": 2, "b": "y"}\n')
        vfs.create("p-2.jsonl", b'{"a": 5, "b": "z"}\n')
        db = PostgresRaw(vfs=vfs)
        db.query("CREATE TABLE pj (a INTEGER, b VARCHAR) USING jsonl "
                 "OPTIONS (path 'p-*.jsonl')")
        assert db.query("SELECT a, b FROM pj ORDER BY a").rows == [
            (1, "x"), (2, "y"), (5, "z")]
        db.query("SELECT a FROM pj")  # harvest
        r = db.query("SELECT b FROM pj WHERE a > 3")
        assert r.rows == [("z",)]
        assert files_counters(r)["files_pruned"] == 1

    def test_drop_partitioned_table(self):
        db = build(make_rows(16), files=2)
        db.query("SELECT v FROM ev")
        assert db.query("DROP TABLE ev").rows == [("DROP TABLE ev",)]
        assert not db.catalog.has("ev")
