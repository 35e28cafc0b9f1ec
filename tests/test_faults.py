"""Chaos & error-policy suite: fault injection, degradation, deadlines.

The fault-tolerance contract under test:

* ``OPTIONS (on_error 'fail'|'skip'|'null')`` controls what a scan does
  with malformed raw rows — raise a typed error with structured
  context, quarantine the row to the ``__rejects__/`` sidecar, or
  NULL-fill the unparseable values.
* Results, counters, virtual-clock time and positional-map / binary-
  cache structure dumps are bit-identical at any ``scan_workers``
  count, faults or no faults — under every error policy, kernels on
  or off, CSV and JSONL (the lockstep harness's digest and its
  ``workers``, ``faults`` and ``kernels`` axes,
  ``tests/oracle/digest.py``).
* Every injected fault surfaces as a typed error or as counted
  degradation (``io_retries`` / ``rows_rejected`` / ``aux_rebuilds``)
  — never a crash, a wrong answer, or corrupted auxiliary state.
* Auxiliary structures self-heal: corrupted zone sidecars, spilled PM
  chunks and cache blocks are quarantined and rebuilt from the raw
  file.
* ``cursor.execute(..., timeout=)`` / ``config.query_deadline`` cancel
  overrunning queries cooperatively at batch boundaries, leaving the
  session usable.
"""

import pytest

import repro
from repro import PostgresRaw, PostgresRawConfig, VirtualFS
from repro.api.exceptions import (
    DataError,
    OperationalError,
    ProgrammingError,
)
from repro.errors import IOFaultError, QueryTimeoutError
from repro.formats.fits import parse_fits, write_bintable
from repro.simcost.clock import CostEvent
from repro.storage.faults import FaultInjectingVFS
from tests.oracle.digest import digest, kernels_free

DIRTY_CSV = (b"1,alice,30\n"
             b"2,bob,notanint\n"      # bad value in 'age'
             b"3,carol,41\n"
             b"badrow\n"              # short row
             b"5,eve,29\n"
             b"6,frank,52\n"
             b"7,grace,oops\n"        # bad value in 'age'
             b"8,heidi,33\n")

DIRTY_JSONL = (b'{"id": 1, "age": 30}\n'
               b'{"id": 2, "age": "nope"}\n'   # bad value
               b'{"id": 3, "age": 41}\n'
               b'not json at all\n'            # structurally broken
               b'{"id": 5}\n'                  # missing member: plain NULL
               b'{"id": 6, "age": 52}\n')


def make_session(data=DIRTY_CSV, on_error=None, fmt="csv", **config_kw):
    vfs = VirtualFS()
    path = "dirty.csv" if fmt == "csv" else "dirty.jsonl"
    vfs.create(path, data)
    ses = repro.connect(vfs=vfs, config=PostgresRawConfig(**config_kw))
    opts = f"path '{path}'"
    if on_error is not None:
        opts += f", on_error '{on_error}'"
    if fmt == "csv":
        ddl = (f"CREATE TABLE t (id INTEGER, name TEXT, age INTEGER) "
               f"USING csv OPTIONS ({opts})")
    else:
        ddl = (f"CREATE TABLE t (id INTEGER, age INTEGER) "
               f"USING jsonl OPTIONS ({opts})")
    cur = ses.cursor()
    cur.execute(ddl)
    return ses, cur, vfs


# ---------------------------------------------------------------------------
# Error policies
# ---------------------------------------------------------------------------
def test_on_error_fail_is_default_and_typed():
    ses, cur, _ = make_session()
    cur.execute("SELECT id, age FROM t WHERE age > 0")
    with pytest.raises(DataError) as err:
        cur.fetchall()
    assert err.value.code == "CSV_FORMAT"
    assert err.value.context.get("table") == "t"
    assert err.value.context.get("path") == "dirty.csv"
    # The first failure the scan hits is the short row (0-based row 3).
    assert err.value.context.get("row_number") == 3


def test_on_error_skip_quarantines_rows():
    ses, cur, vfs = make_session(on_error="skip")
    cur.execute("SELECT id, age FROM t WHERE age > 0")
    rows = cur.fetchall()
    assert rows == [(1, 30), (3, 41), (5, 29), (6, 52), (8, 33)]
    assert cur.counters().get("rows_rejected") == 3
    sidecar = vfs.read_bytes("__rejects__/t")
    lines = sidecar.decode().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("1\t")          # 0-based row number
    assert "notanint" in lines[0]
    assert any(line.startswith("3\t") for line in lines)  # badrow
    assert any(line.startswith("6\t") for line in lines)  # oops


def test_on_error_skip_sidecar_not_duplicated_on_warm_scan():
    ses, cur, vfs = make_session(on_error="skip")
    # Selective parsing: only the touched column (id) can reject, so
    # just the short row is quarantined — bad 'age' values go unseen.
    cur.execute("SELECT id FROM t")
    first = cur.fetchall()
    assert first == [(1,), (2,), (3,), (5,), (6,), (7,), (8,)]
    assert cur.counters().get("rows_rejected") == 1
    size_after_cold = len(vfs.read_bytes("__rejects__/t"))
    cur.execute("SELECT id FROM t")
    assert cur.fetchall() == first
    # The counter re-counts every scan; the sidecar dedupes by row.
    assert cur.counters().get("rows_rejected") == 1
    assert len(vfs.read_bytes("__rejects__/t")) == size_after_cold


def test_on_error_null_keeps_rows():
    ses, cur, _ = make_session(on_error="null")
    cur.execute("SELECT id, age FROM t")
    rows = cur.fetchall()
    assert len(rows) == 8
    by_id = dict(rows)
    assert by_id[2] is None and by_id[7] is None
    assert by_id[1] == 30 and by_id[8] == 33
    # The short row has no parseable id either under 'null'.
    assert (None, None) in rows


def test_on_error_null_filters_null_predicates():
    # SQL three-valued logic: NULL > 0 is UNKNOWN, row filtered.
    ses, cur, _ = make_session(on_error="null")
    cur.execute("SELECT id FROM t WHERE age > 0")
    assert [r[0] for r in cur.fetchall()] == [1, 3, 5, 6, 8]


def test_bad_on_error_policy_rejected_at_ddl():
    vfs = VirtualFS()
    vfs.create("t.csv", b"1\n")
    ses = repro.connect(vfs=vfs)
    with pytest.raises(ProgrammingError):
        ses.cursor().execute(
            "CREATE TABLE t (id INTEGER) USING csv "
            "OPTIONS (path 't.csv', on_error 'explode')")


def test_explain_surfaces_on_error():
    ses, cur, _ = make_session(on_error="skip")
    cur.execute("EXPLAIN SELECT id FROM t")
    text = "\n".join(r[0] for r in cur.fetchall())
    assert "on_error='skip'" in text
    ses2, cur2, _ = make_session()
    cur2.execute("EXPLAIN SELECT id FROM t")
    text2 = "\n".join(r[0] for r in cur2.fetchall())
    assert "on_error" not in text2


def test_jsonl_policies():
    ses, cur, _ = make_session(data=DIRTY_JSONL, on_error="skip",
                               fmt="jsonl")
    cur.execute("SELECT id, age FROM t")
    rows = cur.fetchall()
    # Missing member is an ordinary NULL, never an error.
    assert rows == [(1, 30), (3, 41), (5, None), (6, 52)]
    assert cur.counters().get("rows_rejected") == 2

    ses2, cur2, _ = make_session(data=DIRTY_JSONL, on_error="null",
                                 fmt="jsonl")
    cur2.execute("SELECT id, age FROM t")
    rows2 = cur2.fetchall()
    assert len(rows2) == 6
    assert (None, None) in rows2          # the broken line, all-NULL
    assert (2, None) in rows2             # bad value only

    ses3, cur3, _ = make_session(data=DIRTY_JSONL, fmt="jsonl")
    cur3.execute("SELECT id, age FROM t")
    with pytest.raises(DataError) as err:
        cur3.fetchall()
    assert err.value.code == "JSONL_FORMAT"


# ---------------------------------------------------------------------------
# Worker-count bit-identity under error policies
# ---------------------------------------------------------------------------
POLICY_QUERIES = ("SELECT id, age FROM t WHERE age > 0",
                  "SELECT name FROM t",
                  "SELECT id, age FROM t WHERE age > 0",   # warm
                  "SELECT count(*) FROM t")


def policy_digests(workers, on_error, kernels=True, data=DIRTY_CSV,
                   fmt="csv", queries=POLICY_QUERIES):
    """The lockstep digest — rows, counters, clock, PM/cache dumps,
    statistics and the reject sidecar — after each query over the dirty
    file."""
    ses, cur, _ = make_session(data, on_error, fmt, scan_workers=workers,
                               row_block_size=2, scan_kernels=kernels)
    digests = []
    for sql in queries:
        cur.execute(sql)
        digests.append(digest(ses.engine, ["t"], cur.fetchall()))
    ses.close()
    return digests


@pytest.mark.parametrize("on_error", ["skip", "null"])
def test_policy_bit_identity_across_workers(on_error):
    baseline = policy_digests(1, on_error)
    assert bool(baseline[-1]["rejects"]) == (on_error == "skip")
    for workers in (2, 4):
        assert policy_digests(workers, on_error) == baseline


def test_policy_bit_identity_kernels_on_off():
    # Kernel probe/bailout events are the only permitted difference —
    # results, structures, rejects and the clock match exactly.
    assert [kernels_free(d) for d in policy_digests(1, "skip", False)] == \
        [kernels_free(d) for d in policy_digests(4, "skip", True)]


def test_jsonl_skip_bit_identity_across_workers():
    queries = ("SELECT id, age FROM t", "SELECT id, age FROM t")  # warm
    baseline = policy_digests(1, "skip", data=DIRTY_JSONL, fmt="jsonl",
                              queries=queries)
    for workers in (2, 4):
        assert policy_digests(workers, "skip", data=DIRTY_JSONL,
                              fmt="jsonl", queries=queries) == baseline


# ---------------------------------------------------------------------------
# I/O fault injection: retries, hard errors, truncation
# ---------------------------------------------------------------------------
CLEAN_CSV = b"".join(b"%d,%d\n" % (i, i * 7) for i in range(200))


def faulty_session(seed, rate, workers=1, **vfs_kw):
    vfs = FaultInjectingVFS(seed=seed, rate=rate, **vfs_kw)
    vfs.create("t.csv", CLEAN_CSV)
    ses = repro.connect(
        vfs=vfs, config=PostgresRawConfig(scan_workers=workers,
                                          row_block_size=16))
    cur = ses.cursor()
    cur.execute("CREATE TABLE t (id INTEGER, v INTEGER) "
                "USING csv OPTIONS (path 't.csv')")
    return ses, cur, vfs


def test_transient_faults_retry_and_stay_deterministic():
    def run(workers):
        ses, cur, _ = faulty_session(seed=11, rate=0.6, workers=workers)
        cur.execute("SELECT id, v FROM t WHERE v > 100")
        rows = cur.fetchall()
        state = (rows, dict(ses.engine.clock.counters),
                 ses.engine.clock.now())
        ses.close()
        return state
    rows, counters, elapsed = run(1)
    # Correct answer despite the faults...
    assert rows == [(i, i * 7) for i in range(200) if i * 7 > 100]
    # ...with the degradation counted and billed on the virtual clock.
    assert counters.get(CostEvent.IO_RETRIES, 0) > 0
    assert counters.get(CostEvent.IO_STALL, 0) > 0
    # Same seed, any worker count: bit-identical.
    assert run(4) == (rows, counters, elapsed)
    # A different seed gives a different (but still correct) schedule.
    other = faulty_session(seed=12, rate=0.6)
    other[1].execute("SELECT id, v FROM t WHERE v > 100")
    assert other[1].fetchall() == rows


def test_hard_fault_is_typed_and_counted():
    ses, cur, vfs = faulty_session(seed=1, rate=0.0)
    vfs.schedule_error("t.csv")
    cur.execute("SELECT id FROM t")
    with pytest.raises(OperationalError) as err:
        cur.fetchall()
    assert err.value.code == "IO_FAULT"
    assert isinstance(err.value.__cause__, IOFaultError)
    assert err.value.context.get("path") == "t.csv"
    assert "byte_offset" in err.value.context
    # The retry budget was spent before giving up.
    assert ses.engine.clock.counters.get(CostEvent.IO_RETRIES, 0) > 0
    # The bad region stays bad until repaired; then the session
    # recovers without being rebuilt.
    cur.execute("SELECT count(*) FROM t")
    with pytest.raises(OperationalError):
        cur.fetchall()
    vfs.resolve_error("t.csv")
    cur.execute("SELECT count(*) FROM t")
    assert cur.fetchall() == [(200,)]


def test_midscan_truncation_never_crashes():
    ses, cur, vfs = faulty_session(seed=1, rate=0.0)
    vfs.schedule_truncation("t.csv", after_reads=2,
                            keep_bytes=len(CLEAN_CSV) // 2)
    cur.execute("SELECT id, v FROM t")
    try:
        rows = cur.fetchall()
        # Completed: every emitted row must be genuine file content.
        assert all(v == i * 7 for i, v in rows)
    except (DataError, OperationalError):
        pass  # typed failure is equally acceptable — never a crash
    # §4.5 external-update detection: the next query sees the truncated
    # file consistently (structures were reset, results are correct).
    cur.execute("SELECT count(*) FROM t")
    count = cur.fetchall()[0][0]
    truncated = vfs.read_bytes("t.csv")
    assert count == truncated.count(b"\n") + (
        0 if truncated.endswith(b"\n") or not truncated else 1)


def test_fits_midscan_truncation_never_crashes():
    """The FITS twin of the test above: a short read under the fixed
    row stride must not turn into rows of zeros."""
    data = write_bintable(["id", "v"], ["J", "J"],
                          [(i, i * 7 + 1) for i in range(200)])
    vfs = FaultInjectingVFS(seed=1, rate=0.0)
    vfs.create("t.fits", data)
    ses = repro.connect(vfs=vfs,
                        config=PostgresRawConfig(row_block_size=16))
    cur = ses.cursor()
    cur.execute("CREATE TABLE t USING fits OPTIONS (path 't.fits')")
    # The header is parsed uncosted: the third block's read truncates
    # the file to its first 100 rows.
    vfs.schedule_truncation("t.fits", after_reads=2,
                            keep_bytes=parse_fits(data).data_offset + 800)
    cur.execute("SELECT id, v FROM t")
    try:
        rows = cur.fetchall()
        assert all(v == i * 7 + 1 for i, v in rows)
    except (DataError, OperationalError):
        pass
    # The next query re-reads the header of the truncated file.
    with pytest.raises(DataError, match="truncated FITS data"):
        cur.execute("SELECT count(*) FROM t")
        cur.fetchall()


def test_engine_wraps_vfs_when_fault_seed_configured():
    eng = PostgresRaw(config=PostgresRawConfig(fault_seed=3))
    assert isinstance(eng.vfs, FaultInjectingVFS)
    # An explicitly passed VFS is never wrapped.
    eng2 = PostgresRaw(config=PostgresRawConfig(fault_seed=3),
                       vfs=VirtualFS())
    assert not isinstance(eng2.vfs, FaultInjectingVFS)


def test_configured_engine_keeps_the_default_retry_budget():
    eng = PostgresRaw(config=PostgresRawConfig(fault_seed=3,
                                               fault_rate=0.2))
    default = FaultInjectingVFS(seed=3)
    assert (eng.vfs.seed, eng.vfs.rate) == (3, 0.2)
    assert eng.vfs.retry_limit == default.retry_limit == 3
    assert eng.vfs.backoff == default.backoff == 0.001


@pytest.mark.parametrize("raw, seed", [
    (None, None), ("", None), ("  ", None), ("abc", None), ("7", 7)])
def test_fault_seed_env_default(monkeypatch, raw, seed):
    """``REPRO_FAULT_SEED`` sets the default ``fault_seed``; unset,
    blank or unparseable leaves faults off."""
    if raw is None:
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
    else:
        monkeypatch.setenv("REPRO_FAULT_SEED", raw)
    assert PostgresRawConfig().fault_seed == seed
    assert PostgresRawConfig(fault_seed=5).fault_seed == 5


# ---------------------------------------------------------------------------
# Auxiliary-structure self-healing
# ---------------------------------------------------------------------------
def partitioned_setup():
    vfs = FaultInjectingVFS(seed=5, rate=0.0)
    vfs.create("data/p1.csv", b"1,10\n2,20\n")
    vfs.create("data/p2.csv", b"3,30\n4,40\n")
    eng = PostgresRaw(vfs=vfs)
    eng.query("CREATE TABLE t (id INTEGER, v INTEGER) USING csv "
              "OPTIONS (path 'data/p*.csv')")
    eng.query("SELECT id, v FROM t")      # builds + persists zones
    return vfs


def test_zone_sidecar_detects_same_size_mutation():
    """Regression for the silent-staleness gap: an in-place overwrite
    that leaves (rewrite_count, size) unchanged used to be trusted."""
    vfs = partitioned_setup()
    vfs.external_overwrite("data/p2.csv", 0, b"9,90\n8,80\n")
    eng = PostgresRaw(vfs=vfs)
    eng.query("CREATE TABLE t (id INTEGER, v INTEGER) USING csv "
              "OPTIONS (path 'data/p*.csv')")
    assert eng.clock.counters.get(CostEvent.AUX_REBUILDS, 0) == 1
    # The stale zone (30..40) would have pruned p2 for v > 85.
    assert eng.query("SELECT id FROM t WHERE v > 85").rows == [(9,)]


def test_zone_sidecar_checksum_quarantines_corruption():
    vfs = partitioned_setup()
    zone_paths = sorted(p for p in vfs.listdir()
                        if p.startswith("__zones__/"))
    assert zone_paths
    vfs.write_bytes(zone_paths[0], b"{garbage")
    payload = vfs.read_bytes(zone_paths[1])
    vfs.write_bytes(zone_paths[1],
                    payload.replace(b'"row_count": 2', b'"row_count": 1'))
    eng = PostgresRaw(vfs=vfs)
    eng.query("CREATE TABLE t (id INTEGER, v INTEGER) USING csv "
              "OPTIONS (path 'data/p*.csv')")
    assert eng.clock.counters.get(CostEvent.AUX_REBUILDS, 0) == 2
    assert eng.query("SELECT count(*) FROM t").rows == [(4,)]
    # Both quarantined sidecars were deleted; the next scan rebuilds.
    eng.query("SELECT id, v FROM t")
    for path in zone_paths:
        assert vfs.exists(path)


def test_pm_spill_corruption_self_heals():
    vfs = VirtualFS()
    vfs.create("u.csv", b"".join(b"%d,%d\n" % (i, i * 10)
                                 for i in range(1, 7)))
    eng = PostgresRaw(config=PostgresRawConfig(
        pm_budget_bytes=8, pm_spill_enabled=True, row_block_size=2),
        vfs=vfs)
    eng.query("CREATE TABLE u (id INTEGER, v INTEGER) USING csv "
              "OPTIONS (path 'u.csv')")
    expect = eng.query("SELECT v FROM u WHERE id > 3").rows
    pm = eng.positional_map_of("u")
    assert pm._spilled
    for path in pm._spilled.values():
        data = vfs.read_bytes(path)
        vfs.write_bytes(path, data[:len(data) - 3])   # tear mid-row
    assert eng.query("SELECT v FROM u WHERE id > 3").rows == expect
    assert eng.clock.counters.get(CostEvent.AUX_REBUILDS, 0) > 0
    # Healed: subsequent queries keep working.
    assert eng.query("SELECT v FROM u WHERE id > 3").rows == expect


def test_cache_corruption_self_heals():
    vfs = VirtualFS()
    vfs.create("t.csv", b"1,10\n2,20\n3,30\n")
    eng = PostgresRaw(vfs=vfs)
    eng.query("CREATE TABLE t (id INTEGER, v INTEGER) USING csv "
              "OPTIONS (path 't.csv')")
    expect = eng.query("SELECT v FROM t").rows
    cache = eng.cache_of("t")
    for block in cache._blocks.values():
        block._mask = block._mask[:1]        # break the geometry
    assert eng.query("SELECT v FROM t").rows == expect
    assert eng.clock.counters.get(CostEvent.AUX_REBUILDS, 0) > 0


# ---------------------------------------------------------------------------
# Query deadlines
# ---------------------------------------------------------------------------
def big_table_session(**config_kw):
    vfs = VirtualFS()
    vfs.create("big.csv", b"".join(b"%d,%d\n" % (i, i * 3)
                                   for i in range(5000)))
    ses = repro.connect(vfs=vfs, config=PostgresRawConfig(**config_kw))
    cur = ses.cursor()
    cur.execute("CREATE TABLE big (id INTEGER, v INTEGER) "
                "USING csv OPTIONS (path 'big.csv')")
    return ses, cur


def test_execute_timeout_cancels_cooperatively():
    ses, cur = big_table_session()
    cur.execute("SELECT id, v FROM big WHERE v > 9", timeout=1e-6)
    with pytest.raises(OperationalError) as err:
        cur.fetchall()
    assert err.value.code == "QUERY_TIMEOUT"
    assert isinstance(err.value.__cause__, QueryTimeoutError)
    assert err.value.context.get("timeout") == 1e-6
    # Partial cost stayed on the session ledger.
    assert ses.elapsed() > 0
    # The session (and a generous timeout) keep working.
    cur.execute("SELECT count(*) FROM big", timeout=1e9)
    assert cur.fetchall() == [(5000,)]


def test_config_query_deadline_default():
    ses, cur = big_table_session(query_deadline=1e-6)
    cur.execute("SELECT id FROM big")
    with pytest.raises(OperationalError) as err:
        cur.fetchall()
    assert err.value.code == "QUERY_TIMEOUT"
    # Per-execute timeout overrides the config default.
    cur.execute("SELECT count(*) FROM big", timeout=1e9)
    assert cur.fetchall() == [(5000,)]


def test_timeout_not_triggered_when_fast_enough():
    ses, cur = big_table_session()
    cur.execute("SELECT count(*) FROM big", timeout=1e9)
    assert cur.fetchall() == [(5000,)]
    assert cur._job.state == "finished"
