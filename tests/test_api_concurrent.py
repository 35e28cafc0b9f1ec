"""Concurrent sessions over one shared engine.

Covers the scheduler contract (FIFO admission, max-in-flight gate,
cooperative batch-boundary interleaving, per-query accounting) and the
differential satellite: two cursors streaming from the same raw CSV
table, interleaved at batch boundaries, must leave the positional map
and binary cache identical to a serial run; random interleaved
workloads must answer as the row-at-a-time oracle does (the lockstep
harness, ``tests/oracle/digest.py``, with its ``Interleave`` op) and
converge to its structures after a full-coverage scan.

"Identical" for the positional map means *content*-identical
(``pm_content`` of the digest's dump): every line start, the file
length, the spill set, and every (row-block, attribute) position the
map can answer. The vertical chunk *grouping* is excluded — it records
which query's flush first grouped the attributes, so it is a layout
artifact of workload interleaving order, not of what the map knows (the
paper's map is explicitly workload-shaped, §4.2). The binary cache must
match byte-for-byte."""

import pytest

import repro
from repro import PostgresRaw, PostgresRawConfig, VirtualFS
from repro.workloads.micro import generate_micro_csv

from tests.conftest import create_table
from tests.oracle.digest import (
    AXIS,
    Interleave,
    Query,
    Scenario,
    check,
    digest,
    pm_content,
    random_query,
    seeded,
)


def content(engine, table="m"):
    """The map's content without chunk grouping, and the cache."""
    state = digest(engine, [table])
    return pm_content(state[f"{table}.pm"]), state[f"{table}.cache"]


def micro_engine(rows=600, block=64, **config_kwargs):
    vfs = VirtualFS()
    schema = generate_micro_csv(vfs, "m.csv", rows=rows, nattrs=8, seed=3)
    engine = PostgresRaw(
        config=PostgresRawConfig(row_block_size=block, **config_kwargs),
        vfs=vfs)
    create_table(engine, "m", "m.csv", schema)
    return engine


class TestScheduler:
    def test_fifo_admission_with_gate(self):
        engine = micro_engine()
        s1 = repro.connect(engine=engine, max_in_flight=1)
        s2 = repro.connect(engine=engine)
        scheduler = engine.shared_scheduler()
        assert s1.scheduler is s2.scheduler is scheduler
        assert scheduler.max_in_flight == 1

        c1 = s1.execute("SELECT a1 FROM m")
        assert c1.fetchone() is not None
        assert scheduler.in_flight == 1
        c2 = s2.execute("SELECT a2 FROM m")
        assert scheduler.queued == 1  # gate full: c2 waits

        # Fetching the queued query drives the in-flight one to
        # completion, frees the slot, then admits FIFO.
        rows2 = c2.fetchall()
        assert len(rows2) == 600
        assert scheduler.queued == 0
        # c1 completed while being driven; its rows are all buffered.
        assert len(c1.fetchall()) == 599  # one was fetched above
        assert scheduler.in_flight == 0

    def test_interleaved_cursors_share_gate(self):
        engine = micro_engine()
        s1 = repro.connect(engine=engine, max_in_flight=2)
        s2 = repro.connect(engine=engine)
        c1 = s1.execute("SELECT a1 FROM m WHERE a1 > 0")
        c2 = s2.execute("SELECT a2 FROM m")
        out1, out2 = [], []
        while True:
            chunk1 = c1.fetchmany(50)
            chunk2 = c2.fetchmany(50)
            out1.extend(chunk1)
            out2.extend(chunk2)
            if not chunk1 and not chunk2:
                break
        fresh = micro_engine()
        assert out1 == fresh.query("SELECT a1 FROM m WHERE a1 > 0").rows
        assert out2 == fresh.query("SELECT a2 FROM m").rows

    def test_per_query_accounting_is_disjoint(self):
        engine = micro_engine(rows=400)
        session = repro.connect(engine=engine)
        c1 = session.execute("SELECT a1 FROM m")
        c2 = session.execute("SELECT a1 FROM m")
        # Interleave to completion.
        while c1.fetchmany(64) or c2.fetchmany(64):
            pass
        counters1 = c1.counters()
        counters2 = c2.counters()
        engine_total = engine.counters()
        for event in set(counters1) | set(counters2):
            assert (counters1.get(event, 0) + counters2.get(event, 0)
                    <= engine_total.get(event, 0) + 1e-9), event
        assert c1.elapsed() > 0 and c2.elapsed() > 0
        assert session.elapsed() <= engine.elapsed() + 1e-9

    def test_scheduler_rejects_bad_gate(self):
        engine = micro_engine()
        with pytest.raises(ValueError):
            engine.shared_scheduler(max_in_flight=0)

    def test_queued_job_can_be_cancelled(self):
        engine = micro_engine()
        s = repro.connect(engine=engine, max_in_flight=1)
        c1 = s.execute("SELECT a1 FROM m")
        c1.fetchone()
        c2 = s.execute("SELECT a2 FROM m")
        assert s.scheduler.queued == 1
        c2.close()
        assert s.scheduler.queued == 0
        assert len(c1.fetchall()) == 599


def serial_vs_interleaved(block_size, enable_cache=True,
                          enable_positional_map=True):
    """Run the same two queries serially and interleaved on identical
    engines; return both engines for structure comparison."""
    kwargs = dict(enable_cache=enable_cache,
                  enable_positional_map=enable_positional_map)
    q1 = "SELECT a1, a3 FROM m WHERE a2 < 600000000"
    q2 = "SELECT a2, a4 FROM m"

    serial = micro_engine(block=block_size, **kwargs)
    serial_s = repro.connect(engine=serial)
    rows1_serial = serial_s.query(q1).rows
    rows2_serial = serial_s.query(q2).rows

    inter = micro_engine(block=block_size, **kwargs)
    inter_s = repro.connect(engine=inter, max_in_flight=4)
    c1 = inter_s.execute(q1)
    c2 = inter_s.execute(q2)
    rows1, rows2 = [], []
    while True:  # strict batch-boundary interleave
        chunk1 = c1.fetchmany(block_size)
        chunk2 = c2.fetchmany(block_size)
        rows1.extend(chunk1)
        rows2.extend(chunk2)
        if not chunk1 and not chunk2:
            break
    assert rows1 == rows1_serial
    assert rows2 == rows2_serial
    return serial, inter


class TestConcurrentDifferential:
    @pytest.mark.parametrize("block_size", [16, 64, 128])
    def test_structures_identical_to_serial(self, block_size):
        serial, inter = serial_vs_interleaved(block_size)
        assert content(inter) == content(serial)

    def test_structures_identical_without_cache(self):
        serial, inter = serial_vs_interleaved(64, enable_cache=False)
        assert content(inter) == content(serial)

    def test_structures_identical_without_pm(self):
        serial, inter = serial_vs_interleaved(
            64, enable_positional_map=False)
        assert content(inter) == content(serial)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_workloads_interleaved_match_scalar_oracle(self, seed):
        """Results fetched through interleaved streaming cursors match
        the row-at-a-time oracle and the loaded engine; once the scans
        ran to the end the two engines' structures agree, and a final
        full-coverage scan leaves identical map content and
        byte-identical caches (the harness's ``oracle`` axis over
        ``Interleave`` ops)."""
        table, schema, rng = seeded(31000 + seed)
        block_size = rng.choice([1, 3, 8, 17, 64])
        ops = [Interleave((random_query(rng, schema),
                           random_query(rng, schema)))
               for _ in range(4)]
        columns = ", ".join(c.name for c in schema.columns)
        ops.append(Query(f"SELECT {columns} FROM t"))
        oracle = AXIS["oracle"]
        runs = check(Scenario((table,), tuple(ops),
                              (("row_block_size", block_size),)),
                     [oracle, AXIS["loaded"]])
        final = [runs[variant][-1] for variant in (oracle.left, oracle.right)]
        assert pm_content(final[0]["t.pm"]) == pm_content(final[1]["t.pm"])
        assert final[0]["t.cache"] == final[1]["t.cache"]
