"""Multi-client determinism: wire sessions equal in-process sessions.

N wire clients streaming through the server must leave every cursor's
ledger, every session's clock and the engine's priced ledger and
structures identical to N in-process sessions driven through the same
admission scheduler in the same round-robin order: the lockstep
harness's ``wire`` axis (``tests/oracle/digest.py``), which drives both
sides from one thread (the server handles requests strictly in arrival
order, so a sequential driver pins the interleaving), at
``scan_workers`` 1 and 4.

A truly threaded test checks row correctness: the interleaving — and
hence the cold/warm split between clients — is up to the OS scheduler,
but row *content* is not.
"""

import threading

import pytest

import repro
from repro import PostgresRaw, PostgresRawConfig, VirtualFS
from repro.server import QueryServer, wire_connect
from repro.workloads.micro import generate_micro_csv
from tests.conftest import create_table
from tests.oracle.digest import WIRE, Interleave, Scenario, Table, check

WORKER_COUNTS = (1, 4)

#: one query per client — overlapping attribute sets so the positional
#: map and cache are genuinely shared (and fought over) across clients
CLIENT_QUERIES = [
    "SELECT a1, a2 FROM m WHERE a1 > 100 ORDER BY a1",
    "SELECT a2, a4 FROM m WHERE a2 > 150000000 ORDER BY a2",
    "SELECT a3, count(*) FROM m GROUP BY a3 ORDER BY a3",
    "SELECT a1, a5 FROM m WHERE a5 < 400000000 ORDER BY a1",
]


def micro_engine(workers: int) -> PostgresRaw:
    vfs = VirtualFS()
    schema = generate_micro_csv(vfs, "m.csv", rows=900, nattrs=6, seed=11)
    engine = PostgresRaw(
        config=PostgresRawConfig(row_block_size=64, scan_workers=workers),
        vfs=vfs)
    create_table(engine, "m", "m.csv", schema)
    return engine


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_wire_clients_match_in_process_sessions(workers):
    """The wire axis on the micro table: bit-identical rows per client,
    identical per-query ledgers and per-session clocks, and an identical
    engine — same virtual clock, same priced counters, same structures.
    The server front end is cost-invisible."""
    sqls = tuple(sql.replace(" m ", " t ") for sql in CLIENT_QUERIES)
    check(Scenario((Table("t", "micro", 11),), (Interleave(sqls, 50),),
                   (("row_block_size", 64), ("scan_workers", workers))),
          [WIRE])


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_threaded_wire_clients_row_correctness(workers):
    # Content oracle: each query's rows on a private fresh engine.
    expected = {sql: repro.connect(engine=micro_engine(workers))
                .execute(sql).fetchall() for sql in CLIENT_QUERIES}

    engine = micro_engine(workers)
    failures = []
    with QueryServer(engine, max_in_flight=len(CLIENT_QUERIES)) as server:
        def client_main(sql):
            try:
                with wire_connect("127.0.0.1", server.port) as session:
                    for _ in range(2):  # cold pass, then warm
                        rows = session.execute(sql).fetchall()
                        if rows != expected[sql]:
                            failures.append((sql, len(rows)))
            except Exception as exc:  # surfaced below, not swallowed
                failures.append((sql, repr(exc)))

        threads = [threading.Thread(target=client_main, args=(sql,))
                   for sql in CLIENT_QUERIES]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert server.stats["queries"] == 2 * len(CLIENT_QUERIES)
    assert not failures
