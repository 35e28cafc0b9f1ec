"""Server throughput — concurrent wire clients over one engine.

Unlike the figure benches this measures the *front end*, not the cost
model: real wall-clock time for N threaded wire clients streaming
results through the asyncio server, against the single-threaded
in-process baseline running the same queries back to back. The server
adds protocol framing, an event loop and an executor hop per request —
the bench reports that overhead and how it amortizes as clients share
the engine thread's admission gate.

The smoke test is the CI tripwire: at least 8 concurrent streaming
clients must all complete with correct rows while every stream keeps
the bounded-buffer guarantee (peak buffered rows stays a small
multiple of the row-block size, never the full result).
"""

import threading
import time

from figshared import create_table, header, table

from repro import PostgresRaw, PostgresRawConfig, VirtualFS
from repro.server import QueryServer, wire_connect
from repro.workloads.micro import generate_micro_csv, micro_schema

N_CLIENTS = 8
QUERIES_PER_CLIENT = 3
ROWS = 2000
BLOCK = 128

# No ORDER BY: a sort would materialize the result inside the plan,
# and the point here is the *streaming* path's bounded buffer.
SQL = "SELECT a1, a2, a4 FROM m WHERE a1 > ?"


def build_engine() -> PostgresRaw:
    vfs = VirtualFS()
    generate_micro_csv(vfs, "m.csv", rows=ROWS, nattrs=6, seed=5)
    engine = PostgresRaw(
        config=PostgresRawConfig(row_block_size=BLOCK), vfs=vfs)
    create_table(engine, "m", "m.csv", micro_schema(6))
    return engine


def run_clients(port: int, n_clients: int):
    """N threads, each streaming QUERIES_PER_CLIENT results in chunks;
    returns (per-client row counts, per-client peak buffered rows,
    failures)."""
    row_counts = [0] * n_clients
    peaks = [0] * n_clients
    failures: list[tuple[int, str]] = []
    barrier = threading.Barrier(n_clients)

    def client_main(k: int) -> None:
        try:
            with wire_connect("127.0.0.1", port) as session:
                barrier.wait(timeout=30)
                for q in range(QUERIES_PER_CLIENT):
                    cursor = session.execute(SQL, (100 * (q + 1),))
                    while True:
                        got = cursor.fetchmany(64)
                        if not got:
                            break
                        row_counts[k] += len(got)
                    peaks[k] = max(peaks[k], cursor.peak_buffered_rows)
                    cursor.close()
        except Exception as exc:
            failures.append((k, repr(exc)))

    threads = [threading.Thread(target=client_main, args=(k,))
               for k in range(n_clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return time.perf_counter() - start, row_counts, peaks, failures


def expected_rows_per_client() -> int:
    engine = build_engine()
    return sum(len(engine.query(SQL.replace("?", str(100 * (q + 1)))).rows)
               for q in range(QUERIES_PER_CLIENT))


def test_server_throughput_smoke():
    """CI smoke: >= 8 concurrent streaming clients all complete with
    correct row counts and bounded peak buffering."""
    expected = expected_rows_per_client()

    # In-process baseline: same total work on one thread.
    engine = build_engine()
    start = time.perf_counter()
    for _ in range(N_CLIENTS):
        session_rows = 0
        for q in range(QUERIES_PER_CLIENT):
            session_rows += len(
                engine.query(SQL.replace("?", str(100 * (q + 1)))).rows)
        assert session_rows == expected
    baseline = time.perf_counter() - start

    with QueryServer(build_engine(), max_in_flight=16) as server:
        elapsed, row_counts, peaks, failures = run_clients(
            server.port, N_CLIENTS)
        stats = dict(server.stats)

    assert not failures, failures
    assert row_counts == [expected] * N_CLIENTS
    assert stats["queries"] == N_CLIENTS * QUERIES_PER_CLIENT
    assert stats["rejected_busy"] == 0
    # The streaming bound holds for every client under full concurrency:
    # a handful of blocks, never the whole result buffered server-side.
    assert all(0 < peak <= 8 * BLOCK for peak in peaks), peaks

    header("server throughput",
           f"{N_CLIENTS} threaded wire clients x {QUERIES_PER_CLIENT} "
           f"streamed queries vs the in-process loop")
    total = N_CLIENTS * QUERIES_PER_CLIENT
    table(
        ["mode", "queries", "wall_s", "q_per_s"],
        [["in-process", total, baseline, total / baseline],
         ["wire x8", total, elapsed, total / elapsed]])
    print(f"peak buffered rows per client: {peaks} (block={BLOCK})")
