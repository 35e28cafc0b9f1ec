"""The network front end: protocol, server, tenants, metrics plane.

Covers the wire protocol in isolation (framing, value fidelity, error
serialization), the server end to end against an in-process oracle
(bit-identical rows, description, counters and elapsed), the
structured-error contract per error class, per-tenant quotas, typed
``SERVER_BUSY`` back-pressure, disconnect → abandoned-query cleanup,
the in-process ``Cursor.close()`` early-close satellite, and the HTTP
``/health`` / ``/metrics`` plane.
"""

import datetime
import io
import json
import socket
import struct
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

import repro
from repro import PostgresRaw, PostgresRawConfig, VirtualFS
from repro.api.exceptions import (
    DataError,
    InterfaceError,
    OperationalError,
    ProgrammingError,
)
from repro.errors import (
    CSVFormatError,
    ParseError,
    QueryTimeoutError,
    QuotaExceededError,
    ServerBusyError,
    annotate,
)
from repro.server import (
    QueryServer,
    TenantRegistry,
    WireSession,
    wire_connect,
)
from repro.server import protocol
from repro.simcost.clock import CostEvent
from repro.workloads.micro import generate_micro_csv

from conftest import create_table

# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def micro_engine(rows=300, block=64, **config_kwargs):
    vfs = VirtualFS()
    schema = generate_micro_csv(vfs, "m.csv", rows=rows, nattrs=6, seed=7)
    engine = PostgresRaw(
        config=PostgresRawConfig(row_block_size=block, **config_kwargs),
        vfs=vfs)
    create_table(engine, "m", "m.csv", schema)
    return engine


DIRTY_CSV = (b"1,alice,30\n"
             b"2,bob,notanint\n"
             b"3,carol,41\n"
             b"corrupted line\n"
             b"5,eve,29\n")

DIRTY_DDL = ("CREATE TABLE t (id INTEGER, name TEXT, age INTEGER) "
             "USING csv OPTIONS (path 'dirty.csv')")


def dirty_engine():
    vfs = VirtualFS()
    vfs.create("dirty.csv", DIRTY_CSV)
    return PostgresRaw(config=PostgresRawConfig(), vfs=vfs)


def big_engine(rows=5000):
    vfs = VirtualFS()
    vfs.create("big.csv", b"".join(b"%d,%d\n" % (i, i * 3)
                                   for i in range(rows)))
    engine = PostgresRaw(config=PostgresRawConfig(), vfs=vfs)
    engine.query("CREATE TABLE big (id INTEGER, v INTEGER) "
                 "USING csv OPTIONS (path 'big.csv')")
    return engine


@contextmanager
def serve(engine, **kwargs):
    server = QueryServer(engine, **kwargs)
    server.start_in_background()
    try:
        yield server
    finally:
        server.stop()


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def http_get(port, path):
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10) as response:
        return response.status, response.read().decode()


# ---------------------------------------------------------------------------
# Protocol layer in isolation
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_frame_roundtrip_preserves_dates(self):
        message = {"id": 1, "op": "x",
                   "rows": [[1, datetime.date(1998, 12, 1), "a"],
                            [2, datetime.date(2026, 8, 8), None]]}
        stream = io.BytesIO()
        protocol.write_frame(stream, message)
        stream.seek(0)
        decoded = protocol.read_frame(stream)
        assert decoded == message
        assert isinstance(decoded["rows"][0][1], datetime.date)
        # Clean EOF at a frame boundary is None, not an error.
        assert protocol.read_frame(stream) is None

    def test_oversized_announced_frame_rejected(self):
        stream = io.BytesIO(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(stream)

    def test_truncated_and_garbage_frames_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(io.BytesIO(b"\x00\x00"))  # short header
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame(
                io.BytesIO(struct.pack(">I", 10) + b"short"))
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]")  # must be an object

    @pytest.mark.parametrize("exc, dbapi_name, code", [
        (ParseError("bad sql"), "ProgrammingError", "SQL_PARSE"),
        (annotate(CSVFormatError("short row"), path="d.csv",
                  row_number=3, table="t", byte_offset=17),
         "DataError", "CSV_FORMAT"),
        (annotate(QueryTimeoutError("deadline"), timeout=1e-6),
         "OperationalError", "QUERY_TIMEOUT"),
        (annotate(ServerBusyError("full"), in_flight=1, queued=0,
                  max_in_flight=1, max_queued=0),
         "OperationalError", "SERVER_BUSY"),
        (annotate(QuotaExceededError("spent"), tenant="alpha",
                  quota=0.5, spent=0.7),
         "OperationalError", "QUOTA_EXCEEDED"),
    ])
    def test_error_roundtrip_per_class(self, exc, dbapi_name, code):
        wire = protocol.describe_error(exc)
        assert wire["dbapi"] == dbapi_name
        assert wire["code"] == code
        # The wire object is plain JSON all the way down.
        json.dumps(wire)
        restored = protocol.restore_error(wire)
        assert type(restored).__name__ == dbapi_name
        assert restored.code == code
        assert restored.context == (getattr(exc, "context", None) or {})
        assert str(exc) in str(restored)

    def test_restore_unknown_class_falls_back(self):
        restored = protocol.restore_error(
            {"dbapi": "FutureFancyError", "code": "FANCY",
             "message": "from a newer server"})
        assert type(restored).__name__ == "OperationalError"
        assert restored.code == "FANCY"

    def test_counters_travel_as_value_strings(self):
        counters = {"tokenize": 12, "cache_read": 3.0}
        encoded = protocol.encode_counters(counters)
        assert encoded == counters
        # Stray enum keys are normalized, never leaked to the wire.
        assert protocol.encode_counters(
            {CostEvent.CACHE_READ: 2}) == {"cache_read": 2}
        assert protocol.decode_counters(encoded) == counters


# ---------------------------------------------------------------------------
# Wire vs in-process: the parity contract
# ---------------------------------------------------------------------------
SQL = "SELECT a1, a2, a4 FROM m WHERE a1 > ? ORDER BY a1"


class TestWireParity:
    def test_rows_description_counters_elapsed_match(self):
        oracle = repro.connect(engine=micro_engine())
        cur = oracle.execute(SQL, (25,))
        expected_rows = cur.fetchall()
        with serve(micro_engine()) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                wire_cur = session.execute(SQL, (25,))
                rows = wire_cur.fetchall()
                assert rows == expected_rows
                assert wire_cur.description == cur.description
                assert wire_cur.counters() == cur.counters()
                assert wire_cur.elapsed() == cur.elapsed()
                assert wire_cur.rowcount == cur.rowcount
                assert wire_cur.column_index("a4") == cur.column_index("a4")
                assert session.counters() == oracle.counters()
                assert session.elapsed() == oracle.elapsed()

    def test_query_result_parity(self):
        sql = "SELECT a3, count(*) FROM m GROUP BY a3 ORDER BY a3"
        expected = repro.connect(engine=micro_engine()).query(sql)
        with serve(micro_engine()) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                got = session.query(sql)
        assert got.rows == expected.rows
        assert got.columns == expected.columns
        assert got.counters == expected.counters
        assert got.elapsed == expected.elapsed
        assert got.plan == expected.plan
        assert got.rows_materialized == expected.rows_materialized

    def test_ddl_and_date_values_over_wire(self):
        csv = b"1,1998-12-01\n2,2026-08-08\n"
        ddl = ("CREATE TABLE ev (id INTEGER, d DATE) "
               "USING csv OPTIONS (path 'ev.csv')")
        sql = "SELECT id, d FROM ev WHERE d > DATE '2000-01-01'"

        vfs = VirtualFS()
        vfs.create("ev.csv", csv)
        oracle = repro.connect(vfs=vfs, config=PostgresRawConfig())
        oracle.execute(ddl)
        expected = oracle.execute(sql).fetchall()

        vfs2 = VirtualFS()
        vfs2.create("ev.csv", csv)
        engine = PostgresRaw(config=PostgresRawConfig(), vfs=vfs2)
        with serve(engine) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                session.execute(ddl).fetchall()
                rows = session.execute(sql).fetchall()
        assert rows == expected
        assert rows == [(2, datetime.date(2026, 8, 8))]
        assert isinstance(rows[0][1], datetime.date)

    def test_prepared_statements_over_wire(self):
        oracle = repro.connect(engine=micro_engine())
        stmt = oracle.prepare(SQL)
        with serve(micro_engine()) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                prepared = session.prepare(SQL)
                assert prepared.param_count == stmt.param_count == 1
                assert prepared.is_explain is False
                for threshold in (10, 200, 999):
                    assert (prepared.execute((threshold,)).fetchall()
                            == stmt.execute((threshold,)).fetchall())
                # Parameter arity errors stay the same class over the
                # wire as in-process.
                with pytest.raises(ProgrammingError) as oracle_err:
                    stmt.execute(())
                with pytest.raises(ProgrammingError) as wire_err:
                    prepared.execute(())
                assert wire_err.value.code == oracle_err.value.code
                prepared.close()
                prepared.close()  # idempotent

    def test_explain_over_wire(self):
        explain = "EXPLAIN " + SQL.replace("?", "50")
        expected = repro.connect(engine=micro_engine()).query(explain)
        with serve(micro_engine()) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                prepared = session.prepare(explain)
                assert prepared.is_explain is True
                assert session.query(explain).rows == expected.rows

    def test_fetch_variants_and_iteration(self):
        oracle_rows = repro.connect(
            engine=micro_engine()).execute(SQL, (0,)).fetchall()
        with serve(micro_engine()) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                cur = session.execute(SQL, (0,))
                first = cur.fetchone()
                some = cur.fetchmany(7)
                rest = cur.fetchall()
                assert [first] + some + rest == oracle_rows
                assert cur.fetchone() is None
                assert cur.fetchmany(10) == []
                # Iteration drains a fresh execute.
                cur.execute(SQL, (0,))
                assert list(cur) == oracle_rows
                # fetchmany(0) is a no-op, not a drain.
                cur.execute(SQL, (0,))
                assert cur.fetchmany(0) == []
                assert cur.fetchall() == oracle_rows

    def test_executemany_totals_rowcount(self):
        with serve(micro_engine()) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                cur = session.cursor()
                cur.executemany("SELECT a1 FROM m WHERE a1 > ?",
                                [(290,), (295,), (9999,)])
                oracle = repro.connect(engine=micro_engine()).cursor()
                oracle.executemany("SELECT a1 FROM m WHERE a1 > ?",
                                   [(290,), (295,), (9999,)])
                assert cur.rowcount == oracle.rowcount

    def test_streaming_bound_observable_over_wire(self):
        with serve(micro_engine(rows=600, block=64)) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                cur = session.execute("SELECT a1 FROM m")
                for _ in range(5):
                    cur.fetchmany(10)
                # One block past the fetch, same bound as in-process:
                # never the whole 600-row result.
                assert 0 < cur.peak_buffered_rows <= 2 * 64
                cur.close()


# ---------------------------------------------------------------------------
# Structured errors over the wire, per class
# ---------------------------------------------------------------------------
class TestWireErrors:
    def test_parse_error(self):
        with serve(micro_engine()) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                with pytest.raises(ProgrammingError) as err:
                    session.execute("SELEC a1 FRUM m")
                assert err.value.code in ("SQL_PARSE", "SQL_LEX")

    def test_catalog_error_unknown_table(self):
        with serve(micro_engine()) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                with pytest.raises(ProgrammingError) as err:
                    session.execute("SELECT x FROM nonexistent")
                assert err.value.code == "CATALOG"

    def test_csv_format_error_carries_context(self):
        with serve(dirty_engine()) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                session.execute(DIRTY_DDL).fetchall()
                cur = session.execute("SELECT id, age FROM t WHERE age > 0")
                with pytest.raises(DataError) as err:
                    cur.fetchall()
                assert err.value.code == "CSV_FORMAT"
                assert err.value.context.get("table") == "t"
                assert err.value.context.get("path") == "dirty.csv"
                assert err.value.context.get("row_number") == 3

    def test_query_timeout_carries_context(self):
        with serve(big_engine()) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                cur = session.execute("SELECT id, v FROM big WHERE v > 9",
                                      timeout=1e-6)
                with pytest.raises(OperationalError) as err:
                    cur.fetchall()
                assert err.value.code == "QUERY_TIMEOUT"
                assert err.value.context.get("timeout") == 1e-6
                # The session survives; a generous timeout completes.
                cur.execute("SELECT count(*) FROM big", timeout=1e9)
                assert cur.fetchall() == [(5000,)]

    def test_server_default_timeout_applies_and_is_overridable(self):
        with serve(big_engine(), default_timeout=1e-6) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                cur = session.execute("SELECT id FROM big")
                with pytest.raises(OperationalError) as err:
                    cur.fetchall()
                assert err.value.code == "QUERY_TIMEOUT"
                cur.execute("SELECT count(*) FROM big", timeout=1e9)
                assert cur.fetchall() == [(5000,)]

    def test_unknown_op_and_unknown_cursor(self):
        with serve(micro_engine()) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                with pytest.raises(InterfaceError):
                    session._request("frobnicate")
                with pytest.raises(InterfaceError):
                    session._request("fetch", cursor=999, n=1)

    def test_hello_must_come_first_and_only_once(self):
        with serve(micro_engine()) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                with pytest.raises(InterfaceError):
                    session._request("hello", tenant="again")


# ---------------------------------------------------------------------------
# Tenants and quotas
# ---------------------------------------------------------------------------
class TestTenants:
    def test_handshake_reports_tenant_and_engine(self):
        registry = TenantRegistry()
        registry.declare("alpha", quota=100.0)
        with serve(micro_engine(), tenants=registry) as server:
            with wire_connect("127.0.0.1", server.port,
                              tenant="alpha") as session:
                assert session.tenant == "alpha"
                assert session.tenant_quota == 100.0
                assert session.protocol_version == protocol.PROTOCOL_VERSION
                assert session.engine_name == server.engine.name
            with wire_connect("127.0.0.1", server.port) as session:
                assert session.tenant == "default"
                assert session.tenant_quota is None

    def test_quota_exceeded_is_admission_time_and_isolated(self):
        registry = TenantRegistry()
        registry.declare("alpha", quota=1e-9)  # one query, then cut off
        registry.declare("beta")
        with serve(micro_engine(), tenants=registry) as server:
            alpha = wire_connect("127.0.0.1", server.port, tenant="alpha")
            beta = wire_connect("127.0.0.1", server.port, tenant="beta")
            # First query is admitted (nothing spent yet) and runs to
            # completion even though it blows way past the quota.
            rows = alpha.execute(SQL, (0,)).fetchall()
            assert rows
            info = alpha.tenant_info()
            assert info["spent_seconds"] > 1e-9
            assert info["remaining"] == 0.0
            # Admission now refuses alpha before any engine work...
            with pytest.raises(OperationalError) as err:
                alpha.execute(SQL, (0,))
            assert err.value.code == "QUOTA_EXCEEDED"
            assert err.value.context.get("tenant") == "alpha"
            assert err.value.context.get("quota") == 1e-9
            # ...while beta is untouched.
            assert beta.execute(SQL, (0,)).fetchall() == rows
            assert server.stats["rejected_quota"] == 1
            assert registry.get("alpha").rejected == 1
            # A billing-cycle reset re-admits the tenant.
            registry.get("alpha").reset(quota=1e9)
            assert alpha.execute(SQL, (0,)).fetchall() == rows
            alpha.close()
            beta.close()

    def test_quota_spend_rolls_up_all_tenant_connections(self):
        registry = TenantRegistry()
        registry.declare("team", quota=1e9)
        with serve(micro_engine(), tenants=registry) as server:
            with wire_connect("127.0.0.1", server.port,
                              tenant="team") as one:
                with wire_connect("127.0.0.1", server.port,
                                  tenant="team") as two:
                    one.execute(SQL, (0,)).fetchall()
                    spent_after_one = one.tenant_info()["spent_seconds"]
                    two.execute(SQL, (100,)).fetchall()
                    spent_after_two = two.tenant_info()["spent_seconds"]
            assert spent_after_one > 0
            assert spent_after_two > spent_after_one
            tenant = registry.get("team")
            assert tenant.spent_seconds == spent_after_two
            assert tenant.counters.get("tokenize", 0) > 0

    def test_strict_registry_refuses_unknown_tenants(self):
        registry = TenantRegistry(strict=True)
        registry.declare("alpha")
        with serve(micro_engine(), tenants=registry) as server:
            with pytest.raises(OperationalError) as err:
                wire_connect("127.0.0.1", server.port, tenant="ghost")
            assert err.value.code == "QUOTA_EXCEEDED"
            assert err.value.context.get("tenant") == "ghost"
            with wire_connect("127.0.0.1", server.port,
                              tenant="alpha") as session:
                assert session.tenant == "alpha"


# ---------------------------------------------------------------------------
# Back-pressure: typed SERVER_BUSY
# ---------------------------------------------------------------------------
class TestServerBusy:
    def test_saturated_gate_rejects_with_context(self):
        engine = micro_engine(rows=600)
        with serve(engine, max_in_flight=1, accept_queue=0) as server:
            first = wire_connect("127.0.0.1", server.port)
            second = wire_connect("127.0.0.1", server.port)
            streaming = first.execute("SELECT a1 FROM m")
            streaming.fetchmany(10)  # admitted and live
            with pytest.raises(OperationalError) as err:
                second.execute("SELECT a2 FROM m")
            assert err.value.code == "SERVER_BUSY"
            assert err.value.context.get("max_in_flight") == 1
            assert err.value.context.get("max_queued") == 0
            assert server.stats["rejected_busy"] == 1
            # Fetches are never rejected: they drain work and free the
            # slot — after which the rejected client gets through.
            streaming.fetchall()
            assert second.execute("SELECT a2 FROM m").fetchmany(3)
            first.close()
            second.close()

    def test_in_process_default_stays_unbounded(self):
        # The bounded accept queue is a server-front-end policy; plain
        # in-process sessions keep blocking-admission semantics.
        engine = micro_engine()
        assert engine.shared_scheduler().max_queued is None


# ---------------------------------------------------------------------------
# Disconnects and abandoned queries
# ---------------------------------------------------------------------------
class TestDisconnect:
    def test_hard_disconnect_releases_slot_and_counts_abandon(self):
        engine = micro_engine(rows=600)
        with serve(engine, max_in_flight=1) as server:
            session = wire_connect("127.0.0.1", server.port)
            cur = session.execute("SELECT a1 FROM m")
            cur.fetchmany(5)
            session.close_socket()  # client crash, no goodbye
            assert wait_until(lambda: server.scheduler.in_flight == 0)
            assert wait_until(lambda: server.connections_active == 0)
            assert server.scheduler.abandoned == 1
            assert engine.clock.counters.get(
                CostEvent.QUERIES_ABANDONED) == 1
            # The freed slot admits the next client immediately.
            with wire_connect("127.0.0.1", server.port) as fresh:
                assert fresh.execute(SQL, (0,)).fetchall()

    def test_clean_close_mid_stream_abandons(self):
        engine = micro_engine(rows=600)
        with serve(engine) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                cur = session.execute("SELECT a1 FROM m")
                cur.fetchmany(5)
                cur.close()  # explicit early close, same contract
            assert wait_until(lambda: server.scheduler.abandoned == 1)
            assert server.scheduler.in_flight == 0

    def test_finished_cursor_close_is_not_an_abandon(self):
        engine = micro_engine()
        with serve(engine) as server:
            with wire_connect("127.0.0.1", server.port) as session:
                cur = session.execute(SQL, (0,))
                cur.fetchall()
                cur.close()
            assert wait_until(lambda: server.connections_active == 0)
            assert server.scheduler.abandoned == 0
            assert engine.clock.counters.get(
                CostEvent.QUERIES_ABANDONED) is None


# ---------------------------------------------------------------------------
# Satellite: in-process Cursor.close() early-close contract
# ---------------------------------------------------------------------------
class TestInProcessEarlyClose:
    def test_close_releases_slot_and_counts_zero_priced(self):
        engine = micro_engine(rows=600)
        session = repro.connect(engine=engine, max_in_flight=1)
        cur = session.cursor().execute("SELECT a1 FROM m")
        cur.fetchmany(5)
        scheduler = engine.shared_scheduler()
        assert scheduler.in_flight == 1
        clock_before = engine.clock.now()
        counters_before = dict(session.counters())
        cur.close()
        # Slot released, abandon counted...
        assert scheduler.in_flight == 0
        assert scheduler.abandoned == 1
        assert engine.clock.counters.get(CostEvent.QUERIES_ABANDONED) == 1
        # ...zero-priced: no virtual time elapsed, and the session's
        # priced ledger is untouched (parity assertions keep holding).
        assert engine.clock.now() == clock_before
        assert session.counters() == counters_before
        assert "queries_abandoned" not in session.counters()
        # The freed slot admits the next query at once.
        assert session.cursor().execute(SQL, (0,)).fetchmany(3)

    def test_close_after_drain_is_free(self):
        engine = micro_engine()
        session = repro.connect(engine=engine)
        cur = session.cursor().execute(SQL, (0,))
        cur.fetchall()
        cur.close()
        assert engine.shared_scheduler().abandoned == 0
        assert engine.clock.counters.get(
            CostEvent.QUERIES_ABANDONED) is None


# ---------------------------------------------------------------------------
# The metrics plane
# ---------------------------------------------------------------------------
class TestMetricsPlane:
    def test_health(self):
        with serve(micro_engine()) as server:
            status, body = http_get(server.metrics_port, "/health")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["engine"] == server.engine.name
            assert health["in_flight"] == 0

    def test_metrics_exposition(self):
        registry = TenantRegistry()
        registry.declare("alpha", quota=250.0)
        with serve(micro_engine(), tenants=registry) as server:
            with wire_connect("127.0.0.1", server.port,
                              tenant="alpha") as session:
                session.execute(SQL, (0,)).fetchall()
                status, body = http_get(server.metrics_port, "/metrics")
        assert status == 200
        lines = dict(
            line.rsplit(" ", 1) for line in body.splitlines()
            if line and not line.startswith("#"))
        assert float(lines['repro_engine_events_total'
                           '{event="tokenize"}']) > 0
        # Every CostEvent is exposed, including never-fired ones.
        assert lines['repro_engine_events_total'
                     '{event="queries_abandoned"}'] == "0"
        assert float(lines["repro_engine_virtual_seconds"]) > 0
        assert lines["repro_server_queries_total"] == "1"
        assert lines["repro_server_connections_total"] == "1"
        assert lines['repro_server_rejected_total{reason="busy"}'] == "0"
        assert lines['repro_tenant_quota_virtual_seconds'
                     '{tenant="alpha"}'] == "250.0"
        assert float(lines['repro_tenant_spent_virtual_seconds'
                           '{tenant="alpha"}']) > 0
        assert lines["repro_scheduler_max_in_flight"] == "4"
        assert lines["repro_scheduler_accept_queue_limit"] == "16"

    def test_metrics_404_and_405(self):
        with serve(micro_engine()) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                http_get(server.metrics_port, "/nope")
            assert err.value.code == 404
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.metrics_port}/metrics",
                data=b"x", method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 405


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_graceful_stop_disconnects_clients(self):
        server = QueryServer(micro_engine()).start_in_background()
        session = wire_connect("127.0.0.1", server.port)
        assert session.execute(SQL, (0,)).fetchmany(3)
        server.stop()
        server.stop()  # idempotent
        with pytest.raises(InterfaceError):
            session.execute(SQL, (0,))
        # The port is released: connecting again is refused.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", server.port), timeout=1)

    def test_stop_releases_sessions_of_connected_clients(self):
        engine = micro_engine(rows=600)
        server = QueryServer(engine, max_in_flight=1).start_in_background()
        session = wire_connect("127.0.0.1", server.port)
        cur = session.execute("SELECT a1 FROM m")
        cur.fetchmany(5)
        server.stop()
        # Drain released the abandoned stream's slot on the way out.
        assert server.scheduler.in_flight == 0
        assert server.scheduler.abandoned == 1

    def test_double_start_rejected(self):
        with serve(micro_engine()) as server:
            with pytest.raises(InterfaceError):
                server.start_in_background()

    def test_wire_session_api_misuse(self):
        with serve(micro_engine()) as server:
            session = wire_connect("127.0.0.1", server.port)
            cur = session.cursor()
            with pytest.raises(InterfaceError):
                cur.fetchall()  # nothing executed yet
            with pytest.raises(InterfaceError):
                cur.execute(12345)  # not SQL, not a statement
            cur.close()
            with pytest.raises(InterfaceError):
                cur.execute(SQL, (0,))  # closed cursor
            session.close()
            with pytest.raises(InterfaceError):
                session.cursor()  # closed session
            assert isinstance(session, WireSession)
