"""Per-layer metrics of a traced run.

Three sources, all outside the engine: spans from ``tracing.py``
(self time per layer per round), public counters (exact, repeat
bit-for-bit) and direct calls into public functions (probes). A few
metrics compare against the same rounds on a differently configured
engine (kernels off, two scan workers, no rollup, a CSV twin of the
JSONL file, the in-process twin of a wire round); those run after the
counter snapshot, so they never disturb it.

A metric that does not apply to a workload (``server.*`` anywhere but
``wire_closed``) is reported as 0.
"""

from __future__ import annotations

import statistics

from harness import (
    Client,
    LocalEnv,
    Measured,
    Run,
    latencies,
    low,
    p95,
    pooled,
    throughput,
    undisturbed,
)
from metrics import PER_LAYER_NAMES, SIMCOST_EVENTS
from tracing import assign_rounds, by_name, now
from workloads import Inputs, PartitionedRange

READ_BLOCK = 256 * 1024
MB = 1e6


def _probe(fn, repeats: int) -> float:
    """Undisturbed seconds of one call of ``fn``."""
    samples = []
    for _ in range(repeats):
        start = now()
        fn()
        samples.append(now() - start)
    return low(samples)


# ---------------------------------------------------------------------------
# Probes: direct calls into public functions
# ---------------------------------------------------------------------------
def storage_and_format_probes(run: Run, out: dict) -> None:
    import numpy as np

    from repro import CostModel, VirtualFS
    from repro.formats.csvfmt import (
        BlockTokenizer,
        block_field_spans,
        newline_offsets,
    )

    path = run.workload.main_file
    payload = run.inputs.files[path]
    vfs = VirtualFS()
    vfs.create(path, payload)

    def read_file():
        handle = vfs.open(path, CostModel())
        while handle.read_sequential(READ_BLOCK):
            pass
    out["storage.vfs.read_mb_per_s"] = (
        len(payload) / MB / _probe(read_file, 5))

    block = payload[:READ_BLOCK]
    block = block[:block.rfind(b"\n") + 1]
    out["formats.csvfmt.newline_mb_per_s"] = (
        len(block) / MB / _probe(lambda: newline_offsets(block), 20))
    if path.endswith(".csv"):
        ends = newline_offsets(block)
        starts = np.concatenate([[0], ends[:-1] + 1])
        upto = block[:ends[0]].count(b",")

        def tokenize():
            block_field_spans(BlockTokenizer(block), starts, ends, upto)
        out["formats.csvfmt.spans_mb_per_s"] = (
            len(block) / MB / _probe(tokenize, 20))


def prepare_probe(run: Run, env, out: dict) -> None:
    """``session.prepare`` of every distinct statement of a round on a
    session whose statement cache is empty."""
    import repro

    statements = {op.sql for op in run.workload.round(run.inputs, 0)
                  if op.append is None}
    session = repro.connect(engine=env.engine)
    try:
        start = now()
        for sql in statements:
            session.prepare(sql)
        out["api.prepare_ms"] = (now() - start) * 1e3
    finally:
        session.close()


def partition_probes(env, per_query: dict, out: dict) -> None:
    engine = env.engine
    days = PartitionedRange.DAYS
    parsed = engine.parse_sql(PartitionedRange.window_sql(0, days))
    out["formats.partitioned.plan_ms"] = _probe(
        lambda: engine.plan_select(parsed), 20) * 1e3
    pruned = env.session.query(PartitionedRange.window_sql(0, 3)).counters
    out["formats.partitioned.prune_ratio"] = (
        pruned.get("files_pruned", 0) / days)
    out["formats.partitioned.per_file_ms"] = per_query[f"w{days}"] / days


def query_ms(run: Run, measured: Measured) -> dict[str, float]:
    """Undisturbed milliseconds of each query of the warm round."""
    names = [op.name for op in run.workload.round(run.inputs, 0)
             if op.append is None]
    columns = zip(*pooled(measured.warm_s))
    return {name: low(column) * 1e3 for name, column in zip(names, columns)}


# ---------------------------------------------------------------------------
# Variants: the same rounds on a differently configured engine
# ---------------------------------------------------------------------------
def _local_rounds(run: Run, cold: int = 1, warm: int = 0, ops=None,
                  inputs: Inputs | None = None, **env_options):
    """Cold rounds on fresh in-process engines, then warm rounds on
    the last. Returns (undisturbed cold seconds, warm seconds)."""
    workload = run.workload
    inputs = inputs or run.inputs
    cold_s, warm_s = [], []
    for i in range(cold):
        env = LocalEnv(workload, inputs, **env_options)
        try:
            client = Client(env, workload, run.tracer)
            cold_ops = ops or workload.cold_round(inputs)
            cold_s.append(client.run_round(cold_ops, 0, full_check=True))
            if i == cold - 1 and warm:
                for k in range(run.plan.warmup + warm):
                    round_ops = ops or workload.round(inputs, 1 + k)
                    took = client.run_round(round_ops, 0, full_check=False)
                    if k >= run.plan.warmup:
                        warm_s.append(took)
            run.tally.merge(client.tally)
        finally:
            env.close()
    return undisturbed(cold_s), undisturbed(warm_s) if warm_s else 0.0


def variants(run: Run, measured: Measured, per_query: dict,
             out: dict) -> set | None:
    """Returns the ids of the traced 1-client wire rounds (None off
    the wire, where the run's own traced rounds are the breakdown)."""
    workload = run.workload
    rounds = max(5, run.plan.warm // 4)
    base_cold = undisturbed(measured.cold_s)
    base_warm = undisturbed(pooled(measured.warm_s))
    if workload.wire:
        # the engine work is csv_warm's: the bases of the engine-only
        # ratios (and of the wire overhead) are its in-process twin
        base_cold, base_warm = _local_rounds(run, cold=2, warm=rounds)

    two_workers, _ = _local_rounds(run, cold=2,
                                   overrides={"scan_workers": 2})
    _, kernels_off = _local_rounds(run, warm=rounds,
                                   overrides={"scan_kernels": False})
    out["kernels.off_on_ratio"] = kernels_off / base_warm
    out["core.parallel.w2_ratio"] = two_workers / base_cold

    if "routed" in per_query:
        routed = [op for op in workload.round(run.inputs, 0)
                  if op.name == "routed"]
        _, twin = _local_rounds(run, warm=30, ops=routed,
                                ddl=run.inputs.ddl[:1])
        out["rollup.raw_twin_ms"] = twin * 1e3
        out["rollup.routed_ms"] = per_query["routed"]

    if workload.name == "jsonl_scan":
        import datagen as dg

        twin_bytes = dg.readings_csv(run.inputs.data)
        twin = Inputs(run.seed, {"r.csv": twin_bytes},
                      [run.inputs.ddl[0].replace("jsonl", "csv")])
        csv_cold, _ = _local_rounds(
            run, cold=2, inputs=twin, ops=workload.cold_round(run.inputs))
        jsonl_mb = len(run.inputs.files["r.jsonl"]) / MB
        out["formats.jsonl.cold_mb_per_s"] = jsonl_mb / base_cold
        out["formats.jsonl.vs_csv_ratio"] = (
            (base_cold / jsonl_mb) / (csv_cold / (len(twin_bytes) / MB)))

    if not workload.wire:
        return None
    solo_s, solo_rounds = wire_solo(run, measured, out)
    out["server.wire_overhead_ratio"] = solo_s / base_warm
    return solo_rounds


def wire_solo(run: Run, measured: Measured, out: dict) -> tuple[float, set]:
    """One client alone on a fresh server: the untraced half gives the
    wire round's own latency and the 1-client throughput, the traced
    half the breakdown of a warm wire round. Returns the untraced
    undisturbed round seconds and the traced rounds' ids."""
    env, clients = run.build()
    try:
        client = clients[0]
        client.run_round(run.workload.cold_round(run.inputs), 0,
                         full_check=True)
        run.warm(clients, run.plan.warmup, timed=False)
        half = max(5, run.plan.warm // 2)
        plain = run.warm(clients, half)
        first_traced = run.next_round
        run.traced(env, True, run.warm, clients, half)
        solo_rounds = set(range(first_traced, run.next_round))
        out["server.client2_scaling"] = (
            throughput(measured.warm_s) / throughput(plain))
        out["server.noop_roundtrip_ms"] = _probe(
            client.session.elapsed, 200) * 1e3
    finally:
        run.retire(env, clients)
    return undisturbed(pooled(plain)), solo_rounds


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------
def _ms_per_round(stats: dict, name: str, rounds: int,
                  key: str = "total") -> float:
    return stats[name][key] / rounds * 1e3 if name in stats else 0.0


def _scan_seconds(stats: dict) -> float:
    """Time under plan leaves: batch scans plus the row-at-a-time
    ``ScanOp.rows`` path operators fall back to."""
    return sum(stats[name]["total"]
               for name in ("core.scan", "core.scan_rows") if name in stats)


def span_metrics(run: Run, out: dict, warm_ids: set | None) -> None:
    """Layer times per round from the spans of the traced rounds
    (``warm_ids``; by default every traced warm round of the run)."""
    workload = run.workload
    client_spans = run.tracer.dicts()
    assign_rounds(run.server_spans, run.rounds)
    spans = client_spans + run.server_spans
    latency = {r["round_id"]: r["latency"] for r in run.rounds}

    traced = {s["round_id"] for s in client_spans} - {None}
    cold_ids = {r for r in traced if r < 0}
    warm_ids = warm_ids or {r for r in traced if r > 0}
    cold, n_cold = by_name(spans, cold_ids), max(1, len(cold_ids))
    warm, n_warm = by_name(spans, warm_ids), max(1, len(warm_ids))
    cold_latency = sum(latency[r] for r in cold_ids)
    warm_latency = sum(latency[r] for r in warm_ids)

    data_mb = sum(map(len, run.inputs.files.values())) / MB
    cold_scan, warm_scan = _scan_seconds(cold), _scan_seconds(warm)
    if cold_scan:
        out["core.scan.cold_mb_per_s"] = data_mb * n_cold / cold_scan
        out["core.scan.cold_share"] = cold_scan / cold_latency
    if warm_scan:
        out["core.scan.warm_share"] = warm_scan / warm_latency
    out["core.scan.warm_ms"] = warm_scan / n_warm * 1e3
    out["core.scan.row_path_ms"] = _ms_per_round(warm, "core.scan_rows",
                                                 n_warm)
    out["sql.parse_ms"] = _ms_per_round(cold, "sql.parse", n_cold)
    out["sql.plan_ms"] = _ms_per_round(cold, "sql.plan", n_cold)
    out["sql.exec_batches_ms"] = _ms_per_round(warm, "sql.exec", n_warm)
    out["sql.operators.self_ms"] = (
        _ms_per_round(warm, "sql.exec", n_warm, "self")
        + _ms_per_round(warm, "sql.materialize", n_warm))
    out["sql.assemble_ms"] = _ms_per_round(warm, "sql.assemble", n_warm)
    out["api.execute_ms"] = _ms_per_round(warm, "api.execute", n_warm)
    out["api.fetch_ms"] = _ms_per_round(warm, "api.fetch", n_warm)
    compiles = by_name(spans).get("kernels.compile")
    if compiles:
        out["kernels.compile_ms"] = (
            compiles["total"] / compiles["count"] * 1e3)

    if not workload.wire:
        out["api.self_ms"] = (
            _ms_per_round(warm, "api.execute", n_warm, "self")
            + _ms_per_round(warm, "api.fetch", n_warm, "self"))
        return
    # Over the wire the client's spans hold its own codec work and the
    # wait; everything else was recorded inside the server process.
    client = by_name(client_spans, warm_ids)
    server = by_name(run.server_spans, warm_ids)
    out["api.self_ms"] = _ms_per_round(server, "server.engine", n_warm,
                                       "self")
    out["server.encode_ms"] = _ms_per_round(server, "server.encode", n_warm)
    out["server.decode_ms"] = _ms_per_round(server, "server.decode", n_warm)
    out["server.hop_ms"] = _ms_per_round(server, "server.hop", n_warm,
                                         "self")
    out["server.client_codec_ms"] = (
        _ms_per_round(client, "server.encode", n_warm)
        + _ms_per_round(client, "server.decode", n_warm))
    out["server.transit_ms"] = (
        warm_latency / n_warm * 1e3 - out["server.client_codec_ms"]
        - _ms_per_round(server, "server.dispatch", n_warm)
        - out["server.encode_ms"] - out["server.decode_ms"])


def counter_metrics(run: Run, measured: Measured, out: dict) -> None:
    snapshot = measured.snapshot
    counters = snapshot["counters"]
    for event in SIMCOST_EVENTS:
        out[f"simcost.{event}"] = counters.get(event, 0)
    out["simcost.virtual_s"] = snapshot["virtual_s"]
    cache, pm = snapshot["cache"], snapshot["pm"]
    lookups = cache["hits"] + cache["misses"]
    out["core.cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    out["core.cache.evictions"] = cache["evictions"]
    out["core.cache.bytes"] = cache["bytes"]
    out["core.pm.bytes"] = pm["bytes"]
    out["core.pm.evictions"] = pm["evictions"]
    out["core.pm.pointers"] = pm["pointers"]
    out["kernels.hits"] = counters.get("kernel_hits", 0)
    out["kernels.compiles"] = counters.get("kernel_compiles", 0)
    out["kernels.bailouts"] = counters.get("kernel_bailouts", 0)
    out["rollup.hits"] = counters.get("rollup_hits", 0)
    out["rollup.misses"] = counters.get("rollup_misses", 0)
    out["sql.rows_materialized"] = snapshot["rows_materialized"]
    out["api.stmt_cache_hits"] = snapshot["sessions"]["statement_cache_hits"]
    out["api.replans"] = snapshot["sessions"]["replans"]
    out["server.rejected_busy"] = snapshot["rejected_busy"]
    first = measured.first_cold["counters"]
    out["storage.vfs.read_amplification"] = (
        (first.get("disk_read_cold", 0) + first.get("disk_read_warm", 0))
        / sum(map(len, run.inputs.files.values())))


def per_layer(run: Run, measured: Measured, env) -> dict[str, float]:
    """Every declared per-layer metric of a traced run. ``env`` is the
    engine the warm rounds ran on (still live)."""
    workload = run.workload
    out: dict = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    per_query = query_ms(run, measured)
    counter_metrics(run, measured, out)
    storage_and_format_probes(run, out)
    if not workload.wire:
        prepare_probe(run, env, out)
    if workload.name == "partitioned_range":
        partition_probes(env, per_query, out)
    if workload.wire:
        import numpy as np

        from repro.server import protocol

        sel25 = next(op for op in workload.round(run.inputs, 0)
                     if op.name == "sel25")
        frame = protocol.encode({"id": 1, "ok": True, "done": True,
                                 "rows": np.asarray(sel25.expected).tolist()})
        out["server.bytes_per_row"] = len(frame) / max(1, len(sel25.expected))
    span_metrics(run, out, variants(run, measured, per_query, out))
    for name, ms in per_query.items():
        if f"sql.q.{name}_ms" in out:
            out[f"sql.q.{name}_ms"] = ms
    out["host.calib_spin_ms"] = statistics.mean(measured.spin_ms)
    out["host.trace_overhead_ratio"] = (
        undisturbed(pooled(measured.traced_warm_s))
        / undisturbed(pooled(measured.warm_s)))
    # both halves pooled: only together do they reach the 200 rounds
    # a 95th percentile needs (the traced half runs a few % slower)
    warm_s = latencies(pooled(measured.warm_s))
    out["diag.warm_p50_ms"] = statistics.median(warm_s) * 1e3
    out["diag.warm_p95_ms"] = p95(
        warm_s + latencies(pooled(measured.traced_warm_s))) * 1e3
    out["diag.rounds_per_s"] = throughput(measured.warm_s)
    out["diag.failed_share"] = run.tally.failed / max(1, run.tally.attempted)
    return out
