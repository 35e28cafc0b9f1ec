"""The benchmark's metric declarations — one place.

``BENCHMARK.json`` at the repo root is the contract the driver reads;
its schema allows a metric only ``name``/``unit``/``better`` (plus
``bound`` end to end), so the *layer* each per-layer metric belongs to
and the end-to-end metric x workload it is predicted to move live here
(and are rendered into README.md). ``test_e2e_smoke.py`` asserts the
two stay in lockstep.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    moves: str          # end-to-end metric on workload it should move


#: Bounds are the share of the parent's median by which the metric may
#: worsen. README.md ("Spread behind each bound") records the measured
#: ten-seed spreads they were fixed from. Every timing is a *low*
#: statistic (5th percentile per query, fastest set-up): on the shared
#: host interference only adds time, and medians moved 2-4x as much
#: from run to run; the medians live on as ``diag.*`` per-layer rows.
END_TO_END = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "data generation + engine construction + DDL (+ server "
             "spawn/connect): the fastest of the run's 3-9 set-ups"),
    EndToEnd("cold_s", "s", "lower", 0.25,
             "one cold round on a fresh engine over already-generated "
             "files (the paper's data-to-answer time): per query the "
             "5th-percentile time over the run's fresh engines, summed"),
    EndToEnd("warm_ms", "ms", "lower", 0.25,
             "one warm round: per query the 5th-percentile time over the "
             "run's timed rounds (all clients pooled), summed"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.20,
             "ru_maxrss of the process hosting the engine (the server "
             "subprocess for wire_closed)"),
]

TPCH_QUERIES = ("q1", "q3", "q4", "q6", "q10", "q12", "q14", "q19")
WARM_SHAPES = ("agg", "sel1", "sel25", "group", "routed")

#: Priced events whose exact unit counts are reported per workload.
SIMCOST_EVENTS = (
    "disk_read_cold", "disk_read_warm", "newline_scan", "tokenize",
    "convert_int", "convert_float", "convert_str", "map_access",
    "map_insert", "cache_read", "cache_write", "tuple_form",
    "aggregate_step", "hash_probe", "query_overhead")

_COLD = "cold_s"
_WARM = "warm_ms"

PER_LAYER = [
    # -- storage -----------------------------------------------------
    PerLayer("storage.vfs.read_mb_per_s", "MB/s", "higher", "storage",
             f"{_COLD} on csv_cold"),
    PerLayer("storage.vfs.read_amplification", "ratio", "lower", "storage",
             f"{_COLD} on csv_adaptive"),
    # -- formats -----------------------------------------------------
    PerLayer("formats.csvfmt.newline_mb_per_s", "MB/s", "higher", "formats",
             f"{_COLD} on csv_cold, csv_adaptive, tpch_ops"),
    PerLayer("formats.csvfmt.spans_mb_per_s", "MB/s", "higher", "formats",
             f"{_COLD} on csv_cold, csv_adaptive, tpch_ops"),
    PerLayer("formats.jsonl.cold_mb_per_s", "MB/s", "higher", "formats",
             f"{_COLD} on jsonl_scan"),
    PerLayer("formats.jsonl.vs_csv_ratio", "ratio", "lower", "formats",
             f"{_COLD} on jsonl_scan"),
    PerLayer("formats.partitioned.plan_ms", "ms", "lower", "formats",
             f"{_WARM}, {_COLD} on partitioned_range"),
    PerLayer("formats.partitioned.prune_ratio", "ratio", "higher", "formats",
             f"{_WARM}, {_COLD} on partitioned_range"),
    PerLayer("formats.partitioned.per_file_ms", "ms", "lower", "formats",
             f"{_WARM} on partitioned_range"),
    # -- core --------------------------------------------------------
    PerLayer("core.scan.cold_mb_per_s", "MB/s", "higher", "core",
             f"{_COLD} on csv_cold"),
    PerLayer("core.scan.warm_ms", "ms", "lower", "core",
             f"{_WARM} on csv_warm"),
    PerLayer("core.scan.row_path_ms", "ms", "lower", "core",
             f"{_WARM} on tpch_ops (the Q4/Q12/Q14 ScanOp.rows fallback)"),
    PerLayer("core.scan.cold_share", "ratio", "lower", "core",
             f"{_COLD} on csv_cold"),
    PerLayer("core.scan.warm_share", "ratio", "lower", "core",
             f"{_WARM} on csv_warm"),
    PerLayer("core.cache.hit_ratio", "ratio", "higher", "core",
             f"{_COLD} on csv_adaptive"),
    PerLayer("core.cache.evictions", "count", "lower", "core",
             f"{_COLD} on csv_adaptive"),
    PerLayer("core.cache.bytes", "bytes", "lower", "core",
             "peak_rss_mb on csv_adaptive"),
    PerLayer("core.pm.bytes", "bytes", "lower", "core",
             "peak_rss_mb on csv_adaptive"),
    PerLayer("core.pm.evictions", "count", "lower", "core",
             f"{_COLD} on csv_adaptive"),
    PerLayer("core.pm.pointers", "count", "higher", "core",
             f"{_COLD} on csv_adaptive"),
    PerLayer("core.parallel.w2_ratio", "ratio", "lower", "core",
             f"{_COLD} on csv_cold, only if the default worker count "
             "ever changes"),
    # -- kernels -----------------------------------------------------
    PerLayer("kernels.compile_ms", "ms", "lower", "kernels",
             f"{_COLD} on tpch_ops"),
    PerLayer("kernels.hits", "count", "higher", "kernels",
             f"{_WARM} on csv_warm, wire_closed"),
    PerLayer("kernels.compiles", "count", "lower", "kernels",
             f"{_COLD} on tpch_ops"),
    PerLayer("kernels.bailouts", "count", "lower", "kernels",
             f"{_WARM} on csv_warm, wire_closed"),
    PerLayer("kernels.off_on_ratio", "ratio", "higher", "kernels",
             f"{_WARM} on csv_warm, wire_closed"),
    # -- sql ---------------------------------------------------------
    PerLayer("sql.parse_ms", "ms", "lower", "sql",
             f"{_COLD} on tpch_ops, partitioned_range"),
    PerLayer("sql.plan_ms", "ms", "lower", "sql",
             f"{_COLD} on tpch_ops, partitioned_range"),
    PerLayer("sql.exec_batches_ms", "ms", "lower", "sql",
             f"{_WARM} on tpch_ops, csv_warm"),
    PerLayer("sql.operators.self_ms", "ms", "lower", "sql",
             f"{_WARM} on tpch_ops, csv_warm"),
    PerLayer("sql.assemble_ms", "ms", "lower", "sql",
             f"{_WARM} on csv_warm, csv_cold"),
    PerLayer("sql.rows_materialized", "count", "lower", "sql",
             f"{_WARM} on tpch_ops"),
    *[PerLayer(f"sql.q.{q}_ms", "ms", "lower", "sql", f"{_WARM} on tpch_ops")
      for q in TPCH_QUERIES],
    *[PerLayer(f"sql.q.{q}_ms", "ms", "lower", "sql",
               f"{_WARM} on csv_warm, wire_closed") for q in WARM_SHAPES],
    # -- rollup ------------------------------------------------------
    PerLayer("rollup.routed_ms", "ms", "lower", "rollup",
             f"{_WARM} on csv_warm (one fifth of the round)"),
    PerLayer("rollup.raw_twin_ms", "ms", "lower", "rollup",
             "none (the rollup-less baseline of rollup.routed_ms)"),
    PerLayer("rollup.hits", "count", "higher", "rollup",
             f"{_WARM} on csv_warm"),
    PerLayer("rollup.misses", "count", "lower", "rollup",
             f"{_WARM} on csv_warm"),
    # -- api ---------------------------------------------------------
    PerLayer("api.prepare_ms", "ms", "lower", "api",
             f"{_COLD} on tpch_ops"),
    PerLayer("api.execute_ms", "ms", "lower", "api",
             f"{_WARM} on csv_warm"),
    PerLayer("api.fetch_ms", "ms", "lower", "api",
             f"{_WARM} on csv_warm"),
    PerLayer("api.self_ms", "ms", "lower", "api",
             f"{_WARM} on csv_warm"),
    PerLayer("api.stmt_cache_hits", "count", "higher", "api",
             f"{_WARM} on tpch_ops"),
    PerLayer("api.replans", "count", "lower", "api",
             f"{_COLD} on tpch_ops"),
    # -- server ------------------------------------------------------
    PerLayer("server.noop_roundtrip_ms", "ms", "lower", "server",
             f"{_WARM}, diag.rounds_per_s on wire_closed"),
    PerLayer("server.encode_ms", "ms", "lower", "server",
             f"{_WARM}, diag.rounds_per_s on wire_closed"),
    PerLayer("server.decode_ms", "ms", "lower", "server",
             f"{_WARM}, diag.rounds_per_s on wire_closed"),
    PerLayer("server.client_codec_ms", "ms", "lower", "server",
             f"{_WARM} on wire_closed"),
    PerLayer("server.hop_ms", "ms", "lower", "server",
             f"{_WARM}, diag.rounds_per_s on wire_closed"),
    PerLayer("server.transit_ms", "ms", "lower", "server",
             f"{_WARM} on wire_closed"),
    PerLayer("server.bytes_per_row", "bytes", "lower", "server",
             f"{_WARM} on wire_closed"),
    PerLayer("server.wire_overhead_ratio", "ratio", "lower", "server",
             f"{_WARM} on wire_closed; must not move csv_warm"),
    PerLayer("server.client2_scaling", "ratio", "higher", "server",
             "diag.rounds_per_s on wire_closed"),
    PerLayer("server.rejected_busy", "count", "lower", "server",
             "failed ops on wire_closed"),
    # -- simcost -----------------------------------------------------
    *[PerLayer(f"simcost.{event}", "units", "lower", "simcost",
               "simcost.virtual_s on every workload; a wall-clock change "
               "must leave it unchanged") for event in SIMCOST_EVENTS],
    PerLayer("simcost.virtual_s", "virt_s", "lower", "simcost",
             "the paper figures; must repeat exactly per seed"),
    # -- host / diagnostics -------------------------------------------
    PerLayer("host.calib_spin_ms", "ms", "lower", "host",
             "none: flags a noisy run"),
    PerLayer("host.trace_overhead_ratio", "ratio", "lower", "host",
             "none: cost of the benchmark's own wrappers"),
    PerLayer("diag.warm_p50_ms", "ms", "lower", "diag",
             "demoted end-to-end metric: median warm round latency"),
    PerLayer("diag.warm_p95_ms", "ms", "lower", "diag",
             "demoted end-to-end metric (only where >= 200 warm rounds)"),
    PerLayer("diag.rounds_per_s", "1/s", "higher", "diag",
             "demoted end-to-end metric: warm rounds / busy second, "
             "median over five segments, all clients together"),
    PerLayer("diag.failed_share", "ratio", "lower", "diag",
             "wrong/raised/refused ops / attempted; 0 on a correct run"),
]

END_TO_END_NAMES = [m.name for m in END_TO_END]
PER_LAYER_NAMES = [m.name for m in PER_LAYER]
UNITS = {m.name: m.unit for m in [*END_TO_END, *PER_LAYER]}
