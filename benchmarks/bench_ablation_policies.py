"""Ablation — the design-choice knobs of ``PostgresRawConfig``.

* PM chunk size (row_block_size): granularity of chunking/prefetching;
* eager prefix indexing (§4.2 "all positions from 1 to 15 may be
  kept") vs lazy (requested attributes only);
* spill-to-disk for evicted map chunks (§4.2 Maintenance) vs discard.
"""

import random

from figshared import header, micro_engine, table

from repro import PostgresRawConfig, VirtualFS
from repro.simcost.clock import CostEvent
from repro.workloads.queries import random_projection_query

ROWS = 800
ATTRS = 60


def sequence_time(config, queries=16, seed=3):
    vfs = VirtualFS()
    engine = micro_engine(vfs, ROWS, ATTRS, config)
    rng = random.Random(seed)
    total = 0.0
    for _ in range(queries):
        total += engine.query(random_projection_query(
            rng, "m", ATTRS, 6)).elapsed
    return total, engine


def test_chunk_size_sweep(benchmark):
    results = []
    for block in (32, 128, 512, 2048):
        total, engine = sequence_time(PostgresRawConfig(
            enable_statistics=False, row_block_size=block))
        pm = engine.positional_map_of("m")
        results.append([block, total, pm.chunk_bytes])

    header("Ablation: PM chunk size (row_block_size)",
           "chunking is a locality knob — totals should be stable "
           "across sane sizes")
    table(["rows/chunk", "sequence time (s)", "map bytes"], results)

    times = [r[1] for r in results]
    assert max(times) <= min(times) * 1.5, (
        "chunk size should not change costs dramatically")
    benchmark.pedantic(sequence_time, args=(PostgresRawConfig(
        enable_statistics=False, row_block_size=256),),
        rounds=1, iterations=1)


def test_eager_vs_lazy_prefix_indexing(benchmark):
    def run(eager):
        config = PostgresRawConfig(
            enable_statistics=False, enable_cache=False,
            eager_prefix_indexing=eager)
        vfs = VirtualFS()
        engine = micro_engine(vfs, ROWS, ATTRS, config)
        rng = random.Random(3)
        first_sql = random_projection_query(rng, "m", ATTRS, 6)
        engine.query(first_sql)
        pointers_after_q1 = engine.positional_map_of("m").pointer_count
        total = 0.0
        for _ in range(15):
            total += engine.query(random_projection_query(
                rng, "m", ATTRS, 6)).elapsed
        return pointers_after_q1, total

    lazy_pointers, lazy_total = run(eager=False)
    eager_pointers, eager_total = run(eager=True)

    header("Ablation: eager vs lazy prefix indexing (§4.2)",
           '"all positions from 1 to 15 may be kept": eager indexes the '
           "whole tokenized prefix on Q1 — bigger map, cheaper later "
           "navigation")
    table(["policy", "pointers after Q1", "later 15 queries (s)"],
          [["lazy (requested only)", lazy_pointers, lazy_total],
           ["eager (whole prefix)", eager_pointers, eager_total]])

    # The first query tokenizes a long prefix either way; eager keeps
    # several times more of what it saw.
    assert eager_pointers > 2 * lazy_pointers
    # Eager trades memory for tokenize work; it must not be slower.
    assert eager_total <= lazy_total * 1.05
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_spill_vs_discard(benchmark):
    budget = 6_000  # deliberately tight: forces constant eviction
    discard_cfg = PostgresRawConfig(
        enable_statistics=False, enable_cache=False,
        pm_budget_bytes=budget, pm_spill_enabled=False)
    spill_cfg = PostgresRawConfig(
        enable_statistics=False, enable_cache=False,
        pm_budget_bytes=budget, pm_spill_enabled=True)

    discard_total, discard_engine = sequence_time(discard_cfg, queries=24)
    spill_total, spill_engine = sequence_time(spill_cfg, queries=24)

    discard_tok = discard_engine.model.count(CostEvent.TOKENIZE)
    spill_tok = spill_engine.model.count(CostEvent.TOKENIZE)
    spill_loads = spill_engine.positional_map_of("m").spill_loads

    header("Ablation: spill evicted map chunks vs discard (§4.2)",
           "spilling preserves positional knowledge at I/O cost: less "
           "re-tokenizing")
    table(["policy", "sequence time (s)", "chars tokenized",
           "spill reloads"],
          [["discard", discard_total, discard_tok, 0],
           ["spill to disk", spill_total, spill_tok, spill_loads]])

    assert spill_loads > 0, "tight budget must trigger spill reloads"
    assert spill_tok < discard_tok, (
        "spilled positions should avoid re-tokenizing")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
