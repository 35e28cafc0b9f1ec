"""The cached-block fast path: what a scan kernel runs.

NoDB's warm-query win is structural (§4.2/§4.3): once the positional
map and the binary cache cover a block, the scan tokenizes and converts
nothing. The generic indexed-block compute still pays for the
possibility that it might — cache-mask copies, need-file masks, the
format's block-lines object (its byte window and span state) — on every
block; :func:`cached_block` skips all of it for a block the cache
covers. It is one ordinary function serving every format: no generated
source, no ``exec`` — on this engine's batch path NumPy has already
removed the per-tuple interpretation a code generator would specialize
away. The streaming region has no fast path: a cold group runs
``BlockScan._compute_stream_group`` and nothing else.

**Probe, then commit.** The probe is side-effect-free
(``BinaryCache.peek``, ``PositionalMap.has_line_spans``, the pure
``predicate.vector_fn``); if any block-level precondition fails the
function returns None and the scan runs the generic block, whose
charges are untouched because the probe charged nothing and moved no
LRU state. Once committed, it performs the generic path's priced events
in the generic order — tuple overhead, map accesses, cache reads,
predicate, tuple forming — by *calling* the prologue helpers
``_indexed_block_strict`` calls, and serves the values straight from
the cached arrays. Scan-level preconditions (a cache and a map, no §4.4
collector, a vectorized predicate) are checked once per scan by
:func:`repro.kernels.cache.compile_kernel`, not here.

What differs per format — how a cached column is probed and served and
which map lookups the prologue makes — lives on the format's scan class
(``_cached_column``, ``_known_positions``); the SELECT charges and the
output form are the generic compute's own (``BlockScan._cached_batch``,
beside the ``_indexed_block_strict`` it must agree with). Bit-identity is the contract: results, PM/cache
contents (LRU order included), counters and the virtual clock equal the
generic pipeline's for any input (``tests/test_kernels.py`` enforces it
differentially, under cache and map eviction too).
"""

from __future__ import annotations

import numpy as np


def cached_block(scan, block: int, row0: int, row1: int):
    """Rows ``row0..row1`` of ``block`` as a batch served from the
    cache alone, or None with nothing charged or moved."""
    cache = scan.cache
    pm = scan.pm
    if not pm.has_line_spans(row0, row1):
        return None
    n = row1 - row0
    predicate = scan.predicate

    # -- probe: every WHERE column over the whole block, every
    #    SELECT-only column at the qualifying rows
    def serve(attr, qual=None):
        cache_block = cache.peek(attr, block)
        if cache_block is None or cache_block.nrows < n:
            return None
        return scan._cached_column(cache_block, n, qual)

    columns = {}
    nulls = {}
    for attr in scan.where_attrs:
        served = serve(attr)
        if served is None:
            return None
        columns[attr], nulls[attr] = served
    if predicate is not None:
        # vector_fn is pure: evaluating it here lets the SELECT-only
        # coverage be checked before any commitment; its charge follows.
        qual = predicate.vector_fn(columns, nulls, n)
    else:
        qual = np.ones(n, dtype=bool)
    for attr in scan.out_attrs:
        if attr not in columns:
            served = serve(attr, qual)
            if served is None:
                return None
            columns[attr] = served[0]

    # -- commit: the generic warm charge sequence
    model = scan.model
    model.tuple_overhead(n)
    pm.line_spans_block(row0, row1)
    scan.access._prefetch_cache(scan.union_attrs, block)
    scan._known_positions(block)
    for _ in scan.where_attrs:
        model.cache_read(n)
    if predicate is not None:
        model.predicate(predicate.n_terms * n)
    return scan._cached_batch(columns, np.flatnonzero(qual))
