"""Materialized rollups: precomputed aggregate summaries of raw tables.

The paper's auxiliary structures (positional maps, caches, statistics)
amortize *access* cost; rollups amortize *computation*. A rollup is a
small heap table holding one row per combination of dimension values
with decomposable aggregate state (sums, counts, mins, maxes), built in
a single pass over the source — during ``CREATE ROLLUP`` DDL or the
§7-style idle-time tuner — and stored through the ``heap`` format
adapter. The query router rewrites covered aggregate queries to probe
the rollup instead of rescanning the raw file, with bit-identical
results and staleness tracked against the source table's data version.
"""

from repro.rollup.metadata import RollupInfo, RollupRegistry, agg_signature
from repro.rollup.router import QueryRouter, RoutedQuery

__all__ = [
    "RollupInfo",
    "RollupRegistry",
    "agg_signature",
    "QueryRouter",
    "RoutedQuery",
]
