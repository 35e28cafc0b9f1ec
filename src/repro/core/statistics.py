"""On-the-fly statistics collection (§4.4).

PostgresRaw invokes "the native statistics routines of the DBMS,
providing it with a sample of the data", only for attributes the current
query actually reads. We reproduce that with per-attribute reservoir
samplers filled during the scan; at end-of-scan the samples are folded
into the table's :class:`~repro.sql.stats.TableStats`, incrementally
augmenting whatever earlier queries collected.

Sampling rides along with the scan at the scan's own granularity: the
block scan feeds whole block columns (:meth:`StatsCollector.
add_columns` → :meth:`ReservoirSampler.add_many`), the row-at-a-time
reference scan (``tests/oracle/``) feeds rows (:meth:`StatsCollector.
add_row` → :meth:`ReservoirSampler.add`). Samplers are seeded per
attribute and share nothing, so the two feeds leave identical
reservoirs, extremes and RNG states — and charge the same
``stats_sample`` units in the same float accumulation — for the same
values in the same per-attribute order.
"""

from __future__ import annotations

import random
from itertools import chain

from repro.simcost.clock import CostEvent
from repro.simcost.model import CostModel
from repro.sql.catalog import Schema
from repro.sql.stats import ColumnStats, TableStats


class ReservoirSampler:
    """Classic reservoir sampling (Vitter's algorithm R), deterministic
    per (seed, attribute) so experiments are reproducible."""

    def __init__(self, capacity: int, seed: int = 0):
        self.capacity = capacity
        self.sample: list = []
        self.seen = 0
        self.null_count = 0
        # Exact min/max over *all* non-null values added (not just the
        # reservoir survivors): sample extremes are unsound for zone-map
        # pruning, true extremes are free to maintain.
        self.vmin = None
        self.vmax = None
        self._orderable = True
        self._rng = random.Random(seed)

    def add(self, value) -> None:
        self.seen += 1
        if value is None:
            self.null_count += 1
            return
        if self._orderable:
            try:
                if self.vmin is None or value < self.vmin:
                    self.vmin = value
                if self.vmax is None or value > self.vmax:
                    self.vmax = value
            except TypeError:
                self.vmin = self.vmax = None
                self._orderable = False
        if len(self.sample) < self.capacity:
            self.sample.append(value)
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.capacity:
            self.sample[slot] = value

    def add_many(self, values: list) -> None:
        """:meth:`add` for each of ``values`` (Python objects) in order,
        leaving exactly the state the per-value calls would: the fill
        phase is one ``extend``, the extremes one builtin ``min`` /
        ``max`` seeded with the current extreme (the same strict-``<``
        left fold, so NaNs and first-wins ties fall the same way), and
        the replacement phase draws once per value through the same
        ``randrange(seen)`` call, so the RNG stream is unchanged."""
        first_seen = self.seen
        self.seen += len(values)
        present = [value for value in values if value is not None]
        nulls = len(values) - len(present)
        self.null_count += nulls
        if not present:
            return
        if self._orderable:
            try:
                if self.vmin is None:
                    self.vmin = min(present)
                    self.vmax = max(present)
                else:
                    self.vmin = min(chain((self.vmin,), present))
                    self.vmax = max(chain((self.vmax,), present))
            except TypeError:
                self.vmin = self.vmax = None
                self._orderable = False
        sample = self.sample
        capacity = self.capacity
        room = capacity - len(sample)
        sample.extend(present[:room])
        if room >= len(present):
            return
        # Replacement phase: each value draws against the number of
        # values seen up to and including itself, NULLs counted.
        if nulls:
            seen_at = [first_seen + i for i, value
                       in enumerate(values, 1) if value is not None]
            seen_at = seen_at[room:]
        else:
            seen_at = range(first_seen + room + 1, self.seen + 1)
        randrange = self._rng.randrange
        for value, seen in zip(present[room:], seen_at):
            slot = randrange(seen)
            if slot < capacity:
                sample[slot] = value


class StatsCollector:
    """Collects samples for a set of attributes during one scan."""

    def __init__(self, model: CostModel, schema: Schema, attrs: list[int],
                 sample_target: int = 1000, seed: int = 0):
        self.model = model
        self.schema = schema
        self.attrs = list(attrs)
        self._samplers = {
            attr: ReservoirSampler(sample_target, seed=seed * 1009 + attr)
            for attr in self.attrs
        }

    def add_row(self, values: dict[int, object]) -> None:
        """Sample the attribute values of one row (missing attrs skipped:
        selective parsing may not have converted them)."""
        for attr in self.attrs:
            if attr in values:
                self._samplers[attr].add(values[attr])
                self.model.stats_sample(1)

    def add_columns(self, columns: dict[int, list]) -> None:
        """Sample whole block columns: attr -> its values (Python
        objects) in row order; attributes without a column are skipped.
        Per attribute the sampler ends in the state :meth:`add_row`
        would leave after the same values row by row, and the charge is
        the same one ``stats_sample`` unit per value."""
        sampled = 0
        for attr in self.attrs:
            values = columns.get(attr)
            if values is not None:
                self._samplers[attr].add_many(values)
                sampled += len(values)
        self.model.charge_repeat(CostEvent.STATS_SAMPLE, sampled)

    def finalize(self, table_stats: TableStats, row_count: int) -> TableStats:
        """Fold the samples into ``table_stats`` (augmenting, not
        replacing, stats of attributes this scan did not touch).
        Mutations bump ``table_stats.version`` — the signal prepared
        statements use to re-plan on stats arrival."""
        table_stats.set_row_count(row_count)
        for attr, sampler in self._samplers.items():
            if sampler.seen == 0:
                continue
            name = self.schema.columns[attr].name
            column = table_stats.column(name)
            if column is None:
                column = ColumnStats(name=name)
            column.merge_sample(sampler.sample, row_count,
                                sampler.null_count, sampler.seen)
            column.observed_min = sampler.vmin
            column.observed_max = sampler.vmax
            column.observed_rows = sampler.seen
            column.observed_nulls = sampler.null_count
            table_stats.set_column(column)
        return table_stats
