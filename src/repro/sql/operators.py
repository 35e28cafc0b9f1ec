"""Physical plan operators: one columnar pull.

Every operator charges the engine's cost model for the work it does, so
virtual query time reflects plan choices (hash vs sort aggregation, join
order) exactly the way the paper's Figure 12 depends on.

Each operator carries a *layout*: a dict mapping the canonical key
(:func:`repro.sql.expressions.expr_key`) of the expression that
produced a column to its index in the output.

The engine pulls ``batches()``: :class:`~repro.sql.batch.ColumnBatch`
blocks of typed NumPy columns, from every leaf — raw-file, heap and
external scans alike, so PostgresRaw and its comparators share one
execution engine, as in the paper's §5 — to the root:

* ``ScanOp`` feeds the blocks of its access method's ``scan_batches``;
  ``FilterOp`` evaluates vectorized masks (falling back to the row
  closure for shapes the vectorizer does not cover);
* ``ProjectOp`` passes resolved columns through by reference and
  evaluates computed items (arithmetic, CASE) as value columns;
* ``HashAggregateOp`` / ``SortAggregateOp`` extract group keys and
  aggregate arguments (columns, arithmetic, searched CASE) as arrays,
  factorize keys per block (``np.unique``-based) and accumulate
  SUM/COUNT/MIN/MAX/AVG with sequential array updates whose result is
  bit-identical to the scalar accumulators;
* ``HashJoinOp`` and ``HashSemiJoinOp`` share one build-side key index
  (``_KeyIndex``: columnar key codes over the concatenated build side,
  ``searchsorted`` probe): the join expands matches by gather, the
  semi-join (EXISTS / NOT EXISTS) keeps or drops rows by the hit mask;
* ``SortOp`` orders via repeated stable ``np.argsort`` passes over
  rank codes, replicating the scalar multi-key stable sort exactly.

Fallbacks are local. An operator that cannot stay columnar — a
``DISTINCT`` aggregate, a value expression with INTERVAL arithmetic, a
predicate shape the vectorizer does not cover, a join or sort key that
is an expression rather than a column, a non-equi (nested-loop) join —
transposes *its own* input and evaluates its row closures there, while
the subtree below it keeps running on arrays.

Cost charging is pull-mode invariant: batch paths charge the same unit
totals per block that the row forms charge per row. Every place a
batch is transposed into Python tuples records the fact on the
``rows_materialized`` observability counter, so a fully columnar plan
is assertable as ``rows_materialized == 0``.

``rows()``, the classic Volcano iterator, is not pulled by the engine:
it is the row-at-a-time reference engine the differential oracle in
``tests/oracle/`` runs against the columnar one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.kernels import explain_note
from repro.simcost.model import CostModel
from repro.sql.batch import ColumnBatch, rows_to_batches
from repro.sql.scanapi import AccessMethod, ScanPredicate
from repro.sql.vectorize import value_kind

Layout = dict[str, int]


class _BatchNulls:
    """Lazy per-column NULL-mask view of one batch, with the mapping
    ``.get`` interface the vectorizer's mask/value functions expect."""

    __slots__ = ("batch",)

    def __init__(self, batch: ColumnBatch):
        self.batch = batch

    def get(self, index: int):
        return self.batch.null_mask(index)


def _concat_columns(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate column fragments, degrading to object dtype when the
    fragments disagree (e.g. a typed block followed by a NULL-bearing
    object block of the same logical column)."""
    if len(parts) == 1:
        return parts[0]
    dtypes = {part.dtype for part in parts}
    if len(dtypes) > 1 and any(dt == object for dt in dtypes):
        parts = [part if part.dtype == object else part.astype(object)
                 for part in parts]
    return np.concatenate(parts)


def _concat_nulls(masks: list, lengths: list[int]):
    """Concatenate per-fragment NULL masks (None = no NULLs)."""
    if all(mask is None for mask in masks):
        return None
    return np.concatenate([
        mask if mask is not None else np.zeros(length, dtype=bool)
        for mask, length in zip(masks, lengths)])


def _gather_batches(child: "PlanOp") -> ColumnBatch:
    """Drain ``child.batches()`` into one batch with resolved NULL
    masks — the blocking operators' input (join build sides, sorts)."""
    parts = [b for b in child.batches() if b.nrows]
    width = len(child.layout)
    if not parts:
        return ColumnBatch([np.empty(0, dtype=object)
                            for _ in range(width)], 0)
    lengths = [b.nrows for b in parts]
    columns = [_concat_columns([b.columns[c] for b in parts])
               for c in range(width)]
    nulls = [_concat_nulls([b.null_mask(c) for b in parts], lengths)
             for c in range(width)]
    return ColumnBatch(columns, sum(lengths), nulls)


def _broadcast(values, n: int) -> np.ndarray:
    """A vectorized value as a column: arrays pass through, a constant
    (``sum(1)``, ``GROUP BY 'x'``) repeats ``n`` times."""
    if isinstance(values, np.ndarray):
        return values
    column = np.empty(n, dtype=object)
    column[:] = values
    return column


def _all_resolved(indices) -> bool:
    """Whether the planner resolved every key to an input column."""
    return indices is not None and all(i is not None for i in indices)


def _materialized(model: CostModel, batches) -> Iterator[tuple]:
    """``batches`` transposed into tuples — an operator's local fallback
    to its row closures, counted on ``rows_materialized``."""
    for batch in batches:
        if batch.nrows:
            model.materialize_rows(batch.nrows)
            yield from batch.iter_rows()


def _keyed(model: CostModel, batch: ColumnBatch, key_idx,
           key_fns: list[Callable]) -> tuple[ColumnBatch, list[int]]:
    """The block an equi-join key index reads and the key positions in
    it: the block itself when every key is resolved to a column, else
    the keys evaluated by their row closures over the block's rows."""
    if _all_resolved(key_idx):
        return batch, key_idx
    rows = list(_materialized(model, [batch]))
    return (ColumnBatch([[fn(row) for row in rows] for fn in key_fns],
                        batch.nrows), list(range(len(key_fns))))


def _scalar_of(column: np.ndarray, row: int):
    """One column entry as a plain Python value."""
    value = column[row]
    return value.item() if isinstance(value, np.generic) else value


class PlanOp:
    """Base class: a producer of column batches with a layout and a
    describe(); ``rows()`` is its row-at-a-time reference form."""

    def __init__(self, model: CostModel, layout: Layout):
        self.model = model
        self.layout = layout

    def batches(self) -> Iterator[ColumnBatch]:
        raise NotImplementedError

    def rows(self) -> Iterator[tuple]:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class ScanOp(PlanOp):
    """Plan leaf: delegates to an access method (raw/heap/external).

    It carries no kernel state: a raw scan decides for itself, once per
    scan, whether its cached blocks take the fast path
    (:mod:`repro.kernels`), and :meth:`describe` reports the plan-time
    half of that decision as ``kernel``."""

    def __init__(self, model: CostModel, layout: Layout,
                 access: AccessMethod, needed: Sequence[int],
                 predicate: ScanPredicate | None, table_name: str):
        super().__init__(model, layout)
        self.access = access
        self.needed = list(needed)
        self.predicate = predicate
        self.table_name = table_name
        # Plan-time PartitionSelection for partitioned tables (EXPLAIN).
        self.partitions = None

    def batches(self) -> Iterator[ColumnBatch]:
        return self.access.scan_batches(self.needed, self.predicate)

    def rows(self) -> Iterator[tuple]:
        """The reference engine's leaf: a row-at-a-time access method's
        own ``scan`` (``tests/oracle``), else the blocks transposed."""
        scan = getattr(self.access, "scan", None)
        if scan is not None:
            return scan(self.needed, self.predicate)
        return _materialized(self.model, self.access.scan_batches(
            self.needed, self.predicate))

    def describe(self) -> dict:
        out = {
            "op": "Scan",
            "table": self.table_name,
            "access": type(self.access).__name__,
            "columns": len(self.needed),
            "pushed_predicates": (self.predicate.n_terms
                                  if self.predicate else 0),
        }
        if self.partitions is not None:
            out["files"] = self.partitions.total
            out["files_scanned"] = self.partitions.scanned
            out["files_pruned"] = self.partitions.pruned
        on_error = getattr(self.access, "on_error", "fail")
        if on_error != "fail":
            # Non-default error policy changes what the scan can emit
            # (rows quarantined or NULL-filled), so it is part of the
            # plan summary — 'fail' stays silent to keep default
            # EXPLAIN output unchanged.
            out["on_error"] = on_error
        # Whether the scan's indexed blocks may take the cached-block
        # fast path, as far as the plan decides it (rendered by EXPLAIN
        # as a ``kernel:`` row; see repro.kernels).
        kernel = explain_note(self)
        if kernel is not None:
            out["kernel"] = kernel
        return out


class FilterOp(PlanOp):
    """Residual predicate evaluation (join predicates that could not be
    turned into hash keys, HAVING, multi-table conjuncts).

    When the planner could vectorize the predicate over the input
    layout (``vector_fn``), the batch path evaluates one mask per block
    and gathers survivors without touching a single tuple."""

    def __init__(self, model: CostModel, child: PlanOp,
                 predicate_fn: Callable, n_terms: int = 1,
                 label: str = "Filter", vector_fn: Callable | None = None):
        super().__init__(model, child.layout)
        self.child = child
        self.predicate_fn = predicate_fn
        self.n_terms = n_terms
        self.label = label
        self.vector_fn = vector_fn

    def rows(self) -> Iterator[tuple]:
        predicate = self.predicate_fn
        n_terms = self.n_terms
        model = self.model
        for row in self.child.rows():
            model.predicate(n_terms)
            if predicate(row) is True:
                yield row

    def batches(self) -> Iterator[ColumnBatch]:
        predicate = self.predicate_fn
        vector_fn = self.vector_fn
        for batch in self.child.batches():
            if not batch.nrows:
                continue
            self.model.predicate(self.n_terms * batch.nrows)
            if vector_fn is not None:
                mask = vector_fn(batch.columns, _BatchNulls(batch),
                                 batch.nrows)
                yield batch.take(np.flatnonzero(mask))
                continue
            self.model.materialize_rows(batch.nrows)
            kept = [row for row in batch.iter_rows()
                    if predicate(row) is True]
            yield ColumnBatch.from_rows(kept, batch.width)

    def describe(self) -> dict:
        return {"op": self.label, "terms": self.n_terms,
                "vectorized": self.vector_fn is not None,
                "input": self.child.describe()}


class GateOp(PlanOp):
    """A row-independent predicate evaluated once per execution.

    Used for constant conjuncts whose value is only known at run time
    (``?`` placeholders): if the predicate is not TRUE the child is
    never pulled at all — the per-execution analogue of the planner's
    plan-time constant folding."""

    def __init__(self, model: CostModel, child: PlanOp,
                 predicate_fn: Callable, n_terms: int = 1):
        super().__init__(model, child.layout)
        self.child = child
        self.predicate_fn = predicate_fn
        self.n_terms = n_terms

    def _open(self) -> bool:
        self.model.predicate(self.n_terms)
        return self.predicate_fn(()) is True

    def rows(self) -> Iterator[tuple]:
        if self._open():
            yield from self.child.rows()

    def batches(self) -> Iterator[ColumnBatch]:
        if self._open():
            yield from self.child.batches()

    def describe(self) -> dict:
        return {"op": "Gate", "terms": self.n_terms,
                "input": self.child.describe()}


class ProjectOp(PlanOp):
    """Computes output expressions; owns the result column names.

    ``col_indices`` (from the planner) marks output expressions that
    are plain input columns: the batch path forwards those arrays by
    reference. Computed expressions evaluate through their vectorized
    twin in ``value_fns`` (arithmetic / CASE over input columns, e.g.
    Q14's ``100.00 * sum(...) / sum(...)``); rows are materialized only
    for an expression the vectorizer does not cover."""

    def __init__(self, model: CostModel, child: PlanOp,
                 fns: list[Callable], layout: Layout, names: list[str],
                 col_indices: list[int | None] | None = None,
                 value_fns: list[Callable | None] | None = None):
        super().__init__(model, layout)
        self.child = child
        self.fns = fns
        self.names = names
        self.col_indices = col_indices
        self.value_fns = value_fns

    def rows(self) -> Iterator[tuple]:
        fns = self.fns
        width = len(fns)
        model = self.model
        for row in self.child.rows():
            model.tuple_form(width)
            yield tuple(fn(row) for fn in fns)

    def batches(self) -> Iterator[ColumnBatch]:
        fns = self.fns
        width = len(fns)
        indices = self.col_indices or [None] * width
        value_fns = self.value_fns or [None] * width
        columnar = all(i is not None or fn is not None
                       for i, fn in zip(indices, value_fns))
        for batch in self.child.batches():
            n = batch.nrows
            if n:
                self.model.tuple_form(width * n)
            rows: list = []
            if not columnar:
                rows = list(batch.iter_rows())
                if rows:
                    self.model.materialize_rows(len(rows))
            batch_nulls = _BatchNulls(batch)
            columns: list = []
            nulls: list = []
            for index, value_fn, fn in zip(indices, value_fns, fns):
                if index is not None:
                    columns.append(batch.columns[index])
                    nulls.append(batch.nulls[index])
                elif value_fn is not None:
                    values, null_mask = value_fn(batch.columns,
                                                 batch_nulls, n)
                    columns.append(_broadcast(values, n))
                    nulls.append(null_mask)
                else:
                    columns.append([fn(row) for row in rows])
                    nulls.append(None)
            yield ColumnBatch(columns, n, nulls)

    def describe(self) -> dict:
        return {"op": "Project", "columns": self.names,
                "input": self.child.describe()}


# ---------------------------------------------------------------------------
# Hash join (columnar build/probe)
# ---------------------------------------------------------------------------
class _KeyEncoder:
    """Per-key-column code assignment over the build side, probe-able
    from the other side. Typed numeric columns use sorted-unique +
    ``searchsorted``; object columns (strings, dates, NULL-bearing
    blocks) use a Python dict over scalar values — never row tuples."""

    __slots__ = ("uniques", "mapping", "size", "_probe_mapping")

    def __init__(self, column: np.ndarray, valid: np.ndarray):
        self._probe_mapping: dict | None = None
        if column.dtype != object:
            self.uniques = np.unique(column[valid])
            self.mapping = None
            self.size = len(self.uniques)
        else:
            mapping: dict = {}
            for row in np.flatnonzero(valid).tolist():
                mapping.setdefault(column[row], len(mapping))
            self.uniques = None
            self.mapping = mapping
            self.size = len(mapping)

    def encode(self, column: np.ndarray, valid: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, known)`` — code per row (garbage where not known)
        and the mask of rows whose value exists in the build side."""
        n = len(column)
        codes = np.zeros(n, dtype=np.int64)
        known = np.zeros(n, dtype=bool)
        if self.mapping is not None:
            mapping = self.mapping
            for row in np.flatnonzero(valid).tolist():
                code = mapping.get(_scalar_of(column, row))
                if code is not None:
                    codes[row] = code
                    known[row] = True
            return codes, known
        if self.size == 0:
            return codes, known
        if column.dtype == object:
            # Probe side carries objects against a typed build side:
            # fall back to value hashing (mapping built once, cached —
            # probes arrive one batch at a time).
            if self._probe_mapping is None:
                self._probe_mapping = {_scalar_of(self.uniques, i): i
                                       for i in range(self.size)}
            mapping = self._probe_mapping
            for row in np.flatnonzero(valid).tolist():
                code = mapping.get(_scalar_of(column, row))
                if code is not None:
                    codes[row] = code
                    known[row] = True
            return codes, known
        pos = np.searchsorted(self.uniques, column)
        pos_c = np.minimum(pos, self.size - 1)
        hit = valid & (self.uniques[pos_c] == column)
        codes[hit] = pos_c[hit]
        known = hit
        return codes, known


class _KeyIndex:
    """The build side of an equi-join, indexed by key: the one helper
    behind both :class:`HashJoinOp` and :class:`HashSemiJoinOp`.

    Rows whose keys are all non-NULL are encoded column by column
    (:class:`_KeyEncoder`) into a dense group code. Staged
    pair-compaction: after every key the running code is re-compacted
    via ``np.unique``, so the intermediate product ``code * (size + 1)
    + key_code`` stays bounded by roughly n^2 and cannot overflow
    int64 for any key count or cardinality; the per-stage sorted raw
    codes are kept so :meth:`probe` maps the other side into the same
    compacted space.

    ``keyed`` is the number of build rows with non-NULL keys (what the
    row path charges a ``hash_probe`` for); ``rows`` are the indexed
    build rows and ``codes`` their group ids in ``[0, size)``."""

    __slots__ = ("keyed", "rows", "codes", "size", "_encoders",
                 "_stages", "_groups")

    def __init__(self, batch: ColumnBatch, key_idx: list[int]):
        valid = np.ones(batch.nrows, dtype=bool)
        for idx in key_idx:
            mask = batch.null_mask(idx)
            if mask is not None:
                valid &= ~mask
        self.keyed = int(valid.sum())
        self._encoders: list[_KeyEncoder] = []
        self._stages: list[np.ndarray] = []
        codes = np.zeros(batch.nrows, dtype=np.int64)
        for idx in key_idx:
            column = batch.columns[idx]
            encoder = _KeyEncoder(column, valid)
            key_codes, known = encoder.encode(column, valid)
            valid = valid & known  # every build value is known
            raw = codes * (encoder.size + 1) + key_codes
            uniq_raw, inverse = np.unique(raw, return_inverse=True)
            self._encoders.append(encoder)
            self._stages.append(uniq_raw)
            codes = inverse.astype(np.int64, copy=False)
        self.rows = np.flatnonzero(valid)
        self._groups, self.codes = np.unique(codes[self.rows],
                                             return_inverse=True)
        self.size = len(self._groups)

    def probe(self, batch: ColumnBatch, key_idx: list[int],
              ) -> tuple[np.ndarray, np.ndarray]:
        """``(hit, group)`` for one probe-side block: the mask of rows
        whose (non-NULL) key exists in the build side, and per row the
        matching group id (meaningful only where ``hit``)."""
        n = batch.nrows
        if not self.size:
            return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
        valid = np.ones(n, dtype=bool)
        for idx in key_idx:
            mask = batch.null_mask(idx)
            if mask is not None:
                valid &= ~mask
        codes = np.zeros(n, dtype=np.int64)
        for idx, encoder, uniq_raw in zip(key_idx, self._encoders,
                                          self._stages):
            key_codes, known = encoder.encode(batch.columns[idx], valid)
            valid = valid & known
            raw = codes * (encoder.size + 1) + key_codes
            codes = np.minimum(np.searchsorted(uniq_raw, raw),
                               len(uniq_raw) - 1)
            valid = valid & (uniq_raw[codes] == raw)
        group = np.minimum(np.searchsorted(self._groups, codes),
                           self.size - 1)
        return valid & (self._groups[group] == codes), group


class HashJoinOp(PlanOp):
    """Equi-join; builds a hash table on the right (smaller) input.

    The batch path concatenates the build side column-wise, indexes its
    keys (:class:`_KeyIndex`), and probes each left block with
    ``searchsorted`` + repeat/gather output assembly — no per-row
    tuples anywhere when every key is resolved to a column
    (``left_key_idx`` / ``right_key_idx`` from the planner); without
    them the key closures are evaluated over each block
    (:func:`_keyed`)."""

    def __init__(self, model: CostModel, left: PlanOp, right: PlanOp,
                 left_key_fns: list[Callable], right_key_fns: list[Callable],
                 layout: Layout,
                 left_key_idx: list[int | None] | None = None,
                 right_key_idx: list[int | None] | None = None):
        super().__init__(model, layout)
        self.left = left
        self.right = right
        self.left_key_fns = left_key_fns
        self.right_key_fns = right_key_fns
        self.left_key_idx = left_key_idx
        self.right_key_idx = right_key_idx

    def rows(self) -> Iterator[tuple]:
        model = self.model
        table: dict[tuple, list[tuple]] = {}
        for row in self.right.rows():
            key = tuple(fn(row) for fn in self.right_key_fns)
            if any(part is None for part in key):
                continue  # NULL never joins
            model.hash_probe(1)
            table.setdefault(key, []).append(row)
        for row in self.left.rows():
            key = tuple(fn(row) for fn in self.left_key_fns)
            model.hash_probe(1)
            if any(part is None for part in key):
                continue
            for match in table.get(key, ()):
                yield row + match

    def batches(self) -> Iterator[ColumnBatch]:
        model = self.model

        # ---- build: drain the right side column-wise, index its keys
        build = _gather_batches(self.right)
        index = _KeyIndex(*_keyed(model, build, self.right_key_idx,
                                  self.right_key_fns))
        model.hash_probe(index.keyed)
        order = np.argsort(index.codes, kind="stable")
        counts = np.bincount(index.codes, minlength=index.size)
        starts = np.cumsum(counts) - counts

        # ---- probe: stream the left side block by block
        for batch in self.left.batches():
            n = batch.nrows
            if not n:
                continue
            model.hash_probe(n)
            hit, groups = index.probe(*_keyed(model, batch,
                                              self.left_key_idx,
                                              self.left_key_fns))
            hit_rows = np.flatnonzero(hit)
            if not len(hit_rows):
                continue
            group = groups[hit_rows]
            group_counts = counts[group]
            total = int(group_counts.sum())
            left_out = np.repeat(hit_rows, group_counts)
            base = np.repeat(np.cumsum(group_counts) - group_counts,
                             group_counts)
            within = np.arange(total) - base
            right_out = index.rows[
                order[np.repeat(starts[group], group_counts) + within]]
            out_columns = ([col[left_out] for col in batch.columns]
                           + [col[right_out] for col in build.columns])
            out_nulls = ([mask[left_out] if mask is not None else None
                          for mask in batch.nulls]
                         + [mask[right_out] if mask is not None else None
                            for mask in build.nulls])
            yield ColumnBatch(out_columns, total, out_nulls)

    def describe(self) -> dict:
        return {"op": "HashJoin", "keys": len(self.left_key_fns),
                "left": self.left.describe(),
                "right": self.right.describe()}


class NestedLoopJoinOp(PlanOp):
    """Cross product with optional residual predicate (non-equi joins)."""

    def __init__(self, model: CostModel, left: PlanOp, right: PlanOp,
                 layout: Layout, predicate_fn: Callable | None = None,
                 n_terms: int = 0):
        super().__init__(model, layout)
        self.left = left
        self.right = right
        self.predicate_fn = predicate_fn
        self.n_terms = n_terms

    def _pairs(self, left_rows, right_rows: list) -> Iterator[tuple]:
        """Every left row joined with every right row that passes."""
        model = self.model
        predicate = self.predicate_fn
        for left_row in left_rows:
            for right_row in right_rows:
                combined = left_row + right_row
                if predicate is not None:
                    model.predicate(max(self.n_terms, 1))
                    if predicate(combined) is not True:
                        continue
                yield combined

    def rows(self) -> Iterator[tuple]:
        right_rows = list(self.right.rows())
        yield from self._pairs(self.left.rows(), right_rows)

    def batches(self) -> Iterator[ColumnBatch]:
        """Gather the right side once, then evaluate the row closure per
        pair (both sides' rows are materialized)."""
        right_rows = list(_materialized(self.model, self.right.batches()))
        yield from rows_to_batches(
            self._pairs(_materialized(self.model, self.left.batches()),
                        right_rows), len(self.layout))

    def describe(self) -> dict:
        return {"op": "NestedLoopJoin", "terms": self.n_terms,
                "left": self.left.describe(),
                "right": self.right.describe()}


class HashSemiJoinOp(PlanOp):
    """EXISTS / NOT EXISTS with an equality correlation (TPC-H Q4).

    The batch path is the hash join's build/probe without the gather:
    the inner side's keys go into a :class:`_KeyIndex`, and each outer
    block keeps the rows whose probe ``hit`` (or did not, negated). It
    is vectorized when every correlation key is resolved to a column,
    and evaluates the key closures over each block otherwise."""

    def __init__(self, model: CostModel, outer: PlanOp, inner: PlanOp,
                 outer_key_fns: list[Callable], inner_key_fns: list[Callable],
                 negated: bool = False,
                 outer_key_idx: list[int | None] | None = None,
                 inner_key_idx: list[int | None] | None = None):
        super().__init__(model, outer.layout)
        self.outer = outer
        self.inner = inner
        self.outer_key_fns = outer_key_fns
        self.inner_key_fns = inner_key_fns
        self.negated = negated
        self.outer_key_idx = outer_key_idx
        self.inner_key_idx = inner_key_idx

    def rows(self) -> Iterator[tuple]:
        model = self.model
        keys: set[tuple] = set()
        for row in self.inner.rows():
            key = tuple(fn(row) for fn in self.inner_key_fns)
            if any(part is None for part in key):
                continue
            model.hash_probe(1)
            keys.add(key)
        for row in self.outer.rows():
            key = tuple(fn(row) for fn in self.outer_key_fns)
            model.hash_probe(1)
            matched = (not any(part is None for part in key)) and key in keys
            if matched != self.negated:
                yield row

    def batches(self) -> Iterator[ColumnBatch]:
        model = self.model
        index = _KeyIndex(*_keyed(model, _gather_batches(self.inner),
                                  self.inner_key_idx, self.inner_key_fns))
        model.hash_probe(index.keyed)
        for batch in self.outer.batches():
            if not batch.nrows:
                continue
            model.hash_probe(batch.nrows)
            hit, _ = index.probe(*_keyed(model, batch, self.outer_key_idx,
                                         self.outer_key_fns))
            yield batch.take(np.flatnonzero(hit != self.negated))

    def describe(self) -> dict:
        return {"op": "HashSemiJoin", "negated": self.negated,
                "vectorized": (_all_resolved(self.outer_key_idx)
                               and _all_resolved(self.inner_key_idx)),
                "outer": self.outer.describe(),
                "inner": self.inner.describe()}


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
@dataclass
class AggSpec:
    """One aggregate to compute: func, compiled argument, identity key."""

    func: str                       # sum | avg | min | max | count | count_star
    arg_fn: Optional[Callable]      # None for count(*)
    key: str                        # expr_key of the FuncCall node
    distinct: bool = False


class _Accumulator:
    __slots__ = ("func", "distinct", "total", "count", "extreme", "seen")

    def __init__(self, func: str, distinct: bool):
        self.func = func
        self.distinct = distinct
        self.total = None
        self.count = 0
        self.extreme = None
        self.seen = set() if distinct else None

    def update(self, value) -> None:
        func = self.func
        if func == "count_star":
            self.count += 1
            return
        if value is None:
            return
        if self.distinct:
            if value in self.seen:
                return
            self.seen.add(value)
        if func == "count":
            self.count += 1
        elif func in ("sum", "avg"):
            self.total = value if self.total is None else self.total + value
            self.count += 1
        elif func == "min":
            if self.extreme is None or value < self.extreme:
                self.extreme = value
        elif func == "max":
            if self.extreme is None or value > self.extreme:
                self.extreme = value
        else:
            raise ExecutionError(f"unknown aggregate {func!r}")

    def result(self):
        if self.func in ("count", "count_star"):
            return self.count
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return None if self.count == 0 else self.total / self.count
        return self.extreme


def _has_nan(column: np.ndarray) -> bool:
    if column.dtype == np.float64:
        return bool(np.isnan(column).any())
    if column.dtype == object:
        return any(isinstance(v, float) and v != v
                   for v in column.tolist())
    return False


def _group_codes(column: np.ndarray, null_mask: Optional[np.ndarray],
                 ) -> tuple[np.ndarray, int]:
    """Batch-local integer codes for one group-key column (NULL is its
    own group, coded last). Returns ``(codes, code_space)``.

    NaN rows each get their *own* code: the scalar path keys groups by
    a Python dict, where every freshly-parsed ``nan`` hashes alike but
    compares unequal — one group per NaN row — while ``np.unique``
    would collapse them."""
    n = len(column)
    if column.dtype != object:
        nan_mask = (np.isnan(column)
                    if column.dtype == np.float64 else None)
        if nan_mask is not None and not nan_mask.any():
            nan_mask = None
        if (null_mask is not None and null_mask.any()) or \
                nan_mask is not None:
            codes = np.zeros(n, dtype=np.int64)
            valid = np.ones(n, dtype=bool)
            if null_mask is not None:
                valid &= ~null_mask
            if nan_mask is not None:
                valid &= ~nan_mask
            uniques, inverse = np.unique(column[valid],
                                         return_inverse=True)
            codes[valid] = inverse
            space = len(uniques)
            if nan_mask is not None:
                nan_rows = np.flatnonzero(nan_mask)
                if null_mask is not None:
                    nan_rows = nan_rows[~null_mask[nan_rows]]
                codes[nan_rows] = space + np.arange(len(nan_rows))
                space += len(nan_rows)
            if null_mask is not None and null_mask.any():
                codes[null_mask] = space
                space += 1
            return codes, max(space, 1)
        _, inverse = np.unique(column, return_inverse=True)
        return inverse.astype(np.int64, copy=False), int(inverse.max(
            initial=-1)) + 2
    mapping: dict = {}
    codes = np.empty(n, dtype=np.int64)
    values = column.tolist()
    explicit = null_mask if null_mask is not None else None
    null_rows = []
    for i, value in enumerate(values):
        if value is None or (explicit is not None and explicit[i]):
            null_rows.append(i)
            codes[i] = -1
        else:
            codes[i] = mapping.setdefault(value, len(mapping))
    if null_rows:
        codes[null_rows] = len(mapping)
    return codes, len(mapping) + 1


class _VecAgg:
    """One aggregate's per-group state, fed column slices batch-wise.

    Updates are applied in input order (``np.add.at`` /
    ``np.minimum.at`` are sequential, unbuffered), so totals are
    bit-identical to the scalar accumulators — float summation order
    included. Sum identity is ``-0.0`` so a single ``-0.0`` input
    survives exactly.

    Storage follows :func:`~repro.sql.vectorize.value_kind`: int64 and
    float64 columns accumulate natively; everything else (strings,
    dates, NULL-holed object columns, bools, a CASE mixing int and
    float arms) takes the scalar per-value loop — still columnar input,
    never row tuples."""

    __slots__ = ("func", "count", "data", "flags", "size", "_abs_bound")

    def __init__(self, func: str):
        self.func = func
        self.count = np.zeros(0, dtype=np.int64)
        self.data: np.ndarray | None = None
        self.flags = np.zeros(0, dtype=bool)
        self.size = 0
        #: upper bound on any int64 sum's magnitude (overflow guard)
        self._abs_bound = 0

    # -- growth --------------------------------------------------------
    def _identity(self, dtype) -> np.ndarray:
        if self.func in ("min", "max"):
            if dtype == np.int64:
                info = np.iinfo(np.int64)
                fill = info.max if self.func == "min" else info.min
                return np.full(1, fill, dtype=np.int64)
            if dtype == np.float64:
                fill = math.inf if self.func == "min" else -math.inf
                return np.full(1, fill, dtype=np.float64)
            return np.empty(1, dtype=object)
        if dtype == np.int64:
            return np.zeros(1, dtype=np.int64)
        if dtype == np.float64:
            return np.full(1, -0.0, dtype=np.float64)
        return np.empty(1, dtype=object)

    def ensure(self, size: int) -> None:
        if size <= self.size:
            return
        grow = size - self.size
        self.count = np.concatenate(
            [self.count, np.zeros(grow, dtype=np.int64)])
        self.flags = np.concatenate(
            [self.flags, np.zeros(grow, dtype=bool)])
        if self.data is not None:
            dtype = (self.data.dtype if self.data.dtype != object
                     else object)
            self.data = np.concatenate(
                [self.data, np.repeat(self._identity(dtype), grow)])
        self.size = size

    def _establish(self, kind: str) -> None:
        dtype = {"int": np.int64, "float": np.float64,
                 "object": object}[kind]
        self.data = np.repeat(self._identity(dtype), self.size)

    def _promote(self, kind: str) -> None:
        """Widen the accumulator storage to admit ``kind`` values,
        preserving exact totals (int64 -> float64 only when the scalar
        path would have mixed int and float anyway)."""
        current = value_kind(self.data)
        if current == kind or current == "object":
            return
        if current == "float" and kind == "int":
            return  # float storage admits ints directly
        if current == "int" and kind == "float":
            self.data = self.data.astype(np.float64)
            if self.func in ("min", "max"):
                # Restore exact float sentinels for untouched groups.
                fill = math.inf if self.func == "min" else -math.inf
                self.data[~self.flags] = fill
            return
        promoted = np.repeat(self._identity(object), self.size)
        seen = self.flags if self.func in ("min", "max") else self.count > 0
        rows = np.flatnonzero(seen)
        if len(rows):
            promoted[rows] = [self.data[r].item() for r in rows.tolist()]
        self.data = promoted

    # -- updates -------------------------------------------------------
    def update(self, slots: np.ndarray, values, null_mask) -> None:
        func = self.func
        n = len(slots)
        if func == "count_star":
            np.add.at(self.count, slots, 1)
            return
        values = _broadcast(values, n)
        if null_mask is not None and null_mask.any():
            keep = np.flatnonzero(~null_mask)
            slots = slots[keep]
            values = values[keep]
        if values.dtype == object:
            drop = np.fromiter((v is None for v in values.tolist()),
                               dtype=bool, count=len(values))
            if drop.any():
                keep = np.flatnonzero(~drop)
                slots = slots[keep]
                values = values[keep]
        if not len(slots):
            return
        if func == "count":
            np.add.at(self.count, slots, 1)
            return
        kind = value_kind(values)
        if self.data is None:
            self._establish(kind)
        else:
            self._promote(kind)
        if value_kind(self.data) == "object":
            self._update_object(slots, values)
            return
        if func in ("sum", "avg"):
            if self.data.dtype == np.int64:
                # int64 wraps where the scalar oracle sums exact Python
                # ints: bound the total magnitude and promote to object
                # (arbitrary precision) before overflow is possible.
                peak = int(np.abs(values).max(initial=0))
                if peak < 0:  # abs(int64 min) overflows back negative
                    peak = 1 << 63
                self._abs_bound += peak * len(values)
                if self._abs_bound >= (1 << 62):
                    self._promote("object")
                    self._update_object(slots, values)
                    return
            np.add.at(self.data, slots, values)
            np.add.at(self.count, slots, 1)
            return
        if values.dtype == np.float64 and bool(np.isnan(values).any()):
            # np.minimum/maximum propagate NaN; the scalar accumulator's
            # `<`/`>` comparisons keep the incumbent. Take the scalar
            # loop for the exact first-value-wins NaN semantics.
            self._update_object(slots, values)
            return
        if func == "min":
            np.minimum.at(self.data, slots, values)
            self.flags[slots] = True
        else:
            np.maximum.at(self.data, slots, values)
            self.flags[slots] = True

    def _update_object(self, slots: np.ndarray, values: np.ndarray) -> None:
        func = self.func
        data = self.data
        flags = self.flags
        count = self.count
        for slot, value in zip(slots.tolist(), values.tolist()):
            if func in ("sum", "avg"):
                data[slot] = (value if not count[slot]
                              else data[slot] + value)
                count[slot] += 1
            elif func == "min":
                if not flags[slot] or value < data[slot]:
                    data[slot] = value
                    flags[slot] = True
            else:
                if not flags[slot] or value > data[slot]:
                    data[slot] = value
                    flags[slot] = True

    # -- results -------------------------------------------------------
    def result_column(self, size: int) -> np.ndarray:
        """Per-group results as an array sized ``size`` (object dtype
        whenever any group is NULL)."""
        self.ensure(size)
        func = self.func
        if func in ("count", "count_star"):
            return self.count[:size].copy()
        if self.data is None:
            return np.empty(size, dtype=object)  # all NULL
        if func in ("sum", "avg"):
            seen = self.count[:size] > 0
        else:
            seen = self.flags[:size]
        if func == "avg":
            out = np.empty(size, dtype=object)
            for slot in np.flatnonzero(seen).tolist():
                total = self.data[slot]
                if isinstance(total, np.generic):
                    total = total.item()
                out[slot] = total / int(self.count[slot])
            if bool(seen.all()) and size:
                try:
                    return out.astype(np.float64)
                except (ValueError, TypeError):
                    return out
            return out
        if bool(seen.all()) and self.data.dtype != object:
            return self.data[:size].copy()
        out = np.empty(size, dtype=object)
        for slot in np.flatnonzero(seen).tolist():
            value = self.data[slot]
            out[slot] = value.item() if isinstance(value, np.generic) \
                else value
        return out


class HashAggregateOp(PlanOp):
    """Hash-based grouping (chosen when statistics predict few groups).

    With vectorizable group keys / aggregate arguments
    (``group_value_fns`` / ``agg_value_fns`` from the planner), the
    batch path factorizes keys per block, maps them into a global group
    table, and feeds whole column slices to array accumulators —
    per-row tuples are never formed."""

    strategy = "hash"

    def __init__(self, model: CostModel, child: PlanOp,
                 group_fns: list[Callable], aggs: list[AggSpec],
                 layout: Layout,
                 group_value_fns: list | None = None,
                 agg_value_fns: list | None = None):
        super().__init__(model, layout)
        self.child = child
        self.group_fns = group_fns
        self.aggs = aggs
        self.group_value_fns = group_value_fns
        self.agg_value_fns = agg_value_fns

    def _consume(self, rows: Iterator[tuple]):
        model = self.model
        groups: dict[tuple, tuple[tuple, list[_Accumulator]]] = {}
        n_aggs = len(self.aggs)
        for row in rows:
            key = tuple(fn(row) for fn in self.group_fns)
            model.hash_probe(1)
            entry = groups.get(key)
            if entry is None:
                entry = (key, [_Accumulator(a.func, a.distinct)
                               for a in self.aggs])
                groups[key] = entry
            accumulators = entry[1]
            if n_aggs:
                model.aggregate(n_aggs)
                for spec, acc in zip(self.aggs, accumulators):
                    acc.update(spec.arg_fn(row) if spec.arg_fn else None)
        return groups

    def _results(self, rows: Iterator[tuple]) -> Iterator[tuple]:
        """The row form's output over ``rows``: one tuple per group."""
        groups = self._consume(rows)
        if not groups and not self.group_fns:
            # Global aggregate over empty input: one all-identity row.
            empty = [_Accumulator(a.func, a.distinct) for a in self.aggs]
            yield tuple(acc.result() for acc in empty)
            return
        for key, accumulators in groups.values():
            yield key + tuple(acc.result() for acc in accumulators)

    def rows(self) -> Iterator[tuple]:
        return self._results(self.child.rows())

    # -- columnar pull -------------------------------------------------
    @property
    def _vector_ready(self) -> bool:
        if self.group_value_fns is None or self.agg_value_fns is None:
            return False
        if any(fn is None for fn in self.group_value_fns):
            return False
        for spec, fn in zip(self.aggs, self.agg_value_fns):
            if spec.distinct:
                return False
            if spec.func != "count_star" and fn is None:
                return False
        return True

    def batches(self) -> Iterator[ColumnBatch]:
        if self._vector_ready:
            yield self._consume_vectorized()
            return
        # An aggregate the vectorizer does not cover (``DISTINCT``, an
        # uncovered argument shape) transposes its input here, at its
        # own boundary; the subtree below keeps running columnar.
        yield from rows_to_batches(
            self._results(_materialized(self.model, self.child.batches())),
            len(self.layout))

    def _consume_vectorized(self) -> ColumnBatch:
        model = self.model
        n_aggs = len(self.aggs)
        n_keys = len(self.group_value_fns)
        table: dict[tuple, int] = {}
        key_rows: list[tuple] = []
        accs = [_VecAgg(spec.func) for spec in self.aggs]
        total_rows = 0
        for batch in self.child.batches():
            n = batch.nrows
            if not n:
                continue
            total_rows += n
            model.hash_probe(n)
            if n_aggs:
                model.aggregate(n_aggs * n)
            columns = batch.columns
            nulls = _BatchNulls(batch)
            if n_keys:
                slots = self._group_slots(columns, nulls, n, table,
                                          key_rows)
            else:
                if not key_rows:
                    table[()] = 0
                    key_rows.append(())
                slots = np.zeros(n, dtype=np.int64)
            for acc in accs:
                acc.ensure(len(key_rows))
            for spec, fn, acc in zip(self.aggs, self.agg_value_fns, accs):
                if spec.func == "count_star":
                    acc.update(slots, None, None)
                else:
                    values, null_mask = fn(columns, nulls, n)
                    acc.update(slots, values, null_mask)
        return self._emit(key_rows, accs, total_rows)

    def _group_slots(self, columns, nulls, n: int, table: dict,
                     key_rows: list) -> np.ndarray:
        key_cols: list[np.ndarray] = []
        key_nulls: list = []
        combined = np.zeros(n, dtype=np.int64)
        for fn in self.group_value_fns:
            values, null_mask = fn(columns, nulls, n)
            values = _broadcast(values, n)
            key_cols.append(values)
            key_nulls.append(null_mask)
            codes, space = _group_codes(values, null_mask)
            combined = combined * space + codes
            # Re-compact so the running code space never overflows.
            _, combined = np.unique(combined, return_inverse=True)
            combined = combined.astype(np.int64, copy=False)
        uniques, first_idx, inverse = np.unique(
            combined, return_index=True, return_inverse=True)
        order = np.argsort(first_idx, kind="stable")
        rank = np.empty(len(uniques), dtype=np.int64)
        rank[order] = np.arange(len(uniques))
        local = rank[inverse]
        local_to_global = np.empty(len(uniques), dtype=np.int64)
        for local_id, row in enumerate(first_idx[order].tolist()):
            key = tuple(self._key_value(col, mask, row)
                        for col, mask in zip(key_cols, key_nulls))
            slot = table.get(key)
            if slot is None:
                slot = len(key_rows)
                table[key] = slot
                key_rows.append(key)
            local_to_global[local_id] = slot
        return local_to_global[local]

    @staticmethod
    def _key_value(column: np.ndarray, null_mask, row: int):
        if null_mask is not None and null_mask[row]:
            return None
        return _scalar_of(column, row)

    def _group_order(self, key_rows: list, total_rows: int) -> list[int]:
        """Emission order of the group slots (hash: first-seen)."""
        return list(range(len(key_rows)))

    def _emit(self, key_rows: list, accs: list[_VecAgg],
              total_rows: int) -> ColumnBatch:
        n_keys = len(self.group_value_fns)
        size = len(key_rows)
        if size == 0 and n_keys == 0:
            # Global aggregate over empty input: one all-identity row.
            columns = []
            for spec in self.aggs:
                if spec.func in ("count", "count_star"):
                    columns.append(np.zeros(1, dtype=np.int64))
                else:
                    columns.append(np.empty(1, dtype=object))
            return ColumnBatch(columns, 1)
        order = self._group_order(key_rows, total_rows)
        gather = np.asarray(order, dtype=np.int64)
        columns = []
        for k in range(n_keys):
            col = np.empty(len(order), dtype=object)
            if len(order):
                col[:] = [key_rows[slot][k] for slot in order]
            columns.append(col)
        for acc in accs:
            result = acc.result_column(size)
            columns.append(result[gather] if len(order) else result)
        return ColumnBatch(columns, len(order))

    def describe(self) -> dict:
        return {"op": "Aggregate", "strategy": self.strategy,
                "groups": len(self.group_fns), "aggs": len(self.aggs),
                "vectorized": self._vector_ready,
                "input": self.child.describe()}


class SortAggregateOp(HashAggregateOp):
    """Sort-then-group aggregation — the plan PostgreSQL falls back to
    without statistics (the mechanism behind Figure 12's 3x gap).

    The columnar path reuses the hash machinery (a stable sort by group
    key preserves input order within each group, so accumulation
    sequences — and float totals — are identical), charges the scalar
    path's sort comparisons, and emits groups in sorted key order."""

    strategy = "sort"

    def _results(self, rows: Iterator[tuple]) -> Iterator[tuple]:
        materialized = list(rows)
        n = len(materialized)
        if n > 1:
            self.model.sort_compare(n * max(1.0, math.log2(n)))
            group_fns = self.group_fns
            materialized.sort(key=lambda row: tuple(
                _null_safe(fn(row)) for fn in group_fns))
        yield from super()._results(iter(materialized))

    def _group_order(self, key_rows: list, total_rows: int) -> list[int]:
        if total_rows > 1:
            self.model.sort_compare(total_rows * max(
                1.0, math.log2(total_rows)))
        return sorted(range(len(key_rows)),
                      key=lambda slot: tuple(_null_safe(value)
                                             for value in key_rows[slot]))


def _null_safe(value):
    """A sort key that tolerates NULLs (None sorts last)."""
    return (value is None, 0 if value is None else value)


class SortOp(PlanOp):
    """ORDER BY: stable multi-key sort with per-key direction.

    The columnar path ranks each key column (``np.unique`` codes, NULL
    ranked last) and applies the same least-significant-key-first
    sequence of stable argsorts the row path applies — ties, NULL
    placement and per-key direction come out identical. A key that is
    an expression rather than a column (``ORDER BY a + b``) sorts the
    gathered rows by the key closures instead."""

    def __init__(self, model: CostModel, child: PlanOp,
                 key_fns: list[Callable], descending: list[bool],
                 key_idx: list[int | None] | None = None):
        super().__init__(model, child.layout)
        self.child = child
        self.key_fns = key_fns
        self.descending = descending
        self.key_idx = key_idx

    def _sorted(self, materialized: list[tuple]) -> list[tuple]:
        """The row form's sort, in place, by the key closures."""
        n = len(materialized)
        if n > 1:
            self.model.sort_compare(
                n * max(1.0, math.log2(n)) * len(self.key_fns))
            # Stable sorts applied from the least-significant key backward.
            for fn, desc in reversed(list(zip(self.key_fns,
                                              self.descending))):
                materialized.sort(
                    key=lambda row, fn=fn: _null_safe(fn(row)),
                    reverse=desc)
        return materialized

    def rows(self) -> Iterator[tuple]:
        yield from self._sorted(list(self.child.rows()))

    def batches(self) -> Iterator[ColumnBatch]:
        gathered = _gather_batches(self.child)
        columns, nulls, n = gathered.columns, gathered.nulls, gathered.nrows
        if not n:
            return
        if not _all_resolved(self.key_idx) or any(
                _has_nan(columns[idx]) for idx in self.key_idx):
            # An expression key has no column to rank. NaN is
            # comparison-undefined: the scalar path's Python sort leaves
            # NaN-adjacent rows wherever timsort's partial comparisons
            # put them, which rank codes cannot replicate. Either way,
            # replay the row form's exact sort over the same sequence
            # (a materialization, and counted as one).
            yield ColumnBatch.from_rows(self._sorted(list(_materialized(
                self.model, [gathered]))), gathered.width)
            return
        if n > 1:
            self.model.sort_compare(
                n * max(1.0, math.log2(n)) * len(self.key_fns))
            order = np.arange(n)
            for idx, desc in reversed(list(zip(self.key_idx,
                                               self.descending))):
                codes = _order_codes(columns[idx], nulls[idx])
                keys = codes[order]
                if desc:
                    keys = -keys
                order = order[np.argsort(keys, kind="stable")]
            columns = [col[order] for col in columns]
            nulls = [mask[order] if mask is not None else None
                     for mask in nulls]
        yield ColumnBatch(columns, n, nulls)

    def describe(self) -> dict:
        return {"op": "Sort", "keys": len(self.key_fns),
                "input": self.child.describe()}


def _order_codes(column: np.ndarray, null_mask) -> np.ndarray:
    """Ascending rank codes of one sort-key column; NULL ranks after
    every value (matching ``_null_safe``); negation flips direction
    exactly (codes are ints)."""
    n = len(column)
    if column.dtype != object and null_mask is None:
        _, inverse = np.unique(column, return_inverse=True)
        return inverse.astype(np.int64, copy=False)
    codes = np.zeros(n, dtype=np.int64)
    if null_mask is None:
        null_mask = np.fromiter((v is None for v in column.tolist()),
                                dtype=bool, count=n)
    valid = ~null_mask
    if valid.any():
        _, inverse = np.unique(column[valid], return_inverse=True)
        codes[valid] = inverse
        codes[null_mask] = int(inverse.max(initial=-1)) + 1
    return codes


class LimitOp(PlanOp):
    def __init__(self, model: CostModel, child: PlanOp, limit: int):
        super().__init__(model, child.layout)
        self.child = child
        self.limit = limit

    def rows(self) -> Iterator[tuple]:
        if self.limit <= 0:
            return
        emitted = 0
        for row in self.child.rows():
            yield row
            emitted += 1
            if emitted >= self.limit:
                return

    def batches(self) -> Iterator[ColumnBatch]:
        remaining = self.limit
        if remaining <= 0:
            return
        for batch in self.child.batches():
            if batch.nrows <= remaining:
                yield batch
                remaining -= batch.nrows
            else:
                yield batch.head(remaining)
                remaining = 0
            if remaining == 0:
                return

    def describe(self) -> dict:
        return {"op": "Limit", "n": self.limit,
                "input": self.child.describe()}
