"""Scan-kernel code generation.

For one :class:`~repro.kernels.signature.KernelSpec` this module emits
the textual source of up to two specialized entry points, compiles it
with :func:`compile`/``exec`` and wraps the functions in a
:class:`KernelProgram`:

``indexed(scan, handle, block, row0, row1)``
    The warm fast path over one fully-mapped, fully-cached row block
    (``scan`` is the format's per-scan
    :class:`~repro.core.blockscan.BlockScan`).
    It first probes its preconditions with **side-effect-free** peeks
    (``BinaryCache.peek``, ``PositionalMap.has_line_spans``) and
    returns :data:`KERNEL_BAILOUT` if any fails — the caller then runs
    the generic block path, whose charges are untouched because the
    probes charged nothing and moved no LRU state. Once committed, the
    kernel replays the generic path's priced events in the generic
    order (tuple overhead, map accesses, cache reads, predicate,
    tuple forming) while serving values straight from the typed cache
    arrays — no per-block zero-fill, mask copies, or ``_IndexedBlockState``
    setup.

``stream(scan, ops, row0, starts, ends, buffer, buffer_base)``
    (CSV only.) A faithful specialization of
    ``BatchCsvScan._compute_stream_group`` with the locate-state
    machine (``_stream_transitions``) folded to literal charge tables
    at compile time and the per-attribute control flow unrolled. It
    runs wherever the generic compute runs — including on
    ``ScanWorkerPool`` workers against a ``RecordingModel`` view — and
    delegates conversion, predicate evaluation and stat/PM/cache
    staging to the scan's own methods, so behavior is identical by
    construction.

Bit-identity is the contract: for any input the kernel path must leave
the same results, PM/cache contents, counters and virtual clock as the
generic pipeline (``tests/test_kernels.py`` enforces this
differentially).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

import numpy as np

from repro.core.blockscan import KERNEL_BAILOUT
from repro.core.scan_batch import (
    BlockTokenizer,
    _Column,
    _stream_transitions,
    block_field_spans,
    block_span_forward,
)
from repro.kernels.signature import KernelSpec
from repro.sql.batch import ColumnBatch, object_nulls


@dataclass
class KernelProgram:
    """One compiled kernel: the signature, the generated source (kept
    for introspection/debugging) and the entry points."""

    signature: str
    source: str
    indexed: object = None    # callable | None
    stream: object = None     # callable | None
    spec: KernelSpec = field(default=None, repr=False)


class _Emitter:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, line: str = "") -> None:
        self.lines.append(("    " * self.depth + line) if line else "")

    def indent(self) -> None:
        self.depth += 1

    def dedent(self) -> None:
        self.depth -= 1

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# CSV: indexed fast path
# ---------------------------------------------------------------------------
def _emit_csv_indexed(e: _Emitter, spec: KernelSpec) -> None:
    union = spec.union_attrs
    where = spec.where_attrs
    out = spec.out_attrs
    out_only = tuple(a for a in out if a not in where)
    e.emit("def kernel_indexed(scan, handle, block, row0, row1):")
    e.indent()
    e.emit("if scan.collector is not None:")
    e.emit("    return KERNEL_BAILOUT")
    e.emit("cache = scan.cache")
    e.emit("pm = scan.pm")
    e.emit("if cache is None or pm is None:")
    e.emit("    return KERNEL_BAILOUT")
    e.emit("if not pm.has_line_spans(row0, row1):")
    e.emit("    return KERNEL_BAILOUT")
    e.emit("n = row1 - row0")
    e.emit("# probe (side-effect-free): WHERE columns must be fully")
    e.emit("# cached, typed and NULL-free; SELECT-only columns need")
    e.emit("# typed NULL-free coverage of the qualifying rows only —")
    e.emit("# selective parsing (§4.1) never caches more of them.")
    e.emit("data = {}")
    e.emit(f"for attr in {where!r}:")
    e.emit("    cb = cache.peek(attr, block)")
    e.emit("    if cb is None or cb.nrows < n:")
    e.emit("        return KERNEL_BAILOUT")
    e.emit("    if not cb.mask[:n].all():")
    e.emit("        return KERNEL_BAILOUT")
    e.emit("    td = cb.typed_data()")
    e.emit("    if td is None or td[1][:n].any():")
    e.emit("        return KERNEL_BAILOUT")
    e.emit("    data[attr] = td[0]")
    if spec.has_predicate:
        e.emit("# vector_fn is pure (charges nothing): evaluating it")
        e.emit("# during the probe lets the qualifying-row coverage of")
        e.emit("# the SELECT columns be checked before any commitment;")
        e.emit("# the generic predicate charge is replayed below.")
        e.emit("arrays = {}")
        e.emit("nulls = {}")
        e.emit(f"for attr in {where!r}:")
        e.emit("    arrays[attr] = data[attr][:n]")
        e.emit("    nulls[attr] = np.zeros(n, dtype=bool)")
        e.emit("qual = scan.predicate.vector_fn(arrays, nulls, n)")
    else:
        e.emit("qual = np.ones(n, dtype=bool)")
    e.emit("qual_idx = np.flatnonzero(qual)")
    e.emit("nqual = len(qual_idx)")
    e.emit(f"for attr in {out_only!r}:")
    e.emit("    cb = cache.peek(attr, block)")
    e.emit("    if cb is None or cb.nrows < n:")
    e.emit("        return KERNEL_BAILOUT")
    e.emit("    m = cb.mask[:n]")
    e.emit("    if not m[qual].all():")
    e.emit("        return KERNEL_BAILOUT")
    e.emit("    td = cb.typed_data()")
    e.emit("    if td is None or td[1][:n][m].any():")
    e.emit("        return KERNEL_BAILOUT")
    e.emit("    data[attr] = td[0]")
    e.emit("# committed: replay the generic warm charge sequence")
    e.emit("model = scan.model")
    e.emit("model.tuple_overhead(n)")
    e.emit("pm.line_spans_block(row0, row1)")
    e.emit(f"for attr in {union!r}:")
    e.emit("    cache.get(attr, block)")
    e.emit("if scan.config.enable_positional_map:")
    e.indent()
    e.emit(f"prefetch = set({union!r})")
    e.emit(f"for attr in {union!r}:")
    e.emit("    prefetch.add(attr + 1)")
    e.emit("    lo, hi = pm.nearest_indexed(block, attr)")
    e.emit("    if lo is not None:")
    e.emit("        prefetch.add(lo)")
    e.emit("    if hi is not None:")
    e.emit("        prefetch.add(hi)")
    e.emit("for attr in sorted(prefetch):")
    e.emit(f"    if 0 <= attr < {spec.arity}:")
    e.emit("        pm.positions(block, attr)")
    e.dedent()
    for attr in where:
        e.emit("model.cache_read(n)")
    if spec.has_predicate:
        e.emit(f"model.predicate({spec.n_terms} * n)")
    e.emit("out_columns = []")
    e.emit("out_nulls = []")
    for attr in out:
        e.emit("model.cache_read(nqual)")
        if spec.families[attr] == "date":
            e.emit(f"_picked = data[{attr}][:n][qual_idx]")
            e.emit("_vals = np.empty(nqual, dtype=object)")
            e.emit("if nqual:")
            e.emit("    _vals[:] = [datetime.date.fromordinal(v)")
            e.emit("                for v in _picked.tolist()]")
            e.emit("out_columns.append(_vals)")
        else:
            e.emit(f"out_columns.append(data[{attr}][:n][qual_idx])")
        e.emit("out_nulls.append(None)")
    e.emit(f"model.tuple_form({len(out)} * nqual)")
    if out:
        e.emit("if nqual == 0:")
        e.emit(f"    return ColumnBatch([[] for _ in range({len(out)})], 0)")
    e.emit("return ColumnBatch(out_columns, nqual, out_nulls)")
    e.dedent()


# ---------------------------------------------------------------------------
# CSV: streaming-group specialization
# ---------------------------------------------------------------------------
def _emit_csv_stream(e: _Emitter, spec: KernelSpec) -> None:
    union = spec.union_attrs
    where = spec.where_attrs
    out = spec.out_attrs
    arity = spec.arity
    max_where = max(where) if where else -1
    max_union = union[-1] if union else -1
    upto_w = max_where if where else -1
    charges_w, state_w = _stream_transitions(where, arity)
    coverage_w = state_w[1]
    charges_s, _ = _stream_transitions(out, arity, state_w)

    e.emit("def kernel_stream(scan, ops, row0, starts, ends, buffer,")
    e.emit("                  buffer_base):")
    e.indent()
    e.emit("model = scan.model")
    e.emit("pm = scan.pm")
    e.emit("config = scan.config")
    e.emit("n = len(starts)")
    e.emit("block_size = config.row_block_size")
    e.emit("block = row0 // block_size")
    e.emit("first_in_block = row0 - block * block_size")
    e.emit("model.tuple_overhead(n)")
    e.emit("if pm is not None:")
    e.emit('    ops.append(("lines", starts, row0, n))')
    e.emit("tok = BlockTokenizer(buffer, buffer_base, scan.dialect)")
    e.emit("columns = {}")
    e.emit("span_starts = span_ends = None")
    if where:
        e.emit("span_starts, span_ends, _ = block_field_spans(")
        e.emit(f"    tok, starts, ends, {upto_w})")
        e.emit(f"scan._charge_stream_tokenize(tok, {charges_w!r}, starts,")
        e.emit("                             ends)")
        for attr in where:
            fam = spec.families[attr]
            e.emit(f"column = _Column(n, {fam!r})")
            e.emit(f"values, typed = scan._convert_values({attr}, buffer,")
            e.emit(f"    buffer_base, span_starts[:, {attr}],")
            e.emit(f"    span_ends[:, {attr}], want_list=False)")
            e.emit("column.conv_idx = np.arange(n)")
            e.emit("column.conv_values = values")
            e.emit("column.conv_typed = typed")
            e.emit("if typed is not None:")
            e.emit("    column.typed = typed")
            e.emit("else:")
            e.emit("    arr = np.empty(n, dtype=object)")
            e.emit("    if n:")
            e.emit("        arr[:] = values")
            e.emit("    column.set_values(arr)")
            e.emit("    column.nulls = scan._null_mask(values)")
            e.emit(f"columns[{attr}] = column")
    if spec.has_predicate:
        e.emit("qual = scan._evaluate_predicate(columns, n)")
    else:
        e.emit("qual = np.ones(n, dtype=bool)")
    e.emit("qual_idx = np.flatnonzero(qual)")
    e.emit("nqual = len(qual_idx)")
    e.emit("sel_starts = sel_ends = None")
    if out and max_union > upto_w:
        e.emit("if nqual:")
        e.indent()
        e.emit("q_line_starts = starts[qual_idx]")
        e.emit("q_line_ends = ends[qual_idx]")
        if upto_w < 0:
            e.emit("sel_starts, sel_ends, _ = block_field_spans(")
            e.emit(f"    tok, q_line_starts, q_line_ends, {max_union})")
        else:
            e.emit(f"base_pos = span_starts[qual_idx, {upto_w}]")
            e.emit("sel_starts, sel_ends, _ = block_span_forward(")
            e.emit(f"    tok, base_pos, {max_union - upto_w}, q_line_ends)")
        e.emit(f"scan._charge_stream_tokenize(tok, {charges_s!r},")
        e.emit("                             q_line_starts, q_line_ends)")
        e.dedent()
    e.emit("out_columns = []")
    e.emit("out_nulls = []")
    for attr in out:
        fam = spec.families[attr]
        if attr in where:
            e.emit(f"arr, mask = scan._output_column(columns[{attr}],")
            e.emit("                                qual_idx)")
            e.emit("out_columns.append(arr)")
            e.emit("out_nulls.append(mask)")
            continue
        e.emit("if nqual == 0:")
        e.indent()
        e.emit(f"column = _Column(n, {fam!r})")
        e.emit("column.conv_idx = np.empty(0, dtype=np.int64)")
        e.emit("column.conv_values = []")
        e.emit(f"columns[{attr}] = column")
        e.emit("out_columns.append([])")
        e.emit("out_nulls.append(None)")
        e.dedent()
        e.emit("else:")
        e.indent()
        if upto_w < 0:
            e.emit(f"s_col = sel_starts[:, {attr}]")
            e.emit(f"e_col = sel_ends[:, {attr}]")
        elif attr <= upto_w:
            e.emit(f"s_col = span_starts[qual_idx, {attr}]")
            e.emit(f"e_col = span_ends[qual_idx, {attr}]")
        else:
            e.emit(f"s_col = sel_starts[:, {attr - upto_w}]")
            e.emit(f"e_col = sel_ends[:, {attr - upto_w}]")
        e.emit(f"values, sub_typed = scan._convert_values({attr}, buffer,")
        e.emit("    buffer_base, s_col, e_col,")
        e.emit("    want_list=scan.collector is not None)")
        e.emit(f"column = _Column(n, {fam!r})")
        e.emit("if values is not None:")
        e.emit("    arr = np.empty(n, dtype=object)")
        e.emit("    arr[qual_idx] = values")
        e.emit("    column.set_values(arr)")
        e.emit("column.conv_idx = qual_idx")
        e.emit("column.conv_values = values")
        e.emit("column.conv_typed = sub_typed")
        e.emit(f"columns[{attr}] = column")
        if fam == "date":
            e.emit("out_columns.append(values)")
        else:
            e.emit("if sub_typed is not None:")
            e.emit("    out_columns.append(sub_typed)")
            e.emit("else:")
            e.emit("    out_columns.append(values)")
        e.emit("out_nulls.append(None)")
        e.dedent()
    e.emit(f"model.tuple_form({len(out)} * nqual)")
    e.emit("if scan.collector is not None:")
    e.emit('    ops.append(("collect",')
    e.emit("                scan._stage_stream_stats(columns, qual, n)))")
    e.emit("if config.enable_positional_map and pm is not None:")
    e.indent()
    e.emit("staged = scan._stage_stream_positions(")
    e.emit("    block, first_in_block + n, first_in_block, n, starts,")
    e.emit(f"    ends, qual, span_starts, span_ends, sel_starts, {upto_w},")
    e.emit(f"    {max_where}, {coverage_w})")
    e.emit("if staged is not None:")
    e.emit("    ops.append(staged)")
    e.dedent()
    e.emit("if scan.cache is not None:")
    e.indent()
    e.emit("rows_in_block = first_in_block + n")
    e.emit(f"for attr in {union!r}:")
    e.indent()
    e.emit("column = columns.get(attr)")
    e.emit("if column is None or column.conv_idx is None or \\")
    e.emit("        not len(column.conv_idx):")
    e.emit("    continue")
    e.emit('ops.append(("cache", attr, block, rows_in_block,')
    e.emit("            column.conv_idx + first_in_block,")
    e.emit("            column.conv_values, column.conv_typed,")
    e.emit("            scan._families[attr]))")
    e.dedent()
    e.dedent()
    if out:
        e.emit("if nqual == 0:")
        e.emit(f"    return ColumnBatch([[] for _ in range({len(out)})], 0)")
    e.emit("return ColumnBatch(out_columns, nqual, out_nulls)")
    e.dedent()


# ---------------------------------------------------------------------------
# JSONL: indexed fast path
# ---------------------------------------------------------------------------
def _emit_jsonl_indexed(e: _Emitter, spec: KernelSpec) -> None:
    union = spec.union_attrs
    where = spec.where_attrs
    out = spec.out_attrs
    e.emit("def kernel_indexed(scan, handle, block, row0, row1):")
    e.indent()
    e.emit("if scan.collector is not None:")
    e.emit("    return KERNEL_BAILOUT")
    e.emit("cache = scan.cache")
    e.emit("pm = scan.pm")
    e.emit("if cache is None or pm is None:")
    e.emit("    return KERNEL_BAILOUT")
    e.emit("if not pm.has_line_spans(row0, row1):")
    e.emit("    return KERNEL_BAILOUT")
    e.emit("n = row1 - row0")
    e.emit("# probe (side-effect-free): WHERE columns fully cached;")
    e.emit("# SELECT-only columns cached at the qualifying rows —")
    e.emit("# selective parsing (§4.1) never caches more of them.")
    e.emit("blocks = {}")
    e.emit(f"for attr in {where!r}:")
    e.emit("    cb = cache.peek(attr, block)")
    e.emit("    if cb is None or cb.nrows < n or not cb.mask[:n].all():")
    e.emit("        return KERNEL_BAILOUT")
    e.emit("    blocks[attr] = cb")
    e.emit("columns = {}")
    if where:
        e.emit("all_idx = np.arange(n)")
        for attr in where:
            e.emit("values = np.empty(n, dtype=object)")
            e.emit(f"values[all_idx] = blocks[{attr}].values_at(all_idx)")
            e.emit(f"columns[{attr}] = values")
    if spec.has_predicate:
        e.emit("# vector_fn is pure (charges nothing); the generic")
        e.emit("# predicate charge is replayed below, once committed.")
        e.emit("arrays = {}")
        e.emit("nulls = {}")
        e.emit(f"for attr in {where!r}:")
        e.emit("    arrays[attr] = columns[attr]")
        e.emit("    nulls[attr] = object_nulls(columns[attr])")
        e.emit("qual = scan.predicate.vector_fn(arrays, nulls, n)")
    else:
        e.emit("qual = np.ones(n, dtype=bool)")
    e.emit("qual_idx = np.flatnonzero(qual)")
    e.emit("nqual = len(qual_idx)")
    out_only = tuple(a for a in out if a not in where)
    e.emit(f"for attr in {out_only!r}:")
    e.emit("    cb = cache.peek(attr, block)")
    e.emit("    if cb is None or cb.nrows < n:")
    e.emit("        return KERNEL_BAILOUT")
    e.emit("    if not cb.mask[:n][qual].all():")
    e.emit("        return KERNEL_BAILOUT")
    e.emit("    blocks[attr] = cb")
    e.emit("# committed: replay the generic warm charge sequence")
    e.emit("model = scan.model")
    e.emit("model.tuple_overhead(n)")
    e.emit("pm.line_spans_block(row0, row1)")
    e.emit(f"for attr in {union!r}:")
    e.emit("    cache.get(attr, block)")
    e.emit("if scan.config.enable_positional_map:")
    e.emit(f"    for attr in {union!r}:")
    e.emit("        pm.positions(block, attr)")
    for attr in where:
        e.emit("model.cache_read(n)")
    if spec.has_predicate:
        e.emit(f"model.predicate({spec.n_terms} * n)")
    for attr in out_only:
        e.emit("values = np.empty(n, dtype=object)")
        e.emit("if nqual:")
        e.emit(f"    values[qual_idx] = blocks[{attr}].values_at(qual_idx)")
        e.emit("    model.cache_read(nqual)")
        e.emit(f"columns[{attr}] = values")
    e.emit(f"model.tuple_form({len(out)} * nqual)")
    e.emit(f"out_columns = [columns[attr][qual_idx] for attr in {out!r}]")
    e.emit("return ColumnBatch(out_columns, nqual)")
    e.dedent()


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------
def compile_kernel(spec: KernelSpec) -> KernelProgram:
    """Generate, compile and wrap the kernel program for ``spec``."""
    e = _Emitter()
    e.emit(f"# scan kernel {spec.signature}")
    e.emit(f"# key: {spec.key}")
    if spec.kind == "csv":
        _emit_csv_indexed(e, spec)
        e.emit()
        _emit_csv_stream(e, spec)
    else:
        _emit_jsonl_indexed(e, spec)
    source = e.source()
    namespace = {
        "np": np,
        "datetime": datetime,
        "ColumnBatch": ColumnBatch,
        "BlockTokenizer": BlockTokenizer,
        "block_field_spans": block_field_spans,
        "block_span_forward": block_span_forward,
        "_Column": _Column,
        "KERNEL_BAILOUT": KERNEL_BAILOUT,
        "object_nulls": object_nulls,
    }
    code = compile(source, f"<scan-kernel {spec.signature}>", "exec")
    exec(code, namespace)
    return KernelProgram(
        signature=spec.signature,
        source=source,
        indexed=namespace.get("kernel_indexed"),
        stream=namespace.get("kernel_stream"),
        spec=spec,
    )
