"""The row-at-a-time reference engine and the lockstep harness.

The product has one scan path — the block scan
(:mod:`repro.core.blockscan`), with its CSV and FITS pieces in
:mod:`repro.core.scan_batch` and :mod:`repro.core.fits_scan` — and one
pull mode: every engine's executor pulls ``batches()`` through the
columnar operators. The naive twin it is checked against lives here,
outside ``src/``, and plugs in only through public seams:

* :class:`~tests.oracle.csv_scan.OracleCsvAccess` and
  :class:`~tests.oracle.fits_scan.OracleFitsAccess` subclass the
  product's access methods — keeping their shell: §4.5 refresh, the
  scan prologue and epilogue, quarantine — and serve ``scan()`` one
  tuple at a time (their ``scan_batches`` gathers that scan into
  blocks; it never runs the block scan);
* two format adapters build them, registered through
  :func:`repro.register_format` as ``oracle_csv`` and ``oracle_fits``;
* :class:`OracleRaw` is a :class:`~repro.PostgresRaw` whose CSV and
  FITS tables — ``CREATE TABLE ... USING csv|fits``, sniffed or through
  the ``register_*`` shims — are created with those adapters instead,
  and whose plans pull their root's ``rows()``: every operator runs its
  row-at-a-time form, and ``ScanOp.rows`` reaches the oracle accesses'
  ``scan()`` (a heap or partitioned leaf's blocks are transposed).

Everything else (catalog, planner, cost model, positional map, cache,
statistics) is the product's, so the lockstep harness
(:mod:`tests.oracle.digest`) can demand equal results, structure dumps,
statistics and priced counters of it — its ``oracle`` axis, one of the
axes every scenario is played on.
"""

from __future__ import annotations

import dataclasses

from repro import PostgresRaw, register_format
from repro.formats.registry import CsvAdapter, FitsAdapter, sniff_format
from repro.sql.ast_nodes import CreateTable
from repro.sql.batch import rows_to_batches
from repro.sql.operators import PlanOp, ScanOp

from .csv_scan import OracleCsvAccess
from .fits_scan import OracleFitsAccess

__all__ = ["OracleRaw", "scan_rows"]


class _OracleCsvAdapter(CsvAdapter):
    name = "oracle_csv"
    extensions = ()

    def build_access(self, engine, info, options: dict):
        access = super().build_access(engine, info, options)
        return OracleCsvAccess(access.vfs, access.path, access.schema,
                               access.model, access.config, info,
                               access.pm, access.cache, pool=access.pool)


class _OracleFitsAdapter(FitsAdapter):
    name = "oracle_fits"
    extensions = ()

    def build_access(self, engine, info, options: dict):
        access = super().build_access(engine, info, options)
        return OracleFitsAccess(access.vfs, access.path, access.fits,
                                access.model, access.config, info,
                                access.cache)


#: product format -> the oracle adapter that replaces it
_ORACLE_FORMATS = {
    base: register_format(adapter, replace=True).name
    for base, adapter in (("csv", _OracleCsvAdapter()),
                          ("fits", _OracleFitsAdapter()))
}


def scan_rows(access, needed, predicate=None):
    """The rows one access method scans, as the reference engine's plan
    leaf sees them (``ScanOp.rows``): an oracle access's own ``scan()``,
    else the product's blocks transposed."""
    return ScanOp(access.model, {}, access, needed, predicate, "").rows()


class _RowRoot(PlanOp):
    """The oracle's plan root: hands the executor its plan's ``rows()``
    gathered into batches."""

    def __init__(self, child: PlanOp):
        super().__init__(child.model, child.layout)
        self.child = child

    def batches(self):
        yield from rows_to_batches(self.child.rows(), len(self.layout))

    def describe(self) -> dict:
        return self.child.describe()


class OracleRaw(PostgresRaw):
    """A PostgresRaw (same constructor) whose CSV and FITS tables scan
    row at a time and whose plans run row at a time: the reference
    engine of the differential suites."""

    def _plan(self, select):
        planned = super()._plan(select)
        planned.root = _RowRoot(planned.root)
        return planned

    def run_ddl(self, statement):
        if isinstance(statement, CreateTable) and \
                statement.as_select is None:
            fmt = statement.format or sniff_format(
                str(statement.options.get("path", ""))).name
            oracle = _ORACLE_FORMATS.get(fmt.lower())
            if oracle is not None:
                statement = dataclasses.replace(statement, format=oracle)
        return super().run_ddl(statement)
