"""The row-at-a-time reference engine and the lockstep harness.

The product has one scan path — the block scan
(:mod:`repro.core.blockscan`), with its CSV and FITS pieces in
:mod:`repro.core.scan_batch` and :mod:`repro.core.fits_scan`. The naive
twin it is checked against
lives here, outside ``src/``, and plugs in only through public seams:

* :class:`~tests.oracle.csv_scan.OracleCsvAccess` and
  :class:`~tests.oracle.fits_scan.OracleFitsAccess` subclass the
  product's access methods — keeping their shell: §4.5 refresh, the
  scan prologue and epilogue, quarantine — serve ``scan()`` one tuple
  at a time and expose no ``scan_batches``, so ``ScanOp`` pulls
  ``rows()`` and every operator above the scan runs its row-at-a-time
  form as well;
* two format adapters build them, registered through
  :func:`repro.register_format` as ``oracle_csv`` and ``oracle_fits``;
* :class:`OracleRaw` is a :class:`~repro.PostgresRaw` whose CSV and
  FITS tables — ``CREATE TABLE ... USING csv|fits``, sniffed or through
  the ``register_*`` shims — are created with those adapters instead.

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

from .csv_scan import OracleCsvAccess
from .fits_scan import OracleFitsAccess

__all__ = ["OracleRaw"]


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


class OracleRaw(PostgresRaw):
    """A PostgresRaw (same constructor) whose CSV and FITS tables scan
    row at a time: the reference engine of the differential suites."""

    def run_ddl(self, statement):
        if isinstance(statement, CreateTable) and \
                statement.as_select is None:
            fmt = statement.format or sniff_format(
                str(statement.options.get("path", ""))).name
            oracle = _ORACLE_FORMATS.get(fmt.lower())
            if oracle is not None:
                statement = dataclasses.replace(statement, format=oracle)
        return super().run_ddl(statement)
