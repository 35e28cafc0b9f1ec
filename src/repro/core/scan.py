"""RawCsvAccess: PostgresRaw's in-situ CSV scan operator (§4.1–§4.4).

One scan integrates every mechanism of the paper:

* **selective tokenizing** — delimiter scanning stops at the largest
  attribute the query needs; newline discovery (cheap, memchr-like) is
  charged separately and skipped entirely once the line index exists;
* **selective parsing** — WHERE attributes are converted first; SELECT
  attributes are converted only for qualifying tuples;
* **selective tuple formation** — emitted tuples contain only the
  requested attributes, in plan order;
* **positional map** — per row block, known positions are prefetched
  into a temporary map; missing attributes are reached by incremental
  forward/backward tokenization from the nearest indexed attribute, and
  every position discovered on the way is recorded (every one up to the
  target, with ``eager_prefix_indexing``);
* **binary cache** — converted values are served from / inserted into
  the cache, per (attribute, block), with partial-block masks;
* **statistics** — values converted during the scan feed per-attribute
  bottom-k samples keyed by row position (§4.4).

There is one path: the shell is :class:`~repro.core.blockscan.
RawFileAccess`, the block compute :class:`~repro.core.blockscan.
BlockScan`, and the CSV pieces it runs on (vectorized delimiter spans,
column conversion) :class:`~repro.core.scan_batch.BatchCsvScan`, which
processes a whole row block per step with NumPy. The plan pulls
:class:`~repro.sql.batch.ColumnBatch` objects from
:meth:`RawCsvAccess.scan_batches`. A row-at-a-time reference scan,
kept in ``tests/oracle/``, must produce identical results and leave
identical positional-map and cache contents
(``tests/test_batch_differential.py``).

The scan has two regions: the *indexed region* (rows whose line spans
the map already knows — processed block-wise, reading only byte runs
that are actually needed) and the *streaming region* (never-seen tail —
read sequentially, discovering line starts).
"""

from __future__ import annotations

from repro.core.blockscan import RawFileAccess
from repro.core.scan_batch import BatchCsvScan
from repro.formats.csvfmt import CsvDialect, CsvTolerance


class RawCsvAccess(CsvTolerance, RawFileAccess):
    """Access method for one in-situ CSV table. The shell — §4.5
    refresh, scan prologue/epilogue, quarantine sidecar, error
    annotation — is :class:`~repro.core.blockscan.RawFileAccess`; the
    block scan is :class:`~repro.core.scan_batch.BatchCsvScan`; the CSV
    line split of the tolerant error policies is
    :class:`~repro.formats.csvfmt.CsvTolerance`'s; this class adds the
    dialect."""

    scan_class = BatchCsvScan

    @property
    def dialect(self) -> CsvDialect:
        """The table's dialect (its ``delimiter`` option, else the
        engine's), carried by its config."""
        return self.config.dialect
