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
  reservoir samples (§4.4).

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
from repro.core.cache import BinaryCache
from repro.core.config import PostgresRawConfig
from repro.core.positional_map import PositionalMap
from repro.core.scan_batch import BatchCsvScan
from repro.errors import CSVFormatError
from repro.formats.csvfmt import convert_field
from repro.simcost.model import CostModel
from repro.sql.catalog import Schema, TableInfo
from repro.storage.vfs import VirtualFS


class RawCsvAccess(RawFileAccess):
    """Access method for one in-situ CSV table. The shell — §4.5
    refresh, scan prologue/epilogue, quarantine sidecar, error
    annotation — is :class:`~repro.core.blockscan.RawFileAccess`; the
    block scan is :class:`~repro.core.scan_batch.BatchCsvScan`; this
    class adds the dialect, per-value conversion and the CSV line
    split of the tolerant error policies."""

    scan_class = BatchCsvScan

    def __init__(self, vfs: VirtualFS, path: str, schema: Schema,
                 model: CostModel, config: PostgresRawConfig,
                 table_info: TableInfo,
                 positional_map: PositionalMap | None,
                 cache: BinaryCache | None,
                 pool=None):
        super().__init__(vfs, path, schema, model, config, table_info,
                         positional_map, cache, pool=pool)
        self.dialect = config.dialect

    # ------------------------------------------------------------------
    def _convert(self, attr: int, text: str, model: CostModel | None = None):
        """Convert raw text to the attribute's binary value, charging the
        family-specific conversion cost (the paper's dominant CPU cost)."""
        (model if model is not None else self.model).convert(
            self._families[attr], 1)
        return convert_field(text, self._dtypes[attr],
                             self.schema.columns[attr].name)

    # ------------------------------------------------------------------
    # Error policies (OPTIONS (on_error ...)): tolerant row evaluation
    # ------------------------------------------------------------------
    def _tolerant_fetch(self, model: CostModel, line: bytes, policy: str):
        """The strict scan paths fall back here after a row raises
        :class:`CSVFormatError`: the whole line is re-tokenized with a
        plain delimiter split (degradation, not the selective §4.1
        machinery — malformed lines forfeit positional-map and cache
        participation) and each *touched* value is converted
        individually; a value beyond the last field is a short row."""
        fields = line.decode("utf-8", "replace").split(
            self.dialect.delimiter.decode("utf-8"))

        def fetch(attr):
            name = self.schema.columns[attr].name
            if attr >= len(fields):
                problem = (f"short row: {len(fields)} attributes, "
                           f"attribute {name} missing")
            else:
                try:
                    return (self._convert(attr, fields[attr], model=model),
                            None)
                except CSVFormatError:
                    problem = (f"cannot parse {fields[attr]!r} as "
                               f"{self._dtypes[attr].name} (attribute "
                               f"{name})")
            return None, (problem if policy == "skip" else None)

        return fetch
