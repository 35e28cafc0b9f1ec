"""The contract between plan leaves and access methods.

The planner pushes (a) the list of file-attribute indexes a query needs
and (b) the single-table part of the WHERE clause down to the access
method. PostgresRaw's raw scan exploits both: selective tokenizing stops
at the largest needed attribute, and selective parsing converts SELECT
attributes only for tuples that pass the predicate (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Protocol, Sequence

import numpy as np

from repro.sql.batch import ColumnBatch


@dataclass
class ScanPredicate:
    """A compiled single-table predicate.

    ``fn`` receives a dict mapping file-attribute index -> converted
    value (only ``attrs`` are present) and returns SQL-boolean
    (True/False/None). ``n_terms`` is the number of conjuncts, used for
    cost charging. ``conjuncts`` keeps the original ASTs so the
    optimizer can estimate selectivity.

    ``vector_fn``, when the planner could vectorize every conjunct, is
    the batch-scan fast path: ``vector_fn(columns, nulls, nrows)``
    returns a boolean qualifying mask over typed NumPy columns (see
    :mod:`repro.sql.vectorize`). It is always semantically equivalent
    to mapping ``fn`` over the rows; scans that cannot materialize
    typed columns simply ignore it.
    """

    attrs: list[int]
    fn: Callable[[dict[int, object]], Optional[bool]]
    n_terms: int = 1
    conjuncts: list = field(default_factory=list)
    vector_fn: Optional[Callable] = None

    def passes(self, values: dict[int, object]) -> bool:
        return self.fn(values) is True

    def row_mask(self, columns: dict[int, np.ndarray], n: int) -> np.ndarray:
        """Qualifying mask over one block by mapping ``fn`` over its
        rows — the batch scans' fallback for predicates without a
        ``vector_fn``. ``columns`` maps each of ``attrs`` to an object
        array of Python values; rows are walked as one ``zip`` over
        plain lists into a single reused dict."""
        attrs = self.attrs
        fn = self.fn
        if not attrs:
            return np.full(n, fn({}) is True, dtype=bool)
        values: dict[int, object] = {}
        mask = np.zeros(n, dtype=bool)
        for i, row in enumerate(zip(*(columns[attr].tolist()
                                      for attr in attrs))):
            values.update(zip(attrs, row))
            mask[i] = fn(values) is True
        return mask


class AccessMethod(Protocol):
    """How a plan leaf obtains the rows of one table: in blocks.

    Implementations: RawCsvAccess (in-situ, §4), JsonlAccess and
    RawFitsAccess (§5.3) on the same raw-scan shell, PartitionedAccess
    (a glob of such files), HeapAccess (loaded binary pages) and
    ExternalAccess (external-files straw-man). There is one pull mode:
    the plan leaf (``ScanOp``) feeds ``scan_batches`` to the columnar
    operators above it.

    ``scan_batches`` follows the **ordered delivery contract**: batches
    arrive in file order, carrying rows in file order, regardless of
    how the scan is executed internally. In particular PostgresRaw's
    parallel chunk scans compute row-block groups out of order on a
    worker pool, but the merge yields them — and applies their
    positional-map/cache/statistics effects — in canonical group order,
    so the operator tree above never observes the fan-out.
    """

    def scan_batches(self, needed: Sequence[int],
                     predicate: ScanPredicate | None,
                     ) -> Iterator[ColumnBatch]:
        """Yield :class:`~repro.sql.batch.ColumnBatch` blocks holding
        the values of ``needed`` attributes (in that order) of every row
        passing ``predicate``, under the ordered delivery contract."""
        ...

    def estimated_rows(self) -> int | None:
        """Best-effort row count for the optimizer (None if unknown)."""
        ...
