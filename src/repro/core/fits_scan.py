"""RawFitsAccess: in-situ scans over FITS binary tables (§5.3).

Binary tables need no tokenizing and no type conversion, so the
positional map is unnecessary; what remains is I/O and
deserialization, which makes the binary cache the dominant mechanism.
The one block scan (:class:`~repro.core.blockscan.BlockScan`) runs the
whole file as its indexed region: row ``r`` starts at ``data_offset +
r × NAXIS1`` and a value at its column's offset, so finding it charges
nothing. FITS supplies those spans, the column decode and a §4.5
refresh that re-reads the header. A scan keeps the header it started
under and fails if the file is rewritten before it ends (another
session's refresh may replace the access method's header meanwhile).
A value-at-a-time reference scan in ``tests/oracle/`` must produce
identical results, cache contents and statistics.
"""

from __future__ import annotations

import numpy as np

from repro.core.blockscan import (
    NUMERIC_DTYPES,
    BlockLines,
    BlockScan,
    RawFileAccess,
)
from repro.errors import ExecutionError, FITSFormatError
from repro.formats.fits import FitsTableInfo, parse_fits_from_vfs

#: NumPy's big-endian dtype of each numeric TFORM code
_BIG_ENDIAN = {"J": ">i4", "K": ">i8", "E": ">f4", "D": ">f8"}


class _FitsRows(BlockLines):
    """An indexed block of fixed-width rows: a value's span is its
    column's byte range in its row, found by arithmetic alone."""

    def spans(self, attr: int, rows: np.ndarray):
        column = self.scan.fits.columns[attr]
        starts = self.line_starts[rows] + column.offset
        return starts, starts + column.nbytes


class FitsScan(BlockScan):
    """One block scan over one FITS binary table."""

    indexed_lines = _FitsRows

    def __init__(self, access, *scan_args):
        super().__init__(access, *scan_args)
        self.fits = access.fits
        self._rewrites = access._seen_rewrites

    def check_unchanged(self) -> None:
        """A rewrite or truncation under the scan is an error, not the
        zeros a short read leaves under the fixed stride."""
        if self.access.vfs.rewrite_count(self.access.path) != self._rewrites:
            raise ExecutionError(
                f"the FITS file {self.access.path!r} changed under a live "
                "scan; re-run the query")

    def run(self, handle):
        # The whole file is the indexed region: no streaming tail.
        yield from self._indexed_region(handle, self.fits.nrows)
        self.check_unchanged()
        self.access._finish_file(self.fits.nrows)

    def _line_spans(self, row0: int, row1: int):
        self.check_unchanged()
        fits = self.fits
        starts = fits.data_offset + fits.row_bytes * np.arange(
            row0, row1, dtype=np.int64)
        return starts, starts + fits.row_bytes

    def _convert(self, attr: int, buffer, starts: np.ndarray,
                 ends: np.ndarray) -> tuple[list | None, np.ndarray | None]:
        self.check_unchanged()  # the bytes were read under our header
        column = self.fits.columns[attr]
        self.model.deserialize(len(starts))
        if column.code == "A":
            return [bytes(buffer[s:e]).decode("ascii", "replace")
                    .rstrip(" \x00")
                    for s, e in zip(starts.tolist(), ends.tolist())], None
        raw = np.frombuffer(buffer, dtype=np.uint8)[
            starts[:, None] + np.arange(column.nbytes)]
        return None, raw.view(_BIG_ENDIAN[column.code]).ravel().astype(
            NUMERIC_DTYPES[self._families[attr]])

    def _known_positions(self, block: int) -> dict[int, np.ndarray]:
        return {}


class RawFitsAccess(RawFileAccess):
    """Access method for one in-situ FITS binary table: the binary
    cache and statistics, and no positional map."""

    scan_class = FitsScan

    def __init__(self, vfs, path: str, fits: FitsTableInfo, model, config,
                 table_info, cache):
        super().__init__(vfs, path, fits.schema, model, config,
                         table_info, None, cache)
        self._take_header(fits)

    def _take_header(self, fits: FitsTableInfo) -> None:
        """Adopt a header and the file state it was parsed from."""
        self.fits = fits
        self.row_count = fits.nrows
        self._seen_rewrites = self.vfs.rewrite_count(self.path)
        self._seen_size = self.vfs.size(self.path)

    def refresh(self) -> None:
        """§4.5: the header fixes the row count, so any change — the
        rewrite counter catches what the 2880-byte padding hides from
        the size — re-reads the header and drops the cache."""
        if (self.vfs.rewrite_count(self.path), self.vfs.size(self.path)) \
                == (self._seen_rewrites, self._seen_size):
            return
        fits = parse_fits_from_vfs(self.vfs, self.path)
        if fits.schema != self.schema:
            raise FITSFormatError(
                f"the FITS header of {self.path!r} no longer matches its "
                f"table: columns {fits.schema.names}, table "
                f"{self.schema.names}")
        self._drop_structures()
        self._take_header(fits)
