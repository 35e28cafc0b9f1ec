"""FITS binary tables: writer + reader (§5.3).

Implements the subset of the FITS standard the paper's experiment needs:
a primary HDU followed by one BINTABLE extension. Headers are 80-byte
ASCII cards in 2880-byte blocks; table data is big-endian, row-major,
padded to a 2880-byte boundary.

Supported TFORM column codes: ``J`` (int32), ``K`` (int64), ``E``
(float32), ``D`` (float64), ``nA`` (fixed-width ASCII string).

Binary formats flip the paper's cost structure: there is nothing to
tokenize or convert ("each tuple and attribute is usually located in a
well-known location"), so positional maps are unnecessary and caching
becomes the interesting mechanism.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import FITSFormatError
from repro.sql.catalog import Column, Schema
from repro.sql.datatypes import BIGINT, FLOAT, INTEGER, DataType, char
from repro.storage.vfs import VirtualFS

BLOCK = 2880
CARD = 80

_TFORM_STRUCT = {"J": ">i", "K": ">q", "E": ">f", "D": ">d"}
_TFORM_BYTES = {"J": 4, "K": 8, "E": 4, "D": 8}


@dataclass(frozen=True)
class FitsColumn:
    """One BINTABLE column: TTYPE name, TFORM code, byte geometry."""

    name: str
    code: str          # J K E D A
    repeat: int        # width for 'A'; 1 for numeric codes
    offset: int        # byte offset inside a row

    @property
    def nbytes(self) -> int:
        if self.code == "A":
            return self.repeat
        return _TFORM_BYTES[self.code]

    @property
    def dtype(self) -> DataType:
        if self.code == "J":
            return INTEGER
        if self.code == "K":
            return BIGINT
        if self.code in ("E", "D"):
            return FLOAT
        return char(self.repeat)

    def decode(self, row: bytes):
        """Decode this column's value from one row's bytes."""
        raw = row[self.offset:self.offset + self.nbytes]
        if self.code == "A":
            return raw.decode("ascii", "replace").rstrip(" \x00")
        value = struct.unpack(_TFORM_STRUCT[self.code], raw)[0]
        return float(value) if self.code in ("E", "D") else value

    def encode(self, value) -> bytes:
        if self.code == "A":
            raw = str(value).encode("ascii", "replace")[:self.repeat]
            return raw.ljust(self.repeat, b" ")
        if self.code in ("E", "D"):
            return struct.pack(_TFORM_STRUCT[self.code], float(value))
        return struct.pack(_TFORM_STRUCT[self.code], int(value))


@dataclass
class FitsTableInfo:
    """Parsed geometry of the BINTABLE extension."""

    columns: list[FitsColumn]
    row_bytes: int
    nrows: int
    data_offset: int    # absolute byte offset of the table data

    @property
    def schema(self) -> Schema:
        return Schema([Column(c.name, c.dtype) for c in self.columns])


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------
def _card(keyword: str, value: str, quote: bool = False) -> bytes:
    if quote:
        rendered = f"'{value:<8}'"
    else:
        rendered = f"{value:>20}"
    text = f"{keyword:<8}= {rendered}"
    return text.ljust(CARD).encode("ascii")


def _bare_card(text: str) -> bytes:
    return text.ljust(CARD).encode("ascii")


def _pad_block(data: bytes) -> bytes:
    remainder = len(data) % BLOCK
    if remainder:
        data += b"\x00" * (BLOCK - remainder)
    return data


def write_bintable(names: list[str], tforms: list[str],
                   rows: list[tuple]) -> bytes:
    """Serialize a complete FITS file with one binary table extension.

    ``tforms`` entries are like ``"J"``, ``"D"`` or ``"16A"``.
    """
    if len(names) != len(tforms):
        raise FITSFormatError("names and tforms must have equal length")
    columns: list[FitsColumn] = []
    offset = 0
    for name, tform in zip(names, tforms):
        code = tform[-1]
        if code not in ("J", "K", "E", "D", "A"):
            raise FITSFormatError(f"unsupported TFORM: {tform!r}")
        repeat = int(tform[:-1]) if tform[:-1] else 1
        column = FitsColumn(name, code, repeat, offset)
        columns.append(column)
        offset += column.nbytes
    row_bytes = offset

    primary = _card("SIMPLE", "T") + _card("BITPIX", "8") + \
        _card("NAXIS", "0") + _bare_card("END")
    out = _pad_block(primary)

    cards = [
        _card("XTENSION", "BINTABLE", quote=True),
        _card("BITPIX", "8"),
        _card("NAXIS", "2"),
        _card("NAXIS1", str(row_bytes)),
        _card("NAXIS2", str(len(rows))),
        _card("PCOUNT", "0"),
        _card("GCOUNT", "1"),
        _card("TFIELDS", str(len(columns))),
    ]
    for i, (name, tform) in enumerate(zip(names, tforms), start=1):
        cards.append(_card(f"TTYPE{i}", name, quote=True))
        cards.append(_card(f"TFORM{i}", tform, quote=True))
    cards.append(_bare_card("END"))
    out += _pad_block(b"".join(cards))

    body = bytearray()
    for row in rows:
        if len(row) != len(columns):
            raise FITSFormatError(
                f"row arity {len(row)} != table arity {len(columns)}")
        for column, value in zip(columns, row):
            body += column.encode(value)
    out += _pad_block(bytes(body))
    return out


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------
def _parse_cards(block_data: bytes) -> dict[str, str]:
    cards: dict[str, str] = {}
    for i in range(0, len(block_data), CARD):
        card = block_data[i:i + CARD].decode("ascii", "replace")
        keyword = card[:8].strip()
        if keyword == "END":
            cards["END"] = ""
            break
        if "=" not in card:
            continue
        value = card.split("=", 1)[1].strip()
        if value.startswith("'"):
            value = value[1:value.index("'", 1)].strip()
        else:
            value = value.split("/")[0].strip()
        cards[keyword] = value
    return cards


def _read_header(raw: bytes, offset: int) -> tuple[dict[str, str], int]:
    """Read one header (possibly spanning blocks); returns (cards,
    offset-after-header)."""
    cards: dict[str, str] = {}
    while True:
        block = raw[offset:offset + BLOCK]
        if len(block) < BLOCK:
            raise FITSFormatError("truncated FITS header")
        cards.update(_parse_cards(block))
        offset += BLOCK
        if "END" in cards:
            return cards, offset


def parse_fits(raw: bytes) -> FitsTableInfo:
    """Parse a FITS file produced by :func:`write_bintable` (or any file
    with a primary HDU + one BINTABLE)."""
    primary, offset = _read_header(raw, 0)
    if primary.get("SIMPLE") != "T":
        raise FITSFormatError("not a FITS file (SIMPLE != T)")
    naxis = int(primary.get("NAXIS", "0"))
    data_bytes = 0
    if naxis > 0:
        data_bytes = abs(int(primary.get("BITPIX", "8"))) // 8
        for axis in range(1, naxis + 1):
            data_bytes *= int(primary[f"NAXIS{axis}"])
    offset += -(-data_bytes // BLOCK) * BLOCK  # skip primary data, padded

    ext, offset = _read_header(raw, offset)
    if ext.get("XTENSION", "").upper() != "BINTABLE":
        raise FITSFormatError(
            f"expected BINTABLE extension, got {ext.get('XTENSION')!r}")
    row_bytes = int(ext["NAXIS1"])
    nrows = int(ext["NAXIS2"])
    tfields = int(ext["TFIELDS"])
    columns: list[FitsColumn] = []
    col_offset = 0
    for i in range(1, tfields + 1):
        tform = ext[f"TFORM{i}"].strip()
        name = ext.get(f"TTYPE{i}", f"col{i}").strip()
        code = tform[-1]
        if code not in ("J", "K", "E", "D", "A"):
            raise FITSFormatError(f"unsupported TFORM: {tform!r}")
        repeat = int(tform[:-1]) if tform[:-1] else 1
        column = FitsColumn(name, code, repeat, col_offset)
        columns.append(column)
        col_offset += column.nbytes
    if col_offset != row_bytes:
        raise FITSFormatError(
            f"column widths sum to {col_offset}, NAXIS1 says {row_bytes}")
    if len(raw) - offset < row_bytes * nrows:
        raise FITSFormatError(
            f"truncated FITS data: {nrows} rows of {row_bytes} bytes "
            f"need {row_bytes * nrows}, the file holds "
            f"{max(len(raw) - offset, 0)}")
    return FitsTableInfo(columns, row_bytes, nrows, offset)


def parse_fits_from_vfs(vfs: VirtualFS, path: str) -> FitsTableInfo:
    """Parse headers directly from the VFS (uncosted — header parsing is
    negligible next to data scans; the paper never charges it)."""
    return parse_fits(vfs.read_bytes(path))
