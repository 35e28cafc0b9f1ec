"""Heap files: sequences of slotted pages holding one table's tuples."""

from __future__ import annotations

from typing import Iterator

from repro.errors import PageFormatError, StorageError
from repro.simcost.model import CostModel
from repro.storage.buffer import BufferPool
from repro.storage.page import PAGE_SIZE, SlottedPage
from repro.storage.vfs import VirtualFS


class HeapFile:
    """A table's binary pages on the VFS.

    Writing goes through :class:`HeapWriter` (bulk load); reading goes
    through :meth:`scan_records` with a buffer pool.
    """

    def __init__(self, vfs: VirtualFS, path: str):
        self.vfs = vfs
        self.path = path

    @property
    def num_pages(self) -> int:
        size = self.vfs.size(self.path)
        if size % PAGE_SIZE:
            raise StorageError(
                f"heap file {self.path!r} is not page aligned ({size} bytes)")
        return size // PAGE_SIZE

    def scan_records(self, pool: BufferPool) -> Iterator[bytes]:
        """Yield every record's bytes, page by page, via the pool."""
        for page_index in range(self.num_pages):
            page = pool.get_page(self.path, page_index)
            yield from page.records()

    def record_count(self, pool: BufferPool) -> int:
        total = 0
        for page_index in range(self.num_pages):
            total += pool.get_page(self.path, page_index).tuple_count
        return total


class HeapWriter:
    """Append-only writer used by the bulk loader.

    Keeps one fill page in memory and flushes it when full; always call
    :meth:`close` (or use as a context manager) to flush the tail page.
    """

    def __init__(self, vfs: VirtualFS, path: str, model: CostModel):
        self.vfs = vfs
        self.path = path
        self.model = model
        if not vfs.exists(path):
            vfs.create(path)
        self._handle = vfs.open(path, model)
        self._fill = SlottedPage()
        self._records_written = 0
        self._closed = False

    def append(self, record: bytes) -> None:
        """Append one encoded record, starting a new page when needed."""
        if self._closed:
            raise StorageError("writer already closed")
        if not self._fill.has_room(len(record)):
            if self._fill.tuple_count == 0:
                raise PageFormatError(
                    f"record of {len(record)} bytes exceeds page capacity "
                    f"— tuples cannot span pages (oversized values "
                    f"belong out of line: repro.storage.toast)")
            self._flush_fill()
        self._fill.insert(record)
        self._records_written += 1

    def _flush_fill(self) -> None:
        self._handle.append(self._fill.to_bytes())
        self._fill = SlottedPage()

    def close(self) -> int:
        """Flush the tail page; returns the number of records written."""
        if not self._closed:
            if self._fill.tuple_count:
                self._flush_fill()
            self._closed = True
        return self._records_written

    def __enter__(self) -> "HeapWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
