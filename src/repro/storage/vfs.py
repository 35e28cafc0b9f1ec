"""Virtual filesystem with a simulated OS page cache.

All raw data files and database files live here. Reads are priced by a
:class:`~repro.simcost.model.CostModel`: bytes resident in the simulated
OS page cache are charged at the warm rate, the rest at the cold rate,
and non-sequential repositioning is charged as a seek. The cache is a
property of the *machine* (the VFS), shared by every engine reading the
same files — exactly like a real OS page cache, and the mechanism behind
the paper's "Baseline improves slightly as of the second query mainly
due to file system caching" observation (§5.1.2).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import FileNotFoundInVFS, StorageError
from repro.simcost.model import CostModel

#: Granularity at which the simulated OS caches file contents.
OS_CACHE_BLOCK = 64 * 1024


class OSPageCache:
    """LRU cache of (path, block) residency, in bytes of capacity.

    The cache only tracks *residency* — the actual bytes always come from
    the backing file. ``capacity_bytes=None`` models RAM larger than any
    file in the experiment (the paper's 32 GB vs 11 GB file).
    """

    def __init__(self, capacity_bytes: int | None = None,
                 block_size: int = OS_CACHE_BLOCK):
        if block_size <= 0:
            raise StorageError("block_size must be positive")
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self._resident: OrderedDict[tuple[str, int], None] = OrderedDict()

    def _capacity_blocks(self) -> int | None:
        if self.capacity_bytes is None:
            return None
        return max(1, self.capacity_bytes // self.block_size)

    def touch(self, path: str, offset: int, length: int) -> tuple[int, int]:
        """Mark a byte range accessed; return ``(warm_bytes, cold_bytes)``.

        Accessed blocks become resident (LRU order updated); eviction keeps
        residency within capacity.
        """
        if length <= 0:
            return (0, 0)
        first = offset // self.block_size
        last = (offset + length - 1) // self.block_size
        warm_blocks = 0
        for block in range(first, last + 1):
            key = (path, block)
            if key in self._resident:
                warm_blocks += 1
                self._resident.move_to_end(key)
            else:
                self._resident[key] = None
        cap = self._capacity_blocks()
        if cap is not None:
            while len(self._resident) > cap:
                self._resident.popitem(last=False)
        total_blocks = last - first + 1
        cold_blocks = total_blocks - warm_blocks
        # Apportion the byte count pro rata across blocks; exactness per
        # block boundary does not affect any experiment shape.
        warm_bytes = round(length * warm_blocks / total_blocks)
        return (warm_bytes, length - warm_bytes)

    def is_resident(self, path: str, offset: int) -> bool:
        return (path, offset // self.block_size) in self._resident

    def invalidate(self, path: str) -> None:
        """Drop every cached block of ``path`` (file deleted/truncated)."""
        stale = [key for key in self._resident if key[0] == path]
        for key in stale:
            del self._resident[key]

    def clear(self) -> None:
        self._resident.clear()


@dataclass
class _FileEntry:
    data: bytearray
    generation: int = 0   # bumped on every mutation; cheap mtime analogue
    rewrites: int = 0     # bumped on non-append mutations (rewrite detection)


class VirtualFS:
    """In-memory filesystem shared by engines on the same "machine"."""

    def __init__(self, os_cache: OSPageCache | None = None):
        self._files: dict[str, _FileEntry] = {}
        self.os_cache = os_cache if os_cache is not None else OSPageCache()
        self._read_observers: dict[str, list] = {}

    # -- read observers (§7 File System Interface) -------------------------
    def add_read_observer(self, path: str, callback) -> None:
        """Invoke ``callback(path, offset, length)`` whenever a
        notifying handle reads ``path`` — the paper's §7 idea of a NoDB
        engine intercepting file-system reads (e.g. a user's text
        editor) to build auxiliary structures opportunistically."""
        self._read_observers.setdefault(path, []).append(callback)

    def remove_read_observer(self, path: str, callback) -> None:
        observers = self._read_observers.get(path, [])
        if callback in observers:
            observers.remove(callback)

    def _notify_read(self, path: str, offset: int, length: int) -> None:
        for callback in self._read_observers.get(path, ()):
            callback(path, offset, length)

    # -- namespace ---------------------------------------------------------
    def create(self, path: str, data: bytes = b"") -> None:
        """Create ``path``; overwriting an existing file counts as a
        rewrite (so engines invalidate their auxiliary structures)."""
        existing = self._files.get(path)
        if existing is None:
            self._files[path] = _FileEntry(bytearray(data))
        else:
            existing.data[:] = data
            existing.generation += 1
            existing.rewrites += 1
        self.os_cache.invalidate(path)

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        self._entry(path)
        del self._files[path]
        self.os_cache.invalidate(path)

    def listdir(self, prefix: str = "") -> list[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    def size(self, path: str) -> int:
        return len(self._entry(path).data)

    def generation(self, path: str) -> int:
        """Mutation counter for ``path`` — an mtime analogue for
        detecting external updates (§4.5)."""
        return self._entry(path).generation

    def rewrite_count(self, path: str) -> int:
        """Counter of *non-append* mutations. A grown file with an
        unchanged rewrite count was appended to — the update kind whose
        auxiliary structures can be extended instead of dropped (§4.5)."""
        return self._entry(path).rewrites

    def import_local(self, os_path: str, vfs_path: str | None = None) -> str:
        """Copy a real on-disk file into the VFS; returns the VFS path."""
        vfs_path = vfs_path or os.path.basename(os_path)
        with open(os_path, "rb") as handle:
            self.create(vfs_path, handle.read())
        return vfs_path

    def export_local(self, vfs_path: str, os_path: str) -> None:
        """Copy a VFS file out to the real filesystem."""
        with open(os_path, "wb") as handle:
            handle.write(bytes(self._entry(vfs_path).data))

    # -- raw (uncosted) access, for tools and tests --------------------------
    def read_bytes(self, path: str) -> bytes:
        return bytes(self._entry(path).data)

    def write_bytes(self, path: str, data: bytes) -> None:
        entry = self._files.get(path)
        if entry is None:
            self.create(path, data)
            self._files[path].generation = 1
            return
        entry.data[:] = data
        entry.generation += 1
        entry.rewrites += 1
        self.os_cache.invalidate(path)

    def append_bytes(self, path: str, data: bytes) -> None:
        """Append without invalidating cached blocks (appends do not make
        previously cached contents stale)."""
        entry = self._entry(path)
        entry.data.extend(data)
        entry.generation += 1

    # -- costed access ----------------------------------------------------
    def open(self, path: str, model: CostModel,
             notify: bool = True) -> "VirtualFile":
        """Open a costed handle. ``notify=False`` marks engine-internal
        handles whose reads should not trigger read observers (an engine
        must not react to its own scans)."""
        self._entry(path)
        return VirtualFile(self, path, model, notify=notify)

    def fault_check(self, path: str, offset: int, length: int,
                    model: CostModel) -> None:
        """Fault-injection hook, called by every costed ``read_at``
        before the read is charged. The base VFS never faults; a
        :class:`~repro.storage.faults.FaultInjectingVFS` overrides this
        with a seeded schedule of transient errors, injected latency
        and truncation — so chaos tests exercise the *real* read path
        rather than a mock. Must either return (possibly after charging
        retries/stalls to ``model``) or raise a typed
        :class:`~repro.errors.StorageError`."""
        return None

    def _entry(self, path: str) -> _FileEntry:
        entry = self._files.get(path)
        if entry is None:
            raise FileNotFoundInVFS(f"no such file in VFS: {path!r}")
        return entry


class VirtualFile:
    """A costed read/write handle onto one VFS file.

    Sequential reads are charged at bandwidth rates only; repositioning
    charges one seek. Each handle tracks its own position, like a file
    descriptor.
    """

    def __init__(self, vfs: VirtualFS, path: str, model: CostModel,
                 notify: bool = True):
        self.vfs = vfs
        self.path = path
        self.model = model
        self.notify = notify
        self._pos = 0

    @property
    def size(self) -> int:
        return self.vfs.size(self.path)

    #: Forward gaps up to this size are read through rather than sought
    #: over — a drive (and the OS readahead) streams past small skips
    #: faster than it can reposition.
    SEQUENTIAL_GAP = 64 * 1024

    def read_at(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``, charging I/O.

        Repositioning charges one seek, except for small forward gaps,
        which are charged as read-through bytes (see SEQUENTIAL_GAP).
        """
        if offset < 0:
            raise StorageError(f"negative offset: {offset}")
        self.vfs.fault_check(self.path, offset, length, self.model)
        entry = self.vfs._entry(self.path)
        end = min(offset + max(length, 0), len(entry.data))
        if end <= offset:
            return b""
        if offset != self._pos:
            gap = offset - self._pos
            if 0 < gap <= self.SEQUENTIAL_GAP:
                self._charge_range(self._pos, gap)
            elif not self.vfs.os_cache.is_resident(self.path, offset):
                # Repositioning onto OS-cached data is a memory access,
                # not a head movement: only cold jumps pay the seek.
                self.model.disk_seek()
        self._charge_range(offset, end - offset)
        self._pos = end
        if self.notify:
            self.vfs._notify_read(self.path, offset, end - offset)
        return bytes(entry.data[offset:end])

    def _charge_range(self, offset: int, length: int) -> None:
        warm, cold = self.vfs.os_cache.touch(self.path, offset, length)
        if warm:
            self.model.disk_read(warm, warm=True)
        if cold:
            self.model.disk_read(cold, warm=False)

    def read_sequential(self, length: int) -> bytes:
        """Read the next ``length`` bytes from the current position."""
        return self.read_at(self._pos, length)

    def seek(self, offset: int) -> None:
        """Move the handle position without touching the disk (the seek
        cost is charged by the next non-sequential read)."""
        self._pos = offset

    def tell(self) -> int:
        return self._pos

    def append(self, data: bytes) -> None:
        """Append bytes, charging write bandwidth."""
        self.vfs.append_bytes(self.path, data)
        self.model.disk_write(len(data))

    def write_at(self, offset: int, data: bytes) -> None:
        """Overwrite bytes in place (used by heap pages), charging write
        bandwidth plus a seek when repositioning."""
        entry = self.vfs._entry(self.path)
        if offset + len(data) > len(entry.data):
            entry.data.extend(b"\x00" * (offset + len(data) - len(entry.data)))
        if offset != self._pos:
            self.model.disk_seek()
        entry.data[offset:offset + len(data)] = data
        entry.generation += 1
        entry.rewrites += 1
        self.model.disk_write(len(data))
        self._pos = offset + len(data)
