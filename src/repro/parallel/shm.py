"""Zero-copy plane sharing via ``multiprocessing.shared_memory``.

The delta engine's working set — the incumbent's per-sector mW planes
plus the derived serving/runner-up arrays — is a few megabytes per
incumbent (``n_sectors x rows x cols`` float64 and friends).  Pickling
that into every worker task would drown the candidate-scoring speedup
in IPC, so :class:`SharedPlaneStore` packs one incumbent's arrays into
a single shared-memory block that workers map **once** and read
in place.

Layout: all arrays of one export are concatenated into one block,
each 64-byte aligned; a :class:`SharedArrayHandle` (name, offset,
shape, dtype) is enough for any process to reconstruct a read-only
NumPy view.  The store owns the blocks (creates and unlinks them);
workers only ever attach.

**File spill**: when the database is memory-mapped from disk (packed
markets), copying multi-GB incumbent planes into ``/dev/shm`` would
double their footprint.  A store constructed with ``spill_bytes`` writes
exports at or above that size to a temp *file* instead — same layout,
same handles (plus a ``path``) — and workers ``mmap`` it read-only:
the kernel page cache makes the fan-out zero-copy across processes.
"""

from __future__ import annotations

import mmap
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Hashable, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..obs import get_registry

__all__ = ["SharedArrayHandle", "SharedPlaneStore", "attach_array",
           "attach_block", "attach_handle_block", "SpillFileMapping"]

#: Cache-line alignment for each packed array.
_ALIGN = 64

#: Exports kept resident per store.  Mirrors the evaluator's delta
#: anchor ring: one parent incumbent probed by many trials, plus the
#: child of the accepted move.
DEFAULT_STORE_CAPACITY = 2


@dataclass(frozen=True)
class SharedArrayHandle:
    """Everything needed to view one array inside a shared block.

    ``path`` is set for file-spilled exports: ``block`` then carries
    the file path (it doubles as the worker's cache key) and attaching
    goes through :class:`SpillFileMapping` instead of SharedMemory.
    """

    block: str           # SharedMemory name, or the spill-file path
    offset: int          # byte offset within the block
    shape: Tuple[int, ...]
    dtype: str           # numpy dtype string, e.g. "float64"
    path: Optional[str] = None   # spill-file path, None for true shm

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)
                   * np.dtype(self.dtype).itemsize)


class SpillFileMapping:
    """Read-only mmap of a spilled export — quacks like an attached
    SharedMemory block (``.buf`` + ``.close()``) for ``attach_array``."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "rb")
        self.buf = mmap.mmap(self._fh.fileno(), 0,
                             access=mmap.ACCESS_READ)

    def close(self) -> None:
        try:
            self.buf.close()
        finally:
            self._fh.close()


class _SpillFile:
    """Owner-side record of one spilled export (store-internal)."""

    def __init__(self, path: str, size: int) -> None:
        self.path = path
        self.size = size

    def close(self) -> None:
        pass

    def unlink(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:  # pragma: no cover — already gone
            pass


def attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without adopting its lifetime.

    The creating process (the :class:`SharedPlaneStore`) is the single
    owner responsible for unlinking.  Python 3.13+ attaches untracked.
    Before 3.13 attaching registers the segment with the resource
    tracker; that is harmless for pool workers, which share the
    owner's tracker (the service starts it before forking): its
    registry is a set, so the attach adds nothing.  The attach must
    not unregister either — that would drop the *owner's* entry, and
    the owner's ``unlink()`` then makes the tracker print a
    ``KeyError`` traceback.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False,
                                          track=False)
    except TypeError:          # Python < 3.13: no ``track`` parameter
        return shared_memory.SharedMemory(name=name, create=False)


def attach_handle_block(
        handle: SharedArrayHandle
        ) -> Union[shared_memory.SharedMemory, SpillFileMapping]:
    """Attach whatever backs ``handle`` — shm segment or spill file."""
    if handle.path is not None:
        return SpillFileMapping(handle.path)
    return attach_block(handle.block)


def attach_array(handle: SharedArrayHandle, block) -> np.ndarray:
    """A read-only NumPy view of ``handle`` inside an attached block
    (a SharedMemory segment or a :class:`SpillFileMapping`)."""
    view = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype),
                      buffer=block.buf, offset=handle.offset)
    view.setflags(write=False)
    return view


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedPlaneStore:
    """Owner of shared-memory exports, LRU-bounded and self-cleaning.

    ``export(key, arrays)`` packs a mapping of named arrays into one
    block and returns per-array handles; re-exporting an existing key
    is a cache hit.  The store unlinks evicted and closed blocks, so a
    context-managed store can never leak segments:

    >>> with SharedPlaneStore() as store:      # doctest: +SKIP
    ...     handles = store.export("inc-0", {"planes": planes})
    """

    def __init__(self, capacity: int = DEFAULT_STORE_CAPACITY,
                 spill_bytes: Optional[int] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: Exports of at least this many bytes go to a temp file that
        #: workers mmap (kernel page cache, zero-copy) instead of a
        #: ``/dev/shm`` segment.  ``None`` disables spilling; ``0``
        #: spills everything — the right mode when the incumbent's
        #: planes already came from a memory-mapped database.
        self.spill_bytes = spill_bytes
        self._blocks: "OrderedDict[Hashable, Tuple[object, Dict[str, SharedArrayHandle]]]" = \
            OrderedDict()
        self._bytes = 0
        self._shm_bytes = 0

    # ------------------------------------------------------------------
    @property
    def exported_bytes(self) -> int:
        """Bytes currently resident in shared memory."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._blocks

    def handles(self, key: Hashable) -> Optional[Dict[str, SharedArrayHandle]]:
        """The handle mapping for ``key`` if resident (refreshes LRU)."""
        entry = self._blocks.get(key)
        if entry is None:
            return None
        self._blocks.move_to_end(key)
        return entry[1]

    # ------------------------------------------------------------------
    def export(self, key: Hashable,
               arrays: Mapping[str, np.ndarray]
               ) -> Dict[str, SharedArrayHandle]:
        """Pack ``arrays`` into one shared block under ``key``.

        Returns the existing handles when ``key`` is already resident
        (the arrays of a given incumbent are immutable, so the cached
        export is always valid).
        """
        cached = self.handles(key)
        if cached is not None:
            return cached
        items: List[Tuple[str, np.ndarray]] = [
            (name, np.ascontiguousarray(arr))
            for name, arr in arrays.items()]
        total = 0
        offsets: List[int] = []
        for _, arr in items:
            total = _aligned(total)
            offsets.append(total)
            total += arr.nbytes
        size = max(total, 1)
        registry = get_registry()
        if self.spill_bytes is not None and total >= self.spill_bytes:
            owner, handles = self._export_to_file(items, offsets, size)
            registry.counter("magus.parallel.spilled_bytes").inc(size)
        else:
            block = shared_memory.SharedMemory(create=True, size=size)
            handles = {}
            for (name, arr), offset in zip(items, offsets):
                dest = np.ndarray(arr.shape, dtype=arr.dtype,
                                  buffer=block.buf, offset=offset)
                dest[...] = arr
                handles[name] = SharedArrayHandle(
                    block=block.name, offset=offset,
                    shape=tuple(arr.shape), dtype=arr.dtype.str)
            owner = block
            self._shm_bytes += block.size
            registry.counter("magus.parallel.shm_allocated_bytes").inc(
                block.size)
        self._blocks[key] = (owner, handles)
        self._bytes += owner.size
        registry.gauge("magus.parallel.shm_bytes").set(self._shm_bytes)
        while len(self._blocks) > self.capacity:
            _, (old, _handles) = self._blocks.popitem(last=False)
            self._release(old)
        return handles

    @staticmethod
    def _export_to_file(items: List[Tuple[str, np.ndarray]],
                        offsets: List[int], size: int
                        ) -> Tuple[_SpillFile, Dict[str, SharedArrayHandle]]:
        fd, path = tempfile.mkstemp(prefix="magus-planes-", suffix=".mw")
        handles: Dict[str, SharedArrayHandle] = {}
        with os.fdopen(fd, "wb") as fh:
            fh.truncate(size)
            for (name, arr), offset in zip(items, offsets):
                fh.seek(offset)
                fh.write(arr.tobytes())
                handles[name] = SharedArrayHandle(
                    block=path, offset=offset, shape=tuple(arr.shape),
                    dtype=arr.dtype.str, path=path)
        return _SpillFile(path, size), handles

    # ------------------------------------------------------------------
    def _release(self, owner) -> None:
        self._bytes -= owner.size
        registry = get_registry()
        if isinstance(owner, _SpillFile):
            owner.unlink()
            registry.gauge("magus.parallel.shm_bytes").set(self._shm_bytes)
            return
        self._shm_bytes -= owner.size
        registry.counter("magus.parallel.shm_released_bytes").inc(
            owner.size)
        registry.gauge("magus.parallel.shm_bytes").set(self._shm_bytes)
        try:
            owner.close()
            owner.unlink()
        except FileNotFoundError:  # pragma: no cover — already gone
            pass

    def close(self) -> None:
        """Unlink every owned block (idempotent)."""
        while self._blocks:
            _, (block, _handles) = self._blocks.popitem(last=False)
            self._release(block)

    def __enter__(self) -> "SharedPlaneStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
