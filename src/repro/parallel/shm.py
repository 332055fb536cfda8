"""Zero-copy raster sharing via ``multiprocessing.shared_memory``.

Workers score candidates against one incumbent's
:class:`~repro.model.roi.RoiBaseline`: nine ``(rows, cols)`` rasters,
at most ``9 * rows * cols * 8`` bytes (about 19 MB at 600x600 on
float32 planes) whatever the sector count.  Pickling them into every
worker task would still drown the candidate-scoring speedup in IPC, so
:class:`SharedPlaneStore` packs one baseline's arrays into a single
shared-memory block that workers map **once** and read in place.

Layout: all arrays of one export are concatenated into one block,
each 64-byte aligned; a :class:`SharedArrayHandle` (name, offset,
shape, dtype) is enough for any process to reconstruct a read-only
NumPy view.  The store owns the blocks (creates and unlinks them);
workers only ever attach.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from ..obs import get_registry

__all__ = ["SharedArrayHandle", "SharedPlaneStore", "attach_array",
           "attach_block"]

#: Cache-line alignment for each packed array.
_ALIGN = 64

#: Exports kept resident per store.  Mirrors the evaluator's delta
#: anchor ring: one parent incumbent probed by many trials, plus the
#: child of the accepted move.
DEFAULT_STORE_CAPACITY = 2


@dataclass(frozen=True)
class SharedArrayHandle:
    """Everything needed to view one array inside a shared block."""

    block: str           # SharedMemory name
    offset: int          # byte offset within the block
    shape: Tuple[int, ...]
    dtype: str           # numpy dtype string, e.g. "float64"


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


def attach_array(handle: SharedArrayHandle, block) -> np.ndarray:
    """A read-only NumPy view of ``handle`` inside an attached block."""
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
    ...     handles = store.export("inc-0", {"total_mw": total_mw})
    """

    def __init__(self, capacity: int = DEFAULT_STORE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._blocks: "OrderedDict[Hashable, Tuple[shared_memory.SharedMemory, Dict[str, SharedArrayHandle]]]" = \
            OrderedDict()
        self._bytes = 0

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
        block = shared_memory.SharedMemory(create=True,
                                           size=max(total, 1))
        handles: Dict[str, SharedArrayHandle] = {}
        for (name, arr), offset in zip(items, offsets):
            dest = np.ndarray(arr.shape, dtype=arr.dtype,
                              buffer=block.buf, offset=offset)
            dest[...] = arr
            handles[name] = SharedArrayHandle(
                block=block.name, offset=offset,
                shape=tuple(arr.shape), dtype=arr.dtype.str)
        self._blocks[key] = (block, handles)
        self._bytes += block.size
        registry = get_registry()
        registry.counter("magus.parallel.shm_allocated_bytes").inc(
            block.size)
        registry.gauge("magus.parallel.shm_bytes").set(self._bytes)
        while len(self._blocks) > self.capacity:
            _, (old, _handles) = self._blocks.popitem(last=False)
            self._release(old)
        return handles

    # ------------------------------------------------------------------
    def _release(self, block: shared_memory.SharedMemory) -> None:
        self._bytes -= block.size
        registry = get_registry()
        registry.counter("magus.parallel.shm_released_bytes").inc(
            block.size)
        registry.gauge("magus.parallel.shm_bytes").set(self._bytes)
        try:
            block.close()
            block.unlink()
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
