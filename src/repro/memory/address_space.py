"""Sparse, paged, byte-addressable 32-bit address space.

This is the memory substrate underneath the whole reproduction: the VM's
loads and stores, the allocators, ASan's shadow memory and MPX's bounds
tables all live here.  A mapping is one extent of pages, so reserving the
512 MiB ASan shadow costs one list insert; pages are materialized lazily (a
4 GiB space costs nothing until touched), and an optional ``tracer`` lets the
SGX model observe every access to charge cache/EPC costs.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import GuardPageFault, OutOfMemory, SegmentationFault
from repro.memory.layout import (
    ADDRESS_MASK,
    ADDRESS_SPACE_SIZE,
    PAGE_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,
    page_align_up,
)

PERM_NONE = 0
PERM_READ = 1
PERM_WRITE = 2
PERM_RW = PERM_READ | PERM_WRITE
#: A guard page is mapped (reserves address space) but faults on any access.
PERM_GUARD = 4

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")

_extent_first = itemgetter(0)


class Region:
    """A named, contiguous mapping — bookkeeping for diagnostics and stats."""

    __slots__ = ("name", "start", "size", "perms")

    def __init__(self, name: str, start: int, size: int, perms: int):
        self.name = name
        self.start = start
        self.size = size
        self.perms = perms

    @property
    def end(self) -> int:
        return self.start + self.size

    def __repr__(self) -> str:
        return f"Region({self.name!r}, 0x{self.start:08x}..0x{self.end:08x})"


class AddressSpace:
    """Byte-addressable sparse memory with page permissions.

    ``reserved_bytes`` tracks mapped virtual memory — the metric the paper
    reports ("maximum amount of reserved virtual memory", §6.1) — and
    ``peak_reserved`` its high-water mark.
    """

    def __init__(self, commit_limit: int = 0) -> None:
        self._pages: Dict[int, bytearray] = {}
        #: Sorted, disjoint ``(first_page, end_page, perms)`` extents, one
        #: per ``map`` (split by a partial ``unmap``): what is mapped.
        self._extents: List[Tuple[int, int, int]] = []
        #: Per-page perms of the materialized pages and of the pages whose
        #: perms ``protect`` changed; an entry wins over the extents.  A
        #: page missing here is not necessarily unmapped: ask the extents.
        self._perms: Dict[int, int] = {}
        self.regions: List[Region] = []
        self.reserved_bytes = 0
        self.peak_reserved = 0
        #: Maximum *materialized* (committed) bytes; 0 = unlimited.  This is
        #: how a metadata-hungry scheme (MPX bounds tables) "crashes due to
        #: insufficient memory" inside an enclave (paper Fig. 1, Fig. 7).
        self.commit_limit = commit_limit
        #: Optional hook called as ``tracer(address, size, is_write)`` on
        #: every data access; installed by the SGX cost model.
        self.tracer: Optional[Callable[[int, int, bool], None]] = None

    # ------------------------------------------------------------------
    # Mapping management
    # ------------------------------------------------------------------
    def _extent_at(self, idx: int) -> int:
        """Position of the extent holding page ``idx`` or, if none holds
        it, of the first extent above it."""
        extents = self._extents
        i = bisect_right(extents, idx, key=_extent_first) - 1
        if i < 0 or extents[i][1] <= idx:
            i += 1
        return i

    def _extent_perms(self, idx: int) -> Optional[int]:
        """Perms the mapping gave page ``idx``; None if it is unmapped."""
        extents = self._extents
        i = self._extent_at(idx)
        if i < len(extents) and extents[i][0] <= idx:
            return extents[i][2]
        return None

    def map(self, start: int, size: int, perms: int = PERM_RW,
            name: str = "anon") -> Region:
        """Map ``size`` bytes (page-rounded) at page-aligned ``start``."""
        if start & PAGE_MASK:
            raise ValueError(f"unaligned mapping at 0x{start:08x}")
        size = page_align_up(size)
        if size <= 0:
            raise ValueError("mapping size must be positive")
        if start + size > ADDRESS_SPACE_SIZE:
            raise OutOfMemory(size, "mapping beyond 32-bit address space")
        first = start >> PAGE_SHIFT
        end = first + (size >> PAGE_SHIFT)
        extents = self._extents
        i = self._extent_at(first)
        if i < len(extents) and extents[i][0] < end:
            lowest = max(first, extents[i][0])
            raise OutOfMemory(size, f"page 0x{lowest << PAGE_SHIFT:08x} already mapped")
        extents.insert(i, (first, end, perms))
        region = Region(name, start, size, perms)
        self.regions.append(region)
        self.reserved_bytes += size
        if self.reserved_bytes > self.peak_reserved:
            self.peak_reserved = self.reserved_bytes
        return region

    def unmap(self, start: int, size: int) -> None:
        """Unmap a previously mapped page range, releasing its backing."""
        if start & PAGE_MASK:
            raise ValueError(f"unaligned unmap at 0x{start:08x}")
        size = page_align_up(size)
        first = start >> PAGE_SHIFT
        end = first + (size >> PAGE_SHIFT)
        extents = self._extents
        i = j = self._extent_at(first)
        cursor = first
        while cursor < end:
            if j == len(extents) or extents[j][0] > cursor:
                raise SegmentationFault(cursor << PAGE_SHIFT, PAGE_SIZE, "unmap of unmapped page")
            cursor = extents[j][1]
            j += 1
        kept = []
        if i < j:
            low, high = extents[i], extents[j - 1]
            if low[0] < first:
                kept.append((low[0], first, low[2]))
            if high[1] > end:
                kept.append((end, high[1], high[2]))
        extents[i:j] = kept
        perms, pages = self._perms, self._pages
        for idx in [idx for idx in perms if first <= idx < end]:
            del perms[idx]
            pages.pop(idx, None)
        self.reserved_bytes -= size
        self.regions = [
            r for r in self.regions
            if not (r.start >= start and r.end <= start + size)
        ]

    def is_mapped(self, address: int) -> bool:
        """Whether the page containing ``address`` is mapped (guards count)."""
        return self._extent_perms(address >> PAGE_SHIFT) is not None

    def is_accessible(self, address: int) -> bool:
        """Whether a 1-byte read at ``address`` would succeed."""
        idx = address >> PAGE_SHIFT
        perms = self._perms.get(idx)
        if perms is None:
            perms = self._extent_perms(idx) or PERM_NONE
        return bool(perms & PERM_READ)

    def protect(self, start: int, size: int, perms: int) -> None:
        """Change permissions of an already-mapped page range."""
        if start & PAGE_MASK:
            raise ValueError(f"unaligned protect at 0x{start:08x}")
        first = start >> PAGE_SHIFT
        count = page_align_up(size) >> PAGE_SHIFT
        for idx in range(first, first + count):
            if self._extent_perms(idx) is None:
                raise SegmentationFault(idx << PAGE_SHIFT, PAGE_SIZE, "protect of unmapped page")
            self._perms[idx] = perms

    # ------------------------------------------------------------------
    # Raw byte access
    # ------------------------------------------------------------------
    def _page_for(self, idx: int, write: bool, address: int, size: int) -> bytearray:
        perms = self._perms.get(idx)
        if perms is None:
            perms = self._extent_perms(idx)
            if perms is None:
                raise SegmentationFault(address, size, "write" if write else "read")
        if perms & PERM_GUARD:
            raise GuardPageFault(address, size)
        needed = PERM_WRITE if write else PERM_READ
        if not perms & needed:
            raise SegmentationFault(address, size, "write" if write else "read")
        page = self._pages.get(idx)
        if page is None:
            if self.commit_limit and \
                    (len(self._pages) + 1) * PAGE_SIZE > self.commit_limit:
                raise OutOfMemory(PAGE_SIZE, "enclave commit limit reached")
            page = bytearray(PAGE_SIZE)
            self._pages[idx] = page
            self._perms[idx] = perms
        return page

    def read(self, address: int, size: int) -> bytes:
        """Read ``size`` raw bytes, handling page-boundary crossings."""
        address &= ADDRESS_MASK
        if self.tracer is not None:
            self.tracer(address, size, False)
        offset = address & PAGE_MASK
        idx = address >> PAGE_SHIFT
        if offset + size <= PAGE_SIZE:
            page = self._page_for(idx, False, address, size)
            return bytes(page[offset:offset + size])
        out = bytearray()
        remaining = size
        cursor = address
        while remaining:
            offset = cursor & PAGE_MASK
            chunk = min(PAGE_SIZE - offset, remaining)
            page = self._page_for(cursor >> PAGE_SHIFT, False, cursor, chunk)
            out += page[offset:offset + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        """Write raw bytes, handling page-boundary crossings."""
        address &= ADDRESS_MASK
        size = len(data)
        if self.tracer is not None:
            self.tracer(address, size, True)
        offset = address & PAGE_MASK
        idx = address >> PAGE_SHIFT
        if offset + size <= PAGE_SIZE:
            page = self._page_for(idx, True, address, size)
            page[offset:offset + size] = data
            return
        cursor = address
        taken = 0
        while taken < size:
            offset = cursor & PAGE_MASK
            chunk = min(PAGE_SIZE - offset, size - taken)
            page = self._page_for(cursor >> PAGE_SHIFT, True, cursor, chunk)
            page[offset:offset + chunk] = data[taken:taken + chunk]
            cursor += chunk
            taken += chunk

    # ------------------------------------------------------------------
    # Typed accessors (little-endian, like x86)
    # ------------------------------------------------------------------
    def read_u8(self, address: int) -> int:
        return self.read(address, 1)[0]

    def read_u16(self, address: int) -> int:
        return _U16.unpack(self.read(address, 2))[0]

    def read_u32(self, address: int) -> int:
        return _U32.unpack(self.read(address, 4))[0]

    def read_u64(self, address: int) -> int:
        return _U64.unpack(self.read(address, 8))[0]

    def read_f64(self, address: int) -> float:
        return _F64.unpack(self.read(address, 8))[0]

    def write_u8(self, address: int, value: int) -> None:
        self.write(address, bytes((value & 0xFF,)))

    def write_u16(self, address: int, value: int) -> None:
        self.write(address, _U16.pack(value & 0xFFFF))

    def write_u32(self, address: int, value: int) -> None:
        self.write(address, _U32.pack(value & 0xFFFFFFFF))

    def write_u64(self, address: int, value: int) -> None:
        self.write(address, _U64.pack(value & 0xFFFFFFFFFFFFFFFF))

    def write_f64(self, address: int, value: float) -> None:
        self.write(address, _F64.pack(value))

    def read_uint(self, address: int, size: int) -> int:
        """Read an unsigned little-endian integer of 1, 2, 4 or 8 bytes."""
        if size == 8:
            return self.read_u64(address)
        if size == 4:
            return self.read_u32(address)
        if size == 1:
            return self.read_u8(address)
        if size == 2:
            return self.read_u16(address)
        raise ValueError(f"unsupported access size {size}")

    def write_uint(self, address: int, value: int, size: int) -> None:
        """Write an unsigned little-endian integer of 1, 2, 4 or 8 bytes."""
        if size == 8:
            self.write_u64(address, value)
        elif size == 4:
            self.write_u32(address, value)
        elif size == 1:
            self.write_u8(address, value)
        elif size == 2:
            self.write_u16(address, value)
        else:
            raise ValueError(f"unsupported access size {size}")

    # ------------------------------------------------------------------
    # Bulk helpers (used by libc builtins; traced as single accesses)
    # ------------------------------------------------------------------
    def read_cstring(self, address: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated string (without the terminator)."""
        out = bytearray()
        cursor = address
        while len(out) < limit:
            byte = self.read_u8(cursor)
            if byte == 0:
                return bytes(out)
            out.append(byte)
            cursor += 1
        raise SegmentationFault(address, limit, "unterminated string")

    def fill(self, address: int, value: int, size: int) -> None:
        """memset-style fill."""
        self.write(address, bytes((value & 0xFF,)) * size)

    def stats(self) -> Dict[str, int]:
        """Snapshot of mapping statistics."""
        return {
            "reserved_bytes": self.reserved_bytes,
            "peak_reserved": self.peak_reserved,
            "materialized_pages": len(self._pages),
            "mapped_pages": self.reserved_bytes >> PAGE_SHIFT,
            "regions": len(self.regions),
        }
