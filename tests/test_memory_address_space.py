"""Unit tests for the paged 32-bit address space."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asan import ASanScheme
from repro.baggy import BaggyScheme
from repro.errors import (
    GuardPageFault,
    OutOfMemory,
    ReproError,
    SegmentationFault,
)
from repro.memory import (
    AddressSpace,
    PERM_GUARD,
    PERM_NONE,
    PERM_READ,
    PERM_RW,
    PERM_WRITE,
    Region,
    layout,
)
from repro.memory.layout import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from tests.util import run_c


@pytest.fixture
def space():
    return AddressSpace()


class TestMapping:
    def test_map_and_rw(self, space):
        space.map(0x10000, 0x2000)
        space.write(0x10010, b"hello")
        assert space.read(0x10010, 5) == b"hello"

    def test_unmapped_read_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.read(0x50000, 1)

    def test_unmapped_write_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.write(0x50000, b"x")

    def test_map_rounds_to_pages(self, space):
        region = space.map(0x10000, 100)
        assert region.size == layout.PAGE_SIZE

    def test_unaligned_map_rejected(self, space):
        with pytest.raises(ValueError):
            space.map(0x10001, 0x1000)

    def test_double_map_rejected(self, space):
        space.map(0x10000, 0x1000)
        with pytest.raises(OutOfMemory):
            space.map(0x10000, 0x1000)

    def test_unmap_releases(self, space):
        space.map(0x10000, 0x1000)
        space.unmap(0x10000, 0x1000)
        with pytest.raises(SegmentationFault):
            space.read(0x10000, 1)

    def test_unmap_unmapped_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.unmap(0x10000, 0x1000)

    def test_reserved_accounting(self, space):
        space.map(0x10000, 0x3000)
        assert space.reserved_bytes == 0x3000
        space.unmap(0x10000, 0x3000)
        assert space.reserved_bytes == 0
        assert space.peak_reserved == 0x3000

    def test_beyond_32bit_rejected(self, space):
        with pytest.raises(OutOfMemory):
            space.map(0xFFFFF000, 0x2000)


class TestPermissions:
    def test_readonly_write_faults(self, space):
        space.map(0x10000, 0x1000, PERM_READ)
        assert space.read(0x10000, 4) == b"\x00" * 4
        with pytest.raises(SegmentationFault):
            space.write(0x10000, b"x")

    def test_guard_page_faults_both_ways(self, space):
        space.map(0x10000, 0x1000, PERM_GUARD)
        with pytest.raises(GuardPageFault):
            space.read(0x10000, 1)
        with pytest.raises(GuardPageFault):
            space.write(0x10000, b"x")

    def test_guard_counts_as_mapped(self, space):
        space.map(0x10000, 0x1000, PERM_GUARD)
        assert space.is_mapped(0x10000)
        assert not space.is_accessible(0x10000)

    def test_protect_changes_perms(self, space):
        space.map(0x10000, 0x1000, PERM_RW)
        space.protect(0x10000, 0x1000, PERM_READ)
        with pytest.raises(SegmentationFault):
            space.write(0x10000, b"x")

    def test_unaligned_protect_rejected(self, space):
        # Rounding the start down would leave the range's last page
        # (0x11000..0x117FF here) with its old perms.
        space.map(0x10000, 0x2000, PERM_RW)
        with pytest.raises(ValueError, match="unaligned protect"):
            space.protect(0x10800, 0x1000, PERM_READ)
        space.write(0x10000, b"x")
        space.write(0x11000, b"x")

    def test_protect_changes_pages_before_gap_then_faults(self, space):
        space.map(0x10000, 0x1000, PERM_RW)
        space.map(0x12000, 0x1000, PERM_RW)
        with pytest.raises(SegmentationFault) as exc:
            space.protect(0x10000, 0x3000, PERM_READ)
        assert exc.value.address == 0x11000
        assert "protect of unmapped page" in str(exc.value)
        with pytest.raises(SegmentationFault):
            space.write(0x10000, b"x")
        space.write(0x12000, b"x")


class TestExtents:
    def test_double_map_names_lowest_overlapping_page(self, space):
        space.map(0x13000, 0x2000)
        with pytest.raises(OutOfMemory, match="page 0x00013000 already"):
            space.map(0x10000, 0x8000)
        with pytest.raises(OutOfMemory, match="page 0x00014000 already"):
            space.map(0x14000, 0x1000)

    def test_unmap_faults_at_first_gap(self, space):
        space.map(0x10000, 0x2000)
        space.map(0x13000, 0x1000)
        with pytest.raises(SegmentationFault, match="unmap of unmapped") \
                as exc:
            space.unmap(0x10000, 0x5000)
        assert exc.value.address == 0x12000
        assert space.is_mapped(0x10000)     # nothing was unmapped

    def test_unmap_across_adjacent_maps_and_split(self, space):
        space.map(0x10000, 0x2000)
        space.map(0x12000, 0x2000, PERM_READ)
        space.write(0x10000, b"a")
        space.unmap(0x11000, 0x2000)
        assert [space.is_mapped(a) for a in range(0x10000, 0x14000, 0x1000)] \
            == [True, False, False, True]
        assert space.read(0x10000, 1) == b"a"
        assert not space.is_accessible(0x11000)
        assert space.is_accessible(0x13000)
        with pytest.raises(SegmentationFault):
            space.write(0x13000, b"x")
        assert space.stats()["mapped_pages"] == 2
        space.map(0x11000, 0x2000)          # the hole is reusable

    @pytest.mark.parametrize("make_scheme, mapped_pages",
                             [(ASanScheme, 131137), (BaggyScheme, 67649)])
    def test_boot_keeps_per_page_store_small(self, make_scheme,
                                             mapped_pages):
        """Regression guard by count, not time: booting a VM reserves the
        512 MiB ASan shadow (or the Baggy table) as extents, so the
        per-page perms store holds only the pages actually touched."""
        _, vm = run_c("int main() { int a[4]; a[1] = 3; return a[1]; }",
                      make_scheme())
        space = vm.space
        stats = space.stats()
        assert stats["mapped_pages"] == mapped_pages
        # No protect() ran, so every entry is a materialized page.
        assert set(space._perms) == set(space._pages)
        assert len(space._perms) == stats["materialized_pages"] < 16


class TestTypedAccess:
    def test_u8_u16_u32_u64_roundtrip(self, space):
        space.map(0x10000, 0x1000)
        space.write_u8(0x10000, 0xAB)
        space.write_u16(0x10010, 0xBEEF)
        space.write_u32(0x10020, 0xDEADBEEF)
        space.write_u64(0x10030, 0x0123456789ABCDEF)
        assert space.read_u8(0x10000) == 0xAB
        assert space.read_u16(0x10010) == 0xBEEF
        assert space.read_u32(0x10020) == 0xDEADBEEF
        assert space.read_u64(0x10030) == 0x0123456789ABCDEF

    def test_f64_roundtrip(self, space):
        space.map(0x10000, 0x1000)
        space.write_f64(0x10008, -2.5e10)
        assert space.read_f64(0x10008) == -2.5e10

    def test_little_endian(self, space):
        space.map(0x10000, 0x1000)
        space.write_u32(0x10000, 0x11223344)
        assert space.read(0x10000, 4) == b"\x44\x33\x22\x11"

    def test_values_masked_to_width(self, space):
        space.map(0x10000, 0x1000)
        space.write_u8(0x10000, 0x1FF)
        assert space.read_u8(0x10000) == 0xFF

    def test_cross_page_access(self, space):
        space.map(0x10000, 0x2000)
        space.write_u64(0x10FFC, 0x1122334455667788)
        assert space.read_u64(0x10FFC) == 0x1122334455667788

    def test_cross_page_into_unmapped_faults(self, space):
        space.map(0x10000, 0x1000)
        with pytest.raises(SegmentationFault):
            space.write_u64(0x10FFC, 1)

    def test_cstring(self, space):
        space.map(0x10000, 0x1000)
        space.write(0x10000, b"hello\x00world")
        assert space.read_cstring(0x10000) == b"hello"

    def test_fill(self, space):
        space.map(0x10000, 0x1000)
        space.fill(0x10000, 0x5A, 64)
        assert space.read(0x10000, 64) == b"\x5A" * 64


class TestTracerAndCommit:
    def test_tracer_sees_accesses(self, space):
        events = []
        space.map(0x10000, 0x1000)
        space.tracer = lambda a, s, w: events.append((a, s, w))
        space.write_u32(0x10000, 1)
        space.read_u32(0x10000)
        assert events == [(0x10000, 4, True), (0x10000, 4, False)]

    def test_commit_limit_enforced(self):
        space = AddressSpace(commit_limit=2 * layout.PAGE_SIZE)
        space.map(0x10000, 0x4000)
        space.write_u8(0x10000, 1)
        space.write_u8(0x11000, 1)
        with pytest.raises(OutOfMemory):
            space.write_u8(0x12000, 1)

    def test_commit_limit_counts_materialized_not_reserved(self):
        space = AddressSpace(commit_limit=2 * layout.PAGE_SIZE)
        space.map(0x10000, 0x100000)   # large reservation is fine
        space.write_u8(0x10000, 1)     # only materialization counts


# ---------------------------------------------------------------------------
# Model-based check against a per-page reference
# ---------------------------------------------------------------------------

class PageModel:
    """One dict entry per mapped page: the layout AddressSpace had before
    it kept mappings as extents, and the oracle for the extent store."""

    def __init__(self, commit_limit):
        self.perms, self.pages, self.regions = {}, {}, []
        self.reserved = self.peak = 0
        self.commit_limit = commit_limit

    def map(self, start, size, perms):
        if start & PAGE_MASK:
            raise ValueError(f"unaligned mapping at 0x{start:08x}")
        size = layout.page_align_up(size)
        if size <= 0:
            raise ValueError("mapping size must be positive")
        idxs = range(start >> PAGE_SHIFT, (start + size) >> PAGE_SHIFT)
        for idx in idxs:
            if idx in self.perms:
                raise OutOfMemory(size, f"page 0x{idx << PAGE_SHIFT:08x} already mapped")
        self.perms.update(dict.fromkeys(idxs, perms))
        self.regions.append((start, start + size))
        self.reserved += size
        self.peak = max(self.peak, self.reserved)
        return start, size, perms

    def unmap(self, start, size):
        if start & PAGE_MASK:
            raise ValueError(f"unaligned unmap at 0x{start:08x}")
        size = layout.page_align_up(size)
        idxs = range(start >> PAGE_SHIFT, (start + size) >> PAGE_SHIFT)
        for idx in idxs:
            if idx not in self.perms:
                raise SegmentationFault(idx << PAGE_SHIFT, PAGE_SIZE, "unmap of unmapped page")
        for idx in idxs:
            del self.perms[idx]
            self.pages.pop(idx, None)
        self.reserved -= size
        self.regions = [r for r in self.regions
                        if not (r[0] >= start and r[1] <= start + size)]

    def protect(self, start, size, perms):
        if start & PAGE_MASK:
            raise ValueError(f"unaligned protect at 0x{start:08x}")
        first = start >> PAGE_SHIFT
        for idx in range(first, first + (layout.page_align_up(size) >> PAGE_SHIFT)):
            if idx not in self.perms:
                raise SegmentationFault(idx << PAGE_SHIFT, PAGE_SIZE, "protect of unmapped page")
            self.perms[idx] = perms

    def _access(self, address, size, data=None):
        kind, out, done = ("read" if data is None else "write"), bytearray(), 0
        while done < size:
            cursor = address + done
            idx, offset = cursor >> PAGE_SHIFT, cursor & PAGE_MASK
            chunk = min(PAGE_SIZE - offset, size - done)
            perms = self.perms.get(idx)
            if perms is None:
                raise SegmentationFault(cursor, chunk, kind)
            if perms & PERM_GUARD:
                raise GuardPageFault(cursor, chunk)
            if not perms & (PERM_READ if data is None else PERM_WRITE):
                raise SegmentationFault(cursor, chunk, kind)
            if idx not in self.pages:
                if self.commit_limit and (len(self.pages) + 1) * PAGE_SIZE > self.commit_limit:
                    raise OutOfMemory(PAGE_SIZE, "enclave commit limit reached")
                self.pages[idx] = bytearray(PAGE_SIZE)
            page = self.pages[idx]
            if data is None:
                out += page[offset:offset + chunk]
            else:
                page[offset:offset + chunk] = data[done:done + chunk]
            done += chunk
        return bytes(out) if data is None else None

    def read(self, address, size):
        return self._access(address, size)

    def write(self, address, data):
        return self._access(address, len(data), data)

    def is_mapped(self, address):
        return (address >> PAGE_SHIFT) in self.perms

    def is_accessible(self, address):
        return bool(self.perms.get(address >> PAGE_SHIFT, PERM_NONE) & PERM_READ)

    def stats(self):
        return {"reserved_bytes": self.reserved, "peak_reserved": self.peak,
                "materialized_pages": len(self.pages),
                "mapped_pages": len(self.perms), "regions": len(self.regions)}


#: A 16-page window, so random maps overlap, leave gaps and abut.
_PAGE = st.integers(0x10, 0x1F)
_START = st.builds(lambda page, off: (page << PAGE_SHIFT) | off,
                   _PAGE, st.sampled_from([0] * 7 + [0x800]))
_SPAN = st.builds(lambda pages, slack: max(0, pages * PAGE_SIZE - slack),
                  st.integers(0, 8), st.sampled_from([0, 0, 1, 0x7FF]))
_PERMS = st.sampled_from([PERM_RW, PERM_RW, PERM_READ, PERM_NONE,
                          PERM_GUARD])
_ADDR = st.builds(lambda page, off: (page << PAGE_SHIFT) + off, _PAGE,
                  st.sampled_from([0, 1, 0x800, 0xFF8, 0xFFC, 0xFFF]))
_SIZE = st.sampled_from([1, 2, 4, 8, 16, PAGE_SIZE, 0x1801])
_DATA = st.builds(lambda n, b: bytes((b + i) & 0xFF for i in range(n)),
                  _SIZE, st.integers(0, 255))
_MAP = st.tuples(st.just("map"), _START, _SPAN, _PERMS)
_READ = st.tuples(st.just("read"), _ADDR, _SIZE)
_WRITE = st.tuples(st.just("write"), _ADDR, _DATA)
_OPS = st.builds(list.__add__, st.lists(_MAP, min_size=2, max_size=5),
                 st.lists(st.one_of(
                     _MAP, _READ, _READ, _READ, _WRITE, _WRITE, _WRITE,
                     st.tuples(st.just("unmap"), _START, _SPAN),
                     st.tuples(st.just("protect"), _START, _SPAN, _PERMS),
                     st.tuples(st.just("is_mapped"), _ADDR),
                     st.tuples(st.just("is_accessible"), _ADDR),
                 ), min_size=10, max_size=40))


def _outcome(target, op, args):
    try:
        result = getattr(target, op)(*args)
    except (ReproError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, Region):
        result = result.start, result.size, result.perms
    return "ok", result


@given(_OPS, st.sampled_from([0, PAGE_SIZE, 3 * PAGE_SIZE]))
@settings(max_examples=200, deadline=None)
def test_matches_per_page_model(ops, commit_limit):
    space = AddressSpace(commit_limit=commit_limit)
    model = PageModel(commit_limit)
    for op, *args in ops:
        assert _outcome(space, op, args) == _outcome(model, op, args), op
        assert space.stats() == model.stats()
        # The fast-path invariant: a per-page entry is a mapped page's
        # current perms, and every materialized page has one.
        assert all(model.perms.get(idx) == perms
                   for idx, perms in space._perms.items())
        assert set(space._pages) <= set(space._perms)
    for idx in range(0x10, 0x20):
        address = idx << PAGE_SHIFT
        assert space.is_mapped(address) == model.is_mapped(address)
        if idx in model.pages:
            assert bytes(space._pages[idx]) == bytes(model.pages[idx])
