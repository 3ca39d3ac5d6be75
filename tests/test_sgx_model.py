"""Unit tests for the SGX cost model: caches, EPC, cycle accounting."""

import random

import pytest

from repro.memory.layout import PAGE_SHIFT
from repro.sgx import (
    Cache,
    CacheHierarchy,
    CostModel,
    EPC,
    Enclave,
    EnclaveConfig,
    LINE_SIZE,
    PerfCounters,
)


class TestCache:
    def test_miss_then_hit(self):
        cache = Cache(1024, associativity=2)
        assert cache.access(5) is False
        assert cache.access(5) is True

    def test_lru_eviction_within_set(self):
        cache = Cache(2 * LINE_SIZE, associativity=2)   # one set, 2 ways
        assert cache.sets == 1
        cache.access(1)
        cache.access(2)
        cache.access(3)          # evicts 1 (LRU)
        assert cache.access(2) is True
        assert cache.access(1) is False

    def test_lru_refresh(self):
        cache = Cache(2 * LINE_SIZE, associativity=2)
        cache.access(1)
        cache.access(2)
        cache.access(1)          # refresh 1
        cache.access(3)          # evicts 2, not 1
        assert cache.access(1) is True
        assert cache.access(2) is False

    def test_flush(self):
        cache = Cache(1024)
        cache.access(7)
        cache.flush()
        assert cache.access(7) is False


class TestHierarchy:
    def test_depths(self):
        h = CacheHierarchy(l1_bytes=LINE_SIZE, llc_bytes=64 * LINE_SIZE,
                           l1_assoc=1)
        c = PerfCounters()
        assert h.access(0, 8, c) == 2           # cold: memory
        assert h.access(0, 8, c) == 0           # L1 hit
        h.access(LINE_SIZE * 100, 8, c)         # evict L1 (same set)
        depth = h.access(0, 8, c)
        assert depth == 1                        # back from LLC

    def test_line_straddle_counts_both_lines(self):
        h = CacheHierarchy(4096, 65536)
        c = PerfCounters()
        h.access(LINE_SIZE - 4, 8, c)
        assert c.l1_accesses == 2


class TestEPC:
    def test_fault_then_resident(self):
        epc = EPC(4 * 4096)
        assert epc.touch(1) is True
        assert epc.touch(1) is False
        assert epc.faults == 1

    def test_eviction_at_capacity(self):
        epc = EPC(2 * 4096)
        epc.touch(1)
        epc.touch(2)
        epc.touch(3)                      # evicts 1
        assert epc.evictions == 1
        assert epc.touch(1) is True       # refault

    def test_lru_order(self):
        epc = EPC(2 * 4096)
        epc.touch(1)
        epc.touch(2)
        epc.touch(1)      # refresh
        epc.touch(3)      # evicts 2
        assert epc.touch(1) is False
        assert epc.touch(2) is True

    def test_sequential_faults_once_per_page(self):
        """Streaming touches each page once — the matrixmul pattern."""
        epc = EPC(8 * 4096)
        for page in range(100):
            epc.touch(page)
        assert epc.faults == 100
        assert epc.evictions == 100 - epc.capacity_pages


class TestEnclave:
    def test_traced_store_reaches_counters(self):
        enclave = Enclave()
        p = enclave.heap.malloc(64)
        enclave.space.write_u64(p, 1)
        assert enclave.counters.stores >= 1
        assert enclave.counters.l1_accesses >= 1

    def test_epc_faults_cost_cycles(self):
        small = Enclave(EnclaveConfig(epc_bytes=16 * 4096,
                                      llc_bytes=8 * LINE_SIZE,
                                      l1_bytes=2 * LINE_SIZE))
        big = Enclave(EnclaveConfig(epc_bytes=1 << 24,
                                    llc_bytes=8 * LINE_SIZE,
                                    l1_bytes=2 * LINE_SIZE))
        for enclave in (small, big):
            p = enclave.heap.mmap.alloc(1 << 20)
            for _ in range(3):   # re-walk to cause refaults in the small EPC
                for off in range(0, 1 << 20, 4096):
                    enclave.space.write_u32(p + off, off)
        assert small.counters.epc_faults > big.counters.epc_faults
        assert small.cycles() > big.cycles()

    def test_outside_sgx_has_no_epc(self):
        enclave = Enclave(EnclaveConfig().outside_sgx())
        assert enclave.epc is None
        p = enclave.heap.malloc(64)
        enclave.space.write_u64(p, 1)
        assert enclave.counters.epc_faults == 0

    def test_mee_cost_only_inside_enclave(self):
        cost = CostModel()
        counters = PerfCounters(llc_misses=10, l1_misses=10, l1_accesses=10,
                                loads=10)
        inside = cost.cycles_for(counters, enclave=True)
        outside = cost.cycles_for(counters, enclave=False)
        assert inside - outside == 10 * cost.mee_decrypt

    def test_guard_page_mapped(self):
        from repro.errors import GuardPageFault
        from repro.memory.layout import GUARD_PAGE_BASE
        enclave = Enclave()
        with pytest.raises(GuardPageFault):
            enclave.space.read_u8(GUARD_PAGE_BASE)

    def test_memory_report_keys(self):
        enclave = Enclave()
        report = enclave.memory_report()
        assert "peak_reserved_bytes" in report
        assert "epc_capacity_pages" in report

    def test_counters_snapshot_and_add(self):
        a = PerfCounters(instructions=5)
        b = PerfCounters(instructions=3, loads=1)
        a.add(b)
        assert a.instructions == 8
        assert a.snapshot()["loads"] == 1
        a.reset()
        assert a.instructions == 0


class _ReferenceMachine:
    """The enclave's accounting spelled out step by step, as in
    ``Enclave._trace``: every access through both cache levels, then the
    EPC on a memory access."""

    def __init__(self, config: EnclaveConfig):
        self.caches = CacheHierarchy(config.l1_bytes, config.llc_bytes)
        self.epc = EPC(config.epc_bytes)
        self.counters = PerfCounters()

    def trace(self, address: int, size: int, is_write: bool) -> None:
        counters = self.counters
        if is_write:
            counters.stores += 1
        else:
            counters.loads += 1
        if self.caches.access(address, size, counters) == 2:
            counters.mee_decrypts += 1
            if self.epc.touch(address >> PAGE_SHIFT):
                counters.epc_faults += 1


class _CountingObserver:
    epc_faults = 0

    def epc_fault(self, page, instructions, resident):
        self.epc_faults += 1

    def epc_flush(self, evicted):
        pass


def _cache_state(cache: Cache):
    return {index: list(ways) for index, ways in cache._data.items()}


class TestL1HitTracer:
    """The installed trace hook charges L1 hits inline; every stream must
    leave the same counters and LRU state as the reference model."""

    CONFIG = EnclaveConfig(l1_bytes=16 * LINE_SIZE, llc_bytes=64 * LINE_SIZE,
                           epc_bytes=4 * 4096)

    @pytest.mark.parametrize("observed", [False, True, "hook-taken-first"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_streams_match_reference(self, seed, observed):
        rng = random.Random(seed)
        enclave = Enclave(self.CONFIG)
        observer = _CountingObserver()
        # "hook-taken-first": a VM holds the trace hook from before
        # attach(); that hook must still report EPC faults.
        trace = enclave.space.tracer
        if observed:
            enclave.attach(observer)
        if observed is True:
            trace = enclave.space.tracer
        reference = _ReferenceMachine(self.CONFIG)
        sets = enclave.caches.l1.sets
        # Lines that share an L1 set (and a few LLC sets) so that
        # evictions and re-appends happen often, spread over 8 pages.
        lines = [rng.randrange(sets) + k * sets for k in range(12)] \
            + [rng.randrange(512) for _ in range(20)]
        for _ in range(4000):
            roll = rng.random()
            if roll < 0.02:
                enclave.caches.flush()
                reference.caches.flush()
                continue
            if roll < 0.03:
                enclave.epc.flush()
                reference.epc.flush()
                continue
            address = rng.choice(lines) * LINE_SIZE + rng.randrange(LINE_SIZE)
            size = rng.choice((1, 2, 4, 8, 16))
            is_write = rng.random() < 0.4
            trace(address, size, is_write)
            reference.trace(address, size, is_write)
        assert enclave.counters == reference.counters
        assert enclave.counters.l1_accesses > enclave.counters.l1_misses > 0
        assert _cache_state(enclave.caches.l1) \
            == _cache_state(reference.caches.l1)
        assert _cache_state(enclave.caches.llc) \
            == _cache_state(reference.caches.llc)
        assert list(enclave.epc._resident) == list(reference.epc._resident)
        if observed:
            assert observer.epc_faults == enclave.counters.epc_faults > 0
