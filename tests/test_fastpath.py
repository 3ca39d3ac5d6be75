"""Edge-path coverage for the predecoded interpreter.

The differential oracle (test_vm_differential.py) proves identity in
bulk; this file aims the fast path at the places where predecoding
could plausibly diverge from the reference loop:

* atomics (ATOMICRMW/CMPXCHG) on scheme-tagged pointers — the handler
  must strip tags exactly like the reference's ``& M32``;
* traps raised *inside* fused handlers (division by zero mid-chain,
  bounds violations inside gep+load fusion) — counters at the moment of
  the exception must match the reference instruction for instruction;
* blocking natives (mutex_lock/join returning BLOCK_RETRY) resuming at
  a call that sits mid-basic-block, across tiny scheduler quanta that
  force the undecoded tail loop;
* hoisted preheader checks (passes/loop_hoist.py) interacting with
  bnd/gep fusion;
* the per-function code cache: reuse while identity holds, re-predecode
  when ``fn.code`` is replaced, and fusion-site accounting;
* the inlined memory accessors on a page ``protect`` made read-only.
"""

from __future__ import annotations

import pytest

from repro.core import BoundlessCache, SGXBoundsScheme
from repro.errors import BoundsViolation, SegmentationFault, TrapError
from repro.ir import Function, IRBuilder, Module
from repro.memory import PERM_READ
from repro.memory.layout import PAGE_SIZE
from repro.mpx import MPXScheme
from repro.vm import VM
from repro.vm.fastpath import (
    FUSE_MAX,
    _fast_reader,
    _fast_writer,
    compile_function,
)

from tests.util import build, run_c


def _counters(vm):
    return vm.enclave.finalize().snapshot()


def _run_pair(source, make_scheme=lambda: None, **vm_kwargs):
    """Run one MiniC program on both interpreters; return the two VMs
    plus the two results (``make_scheme`` builds a fresh scheme per run
    — scheme runtimes accumulate violation state)."""
    ref_result, ref_vm = run_c(source, make_scheme(), fastpath=False,
                               **vm_kwargs)
    fast_result, fast_vm = run_c(source, make_scheme(), fastpath=True,
                                 **vm_kwargs)
    assert fast_result == ref_result
    assert fast_vm.output() == ref_vm.output()
    assert _counters(fast_vm) == _counters(ref_vm)
    return ref_vm, fast_vm


# ---------------------------------------------------------------------------
# Atomics on tagged pointers
# ---------------------------------------------------------------------------

def _atomics_module() -> Module:
    """Hand-built IR: MiniC has no atomic surface, so emit it directly."""
    module = Module("atomics")
    fn = Function("main", [])
    b = IRBuilder(fn, fn.block("entry"))
    p = b.call("malloc", [b.k(32)])
    b.store(b.k(100), p, size=8)
    old1 = b.atomicrmw("add", p, b.k(7), size=8)
    old2 = b.atomicrmw("sub", p, b.k(3), size=8)
    old3 = b.atomicrmw("xchg", p, b.k(41), size=8)
    hit = b.cmpxchg(p, b.k(41), b.k(1000), size=8)   # matches -> swaps
    miss = b.cmpxchg(p, b.k(5), b.k(2), size=8)      # stale -> no swap
    q = b.gep(p, b.k(1), scale=4, offset=8)          # 4-byte lane
    narrow = b.atomicrmw("add", q, b.k(9), size=4)
    final = b.load(p, size=8)
    acc = b.add(old1, old2)
    for term in (old3, hit, miss, narrow, final):
        acc = b.add(acc, term)
    b.call("free", [p], want_result=False)
    b.ret(acc)
    module.add_function(fn)
    return module


@pytest.mark.parametrize("scheme_cls", [None, SGXBoundsScheme, MPXScheme])
def test_atomics_identity(scheme_cls):
    results = {}
    for fastpath in (False, True):
        scheme = scheme_cls() if scheme_cls else None
        module = _atomics_module()
        module = scheme.instrument(module) if scheme else module.clone()
        module.finalize()
        vm = VM(scheme=scheme, fastpath=fastpath)
        vm.load(module)
        results[fastpath] = (vm.run("main", ()), _counters(vm))
    assert results[True] == results[False]
    # 100+107+104+41+1000+0+1000 sanity-checks the atomic semantics
    # themselves, not just interpreter agreement.
    assert results[True][0] == 2352


# ---------------------------------------------------------------------------
# Traps inside fused handlers
# ---------------------------------------------------------------------------

def test_divide_by_zero_mid_chain():
    """The LOAD feeding the DIV and the DIV itself sit in one fused
    chain; the trap must surface with reference-identical counters."""
    src = """
    int z;
    int main() {
        int a = 3;
        int b = a + 4;
        return b / z;      // z == 0 at runtime, never constant-folded
    }
    """
    refs = {}
    for fastpath in (False, True):
        module = build(src)
        vm = VM(fastpath=fastpath)
        vm.load(module)
        with pytest.raises(TrapError):
            vm.run("main", ())
        refs[fastpath] = _counters(vm)
    assert refs[True] == refs[False]


def test_violation_inside_gep_load_fusion():
    src = """
    int main() {
        int *p = (int*)malloc(16);
        int i = 2;
        i = i * 4;                 // i == 8: one past the last element
        return p[i];
    }
    """
    contexts = {}
    for fastpath in (False, True):
        scheme = SGXBoundsScheme()
        module = build(src, scheme)
        vm = VM(scheme=scheme, fastpath=fastpath)
        vm.load(module)
        with pytest.raises(BoundsViolation) as err:
            vm.run("main", ())
        contexts[fastpath] = (err.value.context(), _counters(vm))
    assert contexts[True] == contexts[False]


# ---------------------------------------------------------------------------
# Blocking natives and slice boundaries
# ---------------------------------------------------------------------------

_CONTENTION_SRC = """
int lock[1];
int counter;
int worker(int n) {
    for (int i = 0; i < n; i++) {
        mutex_lock(lock);
        counter = counter + 1;
        mutex_unlock(lock);
    }
    return counter;
}
int main() {
    int a = spawn(worker, 25);
    int b = spawn(worker, 25);
    int c = spawn(worker, 25);
    int r = join(a) + join(b) + join(c);
    return counter * 1000 + (r & 511);
}
"""


@pytest.mark.parametrize("quantum", [1, 2, 3, 7, 64])
def test_block_retry_resume_identity(quantum):
    """mutex_lock/join return BLOCK_RETRY and the thread later resumes
    at a CALL that sits mid-basic-block.  Tiny quanta additionally force
    the fast path into its undecoded tail loop (quantum < FUSE_MAX) on
    almost every slice; scheduling order must still match exactly."""
    _run_pair(_CONTENTION_SRC, quantum=quantum)


def test_tail_loop_matches_reference_under_scheme():
    _run_pair(_CONTENTION_SRC, make_scheme=SGXBoundsScheme, quantum=2)


# ---------------------------------------------------------------------------
# Hoisted preheader checks under fusion
# ---------------------------------------------------------------------------

_HOIST_SRC = """
int main() {
    int *a = (int*)malloc(64 * sizeof(int));
    int sum = 0;
    for (int i = 0; i < 64; i++) a[i] = i;
    for (int i = 0; i < 64; i++) sum += a[i];
    free(a);
    return sum & 4095;
}
"""


def test_hoisted_checks_identity():
    """loop_hoist replaces per-iteration checks with one preheader check
    whose bnd/gep sequence is itself fusion bait; both configurations
    must stay reference-identical, and hoisting must demonstrably have
    fired (fewer bounds checks) so the test exercises what it claims."""
    executed = {}
    for hoist in (False, True):
        make = lambda h=hoist: SGXBoundsScheme(optimize_hoist=h)
        ref_vm, fast_vm = _run_pair(_HOIST_SRC, make_scheme=make)
        executed[hoist] = _counters(fast_vm)["instructions"]
    # Hoisting must demonstrably have fired: dropping 2 x 64 in-loop
    # clamp sequences shows up directly in the instruction count.
    assert executed[True] < executed[False]


# ---------------------------------------------------------------------------
# Predecode cache and fusion accounting
# ---------------------------------------------------------------------------

def test_fastcode_cached_and_invalidated():
    module = build("int main() { return 40 + 2; }")
    vm = VM(fastpath=True)
    program = vm.load(module)
    fn = module.functions["main"]
    fc1 = program.fast_for(fn, vm)
    assert program.fast_for(fn, vm) is fc1          # cache hit
    fn.code = list(fn.code)                          # identity change
    fc2 = program.fast_for(fn, vm)
    assert fc2 is not fc1                            # re-predecoded
    assert program.fast_for(fn, vm) is fc2


def test_fusion_sites_recorded():
    scheme = SGXBoundsScheme()
    module = build(_HOIST_SRC, scheme)
    vm = VM(scheme=scheme, fastpath=True)
    vm.load(module)
    fn = module.functions["main"]
    fc = compile_function(vm, fn, fn.consts)
    assert sum(fc.fusion_sites.values()) > 0
    assert fc.fusion_sites.get("cmp_br", 0) > 0      # loop back-edges
    # Fused sites really carry their advertised cost, and no site ever
    # exceeds the dispatch loop's quantum guard.
    assert any(c > 1 for c in fc.costs)
    assert max(fc.costs) <= FUSE_MAX


def test_calls_never_fused():
    """BLOCK_RETRY re-executes the CALL by index: every CALL must keep a
    cost-1 unfused handler even when surrounded by straight-line code."""
    from repro.ir import ops
    module = build("""
    int f(int x) { return x + 1; }
    int main() {
        int a = 1;
        int b = a + 2;
        int c = f(b);
        int d = c + 3;
        return d;
    }
    """)
    vm = VM(fastpath=True)
    vm.load(module)
    fn = module.functions["main"]
    fc = compile_function(vm, fn, fn.consts)
    for i, ins in enumerate(fn.code):
        if ins.op == ops.CALL:
            assert fc.costs[i] == 1
            assert fc.handlers[i] is fc.plain[i]


# ---------------------------------------------------------------------------
# Pages whose perms protect() changed (the boundless zero page)
# ---------------------------------------------------------------------------

def _read_only_zero_page(materialized_first):
    """The boundless overlay's shared zero page, made read-only by
    ``protect`` before it is materialized (as ``zero_page`` does) or
    after a write has materialized it."""
    vm = VM(scheme=SGXBoundsScheme(boundless=True))
    if not materialized_first:
        return vm, BoundlessCache().zero_page(vm)
    page = vm.enclave.heap.mmap.alloc(PAGE_SIZE, "boundless-zero")
    vm.space.write_u32(page, 0)
    vm.space.protect(page, PAGE_SIZE, PERM_READ)
    return vm, page


@pytest.mark.parametrize("materialized_first", [False, True])
def test_protected_zero_page_reads_fast_and_faults_on_write(
        materialized_first):
    vm, page = _read_only_zero_page(materialized_first)
    space = vm.space
    slow_reads, slow_writes = [], []
    read_uint, write_uint = space.read_uint, space.write_uint
    space.read_uint = lambda a, s: slow_reads.append(a) or read_uint(a, s)
    space.write_uint = \
        lambda a, v, s: slow_writes.append(a) or write_uint(a, v, s)
    rd, wr = _fast_reader(space, 4), _fast_writer(space, 4)

    # An untouched page takes the slow path once, which materializes it
    # and caches its perms; from then on the fast reader serves it.
    assert rd(page + 16) == 0
    assert slow_reads == ([] if materialized_first else [page + 16])
    assert rd(page + 32) == 0
    assert len(slow_reads) == (0 if materialized_first else 1)

    with pytest.raises(SegmentationFault) as fast:
        wr(page + 16, 7)
    assert slow_writes == [page + 16]
    with pytest.raises(SegmentationFault) as slow:
        write_uint(page + 16, 7, 4)
    assert (type(fast.value), fast.value.address, str(fast.value)) \
        == (type(slow.value), slow.value.address, str(slow.value))
    assert rd(page + 16) == 0
