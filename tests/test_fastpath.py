"""Edge-path coverage for the interpreter's two tiers.

The differential oracle (test_vm_differential.py) proves identity in
bulk; this file aims the block tier at the places where compiling a run
of instructions into one function could plausibly diverge from the
per-instruction tier:

* atomics (ATOMICRMW/CMPXCHG) on scheme-tagged pointers -- the handler
  must strip tags exactly like ``& M32``;
* a trap, a segfault and an MPX violation at instruction k of a compiled
  block -- the deferred instruction charge must be flushed so counters
  at the moment of the exception match instruction for instruction;
* blocking natives (mutex_lock/join returning BLOCK_RETRY) resuming at
  a call, and scheduler quanta shorter than a block;
* tier-up while threads are mid-slice, the content-keyed code cache
  shared by two VMs, and its bound;
* hoisted preheader checks (passes/loop_hoist.py);
* the per-function code cache: reuse while identity holds, re-predecode
  when ``fn.code`` is replaced;
* the memory accessors on a page ``protect`` made read-only.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.core import BoundlessCache, SGXBoundsScheme
from repro.errors import BoundsViolation, SegmentationFault, TrapError
from repro.ir import Function, IRBuilder, Module, ops
from repro.memory import PERM_READ
from repro.memory.layout import PAGE_SIZE
from repro.mpx import MPXScheme
from repro.telemetry import Telemetry
from repro.vm import VM, fastpath, policy
from repro.vm.fastpath import _fast_reader, _fast_writer

from tests.genprog import corpus
from tests.util import build, run_c


@pytest.fixture
def hot1(monkeypatch):
    """Compile every run the first time its head is dispatched."""
    monkeypatch.setattr(fastpath, "HOT", 1)


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
# Faults inside compiled blocks
# ---------------------------------------------------------------------------

def test_divide_by_zero_mid_chain():
    """The LOAD feeding the DIV and the DIV itself sit in one straight
    run; the trap must surface with per-instruction-identical counters."""
    src = """
    int z;
    int main() {
        int a = 3;
        int b = a + 4;
        return b / z;      // z == 0 at runtime, never constant-folded
    }
    """
    refs = {}
    for fastpath_on in (False, True):
        module = build(src)
        vm = VM(fastpath=fastpath_on)
        vm.load(module)
        with pytest.raises(TrapError):
            vm.run("main", ())
        refs[fastpath_on] = _counters(vm)
    assert refs[True] == refs[False]


#: Loop iterations, and the iteration whose access faults (the loop body
#: has compiled and run as a block several times by then).
_ITERS, _FAULT_AT = 12, 8


def _fault_module(kind: str, k: int) -> Module:
    """``main`` loops ``_ITERS`` times over one straight-line body whose
    instruction k (after k filler adds) faults on iteration ``_FAULT_AT``:
    a division by zero, a load from an unmapped page, or an MPX upper
    bound check one element past a 64-byte object."""
    module = Module(f"fault-{kind}-{k}")
    fn = Function("main", [])
    b = IRBuilder(fn, fn.block("entry"))
    p = b.call("malloc", [b.k(64)])
    key = b.reg("bnd")
    b.bndmk(key, p, b.k(64))
    i = b.mov(b.k(0))
    acc = b.mov(b.k(0))
    b.jmp("loop")
    b.blk = fn.block("loop")
    for _ in range(k):
        b.add(acc, b.k(1), dest=acc)
    if kind == "trap":
        b.add(acc, b.binop(ops.SDIV, b.k(100), b.sub(b.k(_FAULT_AT), i)),
              dest=acc)
    elif kind == "segfault":
        hit = b.cmp(ops.EQ, i, b.k(_FAULT_AT))
        b.add(acc, b.load(b.select(hit, b.k(8), p)), dest=acc)
    else:
        q = b.gep(p, i, scale=8, offset=0)
        b.bndcl(key, q)
        b.bndcu(key, q, size=8)
        b.store(i, p)
    b.add(acc, i, dest=acc)
    b.add(i, b.k(1), dest=i)
    b.br(b.cmp(ops.SLT, i, b.k(_ITERS)), "loop", "exit")
    b.blk = fn.block("exit")
    b.ret(acc)
    module.add_function(fn)
    return module.finalize()


def _fault_outcome(kind, k, pol, fastpath_on):
    scheme = MPXScheme(policy=pol)
    vm = VM(scheme=scheme, fastpath=fastpath_on)
    vm.load(_fault_module(kind, k))
    try:
        outcome = ("exit", vm.run("main", ()))
    except (TrapError, SegmentationFault, BoundsViolation) as err:
        outcome = (type(err).__name__, str(err))
    return vm, (outcome, _counters(vm), scheme.violation_log)


@pytest.mark.parametrize("pol", [policy.ABORT, policy.BOUNDLESS])
@pytest.mark.parametrize("k", [0, 1, 4])
@pytest.mark.parametrize("kind", ["trap", "segfault", "mpx"])
def test_fault_inside_compiled_block(hot1, kind, k, pol):
    _, reference = _fault_outcome(kind, k, pol, fastpath_on=False)
    vm, compiled = _fault_outcome(kind, k, pol, fastpath_on=True)
    assert compiled == reference
    # The loop body really ran as a compiled block at the fault.
    fn = vm.program.functions["main"]
    head = fn.block_index["loop"]
    assert vm.program.fast_for(fn, vm).costs[head] > k + 1
    outcome = reference[0]
    if kind == "mpx" and pol == policy.BOUNDLESS:
        assert outcome[0] == "exit" and reference[2]
    else:
        assert outcome[0] != "exit"


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
def test_block_retry_resume_identity(monkeypatch, quantum):
    """mutex_lock/join return BLOCK_RETRY and the thread later resumes
    at a CALL that sits mid-basic-block.  Tiny quanta additionally leave
    too little of the slice for most blocks, so the dispatcher finishes
    almost every slice per instruction; scheduling order must still
    match exactly, at the default HOT and with every run compiled."""
    _run_pair(_CONTENTION_SRC, quantum=quantum)
    monkeypatch.setattr(fastpath, "HOT", 1)
    _run_pair(_CONTENTION_SRC, quantum=quantum)


#: Two threads whose loop bodies are one long straight run each, both
#: updating one shared global: the output depends on exactly where every
#: slice ends.
_LONG_BLOCK_SRC = """
int shared;
int worker(int seed) {
    int x = seed;
    for (int i = 0; i < 30; i++) {
        x = x * 3 + 1; x = x ^ (x >> 3); x = x + i; x = x & 65535;
        x = x * 5 + 7; x = x ^ (x >> 2); x = x - i; x = x & 65535;
        shared = shared * 31 + x;
        shared = shared & 1048575;
    }
    return x;
}
int main() {
    int a = spawn(worker, 17);
    int b = spawn(worker, 4242);
    int r = join(a) + join(b);
    printf("%d %d\\n", shared, r);
    return shared & 255;
}
"""


@pytest.mark.parametrize("quantum", [1, 2, 3, 7, 64])
def test_quantum_shorter_than_block(hot1, quantum):
    """Blocks longer than the quantum never run whole inside a slice
    too short for them; the slice ends on the same instruction as in the
    per-instruction tier."""
    _, fast_vm = _run_pair(_LONG_BLOCK_SRC, quantum=quantum)
    fn = fast_vm.program.functions["worker"]
    costs = fast_vm.program.fast_for(fn, fast_vm).costs
    assert max(costs) > 7


def test_tier_up_mid_run(monkeypatch):
    """Runs reach HOT while other threads are mid-slice; the tally shows
    blocks ran, and everything matches the per-instruction tier."""
    monkeypatch.setattr(fastpath, "HOT", 5)
    telemetry = Telemetry(max_events=0)
    _, fast_vm = _run_pair(_CONTENTION_SRC, quantum=7, telemetry=telemetry)
    assert fast_vm.fastpath_stats["block"] > 0


def test_tail_loop_matches_reference_under_scheme():
    _run_pair(_CONTENTION_SRC, make_scheme=SGXBoundsScheme, quantum=2)


# ---------------------------------------------------------------------------
# Hoisted preheader checks
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
    """loop_hoist replaces per-iteration checks with one preheader check;
    both configurations must stay identical across the tiers, and
    hoisting must demonstrably have fired (fewer instructions) so the
    test exercises what it claims."""
    executed = {}
    for hoist in (False, True):
        make = lambda h=hoist: SGXBoundsScheme(optimize_hoist=h)
        ref_vm, fast_vm = _run_pair(_HOIST_SRC, make_scheme=make)
        executed[hoist] = _counters(fast_vm)["instructions"]
    # Hoisting must demonstrably have fired: dropping 2 x 64 in-loop
    # clamp sequences shows up directly in the instruction count.
    assert executed[True] < executed[False]


# ---------------------------------------------------------------------------
# Predecode cache, run boundaries and the shared block cache
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


def test_calls_never_fused(hot1):
    """BLOCK_RETRY re-executes the CALL by index: with every run
    compiled, no block contains a CALL, RET or TRAP, every block starts
    at a block start or right after a call, and every CALL keeps its
    cost-1 per-instruction handler."""
    scheme = SGXBoundsScheme()
    module = build(_HOIST_SRC + """
    int f(int x) { return x + 1; }
    int g() {
        int a = 1;
        int b = a + 2;
        int c = f(b);
        int d = c + 3;
        return d;
    }
    """, scheme)
    vm = VM(scheme=scheme, fastpath=True)
    vm.load(module)
    vm.run("main", ())
    vm.run("g", ())
    blocks = 0
    for fn in module.functions.values():
        fc = vm.program.fast_for(fn, vm)
        resume = {i + 1 for i, ins in enumerate(fn.code) if ins.op == ops.CALL}
        for start, cost in enumerate(fc.costs):
            if cost > 1:
                blocks += 1
                assert start in fn.block_starts or start in resume
                body = fn.code[start:start + cost]
                assert not {ins.op for ins in body} \
                    & {ops.CALL, ops.RET, ops.TRAP}
                assert all(ins.op not in (ops.BR, ops.JMP)
                           for ins in body[:-1])
        for i, ins in enumerate(fn.code):
            if ins.op == ops.CALL:
                assert fc.costs[i] == 1
                assert fc.handlers[i] is fc.plain[i]
    assert blocks > 0


_SHARED_SRC = """
int table[64];
int main(int n) {
    int acc = n;
    for (int i = 0; i < 200; i++) {
        table[i & 63] = table[(i * 7) & 63] + acc;
        acc = (acc * 13 + i) & 65535;
    }
    printf("%d\\n", acc);
    return acc & 255;
}
"""


def _solo(n):
    result, vm = run_c(_SHARED_SRC, fastpath=False, args=(n,))
    return result, vm.output(), _counters(vm)


def test_two_vms_share_block_code(hot1):
    """Two VMs, stepped alternately, run blocks built from the same
    cached code objects, each bound to its own counters, address space
    and registers."""
    module = build(_SHARED_SRC)
    vms, threads = [], []
    for n in (3, 11):
        vm = VM(fastpath=True)
        vm.load(module)
        vms.append(vm)
        threads.append(vm.new_thread(module.functions["main"], [n]))
    while any(t.state != 2 for t in threads):     # DONE
        for vm, thread in zip(vms, threads):
            if thread.state != 2:
                vm._step(thread, 37)
    for vm, thread, n in zip(vms, threads, (3, 11)):
        assert (thread.result, vm.output(), _counters(vm)) == _solo(n)
    fn = module.functions["main"]
    fcs = [vm.program.fast_for(fn, vm) for vm in vms]
    heads = [i for i, cost in enumerate(fcs[0].costs) if cost > 1]
    assert heads and heads == [i for i, c in enumerate(fcs[1].costs)
                               if c > 1]
    for i in heads:
        one, two = fcs[0].handlers[i], fcs[1].handlers[i]
        assert one is not two and one.__code__ is two.__code__
        # The first bound default is the VM's own counters.
        assert one.__defaults__[0] is vms[0].counters
        assert two.__defaults__[0] is vms[1].counters


def test_block_cache_is_bounded(hot1, monkeypatch):
    """More distinct hot runs than cache entries: the cache evicts down
    to its bound and every VM still runs identically."""
    monkeypatch.setattr(fastpath, "_BLOCKS", OrderedDict())
    monkeypatch.setattr(fastpath, "BLOCK_CACHE_SIZE", 3)
    _, fast_vm = _run_pair(_HOIST_SRC, make_scheme=SGXBoundsScheme)
    fn = fast_vm.program.functions["main"]
    compiled = sum(cost > 1 for cost in
                   fast_vm.program.fast_for(fn, fast_vm).costs)
    assert compiled > 3 and len(fastpath._BLOCKS) == 3


def test_shape_determines_insn_source():
    """One per-instruction factory serves every instruction of a shape,
    so an op definition may only branch on the fields the shape covers:
    generating each instruction's source afresh must give the cached
    source of its shape."""
    seen = {}
    for scheme_cls in (None, SGXBoundsScheme, MPXScheme):
        for source in corpus(5, 6):
            scheme = scheme_cls() if scheme_cls else None
            module = build(source, scheme)
            vm = VM(scheme=scheme)
            vm.load(module)
            rt = fastpath._Runtime(vm)
            for fn in module.functions.values():
                for ins in fn.code:
                    text = fastpath.insn_source(ins, rt)
                    shape = fastpath._shape(ins, rt)
                    assert seen.setdefault(shape, text) == text
    assert len(seen) > 20


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
