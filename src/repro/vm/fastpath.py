"""One opcode table, compiled into the interpreter's two tiers.

Every IR opcode is defined exactly once, in :data:`_TABLE`: a small
emitter function that writes the opcode's Python source through the
:class:`_Emitter` interface, with operands, immediates and runtime
objects filled in at predecode.  The table serves two tiers:

* **Per-instruction tier.**  Each instruction gets one handler closure.
  The source for each (opcode, operand shape) is generated and compiled
  once per process into a closure factory (:data:`_PLAIN`); predecoding
  an instruction only computes its shape and calls the factory, so cold
  code costs one closure creation per instruction.
* **Block tier.**  A straight-line run of instructions becomes one
  generated function with the run's registers in locals.  A run starts
  at a basic-block start or at the instruction after a CALL (where a
  returning callee resumes) and ends at a BR/JMP (included), before a
  CALL, RET or TRAP, or before the next run start.  A run is compiled
  only after its head has been dispatched :data:`HOT` times; its code is
  shared across VMs through a content-keyed cache of
  :data:`BLOCK_CACHE_SIZE` entries, so a VM that loads the same code
  again (a fleet reboot) binds the cached code instead of regenerating
  it.  ``REPRO_VM_FASTPATH=0`` (``VM(fastpath=False)``) runs the
  per-instruction tier only.

Identity contract (enforced by ``tests/test_vm_differential.py``, which
runs both tiers): a block-tier run is indistinguishable from a
per-instruction run -- byte-identical stdout, identical
:class:`~repro.sgx.counters.PerfCounters` at every observable point,
identical violation and forensics records, identical thread
interleavings.  The rules that make this hold:

* a per-instruction handler charges ``counters.instructions`` before any
  side effect; a block defers the charge and flushes it before every
  memory access, every op that may raise and every call out of the
  generated code (scheme checks and bounds tables), so the cache/EPC
  model, EPC-fault events and crash counters see the exact count;
* the dispatch loop runs a block only when the remaining quantum covers
  its whole length (``costs[pc] <= quantum``) and otherwise finishes the
  slice per instruction, so thread switches land on the same
  instruction boundaries in both tiers;
* every code index keeps its per-instruction handler in
  ``FastCode.plain``; CALLs never sit inside a block, so ``BLOCK_RETRY``
  and request checkpoints re-execute a call by its index;
* a block writes its registers back only when it completes, and only
  those some later instruction may read (:func:`_live_out`).  When an
  instruction inside it raises, the frame's registers are never read
  again: the run ends, or drop-request recovery restores the registers
  of the request checkpoint.

Handler calling convention (both tiers): ``handler(frame, regs, thread)
-> next_pc``, where a negative result means "yield to the outer loop"
(call, return, block, thread exit) with ``frame.pc`` already stored.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from types import FunctionType
from typing import Callable, Dict, List

from repro.errors import BoundsViolation, SegmentationFault, TrapError, VMError
from repro.ir import instructions as ops
from repro.memory.layout import ADDRESS_MASK, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from repro.vm.machine import (
    BLOCK_RETRY,
    HI32,
    M32,
    M64,
    NativeResult,
    RequestCheckpoint,
    RUNNABLE,
)

_UINT = {1: struct.Struct("<B"), 2: struct.Struct("<H"),
         4: struct.Struct("<I"), 8: struct.Struct("<Q")}
_F64 = struct.Struct("<d")
_SIGN64 = 1 << 63

#: Dispatches of a run's head before the run is compiled into a block.
HOT = 32

#: Generated block factories kept across VMs (least recently used first
#: out).  The key is the run's instruction fields, not its source text.
BLOCK_CACHE_SIZE = 512

Handler = Callable[[object, list, object], int]


class FastCode:
    """Predecoded form of one function, bound to one VM's runtime.

    ``handlers[pc]`` is what the dispatch loop runs at ``pc`` and
    ``costs[pc]`` its length in IR instructions (quantum units): a block
    at a compiled run head, the per-instruction handler (cost 1)
    everywhere else.  ``plain[pc]`` is always the per-instruction
    handler."""

    __slots__ = ("handlers", "costs", "plain", "code")

    def __init__(self, handlers: List[Handler], costs: List[int],
                 plain: List[Handler], code: list):
        self.handlers = handlers
        self.costs = costs
        self.plain = plain
        #: The exact ``fn.code`` list this was compiled from; the loader's
        #: cache re-predecodes whenever a pass swaps the code list out.
        self.code = code


# ---------------------------------------------------------------------------
# Inlined memory accessors.  The common access -- within one page, page
# already materialized, ordinary permissions -- skips the read_uint ->
# read_uN -> read -> _page_for call chain and the intermediate bytes copy.
# ``space._perms`` holds exactly the materialized pages plus the pages
# ``protect`` overrode, each with its current perms; mapped but untouched
# pages live only in the space's extent list.  A missing entry therefore
# means "ask the slow path", never "unmapped": ``_page_for`` resolves it
# from the extents, raises the same faults with the same messages, and
# on materializing the page caches its perms here.  Anything else
# unusual (page crossing, guard or read-only page) falls back the same
# way.  The tracer fires exactly once per access either way: the fast
# branch only runs after every fallback condition has been ruled out, and
# it reads ``space.tracer`` per access because bulk natives swap it out.
# PERM_READ=1 / PERM_RW=3 are frozen constants of the memory layout.
# ---------------------------------------------------------------------------

def _fast_reader(space, size: int) -> Callable[[int], int]:
    pages = space._pages
    perms = space._perms
    read_uint = space.read_uint
    limit = PAGE_SIZE - size
    unpack_from = _UINT[size].unpack_from
    def rd(addr):
        if addr & PAGE_MASK <= limit:
            idx = addr >> PAGE_SHIFT
            pv = perms.get(idx)
            if pv == 3 or pv == 1:
                page = pages.get(idx)
                if page is not None:
                    tr = space.tracer
                    if tr is not None:
                        tr(addr, size, False)
                    return unpack_from(page, addr & PAGE_MASK)[0]
        return read_uint(addr, size)
    return rd


def _fast_reader_f64(space) -> Callable[[int], float]:
    pages = space._pages
    perms = space._perms
    read_f64 = space.read_f64
    limit = PAGE_SIZE - 8
    unpack_from = _F64.unpack_from
    def rd(addr):
        if addr & PAGE_MASK <= limit:
            idx = addr >> PAGE_SHIFT
            pv = perms.get(idx)
            if pv == 3 or pv == 1:
                page = pages.get(idx)
                if page is not None:
                    tr = space.tracer
                    if tr is not None:
                        tr(addr, 8, False)
                    return unpack_from(page, addr & PAGE_MASK)[0]
        return read_f64(addr)
    return rd


def _fast_writer(space, size: int) -> Callable[[int, int], None]:
    pages = space._pages
    perms = space._perms
    write_uint = space.write_uint
    limit = PAGE_SIZE - size
    pack_into = _UINT[size].pack_into
    mask = (1 << (size * 8)) - 1
    def wr(addr, value):
        if addr & PAGE_MASK <= limit:
            idx = addr >> PAGE_SHIFT
            if perms.get(idx) == 3:
                page = pages.get(idx)
                if page is not None:
                    tr = space.tracer
                    if tr is not None:
                        tr(addr, size, True)
                    pack_into(page, addr & PAGE_MASK, value & mask)
                    return
        write_uint(addr, value, size)
    return wr


def _fast_writer_f64(space) -> Callable[[int, float], None]:
    pages = space._pages
    perms = space._perms
    write_f64 = space.write_f64
    limit = PAGE_SIZE - 8
    pack_into = _F64.pack_into
    def wr(addr, value):
        if addr & PAGE_MASK <= limit:
            idx = addr >> PAGE_SHIFT
            if perms.get(idx) == 3:
                page = pages.get(idx)
                if page is not None:
                    tr = space.tracer
                    if tr is not None:
                        tr(addr, 8, True)
                    pack_into(page, addr & PAGE_MASK, value)
                    return
        write_f64(addr, value)
    return wr


class _Runtime:
    """What generated code binds from one VM: the objects its factories
    read through ``rt.<name>``, and the memory accessors (one closure per
    size and direction, shared by every handler that needs it)."""

    __slots__ = ("vm", "counters", "scheme", "program", "natives", "telem",
                 "track_bounds", "space", "_accessors")

    def __init__(self, vm):
        self.vm = vm
        self.counters = vm.counters
        self.scheme = vm.scheme
        self.program = vm.program
        self.natives = vm.natives
        self.telem = vm._telemetry
        self.track_bounds = vm.scheme.uses_register_bounds
        self.space = vm.space
        self._accessors: Dict[tuple, Callable] = {}

    def accessor(self, size: int, is_float: bool, write: bool):
        key = (size, is_float, write)
        fn = self._accessors.get(key)
        if fn is None:
            if is_float:
                fn = (_fast_writer_f64 if write else _fast_reader_f64)(
                    self.space)
            else:
                fn = (_fast_writer if write else _fast_reader)(
                    self.space, size)
            self._accessors[key] = fn
        return fn


# ---------------------------------------------------------------------------
# Helpers the generated code calls.
# ---------------------------------------------------------------------------

def _s64(x: int) -> int:
    return x - (1 << 64) if x & _SIGN64 else x


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        raise TrapError("integer division by zero")
    sa, sb = _s64(a), _s64(b)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & M64


def _srem(a: int, b: int) -> int:
    if b == 0:
        raise TrapError("integer remainder by zero")
    sa, sb = _s64(a), _s64(b)
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & M64


def _udiv(a: int, b: int) -> int:
    if b == 0:
        raise TrapError("integer division by zero")
    return a // b


def _urem(a: int, b: int) -> int:
    if b == 0:
        raise TrapError("integer remainder by zero")
    return a % b


def _fdiv(a: float, b: float) -> float:
    return a / b if b != 0.0 else float("inf") * (1 if a >= 0 else -1)


def _arg_plan(args, consts):
    """Bake each argument operand to (is_register, index_or_value)."""
    return tuple((True, x) if x >= 0 else (False, consts[-x - 1])
                 for x in args)


#: Globals of every generated function.
_NS = {
    "M64": M64, "M32": M32, "HI32": HI32, "ADDRESS_MASK": ADDRESS_MASK,
    "_s64": _s64, "_sdiv": _sdiv, "_udiv": _udiv, "_srem": _srem,
    "_urem": _urem, "_fdiv": _fdiv, "_arg_plan": _arg_plan,
    "BoundsViolation": BoundsViolation, "SegmentationFault": SegmentationFault,
    "TrapError": TrapError, "VMError": VMError, "NativeResult": NativeResult,
    "RequestCheckpoint": RequestCheckpoint, "BLOCK_RETRY": BLOCK_RETRY,
    "RUNNABLE": RUNNABLE,
}


# ---------------------------------------------------------------------------
# The emitter interface the opcode table writes through.  Operands are
# named by instruction field ("a", "b", "c", "dest").  Op definitions
# may branch only on fields that are part of the per-instruction shape
# (see _shape); every other field is read through v/d/ix/imm.
# ---------------------------------------------------------------------------

class _Emitter:
    def __init__(self, ins, rt):
        self.ins = ins
        self.program = rt.program
        self.track_bounds = rt.track_bounds
        self.lines: List[str] = []
        #: Names the generated function binds once, as default arguments
        #: (locals are CPython's fastest variables).
        self.params: Dict[str, object] = {}
        self.bind("counters", "rt.counters", ("rt", "counters"))
        self.next_pc = None     # terminator expression, or None

    def line(self, text: str) -> None:
        self.lines.append(text)

    def is_reg(self, field: str) -> bool:
        return getattr(self.ins, field) >= 0

    def obj(self, name: str) -> str:
        """A runtime object (``vm``, ``scheme``, ``natives``, ...)."""
        self.bind(name, f"rt.{name}", ("rt", name))
        return name

    def mem(self, size: int, is_float: bool, write: bool) -> str:
        """A bound memory accessor for this access shape."""
        name = ("wr" if write else "rd") + ("f" if is_float else str(size))
        args = (size, is_float, write)
        self.bind(name, f"rt.accessor{args}", ("mem", args))
        return name

    def goto(self, expr: str) -> None:
        self.next_pc = expr


class _InsnEmitter(_Emitter):
    """Per-instruction tier: operands become parameters the factory reads
    from the instruction, so one factory serves every instruction of the
    same shape."""

    def __init__(self, ins, rt):
        super().__init__(ins, rt)
        self.charges: List[str] = []
        self.returns = False    # the body ends in its own return

    def bind(self, name: str, expr: str, recipe=None) -> None:
        self.params[name] = expr

    def v(self, field: str) -> str:
        if self.is_reg(field):
            self.bind(field, f"ins.{field}")
            return f"regs[{field}]"
        self.bind(field, f"K[-ins.{field} - 1]")
        return field

    def ix(self, field: str) -> str:
        self.bind(field, f"ins.{field}")
        return field

    imm = ix

    def d(self, field: str = "dest") -> str:
        return f"regs[{self.ix(field)}]"

    def charge(self, n: int, field: str = None) -> None:
        if field is None:
            self.charges.append(str(n))
        else:
            self.bind("inc", f"{n} + (ins.{field} or 0)")
            self.charges.append("inc")

    def sync(self) -> None:
        pass    # the whole charge precedes the body

    def source(self) -> str:
        self.bind("npc", "i + 1")
        out = ["def _factory(ins, K, rt, i):"]
        out += [f"    {name} = {expr}" for name, expr in self.params.items()]
        defaults = ", ".join(f"{name}={name}" for name in self.params)
        out.append(f"    def h(frame, regs, thread, {defaults}):")
        out.append(f"        counters.instructions += "
                   f"{' + '.join(self.charges)}")
        out += [f"        {text}" for text in self.lines]
        if not self.returns:
            out.append(f"        return {self.next_pc or 'npc'}")
        out.append("    return h")
        return "\n".join(out)


class _BlockEmitter(_Emitter):
    """Block tier: registers are locals ``r<n>`` loaded on entry and
    written back on exit, constants are ``k<n>`` bound per VM, and
    immediates are literals.  The instruction charge is deferred and
    flushed at every observable point (``sync``)."""

    def __init__(self, rt):
        super().__init__(None, rt)
        self.pending = 0
        self.live_in: List[int] = []
        self.written: List[int] = []

    def bind(self, name: str, expr: str, recipe) -> None:
        self.params[name] = recipe

    def v(self, field: str) -> str:
        x = getattr(self.ins, field)
        if x >= 0:
            if x not in self.written and x not in self.live_in:
                self.live_in.append(x)
            return f"r{x}"
        self.bind(f"k{-x - 1}", None, ("k", -x - 1))
        return f"k{-x - 1}"

    def d(self, field: str = "dest") -> str:
        x = getattr(self.ins, field)
        if x not in self.written:
            self.written.append(x)
        return f"r{x}"

    def ix(self, field: str) -> str:
        return repr(getattr(self.ins, field))

    imm = ix

    def charge(self, n: int, field: str = None) -> None:
        self.pending += n + ((getattr(self.ins, field) or 0) if field else 0)

    def sync(self) -> None:
        if self.pending:
            self.line(f"counters.instructions += {self.pending}")
            self.pending = 0

    def source(self, fallthrough: int, live_out) -> str:
        """The block function; only the registers in ``live_out`` are
        written back."""
        self.sync()
        out = [f"def blk(frame, regs, thread, {', '.join(self.params)}):"]
        out += [f"    r{x} = regs[{x}]" for x in self.live_in]
        out += [f"    {text}" for text in self.lines]
        out += [f"    regs[{x}] = r{x}" for x in self.written if x in live_out]
        out.append(f"    return {self.next_pc or fallthrough}")
        return "\n".join(out)


# ---------------------------------------------------------------------------
# The opcode table.  Each entry writes one instruction: its charge (in
# IR-instruction units, before any observable effect), its side effects,
# and for BR/JMP the next pc.
# ---------------------------------------------------------------------------

#: ``{x}`` reinterpreted as a signed 64-bit value, inline (as ``_s64``).
_S64 = "({x} - 0x10000000000000000 if {x} & 0x8000000000000000 else {x})"
_SA, _SB = _S64.format(x="{a}"), _S64.format(x="{b}")

#: Binary ops as expressions over the operands ``{a}`` and ``{b}``.
_BIN_EXPR = {
    ops.ADD: "({a} + {b}) & M64",
    ops.SUB: "({a} - {b}) & M64",
    ops.MUL: "({a} * {b}) & M64",
    ops.SDIV: "_sdiv({a}, {b})",
    ops.UDIV: "_udiv({a}, {b})",
    ops.SREM: "_srem({a}, {b})",
    ops.UREM: "_urem({a}, {b})",
    ops.AND: "{a} & {b}",
    ops.OR: "{a} | {b}",
    ops.XOR: "{a} ^ {b}",
    ops.SHL: "({a} << ({b} & 63)) & M64",
    ops.LSHR: "{a} >> ({b} & 63)",
    ops.ASHR: f"({_SA} >> ({{b}} & 63)) & M64",
    ops.FADD: "{a} + {b}",
    ops.FSUB: "{a} - {b}",
    ops.FMUL: "{a} * {b}",
    ops.FDIV: "_fdiv({a}, {b})",
    ops.EQ: "1 if {a} == {b} else 0",
    ops.NE: "1 if {a} != {b} else 0",
    ops.SLT: f"1 if {_SA} < {_SB} else 0",
    ops.SLE: f"1 if {_SA} <= {_SB} else 0",
    ops.SGT: f"1 if {_SA} > {_SB} else 0",
    ops.SGE: f"1 if {_SA} >= {_SB} else 0",
    ops.ULT: "1 if {a} < {b} else 0",
    ops.ULE: "1 if {a} <= {b} else 0",
    ops.UGT: "1 if {a} > {b} else 0",
    ops.UGE: "1 if {a} >= {b} else 0",
    ops.FEQ: "1 if {a} == {b} else 0",
    ops.FNE: "1 if {a} != {b} else 0",
    ops.FLT: "1 if {a} < {b} else 0",
    ops.FLE: "1 if {a} <= {b} else 0",
    ops.FGT: "1 if {a} > {b} else 0",
    ops.FGE: "1 if {a} >= {b} else 0",
}

#: Binary ops that trap on a zero divisor.
_TRAPPING = frozenset((ops.SDIV, ops.UDIV, ops.SREM, ops.UREM))


def _binop(e, ins):
    e.charge(1)
    if ins.op in _TRAPPING:
        e.sync()
    a, b = e.v("a"), e.v("b")
    e.line(f"{e.d()} = " + _BIN_EXPR[ins.op].format(a=a, b=b))


def _copy_bounds(e, ins):
    """MPX: the result register inherits the bounds of register ``a``."""
    if e.track_bounds and e.is_reg("a"):
        src, dst = e.ix("a"), e.ix("dest")
        e.line("_fb = frame.bounds")
        e.line(f"if _fb is not None and {src} in _fb:")
        e.line(f"    _fb[{dst}] = _fb[{src}]")


def _load(e, ins):
    e.charge(1)
    e.sync()
    a = e.v("a")
    if ins.is_float:
        e.line(f"{e.d()} = {e.mem(8, True, False)}({a} & M32)")
    elif ins.signed and ins.size < 8:
        sign = 1 << (ins.size * 8 - 1)
        e.line(f"_t = {e.mem(ins.size, False, False)}({a} & M32)")
        e.line(f"{e.d()} = (_t - {sign << 1}) & M64 if _t & {sign} else _t")
    else:
        e.line(f"{e.d()} = {e.mem(ins.size, False, False)}({a} & M32)")


def _store(e, ins):
    e.charge(1)
    e.sync()
    a, b = e.v("a"), e.v("b")
    size = 8 if ins.is_float else ins.size
    e.line(f"{e.mem(size, ins.is_float, True)}({a} & M32, {b})")


def _gep(e, ins):
    # §3.2's 32-bit-confined arithmetic: on x86 a clamped GEP lowers to a
    # 32-bit lea plus one merge op, hence the extra instruction.
    e.charge(2 if ins.clamp else 1)
    a = e.v("a")
    if ins.b is None:
        value = f"{a} + {e.imm('c')}"
    else:
        value = f"{a} + {e.v('b')} * {ins.size} + {e.imm('c')}"
    if ins.clamp:
        e.line(f"{e.d()} = ({a} & HI32) | (({value}) & M32)")
    else:
        e.line(f"{e.d()} = ({value}) & M64")
    _copy_bounds(e, ins)


def _br(e, ins):
    e.charge(1)
    e.line("counters.branches += 1")
    e.goto(f"{e.imm('t1')} if {e.v('a')} else {e.imm('t2')}")


def _jmp(e, ins):
    e.charge(1)
    e.line("counters.branches += 1")
    e.goto(e.imm("t1"))


def _mov(e, ins):
    e.charge(1)
    a = e.v("a")
    e.line(f"{e.d()} = {a}")
    _copy_bounds(e, ins)


def _select(e, ins):
    e.charge(1)
    a, b, c = e.v("a"), e.v("b"), e.v("c")
    e.line(f"{e.d()} = {b} if {a} else {c}")


def _alloca(e, ins):
    e.charge(1)
    e.line(f"{e.d()} = frame.base + {e.imm('c')}")


def _trunc(e, ins):
    e.charge(1)
    a = e.v("a")
    e.line(f"{e.d()} = {a} & {(1 << (ins.size * 8)) - 1}")


def _sext(e, ins):
    e.charge(1)
    bits = ins.size * 8
    e.line(f"_t = {e.v('a')} & {(1 << bits) - 1}")
    e.line(f"{e.d()} = (_t - {1 << bits}) & M64 "
           f"if _t & {1 << (bits - 1)} else _t")


def _sitofp(e, ins):
    e.charge(1)
    a = e.v("a")
    e.line(f"{e.d()} = float(_s64({a}))")


def _fptosi(e, ins):
    e.charge(1)
    e.sync()    # int() raises on NaN and infinities
    a = e.v("a")
    e.line(f"{e.d()} = int({a}) & M64")


def _fneg(e, ins):
    e.charge(1)
    a = e.v("a")
    e.line(f"{e.d()} = -{a}")


def _atomicrmw(e, ins):
    e.charge(1)
    e.sync()
    e.line(f"_addr = {e.v('a')} & M32")
    e.line(f"_v = {e.v('b')}")
    wr = e.mem(ins.size, False, True)
    e.line(f"_old = {e.mem(ins.size, False, False)}(_addr)")
    if ins.name == "add":
        e.line(f"{wr}(_addr, (_old + _v) & M64)")
    elif ins.name == "xchg":
        e.line(f"{wr}(_addr, _v)")
    elif ins.name == "sub":
        e.line(f"{wr}(_addr, (_old - _v) & M64)")
    else:
        # The (traced) read of the old value precedes the diagnostic.
        e.line(f"raise VMError({f'unknown atomicrmw kind {ins.name!r}'!r})")
    e.line(f"{e.d()} = _old")


def _cmpxchg(e, ins):
    e.charge(1)
    e.sync()
    e.line(f"_addr = {e.v('a')} & M32")
    e.line(f"_exp = {e.v('b')}")
    e.line(f"_new = {e.v('c')}")
    e.line(f"_old = {e.mem(ins.size, False, False)}(_addr)")
    e.line("if _old == _exp:")
    e.line(f"    {e.mem(ins.size, False, True)}(_addr, _new)")
    e.line(f"{e.d()} = _old")


def _bndmk(e, ins):
    e.charge(1)
    e.line(f"_base = {e.v('a')} & M32")
    e.line(f"_size = {e.v('b')}")
    e.line("if frame.bounds is not None:")
    e.line(f"    frame.bounds[{e.ix('dest')}] = (_base, _base + _size)")


def _bndc(e, ins):
    # MPX bound checks are micro-coded multi-uop instructions (Oleksenko
    # et al., "Intel MPX Explained"); ``c`` additionally carries the
    # pass-computed bounds-register spill cost (only 4 architectural
    # bounds registers exist).
    e.charge(2, "c")
    e.sync()
    e.line("counters.bounds_checks += 1")
    e.line("_fb = frame.bounds")
    e.line(f"_bnd = _fb.get({e.ix('dest')}) if _fb is not None else None")
    e.line("if _bnd is not None:")
    e.line(f"    _val = {e.v('a')} & M32")
    scheme, vm = e.obj("scheme"), e.obj("vm")
    if ins.op == ops.BNDCL:
        e.line("    if _val < _bnd[0]:")
        e.line(f"        {scheme}.handle_violation({vm}, BoundsViolation("
               f"'mpx', _val, _bnd[0], _bnd[1], access='read', "
               f"what='bndcl'))")
    else:
        e.line(f"    if _val + {ins.size} > _bnd[1]:")
        e.line(f"        {scheme}.handle_violation({vm}, BoundsViolation("
               f"'mpx', _val, _bnd[0], _bnd[1], size={ins.size}, "
               f"access='read', what='bndcu'))")


def _bndldx(e, ins):
    # Two-level BD/BT translation plus the compiler's bounds-register
    # spill pressure: several uops beyond the table's memory traffic.
    e.charge(5)
    e.sync()
    e.line(f"_slot = {e.v('a')} & M32")
    e.line("_fb = frame.bounds")
    e.line("if _fb is not None:")
    e.line(f"    _got = {e.obj('scheme')}.bt_load({e.obj('vm')}, _slot)")
    e.line("    if _got is not None:")
    e.line(f"        _fb[{e.ix('dest')}] = _got")
    e.line("    else:")
    e.line(f"        _fb.pop({e.ix('dest')}, None)")


def _bndstx(e, ins):
    e.charge(5)
    e.sync()
    e.line(f"_slot = {e.v('a')} & M32")
    e.line("_fb = frame.bounds")
    e.line("if _fb is not None:")
    e.line(f"    {e.obj('scheme')}.bt_store({e.obj('vm')}, _slot, "
           f"_fb.get({e.ix('dest')}))")


def _nop(e, ins):
    e.charge(1)


def _trap(e, ins):
    e.charge(1)
    e.line(f"raise TrapError({e.imm('name')} or 'trap')")


# CALL and RET yield to the dispatch loop, so they only ever run in the
# per-instruction tier.

def _call(e, ins):
    e.charge(1)
    e.returns = True
    vm = e.obj("vm")
    e.bind("i", "i")
    e.bind("plan", "_arg_plan(ins.args, K)")
    args, dest = e.imm("args"), e.imm("dest")
    e.line("counters.calls += 1")
    e.line("values = [regs[x] if isreg else x for isreg, x in plan]")
    kind = _call_kind(ins, e.program)
    if kind == _NATIVE:
        # Natives are looked up per call, so a handler table swapped in
        # after predecode -- or a genuinely unknown name -- is honoured.
        name, natives, telem = e.imm("name"), e.obj("natives"), e.obj("telem")
        e.line(f"native = {natives}.get({name})")
        e.line("if native is None:")
        e.line(f"    raise VMError(f'unknown function {{{name}!r}}')")
        if e.track_bounds:
            e.line("if frame.bounds is not None:")
            e.line(f"    {vm}.native_arg_bounds = [frame.bounds.get(x) "
                   f"if x >= 0 else None for x in {args}]")
        e.line(f"if {telem} is None:")
        e.line(f"    result = native({vm}, thread, values)")
        e.line("else:")
        e.line("    t0 = counters.instructions")
        e.line(f"    result = native({vm}, thread, values)")
        e.line(f"    {telem}.native_call({name}, thread.tid, t0, "
               f"counters.instructions)")
        e.line("if result is BLOCK_RETRY:")
        e.line("    frame.pc = i    # re-execute the call on wake")
        e.line("    return -1")
        # net_recv asked for a request checkpoint: snapshot at the CALL
        # itself (before the result lands in a register), so restoring
        # re-executes net_recv, which then serves the *next* request.
        e.line(f"if {vm}._ckpt_pending is not None:")
        e.line(f"    ck_conn, ck_raw = {vm}._ckpt_pending")
        e.line(f"    {vm}._ckpt_pending = None")
        e.line("    frame.pc = i")
        e.line("    thread.checkpoint = RequestCheckpoint(thread, ck_conn, "
               "ck_raw)")
        e.line("if type(result) is NativeResult:")
        e.line(f"    if {dest} is not None:")
        e.line(f"        regs[{dest}] = result.value")
        e.line("        if frame.bounds is not None and result.bounds:")
        e.line(f"            frame.bounds[{dest}] = result.bounds")
        e.line(f"elif {dest} is not None:")
        e.line(f"    regs[{dest}] = result if result is not None else 0")
        e.line("if thread.state != RUNNABLE "
               "or thread.frames[-1] is not frame:")
        e.line("    frame.pc = npc")
        e.line("    return -1")
        e.line("return npc")
        return
    if kind == _DIRECT:
        e.bind("callee", "rt.program.functions[ins.name]")
    else:
        e.line(f"target = {e.v('a')} & ADDRESS_MASK")
        e.line(f"callee = {e.obj('program')}.function_at(target)")
        e.line("if callee is None:")
        e.line("    raise SegmentationFault(target, 1, "
               "'indirect call to non-code')")
    e.line("arg_bounds = None")
    if e.track_bounds:
        e.line("if frame.bounds is not None:")
        e.line("    arg_bounds = {}")
        e.line("    fb = frame.bounds")
        e.line(f"    for j, x in enumerate({args}):")
        e.line("        if x >= 0 and x in fb:")
        e.line("            arg_bounds[j] = fb[x]")
    e.line("frame.pc = npc")
    e.line(f"{vm}._push_frame(thread, callee, values, {dest}, arg_bounds)")
    e.line("return -1")


def _ret(e, ins):
    e.charge(1)
    e.returns = True
    vm, telem = e.obj("vm"), e.obj("telem")
    value = "0" if ins.a is None else e.v("a")
    e.line(f"value = {value}")
    e.line(f"actual = {e.mem(8, False, False)}(frame.ret_slot)")
    e.line("if actual != frame.token:")
    e.line(f"    {vm}._corrupted_return(actual)")
    e.line("ret_bounds = None")
    if e.track_bounds and ins.a is not None and ins.a >= 0:
        e.line("if frame.bounds is not None:")
        e.line(f"    ret_bounds = frame.bounds.get({e.ix('a')})")
    e.line("thread.frames.pop()")
    e.line(f"if {telem} is not None:")
    e.line(f"    {telem}.function_exit(frame.fn.name, thread.tid, "
           f"counters.instructions)")
    e.line("thread.sp = frame.base + frame.fn.frame_size")
    e.line("if not thread.frames:")
    e.line(f"    {vm}._finish_thread(thread, value)")
    e.line("    return -1")
    e.line("parent = thread.frames[-1]")
    e.line("if frame.dest is not None:")
    e.line("    parent.regs[frame.dest] = value")
    e.line("    if parent.bounds is not None and ret_bounds:")
    e.line("        parent.bounds[frame.dest] = ret_bounds")
    e.line("return -1")


def _unknown(e, ins):
    e.charge(1)
    message = f"unhandled opcode {ins.op} ({ops.OP_NAMES.get(ins.op)})"
    e.line(f"raise VMError({message!r})")


_TABLE: Dict[int, Callable] = {op: _binop for op in _BIN_EXPR}
_TABLE.update({
    ops.LOAD: _load, ops.STORE: _store, ops.GEP: _gep, ops.BR: _br,
    ops.JMP: _jmp, ops.MOV: _mov, ops.SELECT: _select,
    ops.ALLOCA: _alloca, ops.TRUNC: _trunc, ops.SEXT: _sext,
    ops.SITOFP: _sitofp, ops.FPTOSI: _fptosi, ops.FNEG: _fneg,
    ops.ATOMICRMW: _atomicrmw, ops.CMPXCHG: _cmpxchg, ops.BNDMK: _bndmk,
    ops.BNDCL: _bndc, ops.BNDCU: _bndc, ops.BNDLDX: _bndldx,
    ops.BNDSTX: _bndstx, ops.NOP: _nop, ops.TRAP: _trap, ops.CALL: _call,
    ops.RET: _ret,
})

#: Ops a block may contain (BR and JMP end it).
_BLOCK_OPS = frozenset(_TABLE) - {ops.CALL, ops.RET, ops.TRAP}

_INDIRECT, _DIRECT, _NATIVE = 0, 1, 2


def _call_kind(ins, program) -> int:
    if ins.name is None:
        return _INDIRECT
    return _DIRECT if ins.name in program.functions else _NATIVE


# ---------------------------------------------------------------------------
# Tier 1: per-instruction factories, one per (opcode, operand shape).
# ---------------------------------------------------------------------------

def _kind(x):
    return None if x is None else x >= 0


def _shape(ins, rt) -> tuple:
    """Everything an op definition may branch on."""
    op = ins.op
    return (op, _kind(ins.a), _kind(ins.b), _kind(ins.c), ins.size,
            ins.is_float, ins.signed, ins.clamp, rt.track_bounds,
            ins.name if op == ops.ATOMICRMW else None,
            _call_kind(ins, rt.program) if op == ops.CALL else None)


def _compile(source: str, name: str):
    """The function ``name`` defined by generated ``source``."""
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<repro.vm.fastpath {name}>", "exec"), _NS,
         namespace)
    return namespace[name]


def insn_source(ins, rt) -> str:
    """Source of the per-instruction factory for ``ins``'s shape."""
    e = _InsnEmitter(ins, rt)
    _TABLE.get(ins.op, _unknown)(e, ins)
    return e.source()


#: shape -> per-instruction closure factory, for the process lifetime
#: (the set of shapes is small and fixed by the instruction set).
_PLAIN: Dict[tuple, Callable] = {}


# ---------------------------------------------------------------------------
# Tier 2: blocks, compiled when hot and shared through a bounded cache.
# ---------------------------------------------------------------------------

def _block_emitter(code, start: int, end: int, rt) -> _BlockEmitter:
    e = _BlockEmitter(rt)
    for ins in code[start:end]:
        e.ins = ins
        _TABLE[ins.op](e, ins)
    return e


#: Ops whose ``dest`` is a value register they write (the MPX ops use
#: ``dest`` as a bounds key).
_DEFS = frozenset(_BIN_EXPR) | {
    ops.LOAD, ops.GEP, ops.MOV, ops.SELECT, ops.ALLOCA, ops.TRUNC,
    ops.SEXT, ops.SITOFP, ops.FPTOSI, ops.FNEG, ops.ATOMICRMW,
    ops.CMPXCHG, ops.CALL}


def _read_spans(code) -> Dict[int, tuple]:
    """Register -> (first, last) index of the instructions reading it."""
    spans: Dict[int, tuple] = {}
    for i, ins in enumerate(code):
        for x in ins.operands():
            if x >= 0:
                spans[x] = (spans.get(x, (i,))[0], i)
    return spans


def _live_out(code, start: int, end: int, spans) -> frozenset:
    """Registers the run ``code[start:end]`` writes that a later
    instruction may read.  A register the run writes before any read of
    it, and that no instruction outside the run reads, is a temporary:
    no branch lands inside a run, so every later read of it follows a
    fresh write by the run."""
    read_first, written = set(), set()
    for ins in code[start:end]:
        read_first.update(x for x in ins.operands()
                          if x >= 0 and x not in written)
        if ins.op in _DEFS and ins.dest is not None:
            written.add(ins.dest)
    return frozenset(
        x for x in written
        if x in read_first or x in spans
        and not start <= spans[x][0] <= spans[x][1] < end)


def _block_key(code, start: int, end: int, track_bounds: bool,
               live_out) -> tuple:
    key = [track_bounds, end, tuple(sorted(live_out))]
    for ins in code[start:end]:
        key += (ins.op, ins.dest, ins.a, ins.b, ins.c, ins.size, ins.signed,
                ins.is_float, ins.clamp, ins.name, ins.t1, ins.t2)
    return tuple(key)


#: Content key -> (code object, binding recipe), least recently used
#: first.  Only the code object is kept: binding a VM builds a function
#: whose default arguments are that VM's counters, accessors and
#: constants.
_BLOCKS: "OrderedDict[tuple, tuple]" = OrderedDict()


def _bind_block(code, start: int, end: int, consts, rt,
                live_out) -> Handler:
    key = _block_key(code, start, end, rt.track_bounds, live_out)
    entry = _BLOCKS.get(key)
    if entry is None:
        e = _block_emitter(code, start, end, rt)
        entry = _BLOCKS[key] = (
            _compile(e.source(end, live_out), "blk").__code__,
            tuple(e.params.values()))
        while len(_BLOCKS) > BLOCK_CACHE_SIZE:
            _BLOCKS.popitem(last=False)
    else:
        _BLOCKS.move_to_end(key)
    body, recipe = entry
    defaults = tuple(getattr(rt, arg) if kind == "rt"
                     else rt.accessor(*arg) if kind == "mem"
                     else consts[arg]
                     for kind, arg in recipe)
    return FunctionType(body, _NS, "blk", defaults)


def _counted(blk: Handler, stats: Dict[str, int]) -> Handler:
    def h(frame, regs, thread):
        stats["block"] += 1
        return blk(frame, regs, thread)
    return h


def _tier_up_stub(fc: FastCode, start: int, end: int, consts, rt,
                  stats, spans) -> Handler:
    """Run head before tier-up: the per-instruction handler, counting
    dispatches; the HOT-th installs the block for the next dispatch.
    ``spans()`` returns the function's :func:`_read_spans`."""
    plain = fc.plain[start]
    left = HOT

    def h(frame, regs, thread):
        nonlocal left
        left -= 1
        if left <= 0:
            blk = _bind_block(fc.code, start, end, consts, rt,
                              _live_out(fc.code, start, end, spans()))
            fc.handlers[start] = blk if stats is None else \
                _counted(blk, stats)
            fc.costs[start] = end - start
        return plain(frame, regs, thread)
    return h


def _runs(code, heads) -> List[tuple]:
    """(start, end) of every run of two or more block-tier ops."""
    n = len(code)
    runs = []
    for start in sorted(heads):
        end = start
        while end < n and code[end].op in _BLOCK_OPS:
            end += 1
            if code[end - 1].op in (ops.BR, ops.JMP) or end in heads:
                break
        if end - start >= 2:
            runs.append((start, end))
    return runs


def compile_function(vm, fn, consts) -> FastCode:
    """Predecode ``fn`` against ``vm``'s bound runtime (space, counters,
    scheme, telemetry) and ``consts`` (the loader-resolved pool).  With
    ``vm.fastpath`` set, every run head also gets a tier-up stub."""
    rt = _Runtime(vm)
    code = fn.code
    plain: List[Handler] = []
    for i, ins in enumerate(code):
        shape = _shape(ins, rt)
        make = _PLAIN.get(shape)
        if make is None:
            make = _PLAIN[shape] = _compile(insn_source(ins, rt), "_factory")
        plain.append(make(ins, consts, rt, i))
    fc = FastCode(list(plain), [1] * len(code), plain, code)
    if vm.fastpath:
        # Block executions are only tallied when telemetry observes the
        # run: the default path keeps the zero-cost-when-off contract.
        stats = None
        if rt.telem is not None:
            stats = vm.fastpath_stats
            stats.setdefault("block", 0)
        heads = set(fn.block_starts or fn.block_index.values())
        heads.update(i + 1 for i, ins in enumerate(code)
                     if ins.op == ops.CALL)
        computed = []

        def spans() -> Dict[int, tuple]:
            # Computed once per function, at its first tier-up.
            if not computed:
                computed.append(_read_spans(code))
            return computed[0]

        for start, end in _runs(code, heads):
            fc.handlers[start] = _tier_up_stub(fc, start, end, consts, rt,
                                               stats, spans)
    return fc
