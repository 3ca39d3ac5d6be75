"""Convenience builder for emitting IR.

Operands are *encodings* (see ``repro.ir.instructions``): use :meth:`k` to
intern a constant, :meth:`gref`/:meth:`fref` for global/function addresses;
plain non-negative ints are register indices (as returned by every
value-producing method).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.ir import instructions as ops
from repro.ir.instructions import FuncRef, GlobalRef, Instr
from repro.ir.module import Block, Function

Operand = int


class IRBuilder:
    """Appends instructions to a current block of one function."""

    def __init__(self, fn: Function, block: Optional[Block] = None):
        self.fn = fn
        self.blk = block
        #: Current source line; codegen updates it at statement boundaries
        #: and :meth:`emit` stamps it into every instruction (0 = unknown).
        self.line = 0

    # -- block management -------------------------------------------------
    def new_block(self, name: str) -> Block:
        return self.fn.block(name)

    def set_block(self, block: Union[Block, str]) -> Block:
        if isinstance(block, str):
            block = self.fn.get_block(block)
        self.blk = block
        return block

    def emit(self, ins: Instr) -> Instr:
        if ins.line == 0:
            ins.line = self.line
        self.blk.instrs.append(ins)
        return ins

    # -- operands ---------------------------------------------------------
    def k(self, value: object) -> Operand:
        """Intern a constant (int, float, GlobalRef, FuncRef)."""
        return self.fn.intern_const(value)

    def gref(self, name: str) -> Operand:
        """Address of global ``name`` (resolved at load time)."""
        return self.fn.intern_const(GlobalRef(name))

    def fref(self, name: str) -> Operand:
        """Code address of function ``name`` (resolved at load time)."""
        return self.fn.intern_const(FuncRef(name))

    def reg(self, hint: str = "t") -> int:
        return self.fn.new_reg(hint)

    # -- moves / arithmetic -------------------------------------------------
    def mov(self, value: Operand, dest: Optional[int] = None) -> int:
        dest = self.fn.new_reg() if dest is None else dest
        self.emit(Instr(ops.MOV, dest=dest, a=value))
        return dest

    def binop(self, op: int, a: Operand, b: Operand,
              dest: Optional[int] = None) -> int:
        dest = self.fn.new_reg() if dest is None else dest
        self.emit(Instr(op, dest=dest, a=a, b=b))
        return dest

    def add(self, a, b, dest=None):
        return self.binop(ops.ADD, a, b, dest)

    def sub(self, a, b, dest=None):
        return self.binop(ops.SUB, a, b, dest)

    def mul(self, a, b, dest=None):
        return self.binop(ops.MUL, a, b, dest)

    def shl(self, a, b, dest=None):
        return self.binop(ops.SHL, a, b, dest)

    def lshr(self, a, b, dest=None):
        return self.binop(ops.LSHR, a, b, dest)

    def cmp(self, op: int, a: Operand, b: Operand,
            dest: Optional[int] = None) -> int:
        dest = self.fn.new_reg() if dest is None else dest
        self.emit(Instr(op, dest=dest, a=a, b=b))
        return dest

    def select(self, cond: Operand, a: Operand, b: Operand,
               dest: Optional[int] = None) -> int:
        dest = self.fn.new_reg() if dest is None else dest
        self.emit(Instr(ops.SELECT, dest=dest, a=cond, b=a, c=b))
        return dest

    # -- memory -------------------------------------------------------------
    def load(self, ptr: Operand, size: int = 8, signed: bool = False,
             is_float: bool = False, is_pointer: bool = False,
             dest: Optional[int] = None) -> int:
        dest = self.fn.new_reg() if dest is None else dest
        self.emit(Instr(ops.LOAD, dest=dest, a=ptr, size=size, signed=signed,
                        is_float=is_float, is_pointer=is_pointer))
        return dest

    def store(self, value: Operand, ptr: Operand, size: int = 8,
              is_float: bool = False, is_pointer: bool = False) -> Instr:
        return self.emit(Instr(ops.STORE, a=ptr, b=value, size=size,
                               is_float=is_float, is_pointer=is_pointer))

    def gep(self, base: Operand, index: Optional[Operand] = None,
            scale: int = 1, offset: int = 0,
            dest: Optional[int] = None) -> int:
        """dest = base + index*scale + offset (byte addressing)."""
        dest = self.fn.new_reg() if dest is None else dest
        self.emit(Instr(ops.GEP, dest=dest, a=base, b=index, c=offset,
                        size=scale, is_pointer=True))
        return dest

    def alloca(self, size: int, align: int = 8,
               dest: Optional[int] = None) -> int:
        dest = self.fn.new_reg() if dest is None else dest
        self.emit(Instr(ops.ALLOCA, dest=dest, size=size, b=align))
        return dest

    # -- casts ----------------------------------------------------------------
    def trunc(self, value: Operand, size: int, dest: Optional[int] = None) -> int:
        dest = self.fn.new_reg() if dest is None else dest
        self.emit(Instr(ops.TRUNC, dest=dest, a=value, size=size))
        return dest

    def sext(self, value: Operand, from_size: int,
             dest: Optional[int] = None) -> int:
        dest = self.fn.new_reg() if dest is None else dest
        self.emit(Instr(ops.SEXT, dest=dest, a=value, size=from_size))
        return dest

    def sitofp(self, value: Operand, dest: Optional[int] = None) -> int:
        dest = self.fn.new_reg() if dest is None else dest
        self.emit(Instr(ops.SITOFP, dest=dest, a=value))
        return dest

    def fptosi(self, value: Operand, dest: Optional[int] = None) -> int:
        dest = self.fn.new_reg() if dest is None else dest
        self.emit(Instr(ops.FPTOSI, dest=dest, a=value))
        return dest

    # -- control flow -----------------------------------------------------
    def call(self, callee: Union[str, Operand], args: Sequence[Operand] = (),
             want_result: bool = True, dest: Optional[int] = None) -> Optional[int]:
        """Direct call when ``callee`` is a name, indirect when an operand."""
        if want_result and dest is None:
            dest = self.fn.new_reg()
        if isinstance(callee, str):
            self.emit(Instr(ops.CALL, dest=dest, name=callee, args=args))
        else:
            self.emit(Instr(ops.CALL, dest=dest, a=callee, args=args))
        return dest

    def ret(self, value: Optional[Operand] = None) -> Instr:
        return self.emit(Instr(ops.RET, a=value))

    def br(self, cond: Operand, if_true: str, if_false: str) -> Instr:
        return self.emit(Instr(ops.BR, a=cond, t1=if_true, t2=if_false))

    def jmp(self, target: str) -> Instr:
        return self.emit(Instr(ops.JMP, t1=target))

    def trap(self, message: str = "trap") -> Instr:
        return self.emit(Instr(ops.TRAP, name=message))

    # -- atomics ------------------------------------------------------------
    def atomicrmw(self, kind: str, ptr: Operand, value: Operand,
                  size: int = 8, dest: Optional[int] = None) -> int:
        dest = self.fn.new_reg() if dest is None else dest
        self.emit(Instr(ops.ATOMICRMW, dest=dest, a=ptr, b=value, size=size,
                        name=kind))
        return dest

    def cmpxchg(self, ptr: Operand, expected: Operand, desired: Operand,
                size: int = 8, dest: Optional[int] = None) -> int:
        dest = self.fn.new_reg() if dest is None else dest
        self.emit(Instr(ops.CMPXCHG, dest=dest, a=ptr, b=expected, c=desired,
                        size=size))
        return dest

    # -- MPX ----------------------------------------------------------------
    def bndmk(self, key_reg: int, base: Operand, size: Operand) -> Instr:
        return self.emit(Instr(ops.BNDMK, dest=key_reg, a=base, b=size))

    def bndcl(self, key_reg: int, ptr: Operand) -> Instr:
        return self.emit(Instr(ops.BNDCL, dest=key_reg, a=ptr))

    def bndcu(self, key_reg: int, ptr: Operand, size: int = 1) -> Instr:
        return self.emit(Instr(ops.BNDCU, dest=key_reg, a=ptr, size=size))

    def bndldx(self, key_reg: int, slot: Operand) -> Instr:
        return self.emit(Instr(ops.BNDLDX, dest=key_reg, a=slot))

    def bndstx(self, key_reg: int, slot: Operand) -> Instr:
        return self.emit(Instr(ops.BNDSTX, dest=key_reg, a=slot))
