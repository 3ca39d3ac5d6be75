"""MiniC: the C dialect the reproduction's workloads are written in."""

from functools import lru_cache

from repro.ir import Module, verify_module
from repro.minic.codegen import BUILTINS, compile_unit
from repro.minic.parser import parse

#: Distinct ``(source, name)`` pairs whose compiled module is kept.  One
#: experiment compiles a few dozen programs at most.
COMPILE_CACHE_SIZE = 256


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _compile_template(source: str, name: str) -> Module:
    """Run the frontend once per ``(source, name)``; never hand this
    module out — callers get clones.  A ``CompileError`` propagates and
    is not cached."""
    unit, structs = parse(source, name)
    module = compile_unit(unit, structs, name)
    verify_module(module)
    return module


def compile_source(source: str, name: str = "minic") -> Module:
    """Compile MiniC ``source`` into an (unfinalized) IR module.

    The module is left in basic-block form so instrumentation passes can
    transform it; call ``module.finalize()`` (the harness does) before
    handing it to the VM.  The frontend runs once per distinct
    ``(source, name)`` in a process; every call returns a private clone
    of that result, which the caller may mutate freely.
    """
    return _compile_template(source, name).clone()


__all__ = ["compile_source", "parse", "compile_unit", "BUILTINS"]
