"""Unit tests for the MiniC lexer, parser and compile memo."""

import pytest

from repro.errors import CompileError
from repro.harness.runner import SCHEMES
from repro.minic import _compile_template, compile_source
from repro.minic.lexer import tokenize
from repro.minic.parser import parse
from repro.minic import ast_nodes as ast
from repro.minic import ctypes as ct
from repro.passes.safe_access import run_safe_access
from repro.vm import VM


class TestLexer:
    def test_numbers(self):
        kinds = [(t.kind, t.value) for t in tokenize("42 0x1F 3.5 1e3")[:-1]]
        assert kinds == [("int", 42), ("int", 31), ("float", 3.5),
                         ("float", 1000.0)]

    def test_identifiers_and_keywords(self):
        tokens = tokenize("int foo while _bar2")
        assert tokens[0].kind == "kw"
        assert tokens[1] == tokens[1]._replace(kind="ident", value="foo")
        assert tokens[2].kind == "kw"
        assert tokens[3].value == "_bar2"

    def test_string_escapes(self):
        token = tokenize(r'"a\n\t\x41\0"')[0]
        assert token.value == b"a\n\tA\x00"

    def test_char_literals(self):
        assert tokenize("'a'")[0].value == ord("a")
        assert tokenize(r"'\n'")[0].value == 10

    def test_comments_skipped(self):
        tokens = tokenize("1 // line\n/* block\nmore */ 2")
        values = [t.value for t in tokens[:-1]]
        assert values == [1, 2]

    def test_operators_maximal_munch(self):
        values = [t.value for t in tokenize("a<<=b>>c->d++")[:-1]]
        assert "<<=" in values and ">>" in values and "->" in values \
            and "++" in values

    def test_line_tracking(self):
        tokens = tokenize("a\nb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3
        assert tokens[2].column == 3

    def test_unterminated_string(self):
        with pytest.raises(CompileError, match="unterminated"):
            tokenize('"oops')

    def test_bad_char(self):
        with pytest.raises(CompileError):
            tokenize("a $ b")


class TestParser:
    def test_function_and_params(self):
        unit, _ = parse("int add(int a, int b) { return a + b; }")
        fn = unit.decls[0]
        assert isinstance(fn, ast.FuncDef)
        assert fn.name == "add"
        assert [p[0] for p in fn.params] == ["a", "b"]

    def test_struct_definition(self):
        _, structs = parse("struct P { int x; double d; char tag[4]; };")
        struct = structs["P"]
        assert struct.offsets["x"] == 0
        assert struct.offsets["d"] == 8
        assert struct.offsets["tag"] == 16
        assert struct.size == 24

    def test_struct_alignment_padding(self):
        _, structs = parse("struct Q { char c; int x; };")
        assert structs["Q"].offsets["x"] == 8
        assert structs["Q"].size == 16

    def test_pointer_and_array_types(self):
        unit, _ = parse("int **pp; double mat[3][4];")
        pp, mat = unit.decls
        assert isinstance(pp.ctype, ct.Pointer)
        assert isinstance(pp.ctype.pointee, ct.Pointer)
        assert isinstance(mat.ctype, ct.Array)
        assert mat.ctype.count == 3
        assert mat.ctype.elem.count == 4

    def test_global_initializers(self):
        unit, _ = parse('int a = 5; int arr[3] = {1,2}; char *s = "hi";')
        assert isinstance(unit.decls[0].init, ast.Num)
        assert isinstance(unit.decls[1].init, ast.InitList)
        assert isinstance(unit.decls[2].init, ast.Str)

    def test_precedence(self):
        unit, _ = parse("int f() { return 1 + 2 * 3; }")
        ret = unit.decls[0].body.stmts[0]
        assert ret.value.op == "+"
        assert ret.value.right.op == "*"

    def test_ternary_and_logical(self):
        unit, _ = parse("int f(int x) { return x > 0 && x < 9 ? 1 : 2; }")
        ret = unit.decls[0].body.stmts[0]
        assert isinstance(ret.value, ast.Cond)
        assert ret.value.cond.op == "&&"

    def test_for_with_decl(self):
        unit, _ = parse("int f() { for (int i = 0; i < 4; i++) {} return 0; }")
        loop = unit.decls[0].body.stmts[0]
        assert isinstance(loop, ast.For)
        assert isinstance(loop.init, ast.Decl)

    def test_cast_vs_paren(self):
        unit, _ = parse("int f(int x) { return (int)x + (x); }")
        ret = unit.decls[0].body.stmts[0]
        assert isinstance(ret.value.left, ast.Cast)
        assert isinstance(ret.value.right, ast.Ident)

    def test_member_chains(self):
        unit, _ = parse(
            "struct P { int x; };"
            "int f(struct P *p) { return p->x; }")
        ret = unit.decls[0].body.stmts[0]
        assert isinstance(ret.value, ast.Member)
        assert ret.value.arrow

    def test_sizeof_forms(self):
        unit, _ = parse("int f(int x) { return sizeof(int) + sizeof(x); }")
        ret = unit.decls[0].body.stmts[0]
        assert isinstance(ret.value.left, ast.SizeofType)
        assert isinstance(ret.value.right, ast.SizeofExpr)

    def test_missing_semicolon(self):
        with pytest.raises(CompileError, match="expected"):
            parse("int f() { return 1 }")

    def test_break_outside_loop_caught_in_codegen(self):
        with pytest.raises(CompileError, match="break"):
            compile_source("int f() { break; return 0; }")

    def test_do_while(self):
        unit, _ = parse("int f() { int i = 0; do { i++; } while (i < 3); return i; }")
        assert isinstance(unit.decls[0].body.stmts[1], ast.DoWhile)

    def test_struct_redefinition_rejected(self):
        with pytest.raises(CompileError, match="redefined"):
            parse("struct A { int x; }; struct A { int y; };")


class TestCompileMemo:
    """``compile_source`` runs the frontend once per (source, name) and
    hands every caller a private clone of that one result."""

    SOURCE = """
    struct P { int a; int b; };
    int table[8];
    char *greeting = "hi";
    double scale = 1.5;
    int twice(int x) { return 2 * x; }
    int main() {
        struct P p;
        int local[4];
        int i;
        p.a = 1;
        p.b = 2;
        for (i = 0; i < 4; i++) {
            local[i] = i;
            table[i] = twice(local[i]);
        }
        local[3] = 7;
        return p.a + p.b + table[3] + local[3] + greeting[0]
            + (int)(scale * 2.0);
    }
    """
    NAME = "memo"
    EXPECTED = 1 + 2 + 6 + 7 + ord("h") + 3

    @staticmethod
    def dump(module):
        """Everything the frontend puts in a module, as plain values."""
        def value(v):
            return (type(v).__name__, repr(v))

        def instr(ins):
            return tuple(value(getattr(ins, slot)) for slot in ins.__slots__)

        return {
            "name": module.name,
            "meta": dict(module.meta),
            "globals": [
                (name, var.size, var.init, var.align, var.is_const,
                 var.array_elem, [(off, value(ref)) for off, ref in var.relocs])
                for name, var in module.globals.items()],
            "functions": [
                (name, fn.params, fn.varargs, fn.nregs, fn.reg_names,
                 [value(c) for c in fn.consts], fn.finalized,
                 [(blk.name, [instr(ins) for ins in blk.instrs])
                  for blk in fn.blocks])
                for name, fn in module.functions.items()],
        }

    def cold(self):
        _compile_template.cache_clear()
        return compile_source(self.SOURCE, self.NAME)

    def test_calls_return_distinct_equal_modules(self):
        first = self.cold()
        second = compile_source(self.SOURCE, self.NAME)
        assert first is not second
        for name, fn in first.functions.items():
            other = second.functions[name]
            assert fn is not other
            assert all(a is not b for a, b in zip(fn.blocks, other.blocks))
        assert self.dump(first) == self.dump(second)

    def test_callers_cannot_disturb_later_compiles(self):
        first = self.cold()
        pristine = self.dump(first)
        # Native last: it finalizes ``first`` itself.
        for scheme_name in sorted(SCHEMES, key=lambda n: n == "native"):
            scheme = SCHEMES[scheme_name]()
            module = scheme.instrument(first) if scheme else first
            vm = VM(scheme=scheme)
            vm.load(module.finalize())
            assert vm.run("main") == self.EXPECTED, scheme_name
        assert self.dump(first) != pristine
        raw = compile_source(self.SOURCE, self.NAME)
        assert run_safe_access(raw) > 0
        assert self.dump(raw) != pristine
        assert self.dump(compile_source(self.SOURCE, self.NAME)) == pristine
        assert self.dump(self.cold()) == pristine

    def test_compile_error_raised_on_every_call(self):
        bad = "int f() { break; return 0; }"
        cached = _compile_template.cache_info().currsize
        for _ in range(3):
            with pytest.raises(CompileError, match="break"):
                compile_source(bad, "bad")
        assert _compile_template.cache_info().currsize == cached
