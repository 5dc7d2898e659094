"""Declarative assembly formats (§4.7): derived parsers and printers."""

import pytest

from repro.builtin import default_context, f32, f64
from repro.ir import Block, VerifyError
from repro.irdl import register_irdl
from repro.irdl.format import FormatError
from repro.textir import parse_module, print_op
from repro.utils import DiagnosticError


@pytest.fixture
def fctx(cmath_ctx):
    return cmath_ctx


def complex_of(ctx, element):
    return ctx.make_type("cmath.complex", [element])


class TestPrinting:
    def test_mul_prints_custom_format(self, fctx):
        ty = complex_of(fctx, f32)
        block = Block([ty, ty])
        op = fctx.create_operation("cmath.mul", operands=list(block.args),
                                   result_types=[ty])
        assert print_op(op) == "%0 = cmath.mul %1, %2 : f32"

    def test_norm_prints_custom_format(self, fctx):
        ty = complex_of(fctx, f64)
        block = Block([ty])
        op = fctx.create_operation("cmath.norm", operands=list(block.args),
                                   result_types=[f64])
        assert print_op(op) == "%0 = cmath.norm %1 : f64"


class TestParsing:
    def test_mul_reconstructs_types_from_element(self, fctx):
        module = parse_module(fctx, """
        "func.func"() ({
        ^bb0(%p: !cmath.complex<f64>, %q: !cmath.complex<f64>):
          %r = cmath.mul %p, %q : f64
          "func.return"() : () -> ()
        }) {sym_name = "m", function_type = (!cmath.complex<f64>,
            !cmath.complex<f64>) -> ()} : () -> ()
        """)
        module.verify()
        mul = next(op for op in module.walk() if op.name == "cmath.mul")
        assert mul.results[0].type == complex_of(fctx, f64)

    def test_norm_binds_var_from_type(self, fctx):
        module = parse_module(fctx, """
        "func.func"() ({
        ^bb0(%p: !cmath.complex<f32>):
          %n = cmath.norm %p : f32
          "func.return"(%n) : (f32) -> ()
        }) {sym_name = "n", function_type = (!cmath.complex<f32>) -> f32}
           : () -> ()
        """)
        module.verify()
        norm = next(op for op in module.walk() if op.name == "cmath.norm")
        assert norm.results[0].type == f32
        assert norm.operands[0].type == complex_of(fctx, f32)

    def test_missing_literal_rejected(self, fctx):
        with pytest.raises(DiagnosticError):
            parse_module(fctx, """
            "func.func"() ({
            ^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>):
              %r = cmath.mul %p %q : f32
              "func.return"() : () -> ()
            }) {sym_name = "m", function_type = (!cmath.complex<f32>,
                !cmath.complex<f32>) -> ()} : () -> ()
            """)

    def test_operand_type_checked_against_reconstruction(self, fctx):
        # %p has element f32 but the format says f64.
        with pytest.raises(DiagnosticError, match="type"):
            parse_module(fctx, """
            "func.func"() ({
            ^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>):
              %r = cmath.mul %p, %q : f64
              "func.return"() : () -> ()
            }) {sym_name = "m", function_type = (!cmath.complex<f32>,
                !cmath.complex<f32>) -> ()} : () -> ()
            """)

    def test_roundtrip_through_custom_format(self, fctx):
        text = """
        "func.func"() ({
        ^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>):
          %m = cmath.mul %p, %q : f32
          %n = cmath.norm %m : f32
          "func.return"(%n) : (f32) -> ()
        }) {sym_name = "f", function_type = (!cmath.complex<f32>,
            !cmath.complex<f32>) -> f32} : () -> ()
        """
        module = parse_module(fctx, text)
        once = print_op(module)
        again = print_op(parse_module(fctx.clone(), once))
        assert once == again
        assert "cmath.mul %p, %q : f32" in once


class TestFormatValidation:
    def register(self, text):
        return register_irdl(default_context(), text)

    def test_unknown_name_rejected(self):
        with pytest.raises(FormatError, match="unknown name"):
            self.register("""
            Dialect d {
              Operation op { Operands (a: !f32) Format "$a, $ghost" }
            }
            """)

    def test_uninferable_type_rejected(self):
        with pytest.raises(FormatError, match="cannot be inferred"):
            self.register("""
            Dialect d {
              Operation op { Operands (a: !AnyType) Format "$a" }
            }
            """)

    def test_unmentioned_operand_rejected(self):
        with pytest.raises(FormatError, match="does not mention"):
            self.register("""
            Dialect d {
              Operation op { Operands (a: !f32, b: !f32) Format "$a" }
            }
            """)

    def test_variadic_operands_unsupported(self):
        with pytest.raises(FormatError, match="non-variadic"):
            self.register("""
            Dialect d {
              Operation op {
                Operands (a: Variadic<!f32>)
                Format "$a"
              }
            }
            """)

    def test_region_ops_cannot_declare_formats(self):
        with pytest.raises(FormatError, match="regions or successors"):
            self.register("""
            Dialect d {
              Operation op {
                Region body {
                }
                Format "body"
              }
            }
            """)

    def test_terminators_cannot_declare_formats(self):
        with pytest.raises(FormatError, match="regions or successors"):
            self.register("""
            Dialect d {
              Operation op {
                Operands (c: !i1)
                Successors (a, b)
                Format "$c"
              }
            }
            """)

    @pytest.mark.parametrize("fmt, char, offset", [
        ("$a - $b", "-", 3),
        ("$a $ $b", "$", 3),
        ("$a 2 $b", "2", 3),
        ("$a, $b {", "{", 7),
        ("$a + $b * x", "+", 3),
    ], ids=["minus", "dollar", "digit", "brace", "first-of-two"])
    def test_unsupported_character_rejected(self, fmt, char, offset):
        with pytest.raises(FormatError) as raised:
            self.register(f"""
            Dialect d {{
              Operation op {{
                Operands (a: !f32, b: !f32)
                Format "{fmt}"
              }}
            }}
            """)
        assert raised.value.message == (
            f"d.op: format {fmt!r} has an unsupported character {char!r} "
            f"at offset {offset}"
        )

    def test_eq_constrained_types_need_no_annotation(self):
        ctx = default_context()
        register_irdl(ctx, """
        Dialect d {
          Operation pin {
            Operands (a: !f32)
            Results (r: !f32)
            Format "$a"
          }
        }
        """)
        block = Block([f32])
        op = ctx.create_operation("d.pin", operands=list(block.args),
                                  result_types=[f32])
        assert print_op(op) == "%0 = d.pin %1"

    def test_attribute_directive(self):
        ctx = default_context()
        register_irdl(ctx, """
        Dialect d {
          Operation tagged {
            Attributes (tag: string_attr)
            Format "$tag"
          }
        }
        """)
        module = parse_module(ctx, '"builtin.module"() ({ d.tagged "hello" }) : () -> ()')
        op = next(op for op in module.walk() if op.name == "d.tagged")
        assert op.attributes["tag"].data == "hello"
        assert 'd.tagged "hello"' in print_op(module)

    def test_keyword_literals(self):
        ctx = default_context()
        register_irdl(ctx, """
        Dialect d {
          Operation move {
            Operands (src: !f32, dst: !f32)
            Format "$src to $dst"
          }
        }
        """)
        block = Block([f32, f32])
        op = ctx.create_operation("d.move", operands=list(block.args))
        text = print_op(op)
        assert text == "d.move %0 to %1"


#: One operation format with every literal class: the tight literals
#: ``, ) ] >`` print with no space before them, the spaced literals
#: ``( [ < = -> :`` and keywords print after one space.
LITERALS = """
Dialect g {
  Operation all {
    Operands (a: !i32, b: !i32, c: !i32)
    Attributes (tag: string_attr)
    Format "( $a ) [ $b ] < $c > = $tag -> to , : x"
  }
}
"""

LITERALS_LINE = 'g.all ( %a) [ %b] < %c> = "t" -> to, : x'

LITERALS_MODULE = """\
"func.func"() ({
^bb0(%a: i32, %b: i32, %c: i32):
  LINE
  "func.return"() : () -> ()
}) {sym_name = "f", function_type = (i32, i32, i32) -> ()} : () -> ()
"""

#: ``print(parse(LITERALS_MODULE))``, recorded before the format engine
#: was reduced to the directive interpreter.
LITERALS_GOLDEN = """\
"builtin.module"() ({
  "func.func"() ({
    ^bb0(%a: i32, %b: i32, %c: i32):
      g.all ( %a) [ %b] < %c> = "t" -> to, : x
      "func.return"() : () -> ()
  }) {function_type = (i32, i32, i32) -> (), sym_name = "f"} : () -> ()
}) : () -> ()"""


class TestLiteralGoldens:
    @pytest.fixture
    def gctx(self):
        ctx = default_context()
        register_irdl(ctx, LITERALS)
        return ctx

    def parse_line(self, ctx, line):
        return parse_module(ctx, LITERALS_MODULE.replace("LINE", line))

    def test_print_parse_print(self, gctx):
        once = print_op(self.parse_line(gctx, LITERALS_LINE))
        assert once == LITERALS_GOLDEN
        assert print_op(parse_module(gctx, once)) == once

    @pytest.mark.parametrize("line, message", [
        (
            'g.all ( %a) [ %b] < %c> = "t" -> too, : x',
            "<input>:3:36: error: expected keyword 'to', found 'too'\n"
            '  g.all ( %a) [ %b] < %c> = "t" -> too, : x\n'
            "                                   ^~~",
        ),
        (
            'g.all ( %a) [ %b] < %c> = "t" -> , : x',
            "<input>:3:36: error: expected keyword 'to', found ','\n"
            '  g.all ( %a) [ %b] < %c> = "t" -> , : x\n'
            "                                   ^",
        ),
        (
            'g.all ( %a] [ %b] < %c> = "t" -> to, : x',
            "<input>:3:13: error: expected ')', found ']'\n"
            '  g.all ( %a] [ %b] < %c> = "t" -> to, : x\n'
            "            ^",
        ),
    ], ids=["keyword", "keyword-vs-punctuation", "punctuation"])
    def test_literal_mismatch_diagnostics(self, gctx, line, message):
        with pytest.raises(DiagnosticError) as raised:
            self.parse_line(gctx, line)
        assert str(raised.value) == message
