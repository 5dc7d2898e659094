"""Custom declarative formats for types and attributes (§4.7)."""

import pytest

from repro.builtin import default_context, f32
from repro.ir import IntegerParam, StringParam
from repro.irdl import register_irdl
from repro.irdl.format import FormatError
from repro.textir.parser import IRParser
from repro.textir.printer import print_attribute, print_type
from repro.utils import DiagnosticError

SPEC = """
Dialect fmt {
  Type vec {
    Parameters (lanes: uint32_t, elementType: !AnyType)
    Format "$lanes x $elementType"
    Summary "A vector with a custom 'NxT' parameter syntax"
  }
  Attribute pair {
    Parameters (first: string, second: string)
    Format "$first -> $second"
  }
  Type plain {
    Parameters (p: uint32_t)
  }
}
"""


@pytest.fixture
def fmt_ctx():
    ctx = default_context()
    register_irdl(ctx, SPEC)
    return ctx


def vec(ctx, lanes, element=f32):
    return ctx.make_type("fmt.vec", [IntegerParam(lanes, 32, False), element])


class TestPrinting:
    def test_custom_type_format(self, fmt_ctx):
        assert print_type(vec(fmt_ctx, 4)) == "!fmt.vec<4 : uint32_t x f32>"

    def test_custom_attr_format(self, fmt_ctx):
        attr = fmt_ctx.make_attr("fmt.pair",
                                 [StringParam("a"), StringParam("b")])
        assert print_attribute(attr) == '#fmt.pair<"a" -> "b">'

    def test_str_uses_custom_format(self, fmt_ctx):
        assert str(vec(fmt_ctx, 2)) == "!fmt.vec<2 : uint32_t x f32>"

    def test_default_format_unchanged(self, fmt_ctx):
        plain = fmt_ctx.make_type("fmt.plain", [IntegerParam(1, 32, False)])
        assert print_type(plain) == "!fmt.plain<1 : uint32_t>"


class TestParsing:
    def test_roundtrip(self, fmt_ctx):
        ty = vec(fmt_ctx, 8)
        assert IRParser(fmt_ctx, print_type(ty)).parse_type() == ty

    def test_attr_roundtrip(self, fmt_ctx):
        attr = fmt_ctx.make_attr("fmt.pair",
                                 [StringParam("x"), StringParam("y")])
        parsed = IRParser(fmt_ctx, print_attribute(attr)).parse_attribute()
        assert parsed == attr

    def test_missing_literal_rejected(self, fmt_ctx):
        with pytest.raises(DiagnosticError):
            IRParser(fmt_ctx, "!fmt.vec<4 : uint32_t f32>").parse_type()

    def test_nested_inside_operation_type(self, fmt_ctx):
        from repro.textir import parse_module, print_op

        register_irdl(fmt_ctx, """
        Dialect user {
          Operation consume { Operands (v: !fmt.vec) }
        }
        """)
        module = parse_module(fmt_ctx, """
        "func.func"() ({
        ^bb0(%v: !fmt.vec<4 : uint32_t x f32>):
          "user.consume"(%v) : (!fmt.vec<4 : uint32_t x f32>) -> ()
          "func.return"() : () -> ()
        }) {sym_name = "f",
            function_type = (!fmt.vec<4 : uint32_t x f32>) -> ()} : () -> ()
        """)
        module.verify()
        text = print_op(module)
        assert "!fmt.vec<4 : uint32_t x f32>" in text
        assert print_op(parse_module(fmt_ctx.clone(), text)) == text


class TestValidation:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(FormatError, match="unknown parameter"):
            register_irdl(default_context(), """
            Dialect bad {
              Type t { Parameters (a: uint32_t) Format "$ghost" }
            }
            """)

    def test_all_parameters_required(self):
        with pytest.raises(FormatError, match="every parameter"):
            register_irdl(default_context(), """
            Dialect bad {
              Type t { Parameters (a: uint32_t, b: uint32_t) Format "$a" }
            }
            """)

    def test_duplicate_mention_rejected(self):
        with pytest.raises(FormatError, match="every parameter"):
            register_irdl(default_context(), """
            Dialect bad {
              Type t { Parameters (a: uint32_t) Format "$a $a" }
            }
            """)


#: Parameter formats over every literal class; ``box`` starts with a
#: literal, which prints with no space after the ``<``.
LITERALS = """
Dialect g {
  Type box {
    Parameters (w: uint32_t, h: uint32_t)
    Format "( $w , $h ) x"
  }
  Attribute span {
    Parameters (n: uint32_t, s: string)
    Format "[ $n ] < $s > = to"
  }
}
"""


class TestLiteralGoldens:
    """``print(parse(text))`` recorded before the format engine was
    reduced to the directive interpreter."""

    @pytest.fixture
    def gctx(self):
        ctx = default_context()
        register_irdl(ctx, LITERALS)
        return ctx

    def test_type_format_starting_with_a_literal(self, gctx):
        golden = "!g.box<( 2 : uint32_t, 3 : uint32_t) x>"
        once = print_type(IRParser(gctx, golden).parse_type())
        assert once == golden
        assert print_type(IRParser(gctx, once).parse_type()) == once

    def test_attribute_format_with_tight_and_spaced_literals(self, gctx):
        golden = '#g.span<[ 1 : uint32_t] < "s"> = to>'
        once = print_attribute(IRParser(gctx, golden).parse_attribute())
        assert once == golden
        assert print_attribute(
            IRParser(gctx, once).parse_attribute()) == once

    @pytest.mark.parametrize("text, message", [
        (
            "!g.box<( 2 : uint32_t, 3 : uint32_t) y>",
            "<input>:1:38: error: expected keyword 'x', found 'y'\n"
            "!g.box<( 2 : uint32_t, 3 : uint32_t) y>\n"
            "                                     ^",
        ),
        (
            "!g.box<( 2 : uint32_t, 3 : uint32_t) , >",
            "<input>:1:38: error: expected keyword 'x', found ','\n"
            "!g.box<( 2 : uint32_t, 3 : uint32_t) , >\n"
            "                                     ^",
        ),
        (
            "!g.box<( 2 : uint32_t 3 : uint32_t) x>",
            "<input>:1:23: error: expected ',', found '3'\n"
            "!g.box<( 2 : uint32_t 3 : uint32_t) x>\n"
            "                      ^",
        ),
    ], ids=["keyword", "keyword-vs-punctuation", "punctuation"])
    def test_literal_mismatch_diagnostics(self, gctx, text, message):
        with pytest.raises(DiagnosticError) as raised:
            IRParser(gctx, text).parse_type()
        assert str(raised.value) == message
