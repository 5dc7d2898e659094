"""Textual IR parsing: types, attributes, operations, regions, errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.builtin import (
    DYNAMIC,
    FloatAttr,
    FunctionType,
    IntegerAttr,
    StringAttr,
    TensorType,
    UnitAttr,
    VectorType,
    f32,
    f64,
    i1,
    i32,
    index,
)
from repro.ir import ArrayParam, EnumParam, IntegerParam, StringParam
from repro.textir.parser import IRParser, parse_module
from repro.utils import DiagnosticError


SRC = Path(__file__).resolve().parents[2] / "src"


def type_of(ctx, text):
    return IRParser(ctx, text).parse_type()


def attr_of(ctx, text):
    return IRParser(ctx, text).parse_attribute()


class TestTypeParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("i32", i32),
            ("f64", f64),
            ("index", index),
            ("tensor<4x?xf32>", TensorType([4, DYNAMIC], f32)),
            ("tensor<f32>", TensorType([], f32)),
            ("vector<4xi32>", VectorType([4], i32)),
            ("vector<2x4xf32>", VectorType([2, 4], f32)),
            ("(i32) -> f32", FunctionType([i32], [f32])),
            ("() -> ()", FunctionType([], [])),
            ("(i32, f32) -> (i32, f32)", FunctionType([i32, f32], [i32, f32])),
        ],
    )
    def test_builtin_types(self, ctx, text, expected):
        assert type_of(ctx, text) == expected

    def test_unknown_type_rejected(self, ctx):
        with pytest.raises(DiagnosticError, match="unknown"):
            type_of(ctx, "!nope.t")

    def test_dialect_type_with_params(self, cmath_ctx):
        ty = type_of(cmath_ctx, "!cmath.complex<f32>")
        assert ty.parameters == (f32,)

    def test_dialect_type_param_verified_at_parse(self, cmath_ctx):
        with pytest.raises(DiagnosticError, match="elementType"):
            type_of(cmath_ctx, "!cmath.complex<i32>")

    def test_shorthand_resolves_to_builtin(self, ctx):
        assert type_of(ctx, "!f32") is f32


class TestParamParsing:
    def param(self, ctx, text):
        return IRParser(ctx, text).parse_param()

    def test_integer_with_suffix(self, ctx):
        assert self.param(ctx, "5 : uint32_t") == IntegerParam(5, 32, False)

    def test_integer_default(self, ctx):
        assert self.param(ctx, "5") == IntegerParam(5, 32, True)

    def test_negative_integer(self, ctx):
        assert self.param(ctx, "-3 : int64_t") == IntegerParam(-3, 64, True)

    def test_string_param(self, ctx):
        assert self.param(ctx, '"abc"') == StringParam("abc")

    def test_array_param(self, ctx):
        value = self.param(ctx, "[1, 2]")
        assert isinstance(value, ArrayParam) and len(value) == 2

    def test_enum_param(self, ctx):
        value = self.param(ctx, "signedness.Signed")
        assert value == EnumParam("builtin.signedness", "Signed")

    def test_unknown_enum_constructor(self, ctx):
        with pytest.raises(DiagnosticError, match="no constructor"):
            self.param(ctx, "signedness.Sideways")

    def test_type_param(self, ctx):
        assert self.param(ctx, "f32") == f32

    @pytest.mark.parametrize("text", ["256 : uint8_t", "-1 : uint32_t",
                                      "2147483648"])
    def test_integer_past_its_width_is_a_diagnostic(self, ctx, text):
        with pytest.raises(DiagnosticError, match=r":1:1: error: value "
                           r"-?\d+ does not fit in u?int\d+_t"):
            self.param(ctx, text)


class TestAttributeParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ('"hi"', StringAttr("hi")),
            ("42", IntegerAttr(42)),
            ("42 : i32", IntegerAttr(42, i32)),
            ("-7 : i32", IntegerAttr(-7, i32)),
            ("2.5 : f32", FloatAttr(2.5, f32)),
            ("1 : f32", FloatAttr(1.0, f32)),
            ("unit", UnitAttr()),
            ("true", IntegerAttr(1, i1)),
            ("false", IntegerAttr(0, i1)),
        ],
    )
    def test_literals(self, ctx, text, expected):
        assert attr_of(ctx, text) == expected

    def test_array_attr(self, ctx):
        attr = attr_of(ctx, "[1 : i32, \"x\"]")
        assert len(attr.elements) == 2

    def test_dict_attr(self, ctx):
        attr = attr_of(ctx, '{a = 1 : i32, b}')
        assert attr.get("b") == UnitAttr()

    def test_symbol_ref(self, ctx):
        assert attr_of(ctx, "@main").data == "main"

    def test_type_as_attribute(self, ctx):
        # Types are attributes: a bare type denotes itself.
        attr = attr_of(ctx, "(i32) -> f32")
        assert attr == FunctionType([i32], [f32])


def constant_op(literal, split):
    """An ``arith.constant`` of ``literal``: one line, which the parser
    reads without tokens, or split before its attributes, which it reads
    token by token."""
    type_name = literal.partition(" : ")[2]
    gap = "\n    " if split else " "
    return (f'%a = "arith.constant"(){gap}{{value = {literal}}} '
            f": () -> {type_name}\n")


SPLIT = pytest.mark.parametrize("split", [False, True],
                                ids=["one-line", "split"])


class TestIntegerLiteralRange:
    """``IntegerAttr`` stores its value in 64 signed bits, so a literal
    past them is a parse error at its token, on both parse paths."""

    @SPLIT
    @pytest.mark.parametrize("literal", [
        "9223372036854775808 : i64", "18446744073709551615 : ui64",
        "9223372036854775808 : i128", "-9223372036854775809 : i64",
    ])
    def test_literal_past_int64_is_a_diagnostic(self, literal, split,
                                                tmp_path):
        path = tmp_path / "in.mlir"
        path.write_text(constant_op(literal, split))
        value = literal.partition(" : ")[0]
        line, column = (2, 14) if split else (1, 34)
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.irdl_opt", str(path)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert result.returncode == 1
        assert (f"{path}:{line}:{column}: error: integer literal {value} "
                "is outside the signed 64-bit range") in result.stderr
        assert "Traceback" not in result.stderr

    @SPLIT
    @pytest.mark.parametrize("literal", [
        "9223372036854775807 : i64", "-9223372036854775808 : i64",
    ])
    def test_int64_edges_parse_and_verify(self, ctx, literal, split):
        module = parse_module(ctx, constant_op(literal, split))
        module.verify()
        (op,) = module.regions[0].blocks[0].ops
        assert op.attributes["value"].value == int(
            literal.partition(" : ")[0])


#: An integer literal past the largest double (about 1.8e308).
HUGE = "1" + "0" * 400


class TestFloatLiteralRange:
    """An integer literal typed as a float past the largest double is a
    parse error at its token, in attribute and in parameter position,
    on both parse paths."""

    @SPLIT
    @pytest.mark.parametrize("attribute, column", [
        (f"{HUGE} : f64", 14),
        (f"#float_attr<{HUGE} : f64, f64>", 26),
    ], ids=["attribute", "parameter"])
    def test_literal_past_double_is_a_diagnostic(self, attribute, column,
                                                 split, tmp_path):
        path = tmp_path / "in.mlir"
        gap = "\n    " if split else " "
        path.write_text(f'%a = "arith.constant"(){gap}{{value = {attribute}}}'
                        " : () -> f64\n")
        line, column = (2, column) if split else (1, column + 20)
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.irdl_opt", str(path)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert result.returncode == 1
        assert (f"{path}:{line}:{column}: error: integer literal {HUGE} "
                "is too large for a floating-point value") in result.stderr
        assert "Traceback" not in result.stderr


#: An integer literal past CPython's limit on integer string conversion
#: (4,300 digits by default).
LONG = "1" + "0" * 5000


class TestIntegerLiteralDigits:
    """An integer literal too long for ``int`` to convert is a parse
    error at its token, typed as an integer or as a float, on both parse
    paths."""

    @SPLIT
    @pytest.mark.parametrize("literal", [f"{LONG} : i64", f"{LONG} : f64"],
                             ids=["i64", "f64"])
    def test_literal_past_the_digit_limit_is_a_diagnostic(self, literal,
                                                          split, tmp_path):
        path = tmp_path / "in.mlir"
        path.write_text(constant_op(literal, split))
        line, column = (2, 14) if split else (1, 34)
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.irdl_opt", str(path)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert result.returncode == 1
        assert (f"{path}:{line}:{column}: error: integer literal of 5001 "
                "digits exceeds the limit of") in result.stderr
        assert "Traceback" not in result.stderr


class TestOperations:
    def test_results_and_operands(self, ctx):
        module = parse_module(ctx, """
        %c = "arith.constant"() {value = 1 : i32} : () -> (i32)
        %s = "arith.addi"(%c, %c) : (i32, i32) -> (i32)
        """)
        ops = module.regions[0].blocks[0].ops
        assert [op.name for op in ops] == ["arith.constant", "arith.addi"]
        assert ops[1].operands[0] is ops[0].results[0]

    def test_forward_reference_across_blocks(self, ctx):
        module = parse_module(ctx, """
        "func.func"() ({
          "cf.br"()[^bb1] : () -> ()
        ^bb1:
          %x = "arith.constant"() {value = 1 : i32} : () -> (i32)
          "cf.br"()[^bb2] : () -> ()
        ^bb2:
          %y = "arith.addi"(%x, %x) : (i32, i32) -> (i32)
          "func.return"() : () -> ()
        }) {sym_name = "f", function_type = () -> ()} : () -> ()
        """)
        module.verify()

    def test_undefined_value_rejected(self, ctx):
        with pytest.raises(DiagnosticError, match="undefined SSA value"):
            parse_module(ctx, '"func.return"(%ghost) : (i32) -> ()')

    def test_double_definition_rejected(self, ctx):
        with pytest.raises(DiagnosticError, match="defined twice"):
            parse_module(ctx, """
            %x = "arith.constant"() {value = 1 : i32} : () -> (i32)
            %x = "arith.constant"() {value = 2 : i32} : () -> (i32)
            """)

    def test_type_mismatch_on_use_rejected(self, ctx):
        with pytest.raises(DiagnosticError, match="used with type"):
            parse_module(ctx, """
            %x = "arith.constant"() {value = 1 : i32} : () -> (i32)
            "func.return"(%x) : (f32) -> ()
            """)

    def test_undefined_block_rejected(self, ctx):
        with pytest.raises(DiagnosticError, match="undefined block"):
            parse_module(ctx, """
            "func.func"() ({
              "cf.br"()[^nowhere] : () -> ()
            }) {sym_name = "f", function_type = () -> ()} : () -> ()
            """)

    def test_sibling_functions_can_reuse_names(self, ctx):
        module = parse_module(ctx, """
        "func.func"() ({
        ^bb0(%x: i32):
          "func.return"(%x) : (i32) -> ()
        }) {sym_name = "f", function_type = (i32) -> i32} : () -> ()
        "func.func"() ({
        ^bb0(%x: f32):
          "func.return"(%x) : (f32) -> ()
        }) {sym_name = "g", function_type = (f32) -> f32} : () -> ()
        """)
        module.verify()

    def test_operand_count_type_mismatch(self, ctx):
        with pytest.raises(DiagnosticError, match="operand types"):
            parse_module(ctx, """
            %x = "arith.constant"() {value = 1 : i32} : () -> (i32)
            "func.return"(%x) : () -> ()
            """)

    def test_unregistered_op_rejected(self, ctx):
        with pytest.raises(DiagnosticError, match="not registered"):
            parse_module(ctx, '"mystery.op"() : () -> ()')

    def test_custom_format_requires_declaration(self, ctx):
        with pytest.raises(DiagnosticError, match="no custom assembly format"):
            parse_module(ctx, "%x = arith.constant 1 : i32")

    def test_module_wraps_multiple_top_level_ops(self, ctx):
        module = parse_module(ctx, """
        %a = "arith.constant"() {value = 1 : i32} : () -> (i32)
        %b = "arith.constant"() {value = 2 : i32} : () -> (i32)
        """)
        assert module.name == "builtin.module"
        assert len(module.regions[0].blocks[0].ops) == 2

    def test_result_count_mismatch(self, ctx):
        with pytest.raises(DiagnosticError, match="results"):
            parse_module(
                ctx, '%a, %b = "arith.constant"() {value = 1 : i32} : () -> (i32)'
            )
