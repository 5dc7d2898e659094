"""Parser-attached locations and the loc(...) print/parse round-trip."""

import pytest

from repro.builtin import default_context
from repro.bytecode import decode_module, encode_module
from repro.ir import UNKNOWN_LOC, FileLineColLoc, FusedLoc
from repro.textir import parse_module, print_op

IR = """\
"func.func"() ({
^bb0(%p: !cmath.complex<f32>):
  %n = cmath.norm %p : f32
  "func.return"(%n) : (f32) -> ()
}) {sym_name = "f", function_type = (!cmath.complex<f32>) -> f32} : () -> ()
"""


class TestParserLocations:
    def test_every_parsed_op_has_a_span_location(self, cmath_ctx):
        module = parse_module(cmath_ctx, IR, "f.mlir")
        for op in module.walk():
            assert isinstance(op.location, FileLineColLoc), op.name
            assert op.location.filename == "f.mlir"

    def test_positions_point_at_the_op_token(self, cmath_ctx):
        module = parse_module(cmath_ctx, IR, "f.mlir")
        by_name = {op.name: op.location for op in module.walk()}
        assert by_name["func.func"] == FileLineColLoc("f.mlir", 1, 1)
        assert by_name["cmath.norm"] == FileLineColLoc("f.mlir", 3, 8)
        assert by_name["func.return"] == FileLineColLoc("f.mlir", 4, 3)

    def test_synthesized_module_wrapper_is_line_one(self, cmath_ctx):
        module = parse_module(cmath_ctx, IR, "f.mlir")
        assert module.location == FileLineColLoc("f.mlir", 1, 1)


class TestLocationSyntax:
    def test_explicit_loc_suffix_wins(self, ctx):
        module = parse_module(ctx, """
        %c = "arith.constant"() {value = 1 : i32} : () -> (i32) loc("orig.c":12:5)
        """, "f.mlir")
        (op,) = list(module.walk(include_self=False))
        assert op.location == FileLineColLoc("orig.c", 12, 5)

    def test_unknown_loc(self, ctx):
        module = parse_module(ctx, """
        %c = "arith.constant"() {value = 1 : i32} : () -> (i32) loc(unknown)
        """, "f.mlir")
        (op,) = list(module.walk(include_self=False))
        assert op.location.is_unknown

    def test_fused_loc(self, ctx):
        module = parse_module(ctx, """
        %c = "arith.constant"() {value = 1 : i32} : () -> (i32) \
            loc(fused["a.c":1:2, "b.c":3:4])
        """, "f.mlir")
        (op,) = list(module.walk(include_self=False))
        assert op.location == FusedLoc([
            FileLineColLoc("a.c", 1, 2), FileLineColLoc("b.c", 3, 4),
        ])


class TestPrintLocations:
    def test_suffix_hidden_by_default(self, cmath_ctx):
        module = parse_module(cmath_ctx, IR, "f.mlir")
        assert "loc(" not in print_op(module)

    def test_round_trip_through_text(self, cmath_ctx):
        module = parse_module(cmath_ctx, IR, "f.mlir")
        text = print_op(module, print_locations=True)
        assert 'loc("f.mlir":3:8)' in text
        reparsed = parse_module(cmath_ctx, text, "reprint.mlir")
        for before, after in zip(module.walk(), reparsed.walk()):
            assert before.location == after.location, before.name

    def test_fused_round_trip(self, ctx):
        module = parse_module(ctx, """
        %c = "arith.constant"() {value = 1 : i32} : () -> (i32) \
            loc(fused["a.c":1:2, "b.c":3:4])
        """, "f.mlir")
        text = print_op(module, print_locations=True)
        reparsed = parse_module(ctx, text, "again.mlir")
        (op,) = list(reparsed.walk(include_self=False))
        assert op.location == FusedLoc([
            FileLineColLoc("a.c", 1, 2), FileLineColLoc("b.c", 3, 4),
        ])

    @pytest.mark.parametrize("suffix, expected", [
        ('loc(fused["a.mlir":1:2, unknown])', FileLineColLoc("a.mlir", 1, 2)),
        ("loc(fused[unknown])", UNKNOWN_LOC),
        ('loc(fused["a.mlir":1:2, fused["b.mlir":3:4, "a.mlir":1:2]])',
         FusedLoc([FileLineColLoc("a.mlir", 1, 2),
                   FileLineColLoc("b.mlir", 3, 4)])),
    ])
    def test_parsed_fused_loc_is_normalized_and_encodes(self, suffix,
                                                        expected):
        # A parsed fused location is built as Location.fuse builds one,
        # so IRBC, which stores only file positions inside a fused
        # location, round-trips it.
        context = default_context(allow_unregistered=True)
        module = parse_module(context, f'"t.u"() : () -> () {suffix}\n',
                              "f.mlir")
        (op,) = list(module.walk(include_self=False))
        assert op.location == expected
        text = print_op(module, print_locations=True)
        decoded = decode_module(context, encode_module(module))
        assert print_op(decoded, print_locations=True) == text
        assert print_op(parse_module(context, text, "again.mlir"),
                        print_locations=True) == text
