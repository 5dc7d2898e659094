"""Builtin types and attributes: construction, printing, verification."""

import pytest

from repro.builtin import (
    DYNAMIC,
    ArrayAttr,
    DictionaryAttr,
    FloatAttr,
    FloatType,
    FunctionType,
    IntegerAttr,
    IntegerType,
    MemRefType,
    Signedness,
    StringAttr,
    SymbolRefAttr,
    TensorType,
    TypeAttr,
    UnitAttr,
    VectorType,
    default_context,
    f32,
    f64,
    i1,
    i32,
    index,
)
from repro.ir import VerifyError
from repro.textir.parser import IRParser
from repro.tools.irdl_opt import main as irdl_opt_main


def parse_attribute(text):
    return IRParser(default_context(), text).parse_attribute()


class TestTypes:
    @pytest.mark.parametrize(
        "ty,text",
        [
            (i32, "i32"),
            (IntegerType(8, Signedness.SIGNED), "si8"),
            (IntegerType(16, Signedness.UNSIGNED), "ui16"),
            (f32, "f32"),
            (index, "index"),
            (FunctionType([i32], [f32]), "(i32) -> f32"),
            (FunctionType([], []), "() -> ()"),
            (FunctionType([], [i32, f32]), "() -> (i32, f32)"),
            (TensorType([4, DYNAMIC], f32), "tensor<4x?xf32>"),
            (TensorType([], f32), "tensor<f32>"),
            (VectorType([4], i32), "vector<4xi32>"),
            (MemRefType([2, 2], f64), "memref<2x2xf64>"),
        ],
    )
    def test_str(self, ty, text):
        assert str(ty) == text

    def test_shaped_helpers(self):
        tensor = TensorType([2, 3], f32)
        assert tensor.rank == 2
        assert tensor.has_static_shape()
        assert tensor.num_elements() == 6
        dynamic = TensorType([2, DYNAMIC], f32)
        assert not dynamic.has_static_shape()
        with pytest.raises(VerifyError):
            dynamic.num_elements()

    def test_vector_requires_static_shape(self):
        with pytest.raises(VerifyError):
            VectorType([DYNAMIC], f32).verify()
        with pytest.raises(VerifyError):
            VectorType([], f32).verify()

    def test_shaped_rejects_non_type_element(self):
        with pytest.raises(VerifyError):
            TensorType([2], StringAttr("x")).verify()

    def test_function_type_accessors(self):
        fn = FunctionType([i32, f32], [f64])
        assert fn.inputs == (i32, f32)
        assert fn.result_types == (f64,)


class TestAttributes:
    def test_integer_attr_range_check(self):
        IntegerAttr(127, IntegerType(8)).verify()
        with pytest.raises(VerifyError):
            IntegerAttr(4000, IntegerType(8)).verify()

    @pytest.mark.parametrize("literal", ["-3 : i2", "-1 : ui8", "200 : si8"])
    def test_integer_attr_outside_its_signedness_range_fails(
        self, literal, tmp_path, capsys
    ):
        value, _, type_name = literal.partition(" : ")
        attr = parse_attribute(literal)
        with pytest.raises(VerifyError,
                           match=f"value {value} does not fit in {type_name}"):
            attr.verify()
        ir = tmp_path / "in.mlir"
        ir.write_text(f'%a = "arith.constant"() {{value = {literal}}} '
                      f": () -> {type_name}\n")
        assert irdl_opt_main([str(ir)]) == 1
        assert f"value {value} does not fit in {type_name}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("literal", [
        "-2 : i2", "3 : i2", "255 : ui8", "0 : ui8", "-128 : si8",
        "127 : si8", "-9223372036854775808 : i64",
        "9223372036854775807 : ui64", "-9223372036854775808 : si4096",
    ])
    def test_integer_attr_at_its_range_edges_verifies(self, literal):
        parse_attribute(literal).verify()

    @pytest.mark.parametrize("value, width, signedness", [
        (4, 2, Signedness.SIGNLESS), (-3, 2, Signedness.SIGNLESS),
        (128, 8, Signedness.SIGNED), (-129, 8, Signedness.SIGNED),
        (256, 8, Signedness.UNSIGNED), (-1, 64, Signedness.UNSIGNED),
        (-1, 4096, Signedness.UNSIGNED),
    ])
    def test_integer_attr_one_past_its_range_fails(
        self, value, width, signedness
    ):
        with pytest.raises(VerifyError, match="does not fit"):
            IntegerAttr(value, IntegerType(width, signedness)).verify()

    @pytest.mark.parametrize("literal", ["0 : i0", "0 : si0", "0 : ui0"])
    def test_integer_attr_of_zero_width_fails_cleanly(
        self, literal, tmp_path, capsys
    ):
        type_name = literal.partition(" : ")[2]
        with pytest.raises(VerifyError, match="bitwidth must be positive"):
            parse_attribute(literal).verify()
        ir = tmp_path / "in.mlir"
        ir.write_text(f'%a = "arith.constant"() {{value = {literal}}} '
                      f": () -> {type_name}\n")
        assert irdl_opt_main([str(ir)]) == 1
        err = capsys.readouterr().err
        assert "bitwidth must be positive, got 0" in err
        assert "Traceback" not in err

    def test_integer_attr_requires_integer_type(self):
        with pytest.raises(VerifyError):
            IntegerAttr(1, f32).verify()

    def test_float_attr_requires_float_type(self):
        FloatAttr(1.5, f32).verify()
        with pytest.raises(VerifyError):
            FloatAttr(1.5, i32).verify()

    def test_string_attr_escaping(self):
        assert str(StringAttr('a"b')) == '"a\\"b"'

    def test_array_attr(self):
        array = ArrayAttr([IntegerAttr(1), IntegerAttr(2)])
        assert len(array) == 2
        array.verify()
        with pytest.raises(VerifyError):
            ArrayAttr([42]).verify()

    def test_dictionary_attr_sorted_and_lookup(self):
        attr = DictionaryAttr({"b": UnitAttr(), "a": StringAttr("x")})
        assert list(attr.entries) == ["a", "b"]
        assert attr.get("a") == StringAttr("x")
        assert attr.get("missing") is None

    def test_dictionary_equality_order_independent(self):
        first = DictionaryAttr({"a": UnitAttr(), "b": UnitAttr()})
        second = DictionaryAttr({"b": UnitAttr(), "a": UnitAttr()})
        assert first == second

    def test_symbol_ref(self):
        assert str(SymbolRefAttr("f")) == "@f"
        with pytest.raises(VerifyError):
            SymbolRefAttr("").verify()

    def test_type_attr(self):
        assert str(TypeAttr(i32)) == "i32"
        with pytest.raises(VerifyError):
            TypeAttr(StringAttr("x")).verify()


class TestNativeOpVerifiers:
    def make(self, ctx, name, **kwargs):
        return ctx.create_operation(name, **kwargs)

    def test_addf_happy_path(self, ctx):
        from repro.ir import Block

        block = Block([f32, f32])
        op = self.make(ctx, "arith.addf", operands=list(block.args),
                       result_types=[f32])
        op.verify()

    def test_addf_type_mismatch(self, ctx):
        from repro.ir import Block

        block = Block([f32, f64])
        op = self.make(ctx, "arith.addf", operands=list(block.args),
                       result_types=[f32])
        with pytest.raises(VerifyError):
            op.verify()

    def test_addf_rejects_integers(self, ctx):
        from repro.ir import Block

        block = Block([i32, i32])
        op = self.make(ctx, "arith.addf", operands=list(block.args),
                       result_types=[i32])
        with pytest.raises(VerifyError, match="floats"):
            op.verify()

    def test_constant_type_must_match(self, ctx):
        op = self.make(ctx, "arith.constant", result_types=[i32],
                       attributes={"value": IntegerAttr(1, i32)})
        op.verify()
        bad = self.make(ctx, "arith.constant", result_types=[f32],
                        attributes={"value": IntegerAttr(1, i32)})
        with pytest.raises(VerifyError):
            bad.verify()

    def test_cmpi_predicate_check(self, ctx):
        from repro.ir import Block

        block = Block([i32, i32])
        good = self.make(ctx, "arith.cmpi", operands=list(block.args),
                         result_types=[i1],
                         attributes={"predicate": StringAttr("slt")})
        good.verify()
        bad = self.make(ctx, "arith.cmpi", operands=list(block.args),
                        result_types=[i1],
                        attributes={"predicate": StringAttr("wat")})
        with pytest.raises(VerifyError):
            bad.verify()

    def test_func_signature_checked(self, ctx):
        from repro.ir import Block, Region

        body = Block([i32])
        body.add_op(ctx.create_operation("func.return",
                                         operands=[body.args[0]]))
        func = self.make(
            ctx, "func.func",
            attributes={
                "sym_name": StringAttr("f"),
                "function_type": TypeAttr(FunctionType([i32], [i32])),
            },
            regions=[Region([body])],
        )
        func.verify()

    def test_func_entry_mismatch(self, ctx):
        from repro.ir import Block, Region

        body = Block([f32])
        func = self.make(
            ctx, "func.func",
            attributes={
                "sym_name": StringAttr("f"),
                "function_type": TypeAttr(FunctionType([i32], [])),
            },
            regions=[Region([body])],
        )
        with pytest.raises(VerifyError, match="entry argument"):
            func.verify()

    def test_return_checks_function_results(self, ctx):
        from repro.ir import Block, Region

        body = Block([i32])
        body.add_op(ctx.create_operation("func.return", operands=[]))
        func = self.make(
            ctx, "func.func",
            attributes={
                "sym_name": StringAttr("f"),
                "function_type": TypeAttr(FunctionType([i32], [i32])),
            },
            regions=[Region([body])],
        )
        with pytest.raises(VerifyError, match="returns 0 values"):
            func.verify()

    def test_br_checks_block_arguments(self, ctx):
        from repro.ir import Block, Region

        region = Region([Block(), Block([i32])])
        entry, target = region.blocks
        producer = ctx.create_operation("arith.constant", result_types=[f32],
                                        attributes={"value": FloatAttr(0.0, f32)})
        entry.add_op(producer)
        branch = ctx.create_operation("cf.br", operands=[producer.results[0]],
                                      successors=[target])
        entry.add_op(branch)
        with pytest.raises(VerifyError, match="mismatch"):
            branch.verify()
