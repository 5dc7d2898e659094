"""Runtime dialect registration (§3): the no-recompilation workflow."""

import pytest

from repro.builtin import default_context, f32
from repro.ir import Context, VerifyError
from repro.irdl import register_irdl
from repro.irdl.resolver import ResolutionError
from repro.textir import parse_module


class TestRegistration:
    def test_registered_dialect_is_immediately_usable(self, cmath_ctx):
        # Build, parse, and verify with no compilation step in between.
        ty = cmath_ctx.make_type("cmath.complex", [f32])
        assert ty.param("elementType") is f32
        op = cmath_ctx.create_operation("cmath.create_constant",
                                        result_types=[ty],
                                        attributes={})
        with pytest.raises(VerifyError):
            op.verify()  # missing re/im attributes

    def test_dialect_def_exposed_for_introspection(self, cmath_ctx):
        binding = cmath_ctx.get_dialect("cmath")
        dialect_def = binding.irdl_def
        assert dialect_def.get_op("mul") is not None
        assert dialect_def.get_type("complex") is not None
        assert dialect_def.get_op("mul").summary == "Multiply two complex numbers"

    def test_duplicate_registration_rejected(self, cmath_ctx):
        from repro.corpus import cmath_source

        with pytest.raises(ResolutionError, match="already registered"):
            register_irdl(cmath_ctx, cmath_source())

    def test_failed_registration_rolls_back(self):
        ctx = default_context()
        with pytest.raises(ResolutionError):
            register_irdl(ctx, """
            Dialect broken {
              Type fine {}
              Operation bad { Operands (x: !no.such_type) }
            }
            """)
        assert ctx.get_dialect("broken") is None
        # The context remains usable and the name is free again.
        register_irdl(ctx, "Dialect broken { Type fine {} }")

    @pytest.mark.parametrize("encoding", ["text", "bytecode"])
    def test_a_failing_dialect_unregisters_the_earlier_ones(
        self, encoding, tmp_path
    ):
        from repro.bytecode import encode_dialects
        from repro.irdl import load_irdl_file, parse_irdl

        fresh = "Dialect fresh { Operation op { Results(out: !i32) } }\n"
        source = fresh + "Dialect arith { Operation other {} }\n"
        path = tmp_path / "fresh.irdl"
        if encoding == "text":
            path.write_text(source)
        else:
            path.write_bytes(encode_dialects(parse_irdl(source)))
        ctx = default_context()
        arith = ctx.dialects["arith"]
        with pytest.raises(ResolutionError,
                           match="dialect 'arith' is already registered"):
            register_irdl(ctx, source)
        with pytest.raises(ResolutionError,
                           match="dialect 'arith' is already registered"):
            load_irdl_file(ctx, str(path))
        assert ctx.get_dialect("fresh") is None
        assert ctx.dialects["arith"] is arith

        defs = register_irdl(ctx, fresh)
        assert [d.name for d in defs] == ["fresh"]
        assert ctx.get_op_def("fresh.op") is not None

    def test_type_parameter_verification_on_instantiate(self, cmath_ctx):
        from repro.builtin import i32

        with pytest.raises(VerifyError, match="elementType"):
            cmath_ctx.make_type("cmath.complex", [i32])

    def test_parameter_arity_checked(self, cmath_ctx):
        with pytest.raises(VerifyError, match="expects 1 parameters"):
            cmath_ctx.make_type("cmath.complex", [f32, f32])

    def test_dynamic_types_are_uniqued_structurally(self, cmath_ctx):
        first = cmath_ctx.make_type("cmath.complex", [f32])
        second = cmath_ctx.make_type("cmath.complex", [f32])
        assert first == second and hash(first) == hash(second)

    def test_optional_operand_listing6(self, cmath_ctx):
        from repro.ir import Block

        ty = cmath_ctx.make_type("cmath.complex", [f32])
        block = Block([ty, f32])
        one = cmath_ctx.create_operation("cmath.log",
                                         operands=[block.args[0]],
                                         result_types=[ty])
        one.verify()
        two = cmath_ctx.create_operation("cmath.log",
                                         operands=list(block.args),
                                         result_types=[ty])
        two.verify()

    def test_create_constant_listing5(self, cmath_ctx):
        from repro.builtin import FloatAttr

        ty = cmath_ctx.make_type("cmath.complex", [f32])
        op = cmath_ctx.create_operation(
            "cmath.create_constant", result_types=[ty],
            attributes={"re": FloatAttr(1.0, f32), "im": FloatAttr(2.0, f32)},
        )
        op.verify()
        from repro.builtin import f64, FloatAttr as FA

        bad = cmath_ctx.create_operation(
            "cmath.create_constant", result_types=[ty],
            attributes={"re": FA(1.0, f64), "im": FA(2.0, f32)},
        )
        with pytest.raises(VerifyError):
            bad.verify()


class TestMultiDialectInterplay:
    def test_cross_dialect_type_references(self):
        ctx = default_context()
        register_irdl(ctx, """
        Dialect handles { Type handle {} }
        Dialect user {
          Operation consume { Operands (h: !handles.handle) }
        }
        """)
        from repro.ir import Block

        handle = ctx.make_type("handles.handle")
        block = Block([handle])
        ctx.create_operation("user.consume", operands=list(block.args)).verify()

    def test_unqualified_cross_reference_rejected(self):
        ctx = default_context()
        with pytest.raises(ResolutionError, match="unknown name"):
            register_irdl(ctx, """
            Dialect handles { Type handle {} }
            Dialect user { Operation consume { Operands (h: !handle) } }
            """)

    def test_parse_ir_mixing_three_dialects(self, cmath_ctx):
        module = parse_module(cmath_ctx, """
        "func.func"() ({
        ^bb0(%p: !cmath.complex<f32>):
          %n = cmath.norm %p : f32
          %two = "arith.mulf"(%n, %n) : (f32, f32) -> (f32)
          "func.return"(%two) : (f32) -> ()
        }) {sym_name = "f", function_type = (!cmath.complex<f32>) -> f32}
           : () -> ()
        """)
        module.verify()
        dialects = {op.dialect_name for op in module.walk()}
        assert dialects == {"builtin", "func", "cmath", "arith"}
