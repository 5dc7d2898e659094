"""Definition-time code generation: emitted shape, soundness."""

import pytest

from repro.builtin import IntegerAttr, StringAttr, default_context, f32, i32
from repro.ir import Block, VerifyError
from repro.ir.operation import Operation
from repro.irdl import codegen, register_irdl
from repro.irdl.plan import CONSTRAINT_MEMO, verify_parameters

SOURCE = """
Dialect cg {
  Type pair { Parameters (first: !AnyType, second: !AnyType) }
  Operation kernel {
    Operands (lhs: !i32, rhs: !i32)
    Results (out: !i32)
    Attributes (label: string_attr)
  }
  Operation unified {
    ConstraintVars (T: !AnyType)
    Operands (a: T, b: T)
    Results (r: T)
  }
  Operation multivar {
    Operands (xs: Variadic<!i32>, ys: Variadic<!f32>)
  }
}
"""


@pytest.fixture
def ctx():
    context = default_context()
    register_irdl(context, SOURCE)
    return context


def values(*types):
    return list(Block(list(types)).args)


class TestGeneratedVerifiers:
    def test_op_verifier_is_compiled_with_source(self, ctx):
        verifier = ctx.get_op_def("cg.kernel")._verifier
        source = verifier.generated_source
        assert "def __irdl_verify(op):" in source
        assert "expects 2 operands" in source
        # The plan stays attached for introspection.
        assert verifier.plan.operand_checks.plan.n_defs == 2

    def test_eq_constraints_compile_to_identity_tests(self, ctx):
        source = ctx.get_op_def("cg.kernel")._verifier.generated_source
        assert " is _e" in source  # `v is <interned expected>` fast path

    def test_accepts_valid_and_rejects_invalid(self, ctx):
        binding = ctx.get_op_def("cg.kernel")
        good = Operation(
            "cg.kernel",
            operands=values(i32, i32),
            result_types=[i32],
            attributes={"label": StringAttr.get("k")},
        )
        binding.verify(good)
        bad = Operation(
            "cg.kernel",
            operands=values(i32, f32),
            result_types=[i32],
            attributes={"label": StringAttr.get("k")},
        )
        with pytest.raises(VerifyError, match="operand 'rhs'"):
            binding.verify(bad)

    def test_variable_constraints_stay_uncompiled_per_run(self, ctx):
        binding = ctx.get_op_def("cg.unified")
        binding.verify(
            Operation("cg.unified", operands=values(i32, i32),
                      result_types=[i32])
        )
        with pytest.raises(VerifyError, match="already bound"):
            binding.verify(
                Operation("cg.unified", operands=values(i32, f32),
                          result_types=[i32])
            )

    def test_multi_variadic_uses_segment_sizes(self, ctx):
        binding = ctx.get_op_def("cg.multivar")
        source = binding._verifier.generated_source
        assert ".match(" in source  # baked SegmentPlan constant
        op = Operation("cg.multivar", operands=values(i32, f32))
        with pytest.raises(VerifyError, match="operand_segment_sizes"):
            binding.verify(op)

    def test_generated_path_still_feeds_the_memo(self, ctx):
        CONSTRAINT_MEMO.clear()
        binding = ctx.get_op_def("cg.kernel")
        label = StringAttr.get("hot")
        op = Operation(
            "cg.kernel", operands=values(i32, i32), result_types=[i32],
            attributes={"label": label},
        )
        binding.verify(op)
        hits_before = CONSTRAINT_MEMO.hits
        binding.verify(op)
        assert CONSTRAINT_MEMO.hits > hits_before


class TestGeneratedParamVerifiers:
    def test_param_verifier_compiled(self, ctx):
        pair = ctx.get_type_or_attr_def("cg.pair")
        assert "def __irdl_verify_params(parameters):" in (
            pair.generated_param_source
        )

    def test_arity_and_constraint_errors_match_interpretive(self, ctx):
        pair = ctx.get_type_or_attr_def("cg.pair")
        with pytest.raises(VerifyError) as compiled_err:
            pair.instantiate((i32,))
        with pytest.raises(VerifyError) as interp_err:
            verify_parameters(pair.type_def, (i32,))
        assert str(compiled_err.value) == str(interp_err.value)

    def test_valid_instantiation_interns(self, ctx):
        pair = ctx.get_type_or_attr_def("cg.pair")
        assert pair.instantiate((i32, f32)) is pair.instantiate((i32, f32))


class TestStatsAndMetrics:
    def test_stats_grow_with_registration(self):
        before = dict(codegen.STATS)
        context = default_context()
        register_irdl(context, SOURCE.replace("cg", "cgstats"))
        assert codegen.STATS["definitions_compiled"] > (
            before["definitions_compiled"]
        )
        assert codegen.STATS["source_bytes"] > before["source_bytes"]

    def test_metrics_counters_when_enabled(self):
        from repro.obs import enable_metrics, reset

        registry = enable_metrics()
        try:
            context = default_context()
            register_irdl(context, SOURCE.replace("cg", "cgmetrics"))
            # Op verifiers lower on first use: reading each generated
            # source lowers the three ops inside the metered window.
            for binding in context.dialects["cgmetrics"].operations.values():
                assert binding._verifier.generated_source
            assert registry.value_of(
                "irdl.codegen.definitions_compiled") >= 4
            assert registry.value_of("irdl.codegen.source_bytes") > 0
        finally:
            reset()
