"""``--validate-rewrites``: unsound patterns are caught at the fire.

Each test seeds a deliberately *unsound* mutant pattern — one that
breaks def-use integrity, one that breaks dominance, one that emits
IR the verifier rejects — and pins that the validating driver aborts
with a :class:`VerifyError` naming the offending pattern, while the
non-validating driver silently corrupts the module (which is exactly
why the mode exists).
"""

import pytest

from repro.builtin import IntegerAttr, default_context, i32
from repro.ir import Block, Operation, Region, VerifyError
from repro.obs import RemarkEngine, install_remarks, reset
from repro.rewriting import (
    GreedyPatternDriver,
    apply_patterns_greedily,
    pattern,
)
from repro.rewriting.driver import RoundBasedDriver


@pytest.fixture(autouse=True)
def clean_obs():
    reset()
    yield
    reset()


def make_module(ctx, ops):
    return ctx.create_operation("builtin.module", regions=[Region([Block(ops=ops)])])


def constant(ctx, value):
    return ctx.create_operation(
        "arith.constant", result_types=[i32],
        attributes={"value": IntegerAttr(value, i32)},
    )


def addi_module(ctx):
    a, b = constant(ctx, 1), constant(ctx, 2)
    add = ctx.create_operation(
        "arith.addi", operands=[a.results[0], b.results[0]],
        result_types=[i32],
    )
    ret = ctx.create_operation("func.return", operands=[add.results[0]])
    return make_module(ctx, [a, b, add, ret])


# --- the seeded unsound mutants --------------------------------------------

@pattern(op_name="arith.addi")
def detaches_operand_producer(op, rewriter):
    # Unsound: rips a producer out of the block behind the rewriter's
    # back, leaving the matched op with a dangling operand.
    producer = op.operands[0].owner
    if not (isinstance(producer, Operation) and producer.parent is not None):
        return False
    producer.parent.detach_op(producer)
    return True


@pattern(op_name="arith.addi")
def sinks_replacement_below_uses(op, rewriter):
    # Unsound: the replacement constant ends up *after* the return that
    # uses it, so the use is no longer dominated by the definition.
    block = op.parent
    folded = rewriter.create(
        "arith.constant", result_types=[i32],
        attributes={"value": IntegerAttr(3, i32)}, before=op,
    )
    rewriter.replace_op(op, folded)
    block.detach_op(folded)
    block.add_op(folded)
    return True


@pattern(op_name="arith.addi")
def replaces_with_malformed_op(op, rewriter):
    # Unsound: the replacement drops the required "value" attribute, so
    # the registered verifier rejects the IR the pattern produced.
    bad = rewriter.create(
        "arith.constant", result_types=[i32], attributes={}, before=op,
    )
    rewriter.replace_op(op, bad)
    return True


@pattern(op_name="arith.addi")
def sound_fold(op, rewriter):
    lhs, rhs = (operand.owner for operand in op.operands)
    total = lhs.attributes["value"].value + rhs.attributes["value"].value
    folded = rewriter.create(
        "arith.constant", result_types=[i32],
        attributes={"value": IntegerAttr(total, i32)}, before=op,
    )
    rewriter.replace_op(op, folded)
    return True


class TestMutantsAreCaught:
    def test_def_use_breaker(self, ctx):
        module = addi_module(ctx)
        with pytest.raises(VerifyError, match="erased op arith.constant"):
            apply_patterns_greedily(ctx, module, [detaches_operand_producer],
                                    validate_rewrites=True)

    def test_dominance_breaker(self, ctx):
        module = addi_module(ctx)
        with pytest.raises(VerifyError, match="not dominated"):
            apply_patterns_greedily(ctx, module, [sinks_replacement_below_uses],
                                    validate_rewrites=True)

    def test_verifier_breaker(self, ctx):
        module = addi_module(ctx)
        with pytest.raises(VerifyError, match="broke IR invariants"):
            apply_patterns_greedily(ctx, module, [replaces_with_malformed_op],
                                    validate_rewrites=True)

    def test_error_names_the_pattern_and_op(self, ctx):
        module = addi_module(ctx)
        with pytest.raises(VerifyError) as excinfo:
            apply_patterns_greedily(ctx, module, [sinks_replacement_below_uses],
                                    validate_rewrites=True)
        message = str(excinfo.value)
        assert "sinks_replacement_below_uses" in message
        assert "arith.addi" in message

    def test_reference_driver_validates_too(self, ctx):
        module = addi_module(ctx)
        driver = RoundBasedDriver(ctx, [sinks_replacement_below_uses],
                                  validate_rewrites=True)
        with pytest.raises(VerifyError, match="not dominated"):
            driver.run(module)

    def test_without_flag_corruption_is_silent(self, ctx):
        # The exact hole --validate-rewrites plugs: the same mutant goes
        # unnoticed without the flag, and the module no longer verifies.
        module = addi_module(ctx)
        assert apply_patterns_greedily(ctx, module,
                                       [sinks_replacement_below_uses])
        with pytest.raises(VerifyError):
            from repro.ir.dominance import verify_dominance

            verify_dominance(module)


class TestValidationBookkeeping:
    def test_sound_pattern_validates_cleanly(self, ctx):
        module = addi_module(ctx)
        driver = GreedyPatternDriver(ctx, [sound_fold],
                                     validate_rewrites=True)
        assert driver.run(module)
        module.verify()
        assert driver.validations == 1
        assert driver.validation_failures == 0
        rows = dict(driver.statistics())
        assert rows["rewrite-validations"] == 1
        assert rows["rewrite-validation-failures"] == 0

    def test_no_validation_rows_when_disabled(self, ctx):
        module = addi_module(ctx)
        driver = GreedyPatternDriver(ctx, [sound_fold])
        assert driver.run(module)
        assert "rewrite-validations" not in dict(driver.statistics())

    def test_failure_emits_verify_failure_remark(self, ctx):
        engine = install_remarks(RemarkEngine())
        module = addi_module(ctx)
        with pytest.raises(VerifyError):
            apply_patterns_greedily(ctx, module, [sinks_replacement_below_uses],
                                    validate_rewrites=True)
        failures = [r for r in engine.remarks if r.kind == "verify-failure"]
        assert len(failures) == 1
        assert failures[0].name == "sinks_replacement_below_uses"
        assert "rewrite validation failed" in failures[0].message
