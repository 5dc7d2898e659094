"""Differential testing: compiled worklist driver vs the reference.

The rewriting-engine soundness claim is that the root-indexed compiled
matcher plus the incremental worklist walk is *behaviorally identical*
to the round-based re-walk reference (:class:`RoundBasedDriver`):
same final IR, same per-pattern application verdicts, same applied
remark stream, and a missed stream that only ever *omits* re-offers
the worklist proved unnecessary.  This suite checks that claim on the
conorm corpus flow, on a constant-folding workload, and on
Hypothesis-generated modules of random fold/DCE-able DAGs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.builtin import IntegerAttr, default_context, i32
from repro.ir import Block, Region
from repro.obs import RemarkEngine, install_remarks, reset
from repro.rewriting import GreedyPatternDriver, parse_patterns
from repro.rewriting.driver import RoundBasedDriver
from repro.textir import parse_module, print_op

CONORM_PATTERN = """
Pattern norm_of_product {
  Match {
    %na = cmath.norm(%a)
    %nb = cmath.norm(%b)
    %r = arith.mulf(%na, %nb)
  }
  Rewrite {
    %m = cmath.mul(%a, %b)
    %r = cmath.norm(%m)
  }
}
"""

CONORM_IR = """
"func.func"() ({
^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>):
  %np = cmath.norm %p : f32
  %nq = cmath.norm %q : f32
  %pq = "arith.mulf"(%np, %nq) : (f32, f32) -> (f32)
  "func.return"(%pq) : (f32) -> ()
}) {sym_name = "conorm",
    function_type = (!cmath.complex<f32>, !cmath.complex<f32>) -> f32}
   : () -> ()
"""


@pytest.fixture(autouse=True)
def clean_obs():
    reset()
    yield
    reset()


def _arith_patterns(ctx=None):
    from tests.rewriting.test_rewriting import (
        drop_dead_constants,
        fold_add_of_constants,
    )

    return [fold_add_of_constants, drop_dead_constants]


def _run_both(build_module, build_patterns, max_iterations=64):
    """Run one workload under both drivers; return the two outcomes."""
    outcomes = {}
    for mode, driver_class in (("compiled", GreedyPatternDriver),
                               ("reference", RoundBasedDriver)):
        reset()
        engine = install_remarks(RemarkEngine())
        try:
            ctx, module = build_module()
            driver = driver_class(
                ctx, build_patterns(ctx), max_iterations
            )
            changed = driver.run(module)
        finally:
            reset()
        outcomes[mode] = {
            "changed": changed,
            "ir": print_op(module),
            "applications": {
                label: stats.applications
                for label, stats in driver.pattern_stats.items()
            },
            "rewrites": driver.rewrites_applied,
            "applied": [
                (r.name, r.op, str(r.location))
                for r in engine.remarks if r.kind == "applied"
            ],
            "missed": [
                (r.name, r.op) for r in engine.remarks if r.kind == "missed"
            ],
        }
    return outcomes["compiled"], outcomes["reference"]


def _assert_equivalent(compiled, reference):
    assert compiled["changed"] == reference["changed"]
    assert compiled["ir"] == reference["ir"]
    assert compiled["applications"] == reference["applications"]
    assert compiled["rewrites"] == reference["rewrites"]
    # Within one generation the worklist driver processes ops in push
    # order, not program order, so the applied stream is compared as a
    # multiset; counts and final IR pin the rest.
    assert sorted(compiled["applied"]) == sorted(reference["applied"])
    # The worklist driver's whole point is fewer re-offers: its missed
    # stream must be a sub-multiset of the reference's, never invent
    # offers the reference would not have made.
    for item in set(compiled["missed"]):
        assert (
            compiled["missed"].count(item)
            <= reference["missed"].count(item)
        ), f"compiled driver over-offered {item}"


class TestCorpusDifferential:
    def test_conorm_flow(self):
        from repro.corpus import cmath_source
        from repro.irdl import register_irdl

        def build_module():
            ctx = default_context()
            register_irdl(ctx, cmath_source())
            return ctx, parse_module(ctx, CONORM_IR)

        def build_patterns(ctx):
            return parse_patterns(ctx, CONORM_PATTERN)

        compiled, reference = _run_both(build_module, build_patterns)
        _assert_equivalent(compiled, reference)
        assert compiled["rewrites"] == 1
        assert "cmath.mul" in compiled["ir"]

    def test_constant_folding_chain(self):
        def build_module():
            ctx = default_context()
            block = Block()
            value = None
            for i in range(1, 9):
                const = ctx.create_operation(
                    "arith.constant", result_types=[i32],
                    attributes={"value": IntegerAttr(i, i32)},
                )
                block.add_op(const)
                if value is None:
                    value = const.results[0]
                else:
                    add = ctx.create_operation(
                        "arith.addi", operands=[value, const.results[0]],
                        result_types=[i32],
                    )
                    block.add_op(add)
                    value = add.results[0]
            block.add_op(
                ctx.create_operation("func.return", operands=[value])
            )
            module = ctx.create_operation(
                "builtin.module", regions=[Region([block])]
            )
            return ctx, module

        compiled, reference = _run_both(build_module, _arith_patterns)
        _assert_equivalent(compiled, reference)
        assert compiled["ir"].count("arith.constant") == 1

    def test_missed_streams_identical_at_fixpoint(self):
        """On an input nothing rewrites, even the missed streams match."""
        def build_module():
            ctx = default_context()
            keep = ctx.create_operation(
                "arith.constant", result_types=[i32],
                attributes={"value": IntegerAttr(1, i32)},
            )
            user = ctx.create_operation(
                "func.return", operands=[keep.results[0]]
            )
            module = ctx.create_operation(
                "builtin.module", regions=[Region([Block(ops=[keep, user])])]
            )
            return ctx, module

        compiled, reference = _run_both(build_module, _arith_patterns)
        _assert_equivalent(compiled, reference)
        assert compiled["missed"] == reference["missed"]
        assert compiled["rewrites"] == 0


@st.composite
def module_programs(draw):
    """A random DAG program: constants, adds, and a subset kept alive.

    Encoded as instructions so the module can be rebuilt fresh for each
    driver run: ``("const", value)`` or ``("add", lhs_index, rhs_index)``
    plus the indices the final ``func.return`` keeps alive.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    instructions = []
    for index in range(n):
        if index < 2 or draw(st.booleans()):
            instructions.append(
                ("const", draw(st.integers(min_value=0, max_value=7)))
            )
        else:
            lhs = draw(st.integers(min_value=0, max_value=index - 1))
            rhs = draw(st.integers(min_value=0, max_value=index - 1))
            instructions.append(("add", lhs, rhs))
    kept = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=0, max_size=3, unique=True,
        )
    )
    return instructions, kept


def _build_program(ctx, program):
    instructions, kept = program
    block = Block()
    values = []
    for instruction in instructions:
        if instruction[0] == "const":
            op = ctx.create_operation(
                "arith.constant", result_types=[i32],
                attributes={"value": IntegerAttr(instruction[1], i32)},
            )
        else:
            op = ctx.create_operation(
                "arith.addi",
                operands=[values[instruction[1]], values[instruction[2]]],
                result_types=[i32],
            )
        block.add_op(op)
        values.append(op.results[0])
    if kept:
        block.add_op(ctx.create_operation(
            "func.return", operands=[values[i] for i in kept]
        ))
    return ctx.create_operation("builtin.module", regions=[Region([block])])


class TestHypothesisDifferential:
    @settings(max_examples=60, deadline=None)
    @given(program=module_programs())
    def test_random_fold_dce_programs(self, program):
        def build_module():
            ctx = default_context()
            return ctx, _build_program(ctx, program)

        compiled, reference = _run_both(build_module, _arith_patterns)
        _assert_equivalent(compiled, reference)

    @settings(max_examples=20, deadline=None)
    @given(
        program=module_programs(),
        max_iterations=st.integers(min_value=1, max_value=4),
    )
    def test_caps_bound_both_drivers(self, program, max_iterations):
        """Truncated runs stay within the cap and leave verifiable IR.

        Under a cap the two drivers may be stopped at different points
        of the (confluent) rewrite sequence — within one generation the
        worklist processes ops in push order — so final-IR parity is
        only promised at fixpoint; here both must merely respect
        ``max_iterations`` and never corrupt the module.
        """
        for driver_class in (GreedyPatternDriver, RoundBasedDriver):
            reset()
            ctx = default_context()
            module = _build_program(ctx, program)
            driver = driver_class(ctx, _arith_patterns(), max_iterations)
            driver.run(module)
            assert driver.rounds <= max_iterations
            module.verify()
