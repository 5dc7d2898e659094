"""The compiled matcher table, the worklist driver, and its satellites.

Everything here runs under *both* drivers (the compiled worklist
:class:`GreedyPatternDriver` and the round-based re-walk reference
:class:`RoundBasedDriver`) unless it targets one of them specifically:
the drivers promise the same observable semantics.
"""

import pytest

from repro.analysis.lints import lint_pattern_set
from repro.builtin import IntegerAttr, i32
from repro.ir import Block, Operation, Region
from repro.obs import RemarkEngine, install_remarks, reset
from repro.rewriting import (
    GreedyPatternDriver,
    MatcherTable,
    PatternSlot,
    PatternStatistics,
    RewritePattern,
    apply_patterns_greedily,
    pattern,
)
from repro.rewriting import matcher
from repro.rewriting.driver import RoundBasedDriver


@pytest.fixture(params=[GreedyPatternDriver, RoundBasedDriver],
                ids=["compiled", "reference"])
def driver_class(request):
    """Run the test once per driver: the class under test."""
    return request.param


@pytest.fixture(autouse=True)
def clean_obs():
    reset()
    yield
    reset()


def make_module(ctx, ops):
    block = Block(ops=ops)
    return ctx.create_operation("builtin.module", regions=[Region([block])])


def constant(ctx, value):
    return ctx.create_operation(
        "arith.constant", result_types=[i32],
        attributes={"value": IntegerAttr(value, i32)},
    )


class TestStaleNestedOps:
    """Regression: ops inside an erased ancestor must not be offered."""

    def test_nested_ops_of_erased_region_op_are_skipped(self, ctx, driver_class):
        ctx.allow_unregistered = True
        offered = []

        @pattern(op_name="test.wrapper")
        def erase_wrapper(op, rewriter):
            rewriter.erase_op(op)
            return True

        @pattern(op_name="test.inner")
        def record_inner(op, rewriter):
            offered.append(op)
            return False

        inner = ctx.create_operation("test.inner")
        wrapper = ctx.create_operation(
            "test.wrapper", regions=[Region([Block(ops=[inner])])]
        )
        module = make_module(ctx, [wrapper])
        # The wrapper is visited first (pre-order) and erased; the
        # nested op is detached *transitively* (its own parent link is
        # intact — only the wrapper's is cleared) and must be skipped.
        driver_class(ctx, [erase_wrapper, record_inner]).run(module)
        assert offered == []
        assert [op.name for op in module.walk(include_self=False)] == []

    def test_directly_erased_op_still_skipped(self, ctx, driver_class):
        offered = []

        @pattern(op_name="arith.constant", benefit=5)
        def erase_dead(op, rewriter):
            if any(r.has_uses for r in op.results):
                return False
            rewriter.erase_op(op)
            return True

        @pattern(op_name="arith.constant", benefit=1)
        def record(op, rewriter):
            offered.append(op)
            return False

        dead = constant(ctx, 1)
        module = make_module(ctx, [dead])
        driver_class(ctx, [erase_dead, record]).run(module)
        assert dead not in offered


class TestLabelCollisions:
    """Colliding pattern labels must not share one statistics row."""

    class Marker(RewritePattern):
        op_name = "arith.constant"

        def __init__(self, value, log):
            self.value = value
            self.log = log

        def match_and_rewrite(self, op, rewriter):
            if op.attributes["value"].value != self.value:
                return False
            self.log.append(self.value)
            return False

    def test_two_instances_of_one_class(self, ctx, driver_class):
        log = []
        driver = driver_class(
            ctx, [self.Marker(1, log), self.Marker(2, log)]
        )
        driver.run(make_module(ctx, [constant(ctx, 1), constant(ctx, 2)]))
        assert set(driver.pattern_stats) == {"Marker", "Marker#2"}
        # Each instance was offered both constants; a shared row would
        # show 4 attempts on one label and none on the other.
        assert driver.pattern_stats["Marker"].attempts == 2
        assert driver.pattern_stats["Marker#2"].attempts == 2

    def test_two_wrapped_functions_with_one_name(self, ctx, driver_class):
        def make(tag, log):
            @pattern(op_name="arith.constant")
            def probe(op, rewriter):
                log.append(tag)
                return False
            return probe

        log = []
        driver = driver_class(ctx, [make("a", log), make("b", log)])
        driver.run(make_module(ctx, [constant(ctx, 7)]))
        assert set(driver.pattern_stats) == {"probe", "probe#2"}
        assert driver.pattern_stats["probe"].attempts == 1
        assert driver.pattern_stats["probe#2"].attempts == 1
        rows = dict(driver.statistics())
        assert rows["probe.match-attempts"] == 1
        assert rows["probe#2.match-attempts"] == 1


class TestDriverSemantics:
    """Contracts the worklist rewrite must preserve."""

    def test_benefit_descending_order(self, ctx, driver_class):
        fired = []

        @pattern(op_name="arith.constant", benefit=1)
        def low(op, rewriter):
            fired.append("low")
            return False

        @pattern(op_name="arith.constant", benefit=9)
        def high(op, rewriter):
            fired.append("high")
            return False

        @pattern(benefit=5)
        def middle_catchall(op, rewriter):
            fired.append("middle")
            return False

        module = make_module(ctx, [constant(ctx, 1)])
        driver_class(ctx, [low, middle_catchall, high]).run(module)
        assert fired == ["high", "middle", "low"]

    def test_max_iterations_caps_revisits(self, ctx, driver_class):
        @pattern(op_name="arith.constant")
        def ping(op, rewriter):
            value = op.attributes["value"].value
            replacement = rewriter.create(
                "arith.constant", result_types=[i32],
                attributes={"value": IntegerAttr(1 - value, i32)}, before=op,
            )
            rewriter.replace_op(op, replacement)
            return True

        keep = constant(ctx, 0)
        user = ctx.create_operation("func.return", operands=[keep.results[0]])
        module = make_module(ctx, [keep, user])
        driver = driver_class(ctx, [ping], max_iterations=7)
        driver.run(module)
        module.verify()
        assert driver.rounds == 7
        assert driver.rewrites_applied == 7

    def test_statistics_accumulate_across_runs(self, ctx, driver_class):
        @pattern(op_name="arith.constant")
        def drop_dead(op, rewriter):
            if any(r.has_uses for r in op.results):
                return False
            rewriter.erase_op(op)
            return True

        driver = driver_class(ctx, [drop_dead])
        driver.run(make_module(ctx, [constant(ctx, 1)]))
        first_rounds = driver.rounds
        assert driver.rewrites_applied == 1
        driver.run(make_module(ctx, [constant(ctx, 2), constant(ctx, 3)]))
        assert driver.rewrites_applied == 3
        assert driver.pattern_stats["drop_dead"].applications == 3
        assert driver.rounds > first_rounds

    def test_erased_operand_defs_are_revisited(self, ctx, driver_class):
        """Erasing a user must re-offer the now-dead defining ops."""
        from tests.rewriting.test_rewriting import (
            drop_dead_constants,
            fold_add_of_constants,
        )

        a, b = constant(ctx, 1), constant(ctx, 2)
        add = ctx.create_operation(
            "arith.addi", operands=[a.results[0], b.results[0]],
            result_types=[i32],
        )
        keep = ctx.create_operation("func.return", operands=[add.results[0]])
        module = make_module(ctx, [a, b, add, keep])
        driver = driver_class(
            ctx, [fold_add_of_constants, drop_dead_constants]
        )
        driver.run(module)
        assert driver.rewrites_applied == 3
        names = [op.name for op in module.walk(include_self=False)]
        assert names == ["arith.constant", "func.return"]

    def test_remark_streams_match_reference(self, ctx):
        def run(driver_class):
            reset()
            engine = install_remarks(RemarkEngine())
            from tests.rewriting.test_rewriting import (
                drop_dead_constants,
                fold_add_of_constants,
            )
            a, b = constant(ctx, 1), constant(ctx, 2)
            add = ctx.create_operation(
                "arith.addi", operands=[a.results[0], b.results[0]],
                result_types=[i32],
            )
            keep = ctx.create_operation(
                "func.return", operands=[add.results[0]]
            )
            module = make_module(ctx, [a, b, add, keep])
            driver_class(
                ctx, [fold_add_of_constants, drop_dead_constants]
            ).run(module)
            remarks = [
                (r.kind, r.origin, r.name, r.op) for r in engine.remarks
            ]
            reset()
            return remarks

        compiled = run(GreedyPatternDriver)
        reference = run(RoundBasedDriver)
        applied = [r for r in compiled if r[0] == "applied"]
        assert applied == [r for r in reference if r[0] == "applied"]
        # The worklist driver never re-offers unaffected IR, so its
        # missed stream is a sub-multiset of the reference's re-walks.
        missed = [r for r in compiled if r[0] == "missed"]
        reference_missed = [r for r in reference if r[0] == "missed"]
        for item in set(missed):
            assert missed.count(item) <= reference_missed.count(item)


class TestMatcherTable:
    """Direct checks of the compiled dispatch structure."""

    def _slots(self, patterns):
        # The driver hands the table benefit-sorted slots; mirror that.
        return [
            PatternSlot(p, PatternStatistics(), p.label)
            for p in sorted(patterns, key=lambda p: -p.benefit)
        ]

    def test_unknown_root_costs_one_lookup(self, ctx):
        @pattern(op_name="arith.addi")
        def only_add(op, rewriter):
            return False

        table = MatcherTable(self._slots([only_add]))
        assert table.bucket_for("arith.addi") is not None
        assert table.bucket_for("func.return") is None
        assert table.catchall is None

    def test_catchall_merged_into_every_bucket(self, ctx):
        @pattern(op_name="arith.addi", benefit=1)
        def indexed(op, rewriter):
            return False

        @pattern(benefit=5)
        def anywhere(op, rewriter):
            return False

        table = MatcherTable(self._slots([indexed, anywhere]))
        bucket = table.bucket_for("arith.addi")
        assert [slot.label for slot in bucket.slots] == ["anywhere", "indexed"]
        assert table.bucket_for("func.return") is table.catchall
        assert [slot.label for slot in table.catchall.slots] == ["anywhere"]

    def test_arity_prefix_skips_residual(self, ctx):
        calls = []

        @pattern(op_name="arith.addi", operand_arity=2)
        def binary_only(op, rewriter):
            calls.append(op.name)
            return False

        unary = ctx.create_operation(
            "arith.addi", operands=[], result_types=[i32]
        )
        module = make_module(ctx, [unary])
        driver = GreedyPatternDriver(ctx, [binary_only])
        driver.run(module)
        assert calls == []
        # The offer still counts as an attempt, exactly like the
        # reference driver's interpretive loop would tally it.
        assert driver.pattern_stats["binary_only"].attempts == 1

    def test_attr_prefix_identity_and_equality(self, ctx):
        calls = []
        want = IntegerAttr(7, i32)

        @pattern(op_name="arith.constant", root_attrs={"value": want})
        def match_seven(op, rewriter):
            calls.append(op.attributes["value"].value)
            return False

        module = make_module(ctx, [constant(ctx, 7), constant(ctx, 8)])
        apply_patterns_greedily(ctx, module, [match_seven])
        assert calls == [7]

    def test_generated_source_inlines_prefix(self, ctx):
        @pattern(op_name="arith.addi", operand_arity=2, result_arity=1)
        def binary(op, rewriter):
            return False

        table = MatcherTable(self._slots([binary]))
        source = table.sources()["arith.addi"]
        assert "len(op.operands) == 2" in source
        assert "len(op.results) == 1" in source

    def test_declarative_pattern_declares_arity(self, cmath_ctx):
        from repro.rewriting import parse_patterns

        text = """
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
        (decl_pattern,) = parse_patterns(cmath_ctx, text)
        assert decl_pattern.op_name == "arith.mulf"
        assert decl_pattern.operand_arity == 2
        assert decl_pattern.result_arity == 1

    def test_stats_counters_track_compilation(self, ctx):
        @pattern(op_name="arith.addi")
        def indexed(op, rewriter):
            return False

        before = dict(matcher.STATS)
        MatcherTable(self._slots([indexed]))
        assert matcher.STATS["tables_compiled"] == before["tables_compiled"] + 1
        assert matcher.STATS["buckets_compiled"] > before["buckets_compiled"]
        assert matcher.STATS["source_bytes"] > before["source_bytes"]


class TestUnindexedPatternLint:
    def test_lint_pattern_set_flags_missing_op_name(self):
        @pattern()
        def catchall(op, rewriter):
            return False

        @pattern(op_name="arith.addi")
        def indexed(op, rewriter):
            return False

        findings = lint_pattern_set([catchall, indexed])
        assert [f.code for f in findings] == ["unindexed-rewrite-pattern"]
        assert findings[0].severity == "warning"
        assert findings[0].subject == "catchall"

    def test_suppressed_per_pattern_and_set_wide(self):
        @pattern(suppressions=["unindexed-rewrite-pattern"])
        def quiet(op, rewriter):
            return False

        @pattern()
        def loud(op, rewriter):
            return False

        assert lint_pattern_set([quiet]) == []
        assert lint_pattern_set(
            [loud], suppress=["unindexed-rewrite-pattern"]
        ) == []

    def test_driver_emits_lint_remark_on_both_paths(self, ctx, driver_class):
        @pattern()
        def catchall(op, rewriter):
            return False

        engine = install_remarks(RemarkEngine())
        driver_class(ctx, [catchall])
        lint = [r for r in engine.remarks if r.kind == "lint"]
        assert len(lint) == 1
        assert lint[0].name == "unindexed-rewrite-pattern"
        assert "catchall" in lint[0].message

    def test_driver_lint_remark_respects_suppression(self, ctx, driver_class):
        @pattern(suppressions=["unindexed-rewrite-pattern"])
        def quiet(op, rewriter):
            return False

        engine = install_remarks(RemarkEngine())
        driver_class(ctx, [quiet])
        assert [r for r in engine.remarks if r.kind == "lint"] == []
