"""The pipeline hooks: parser, instantiation, verifier, driver, passes."""

import io

import pytest

from repro.builtin import default_context, f32
from repro.corpus import cmath_source
from repro.ir.exceptions import VerifyError
from repro.obs import (
    OBS,
    MetricsRegistry,
    count_ops,
    enable_metrics,
    install_tracer,
    reset,
)
from repro.rewriting import (
    Canonicalizer,
    DeadCodeElimination,
    GreedyPatternDriver,
    PassManager,
    pattern,
)
from repro.textir import parse_module

CONORM = """
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


@pytest.fixture
def ctx():
    from repro.irdl import register_irdl

    context = default_context()
    register_irdl(context, cmath_source())
    return context


@pytest.fixture
def metrics():
    registry = enable_metrics(MetricsRegistry())
    yield registry
    reset()


@pytest.fixture
def tracer():
    installed = install_tracer()
    yield installed
    reset()


class TestParserInstrumentation:
    def test_parse_records_tokens_ops_and_time(self, ctx, metrics):
        module = parse_module(ctx, CONORM)
        assert metrics.value_of("textir.parser.ops_parsed") == count_ops(module)
        assert metrics.value_of("textir.lexer.tokens") > 20
        timer = metrics.timer("textir.parser.parse_time")
        assert timer.count == 1 and timer.total > 0.0

    def test_disabled_parse_records_nothing(self, ctx):
        assert not OBS.active
        parse_module(ctx, CONORM)
        assert OBS.metrics.snapshot()["counters"] == {}


def _example_modules() -> list[str]:
    """Textual modules: custom formats and regions, several top-level
    ops, generic-form synth IR, and IR generated from cmath's IRDL."""
    from repro.corpus import register_bench_dialect, synthesize_module
    from repro.irdl import register_irdl
    from repro.irdl.irgen import IRGenerator, seed_values_dialect
    from repro.textir import print_op

    context = default_context()
    defs = register_irdl(context, cmath_source())
    defs += register_irdl(context, seed_values_dialect())
    register_bench_dialect(context)
    two_ops = (
        '%a = "arith.constant"() {value = 1 : i32} : () -> (i32)\n'
        '%b = "arith.constant"() {value = 2 : i32} : () -> (i32)\n'
    )
    return [
        CONORM,
        two_ops,
        print_op(synthesize_module(300, seed=1, context=context)),
        *(print_op(IRGenerator(context, defs, seed=seed).generate_module(12))
          for seed in range(3)),
    ]


class TestOpCounters:
    """The parser and the encoders count ops as they create or write
    them, without a second walk; the totals equal a walk's."""

    @pytest.fixture
    def example_ctx(self, ctx):
        from repro.corpus import register_bench_dialect
        from repro.irdl import register_irdl
        from repro.irdl.irgen import seed_values_dialect

        register_irdl(ctx, seed_values_dialect())
        register_bench_dialect(ctx)
        return ctx

    @pytest.mark.parametrize("text", _example_modules())
    def test_parser_and_encoders_match_count_ops(self, example_ctx,
                                                 metrics, text):
        from repro.bytecode import encode_module, encode_module_stream

        module = parse_module(example_ctx, text)
        walked = count_ops(module)
        assert metrics.value_of("textir.parser.ops_parsed") == walked
        encode_module(module)
        assert metrics.value_of("bytecode.encode.ops") == walked
        encode_module_stream(module, io.BytesIO())
        assert metrics.value_of("bytecode.encode.ops") == 2 * walked

    def test_encoders_match_count_ops_on_the_corpus(self, hand_corpus,
                                                    metrics):
        from repro.bytecode import encode_module
        from repro.irdl.irgen import IRGenerator

        context, defs = hand_corpus
        module = IRGenerator(context, defs, seed=0).generate_module(200)
        encode_module(module)
        assert metrics.value_of("bytecode.encode.ops") == count_ops(module)


class TestInstantiateInstrumentation:
    def test_register_counts_dialects_ops_types(self, metrics):
        from repro.irdl import register_irdl

        context = default_context()
        (dialect,) = register_irdl(context, cmath_source())
        assert metrics.value_of("irdl.instantiate.dialects_loaded") == 1
        assert metrics.value_of("irdl.instantiate.ops_instantiated") == len(
            dialect.operations
        )
        assert metrics.value_of("irdl.instantiate.types_instantiated") == len(
            dialect.types
        ) + len(dialect.attributes)
        assert metrics.timer("irdl.instantiate.register_time").count == 1


class TestVerifierInstrumentation:
    def test_verify_counts_ops_and_constraint_checks(self, ctx, metrics):
        module = parse_module(ctx, CONORM)
        module.verify()
        assert metrics.value_of("irdl.verifier.ops_verified") >= 2
        assert metrics.value_of("irdl.verifier.constraint_checks") >= 4

    def test_verifier_failures_counted_by_op_name(self, ctx, metrics):
        ty = ctx.make_type("cmath.complex", [f32])
        bad = ctx.create_operation("cmath.mul", result_types=[ty])
        with pytest.raises(VerifyError):
            bad.verify()
        assert metrics.value_of("irdl.verifier.failures.cmath.mul") == 1


class TestDriverInstrumentation:
    def _build(self, ctx):
        module = parse_module(ctx, CONORM)

        @pattern(op_name="arith.mulf")
        def rename_mul(op, rewriter):
            if op.attributes.get("renamed"):
                return False
            replacement = rewriter.create(
                "arith.mulf", operands=list(op.operands),
                result_types=[r.type for r in op.results],
                attributes={"renamed": f32}, before=op,
            )
            rewriter.replace_op(op, replacement)
            return True

        return module, rename_mul

    def test_driver_tracks_per_pattern_attempts_and_applies(self, ctx):
        module, rename_mul = self._build(ctx)
        driver = GreedyPatternDriver(ctx, [rename_mul])
        assert driver.run(module)
        stats = driver.pattern_stats["rename_mul"]
        assert stats.applications == 1
        assert stats.attempts >= 2  # the rewritten op is re-offered
        assert driver.rewrites_applied == 1
        assert driver.rounds == 2  # one firing round + the fixpoint round
        rows = dict(driver.statistics())
        assert rows["pattern-rewrites"] == 1
        assert rows["rename_mul.match-attempts"] == stats.attempts

    def test_driver_reports_to_metrics_registry(self, ctx, metrics):
        module, rename_mul = self._build(ctx)
        GreedyPatternDriver(ctx, [rename_mul]).run(module)
        assert metrics.value_of("rewriting.driver.rewrites_applied") == 1
        assert metrics.value_of("rewriting.driver.rounds") == 2
        assert metrics.value_of("rewriting.driver.match_attempts") >= 2

    def test_reused_driver_reports_each_run_once(self, ctx, metrics):
        names = [f"rewriting.driver.{counter}" for counter in (
            "rounds", "match_attempts", "rewrites_applied", "worklist_pushes"
        )]
        first, rename_mul = self._build(ctx)
        second, _ = self._build(ctx)
        driver = GreedyPatternDriver(ctx, [rename_mul])
        # ``worklist_pushes`` stays unrecorded on the round-based path.
        driver.run(first)
        once = [metrics.value_of(name) or 0 for name in names]
        driver.run(second)
        assert [metrics.value_of(name) or 0 for name in names] == [
            2 * value for value in once
        ]
        assert once[2] == 1


class TestPassManagerInstrumentation:
    def test_op_count_deltas_recorded_when_active(self, ctx, metrics):
        module = parse_module(ctx, CONORM)
        dead = ctx.create_operation(
            "cmath.norm",
            operands=[module.regions[0].blocks[0].ops[0]
                      .regions[0].blocks[0].args[0]],
            result_types=[f32],
        )
        func = module.regions[0].blocks[0].ops[0]
        func.regions[0].blocks[0].insert_op_before(
            dead, func.regions[0].blocks[0].ops[0]
        )
        manager = PassManager([DeadCodeElimination()])
        assert manager.run(module)
        (record,) = manager.records
        assert record.name == "dce"
        assert record.changed is True
        assert record.ops_delta == -1
        assert metrics.timer("rewriting.passes.dce").count == 1

    def test_deltas_skipped_when_inactive(self, ctx):
        module = parse_module(ctx, CONORM)
        manager = PassManager([DeadCodeElimination()])
        manager.run(module)
        (record,) = manager.records
        assert record.ops_before is None and record.ops_delta is None
        assert record.wall_time >= 0.0


class TestTracerIntegration:
    def test_pipeline_emits_nested_spans(self, ctx, tracer):
        module = parse_module(ctx, CONORM)
        manager = PassManager([
            Canonicalizer(ctx, []), DeadCodeElimination(),
        ])
        manager.run(module)
        names = {event["name"] for event in tracer.events}
        assert "textir.parse" in names
        assert "pass:canonicalize" in names
        assert "pass:dce" in names
        assert "rewriting.greedy_driver" in names
