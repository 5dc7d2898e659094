"""Benchmark gate for definition-time code generation (PR 4).

Measures the generated verifiers that registration installs, each lowered
on its first use, against the interpretive
:meth:`repro.irdl.plan.VerificationPlan.run` reference they were lowered
from, called directly.  Two workloads:

* ``verify_kernel`` — repeated verification of a hot straight-line op
  (Eq operand/result constraints plus two attribute constraints), the
  shape §5 of the paper optimizes for.  This is the gated number: the
  generated verifier must be at least ``MIN_SPEEDUP``x faster.
* ``verify_corpus_mix`` — every op of an ``irgen``-generated corpus
  module, one verify call each.  Region-heavy ops dilute the win
  (region traversal is shared code), so this is informational with a
  soft floor.

Results are exported to ``benchmarks/results/BENCH_codegen.json`` so CI
can archive them, together with a ``codegen.STATS`` snapshot and the
``irdl.codegen.*`` observability counters recorded during a metered
registration.

Run directly::

    PYTHONPATH=src python -m pytest -q benchmarks/test_codegen_speedup.py
"""

import json
import os
import time

from repro.builtin import IntegerAttr, StringAttr, default_context, i32
from repro.ir import Block
from repro.ir.operation import Operation
from repro.irdl import codegen, register_irdl
from repro.irdl.irgen import IRGenerator, seed_values_dialect
from repro.irdl.plan import CONSTRAINT_MEMO
from repro.obs import MetricsRegistry, enable_metrics, reset

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_codegen.json")

#: The acceptance gate: generated verifiers must beat the interpretive
#: plan path by at least this factor on the kernel workload.
MIN_SPEEDUP = 2.0

#: Soft floor for the mixed-corpus workload (region traversal is shared
#: between both paths, so the win is structurally smaller there —
#: typically ~1.6-1.9x; the floor only guards against regressions to
#: parity, with headroom for noisy CI runners).
MIN_MIX_SPEEDUP = 1.1

BENCH_DIALECT = """
Dialect bench {
  Operation kernel {
    Operands (lhs: !i32, rhs: !i32)
    Results (out: !i32)
    Attributes (label: string_attr, width: i32_attr)
  }
  Operation move {
    Operands (src: !i32, dst: !i32)
    Format "$src to $dst"
  }
  Operation tagged {
    Attributes (tag: string_attr)
    Format "$tag"
  }
}
"""


def _best_of(fn, loops, repeats=5):
    """Best wall time (seconds) of ``repeats`` runs of ``loops`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_context():
    context = default_context()
    register_irdl(context, BENCH_DIALECT)
    return context


def _kernel_op():
    args = list(Block([i32, i32]).args)
    return Operation(
        "bench.kernel",
        operands=args,
        result_types=[i32],
        attributes={
            "label": StringAttr.get("hot-loop"),
            "width": IntegerAttr.get(32, i32),
        },
    )


def _bench_kernel(context, loops=20_000):
    op = _kernel_op()
    binding = context.get_op_def("bench.kernel")
    verify_compiled = binding.verify
    verify_interp = binding._verifier.plan.run
    verify_compiled(op)
    verify_interp(op)
    generated = _best_of(lambda: verify_compiled(op), loops)
    interp = _best_of(lambda: verify_interp(op), loops)
    return {
        "loops": loops,
        "generated_ns_per_verify": generated / loops * 1e9,
        "interpretive_ns_per_verify": interp / loops * 1e9,
        "speedup": interp / generated,
    }


def _bench_corpus_mix(loops=30):
    """Verify every op of a generated corpus module through both paths.

    Uses one corpus registration and compares each binding's generated
    verifier against the ``plan.run`` it was lowered from, so both sides
    see identical operations.
    """
    from repro.corpus import load_corpus

    ctx, defs = load_corpus(scale=False)
    seeds = register_irdl(ctx, seed_values_dialect())
    generator = IRGenerator(ctx, defs + seeds, seed=0)
    module = generator.generate_module(num_ops=120)
    pairs = []
    for op in module.walk():
        binding = ctx.get_op_def(op.name)
        if not hasattr(getattr(binding, "_verifier", None), "plan"):
            continue  # natively implemented: no generated verifier
        pairs.append((binding._verifier, binding._verifier.plan.run, op))
    assert len(pairs) > 50

    def run_generated():
        for verify, _, op in pairs:
            verify(op)

    def run_interpretive():
        for _, plan_run, op in pairs:
            plan_run(op)

    run_generated()
    run_interpretive()
    generated = _best_of(run_generated, loops)
    interp = _best_of(run_interpretive, loops)
    return {
        "ops_per_pass": len(pairs),
        "loops": loops,
        "generated_us_per_pass": generated / loops * 1e6,
        "interpretive_us_per_pass": interp / loops * 1e6,
        "speedup": interp / generated,
    }


def _collect_codegen_counters():
    """Register the bench dialect under a metered registry, and lower
    its op verifiers there (registration leaves them to first use)."""
    registry = enable_metrics(MetricsRegistry())
    try:
        context = default_context()
        register_irdl(context, BENCH_DIALECT.replace("bench", "benchm"))
        for binding in context.dialects["benchm"].operations.values():
            assert binding._verifier.generated_source
        snapshot = registry.snapshot()["counters"]
    finally:
        reset()
    return {
        name: value
        for name, value in sorted(snapshot.items())
        if name.startswith("irdl.codegen.")
    }


def test_codegen_speedup():
    CONSTRAINT_MEMO.clear()
    kernel = _bench_kernel(_bench_context())
    mix = _bench_corpus_mix()
    counters = _collect_codegen_counters()

    payload = {
        "benchmark": "codegen_speedup",
        "min_speedup": MIN_SPEEDUP,
        "verify_kernel": kernel,
        "verify_corpus_mix": mix,
        "codegen_stats": dict(codegen.STATS),
        "codegen_counters": counters,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert counters.get("irdl.codegen.definitions_compiled", 0) >= 3
    assert kernel["speedup"] >= MIN_SPEEDUP, (
        f"generated verifier only {kernel['speedup']:.2f}x faster than the "
        f"interpretive plan on the kernel workload (gate: {MIN_SPEEDUP}x); "
        f"see {RESULTS_PATH}"
    )
    assert mix["speedup"] >= MIN_MIX_SPEEDUP, (
        f"corpus-mix speedup {mix['speedup']:.2f}x below the "
        f"{MIN_MIX_SPEEDUP}x floor; see {RESULTS_PATH}"
    )
