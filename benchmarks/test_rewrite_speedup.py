"""Benchmark gate for the rewriting engine v2 (PR 7).

Measures the root-indexed compiled matcher table plus the worklist
driver against the round-based re-walk reference
(:class:`~repro.rewriting.driver.RoundBasedDriver`) on a many-pattern
corpus mix.  Two workloads:

* ``driver_fixpoint`` — the gated number: a module of constant-folding
  chains diluted with many-root filler ops, driven to fixpoint under
  ~80 registered patterns (two probes per filler root plus the
  fold/DCE pair).  The reference re-walks every op every round and
  scans the whole pattern list per op; the worklist driver pays one
  seeded walk with dict dispatch and then revisits only rewritten
  neighborhoods.  Must be at least ``MIN_SPEEDUP``x faster end to end.
* ``match_overhead`` — the same pattern set over a module nothing
  rewrites: isolates pure matching/dispatch cost (one round on both
  sides, no worklist advantage).  Informational with a soft floor.

Both workloads assert the two drivers produce identical final IR and
identical rewrite counts before timing is trusted.  Results are
exported to ``benchmarks/results/BENCH_rewrite.json`` together with a
``matcher.STATS`` snapshot and the ``rewriting.*`` observability
counters recorded during a metered compiled run.

Run directly::

    PYTHONPATH=src python -m pytest -q benchmarks/test_rewrite_speedup.py
"""

import json
import os
import time

from repro.builtin import IntegerAttr, default_context, i32
from repro.ir import Block, Region
from repro.obs import MetricsRegistry, enable_metrics, reset
from repro.rewriting import GreedyPatternDriver, matcher, pattern
from repro.rewriting.driver import RoundBasedDriver
from repro.textir import print_op

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_rewrite.json")

#: The acceptance gate: the compiled worklist driver must beat the
#: round-based re-walk reference by at least this factor on the
#: many-pattern fixpoint workload.
MIN_SPEEDUP = 5.0

#: Soft floor for the no-rewrite workload: one round on both sides, so
#: only dispatch wins — typically ~3-8x; the floor guards regressions
#: to parity with headroom for noisy CI runners.
MIN_OVERHEAD_SPEEDUP = 1.5

#: Distinct filler root names; each gets two probe patterns.
N_ROOTS = 40

#: Constant-folding chains in the fixpoint module, and adds per chain.
#: Kept small relative to the filler so the workload measures matching
#: and walking, not the (strategy-independent) op insert/erase cost.
N_CHAINS = 4
CHAIN_LENGTH = 5

#: Filler ops interleaved into each module.
N_FILLER = 1500


def _best_of(fn, loops, repeats=5):
    """Best wall time (seconds) of ``repeats`` runs of ``loops`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, time.perf_counter() - start)
    return best


def _make_patterns():
    """The many-pattern mix: 2 probes per filler root + fold + DCE."""

    def probe(op, rewriter):
        return False

    patterns = []
    for index in range(N_ROOTS):
        for benefit in (2, 1):
            patterns.append(
                pattern(op_name=f"bench.op{index}", benefit=benefit)(probe)
            )

    @pattern(op_name="arith.addi", benefit=3)
    def fold_add_of_constants(op, rewriter):
        lhs, rhs = (operand.owner for operand in op.operands)
        if not (
            getattr(lhs, "name", None) == "arith.constant"
            and getattr(rhs, "name", None) == "arith.constant"
        ):
            return False
        total = (
            lhs.attributes["value"].value + rhs.attributes["value"].value
        )
        folded = rewriter.create(
            "arith.constant", result_types=[i32],
            attributes={"value": IntegerAttr(total, i32)}, before=op,
        )
        rewriter.replace_op(op, folded)
        return True

    @pattern(op_name="arith.constant", benefit=3)
    def drop_dead_constants(op, rewriter):
        if any(result.has_uses for result in op.results):
            return False
        rewriter.erase_op(op)
        return True

    patterns.append(fold_add_of_constants)
    patterns.append(drop_dead_constants)
    return patterns


def _build_module(ctx, with_chains):
    """Filler ops over ``N_ROOTS`` names, optionally with fold chains."""
    ctx.allow_unregistered = True
    block = Block()
    returns = []
    # Chains come first: op insert/erase does a linear block scan, so
    # rewriting near the block head keeps that (strategy-independent)
    # cost from drowning the matching signal the gate measures.
    if with_chains:
        for chain in range(N_CHAINS):
            value = None
            for step in range(CHAIN_LENGTH + 1):
                const = ctx.create_operation(
                    "arith.constant", result_types=[i32],
                    attributes={
                        "value": IntegerAttr(chain + step, i32)
                    },
                )
                block.add_op(const)
                if value is None:
                    value = const.results[0]
                else:
                    add = ctx.create_operation(
                        "arith.addi",
                        operands=[value, const.results[0]],
                        result_types=[i32],
                    )
                    block.add_op(add)
                    value = add.results[0]
            returns.append(value)
    for index in range(N_FILLER):
        block.add_op(ctx.create_operation(f"bench.op{index % N_ROOTS}"))
    if returns:
        block.add_op(ctx.create_operation("func.return", operands=returns))
    return ctx.create_operation("builtin.module", regions=[Region([block])])


def _make_driver(ctx, patterns, compiled):
    driver_class = GreedyPatternDriver if compiled else RoundBasedDriver
    return driver_class(ctx, patterns)


def _check_equivalence(ctx, patterns, with_chains):
    """Both drivers must agree on the workload before timing counts."""
    results = {}
    for mode, compiled in (("compiled", True), ("reference", False)):
        module = _build_module(ctx, with_chains)
        driver = _make_driver(ctx, patterns, compiled)
        driver.run(module)
        results[mode] = (print_op(module), driver.rewrites_applied)
    assert results["compiled"] == results["reference"], (
        "compiled worklist driver disagrees with the reference on the "
        "benchmark workload"
    )
    return results["compiled"][1]


def _bench_driver(ctx, patterns, with_chains, loops, repeats=3):
    """Time ``driver.run`` per pre-cloned module, both strategies."""
    proto = _build_module(ctx, with_chains)
    timings = {}
    rounds = {}
    for mode, compiled in (("compiled", True), ("reference", False)):
        clones = [proto.clone() for _ in range(loops * repeats)]
        driver = _make_driver(ctx, patterns, compiled)
        queue = iter(clones)
        rounds_before = driver.rounds
        timings[mode] = _best_of(
            lambda: driver.run(next(queue)), loops, repeats
        )
        rounds[mode] = driver.rounds - rounds_before
    return {
        "loops": loops,
        "ops_per_module": sum(
            1 for _ in proto.walk(include_self=False)
        ),
        "patterns": len(patterns),
        "compiled_ms_per_run": timings["compiled"] / loops * 1e3,
        "reference_ms_per_run": timings["reference"] / loops * 1e3,
        "speedup": timings["reference"] / timings["compiled"],
    }


def _bench_table_build(ctx, patterns, repeats=5):
    """One-time matcher-table compile cost (amortized across runs)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        GreedyPatternDriver(ctx, patterns)
        best = min(best, time.perf_counter() - start)
    return {"table_build_ms": best * 1e3}


def _collect_counters(ctx, patterns):
    """One metered compiled run: driver + matcher counters."""
    registry = enable_metrics(MetricsRegistry())
    try:
        module = _build_module(ctx, with_chains=True)
        driver = _make_driver(ctx, patterns, compiled=True)
        driver.run(module)
        snapshot = registry.snapshot()["counters"]
    finally:
        reset()
    return {
        name: value
        for name, value in sorted(snapshot.items())
        if name.startswith("rewriting.")
    }


def test_rewrite_speedup():
    ctx = default_context()
    patterns = _make_patterns()

    fixpoint_rewrites = _check_equivalence(ctx, patterns, with_chains=True)
    overhead_rewrites = _check_equivalence(ctx, patterns, with_chains=False)
    assert fixpoint_rewrites > N_CHAINS * CHAIN_LENGTH
    assert overhead_rewrites == 0

    fixpoint = _bench_driver(ctx, patterns, with_chains=True, loops=3)
    overhead = _bench_driver(ctx, patterns, with_chains=False, loops=5)
    build = _bench_table_build(ctx, patterns)
    counters = _collect_counters(ctx, patterns)

    payload = {
        "benchmark": "rewrite_speedup",
        "min_speedup": MIN_SPEEDUP,
        "driver_fixpoint": {**fixpoint, "rewrites": fixpoint_rewrites},
        "match_overhead": {**overhead, "rewrites": overhead_rewrites},
        "matcher_table": build,
        "matcher_stats": dict(matcher.STATS),
        "rewriting_counters": counters,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert counters.get("rewriting.matcher.tables_compiled", 0) >= 1
    assert counters.get("rewriting.matcher.patterns_unindexed", 0) == 0
    assert counters.get("rewriting.driver.worklist_pushes", 0) > 0
    assert fixpoint["speedup"] >= MIN_SPEEDUP, (
        f"compiled worklist driver only {fixpoint['speedup']:.2f}x faster "
        f"than the round-based reference on the many-pattern fixpoint "
        f"workload (gate: {MIN_SPEEDUP}x); see {RESULTS_PATH}"
    )
    assert overhead["speedup"] >= MIN_OVERHEAD_SPEEDUP, (
        f"match-overhead speedup {overhead['speedup']:.2f}x below the "
        f"{MIN_OVERHEAD_SPEEDUP}x floor; see {RESULTS_PATH}"
    )
