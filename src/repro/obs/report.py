"""Text renderers for the observability layer.

Three MLIR-flavoured reports:

* :func:`render_timing_report` — the ``--timing`` execution-time table
  (the shape of ``-mlir-timing``), with IR op-count deltas per pass when
  the pipeline collected them;
* :func:`render_pass_statistics` — the ``--pass-statistics`` report,
  ``(S)``-prefixed statistic lines grouped per pass;
* :func:`render_metrics` — a catalog dump of a
  :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.timing import PassRunRecord

_WIDTH = 79

#: The observability contract of the pipeline layers: every registered
#: instrument name and its meaning.  ``render_metrics`` appends the
#: catalog entries that stayed silent during a run, so ``--metrics``
#: readers can tell "not instrumented" apart from "instrumented but
#: nothing happened".
INSTRUMENT_CATALOG: dict[str, str] = {
    "textir.lexer.tokens": (
        "tokens lexed for the textual parser's token path (a run of "
        "one-line generic ops costs one token)"
    ),
    "textir.parser.ops_parsed": "operations parsed from textual IR",
    "textir.parser.parse_time": "wall time spent in the textual parser",
    "textir.parser.module_ops": "operations per parsed module",
    "ir.uniquer.hits": "attribute interning cache hits",
    "ir.uniquer.misses": "attribute interning cache misses",
    "irdl.instantiate.dialects_loaded": "dialects registered from IRDL",
    "irdl.instantiate.types_instantiated": "type defs instantiated",
    "irdl.instantiate.ops_instantiated": "op defs instantiated",
    "irdl.instantiate.register_time": "wall time registering dialects",
    "irdl.verifier.ops_verified": "operations checked by IRDL verifiers",
    "irdl.verifier.constraint_checks": "constraint predicate evaluations",
    "irdl.verifier.memo_hits": "constraint memo hits",
    "irdl.verifier.memo_misses": "constraint memo misses",
    "irdl.codegen.definitions_compiled": "definitions lowered to "
    "generated Python verifiers (parameter lists at registration, "
    "operations on first verification)",
    "irdl.codegen.source_bytes": "generated verifier source bytes",
    "irdl.codegen.code_reused": "definitions whose code object came "
    "from the shared-code cache",
    "bytecode.encode.modules": "IR modules serialized to bytecode",
    "bytecode.encode.ops": "operations serialized to bytecode",
    "bytecode.encode.dialects": "IRDL dialects serialized to bytecode",
    "bytecode.encode.module_bytes": "encoded module artifact sizes",
    "bytecode.encode.dialect_bytes": "encoded dialect artifact sizes",
    "bytecode.encode.time": "wall time encoding bytecode",
    "bytecode.decode.modules": "IR modules deserialized from bytecode",
    "bytecode.decode.ops": "operations deserialized from bytecode",
    "bytecode.decode.dialects": "IRDL dialects deserialized from bytecode",
    "bytecode.decode.module_bytes": "decoded module artifact sizes",
    "bytecode.decode.dialect_bytes": "decoded dialect artifact sizes",
    "bytecode.decode.sections_skipped": "unknown sections skipped "
    "(forward compatibility)",
    "bytecode.decode.time": "wall time decoding bytecode",
    "bytecode.encode.streamed": "modules serialized through the "
    "streaming writer",
    "bytecode.lazy.opens": "lazy module readers opened",
    "bytecode.lazy.fallbacks": "lazy opens that fell back to eager "
    "decoding (no op-index section)",
    "bytecode.lazy.ops_indexed": "top-level ops indexed at lazy open",
    "bytecode.lazy.ops_forced": "lazily indexed top-level ops "
    "materialized on demand",
    "bytecode.lazy.open_time": "wall time opening lazy module readers "
    "(tables + shell, no op bodies)",
    "parallel.verify.runs": "sharded verification runs",
    "parallel.verify.ops": "top-level ops verified by sharded runs",
    "parallel.verify.diagnostics": "verification failures collected by "
    "sharded runs",
    "parallel.verify.workers": "worker processes per sharded run",
    "parallel.verify.shards": "contiguous op-index shards per run",
    "parallel.verify.time": "wall time of sharded verification "
    "(partition + workers + merge)",
    "analysis.sat.queries": "symbolic engine queries "
    "(satisfiable/subsumes/disjoint)",
    "analysis.sat.sat": "constraints decided satisfiable (witnessed)",
    "analysis.sat.unsat": "constraints decided unsatisfiable",
    "analysis.sat.unknown": "constraints the engine could not decide",
    "analysis.sat.witness_checks": "candidate witnesses verified against "
    "original constraints",
    "analysis.sat.sampler_fallbacks": "UNKNOWN verdicts handed to the "
    "random sampler",
    "analysis.dataflow.computes": "analysis results computed by the "
    "AnalysisManager (cache misses)",
    "analysis.dataflow.cache_hits": "analysis results served from the "
    "AnalysisManager cache",
    "analysis.dataflow.invalidations": "cached analysis results dropped "
    "by invalidation hooks",
    "analysis.dataflow.transfer_steps": "transfer-function evaluations "
    "of the sparse forward engine",
    "rewriting.validate.checks": "post-application validations run "
    "under --validate-rewrites",
    "rewriting.validate.failures": "rewrite applications that broke an "
    "SSA invariant (each aborts the pipeline)",
    "obs.remarks.emitted": "optimization remarks recorded (all kinds)",
    "obs.remarks.applied": "rewrite patterns applied (one remark each)",
    "obs.remarks.missed": "rewrite patterns that matched an op name "
    "but did not fire",
    "obs.remarks.pass": "per-pass summary remarks from the PassManager",
    "obs.remarks.verify-failure": "verifier failures surfaced as remarks",
    "obs.remarks.lint": "lint findings surfaced as remarks",
}


def _banner(title: str) -> list[str]:
    bar = "===" + "-" * (_WIDTH - 6) + "==="
    return [bar, f"... {title} ...".center(_WIDTH).rstrip(), bar]


def render_timing_report(records: Sequence[PassRunRecord],
                         total: float | None = None) -> str:
    """Render per-pass wall times in the style of ``-mlir-timing``."""
    lines = _banner("Execution time report")
    if total is None:
        total = sum(record.wall_time for record in records)
    lines.append(f"  Total Execution Time: {total:.4f} seconds")
    lines.append("")
    lines.append("  ----Wall Time----  ----Name----")

    def row(seconds: float, name: str) -> str:
        percent = 100.0 * seconds / total if total > 0 else 0.0
        return f"  {seconds:9.4f} ({percent:5.1f}%)  {name}"

    for record in records:
        name = record.name
        delta = record.ops_delta
        if delta is not None:
            name += f" (ops: {record.ops_before} -> {record.ops_after})"
        lines.append(row(record.wall_time, name))
    lines.append(row(total, "Total"))
    return "\n".join(lines)


def render_pass_statistics(
    sections: Sequence[tuple[str, Sequence[tuple[str, int]]]],
) -> str:
    """Render ``(S)`` statistic lines grouped per pass, as MLIR does."""
    lines = _banner("Pass statistics report")
    width = max(
        (len(str(value)) for _, stats in sections for _, value in stats),
        default=1,
    )
    for pass_name, stats in sections:
        lines.append(f"'{pass_name}'")
        for label, value in stats:
            lines.append(f"  (S) {value:>{width}} {label}")
    return "\n".join(lines)


def render_metrics(registry: MetricsRegistry) -> str:
    """Render the full metric catalog of a registry, sorted by name."""
    lines = _banner("Metrics report")
    counters = registry.counters
    timers = registry.timers
    histograms = registry.histograms
    if not (counters or timers or histograms):
        lines.append("  (no metrics recorded)")
        return "\n".join(lines)

    def pad(name: str) -> str:
        dots = max(2, 46 - len(name))
        return f"  {name} {'.' * dots}"

    if counters:
        lines.append("Counters:")
        for counter in counters:
            lines.append(f"{pad(counter.name)} {counter.value}")
    if timers:
        lines.append("Timers:")
        for timer in timers:
            lines.append(
                f"{pad(timer.name)} {timer.total:.4f} s "
                f"(n={timer.count}, mean {timer.mean:.4f} s)"
            )
    if histograms:
        lines.append("Histograms:")
        for histogram in histograms:
            lines.append(
                f"{pad(histogram.name)} n={histogram.count} "
                f"min={histogram.min if histogram.count else 0:g} "
                f"mean={histogram.mean:g} max={histogram.max:g} "
                f"p50={histogram.percentile(0.50):g} "
                f"p95={histogram.percentile(0.95):g} "
                f"p99={histogram.percentile(0.99):g}"
            )
    recorded = (
        {c.name for c in counters}
        | {t.name for t in timers}
        | {h.name for h in histograms}
    )
    silent = [name for name in INSTRUMENT_CATALOG if name not in recorded]
    if silent:
        lines.append("Registered instruments not recorded this run:")
        for name in silent:
            lines.append(f"{pad(name)} {INSTRUMENT_CATALOG[name]}")
    return "\n".join(lines)
