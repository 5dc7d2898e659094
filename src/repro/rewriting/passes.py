"""A small pass infrastructure: DCE, CSE, canonicalization, pipelines.

§3 notes that "more work is needed to define an entire transformation
pipeline dynamically"; this module supplies the pipeline half: passes
are objects with a ``run(op) -> bool`` method, composed by a
:class:`PassManager`.  The built-in passes are the classic cleanups
every SSA compiler ships:

* :class:`DeadCodeElimination` — erase pure operations with no users;
* :class:`CommonSubexpressionElimination` — deduplicate structurally
  identical pure operations within a block (dominance-safe because it
  only looks backwards in the same block);
* :class:`Canonicalizer` — a greedy pattern-application pass wrapping a
  pattern set.

Purity is determined by a configurable predicate; by default an
operation is treated as pure when it has results, no regions, no
successors, and is not a terminator — a conservative approximation the
caller can replace (e.g. with IRDL-derived effect metadata).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.ir.attributes import Attribute
from repro.ir.context import Context
from repro.ir.operation import Operation
from repro.obs import timing as _timing
from repro.obs.instrument import OBS, count_ops
from repro.obs.timing import PassRunRecord
from repro.rewriting.driver import GreedyPatternDriver
from repro.rewriting.pattern import RewritePattern


def default_is_pure(op: Operation) -> bool:
    """Conservative purity: value-producing, region-free, non-terminator."""
    if not op.results or op.regions or op.successors:
        return False
    if op.definition is not None and op.definition.is_terminator:
        return False
    return True


class Pass:
    """Base class: a named transformation over an operation tree."""

    name = "pass"

    #: The shared :class:`~repro.analysis.dataflow.manager.
    #: AnalysisManager`, set by the :class:`PassManager` before each
    #: :meth:`run`; ``None`` when the pass runs standalone.  Passes that
    #: need dominance/liveness should query it so repeated runs over an
    #: unchanged tree reuse cached results.
    analyses = None

    def run(self, root: Operation) -> bool:
        """Transform ``root``; return True when anything changed."""
        raise NotImplementedError

    def statistics(self) -> list[tuple[str, int]]:
        """``(label, value)`` rows for the ``--pass-statistics`` report."""
        return []


class DeadCodeElimination(Pass):
    """Erase pure operations none of whose results are used.

    Runs to a fixpoint so chains of dead producers disappear in one
    invocation.
    """

    name = "dce"

    def __init__(self, is_pure: Callable[[Operation], bool] = default_is_pure):
        self.is_pure = is_pure

    def run(self, root: Operation) -> bool:
        changed_any = False
        while True:
            dead = [
                op
                for op in root.walk(include_self=False)
                if self.is_pure(op)
                and not any(result.has_uses for result in op.results)
            ]
            if not dead:
                return changed_any
            for op in dead:
                op.erase()
            changed_any = True


def _operation_key(op: Operation) -> tuple:
    """A structural key: two pure ops with equal keys compute the same."""
    return (
        op.name,
        tuple(id(operand) for operand in op.operands),
        tuple(sorted(op.attributes.items(), key=lambda kv: kv[0])),
        tuple(result.type for result in op.results),
    )


class CommonSubexpressionElimination(Pass):
    """Deduplicate structurally identical pure operations.

    Within a block the pass looks backwards (a previous identical op
    trivially dominates).  With ``use_dominance=True`` it also merges
    across blocks of the same region: an op is replaced by an identical
    op in a strictly dominating block.
    """

    name = "cse"

    def __init__(self, is_pure: Callable[[Operation], bool] = default_is_pure,
                 use_dominance: bool = False):
        self.is_pure = is_pure
        self.use_dominance = use_dominance

    def run(self, root: Operation) -> bool:
        changed = False
        for region_op in root.walk():
            for region in region_op.regions:
                if self.use_dominance and len(region.blocks) > 1:
                    changed |= self._run_on_region(region)
                else:
                    for block in region.blocks:
                        changed |= self._run_on_block(block)
        return changed

    def _run_on_block(self, block) -> bool:
        seen: dict[tuple, Operation] = {}
        changed = False
        for op in list(block.ops):
            if not self.is_pure(op):
                continue
            key = _operation_key(op)
            existing = seen.get(key)
            if existing is None:
                seen[key] = op
                continue
            op.replace_by(list(existing.results))
            changed = True
        return changed

    def _run_on_region(self, region) -> bool:
        from repro.ir.dominance import DominanceInfo

        if self.analyses is not None:
            info = self.analyses.dominance(region)
        else:
            info = DominanceInfo(region)
        seen: dict[tuple, list[Operation]] = {}
        changed = False
        # Visit blocks so dominators come first: order by dominator-tree
        # depth (entry has depth 0).
        def depth(block) -> int:
            steps = 0
            current = block
            while True:
                parent = info.immediate_dominator(current)
                if parent is None:
                    return steps
                current = parent
                steps += 1

        for block in sorted(region.blocks, key=depth):
            for op in list(block.ops):
                if not self.is_pure(op):
                    continue
                key = _operation_key(op)
                for candidate in seen.get(key, ()):
                    candidate_block = candidate.parent
                    if candidate_block is block and (
                        block.index_of(candidate) < block.index_of(op)
                    ):
                        op.replace_by(list(candidate.results))
                        changed = True
                        break
                    if candidate_block is not block and info.dominates_block(
                        candidate_block, block
                    ):
                        op.replace_by(list(candidate.results))
                        changed = True
                        break
                else:
                    seen.setdefault(key, []).append(op)
        return changed


class Canonicalizer(Pass):
    """Apply a pattern set greedily to a fixpoint.

    The persistent :class:`GreedyPatternDriver` compiles the pattern
    set into its root-indexed matcher table once, at pass construction,
    so repeated :meth:`run` calls amortize the table build.
    """

    name = "canonicalize"

    def __init__(self, context: Context, patterns: Sequence[RewritePattern],
                 max_iterations: int = 64, validate_rewrites: bool = False):
        self.context = context
        self.patterns = list(patterns)
        self.max_iterations = max_iterations
        #: The persistent driver; its statistics accumulate across runs
        #: and back this pass's :meth:`statistics`.
        self.driver = GreedyPatternDriver(context, self.patterns,
                                          max_iterations,
                                          validate_rewrites=validate_rewrites)
        self.driver.remark_origin = self.name

    def run(self, root: Operation) -> bool:
        self.driver.analyses = self.analyses
        return self.driver.run(root)

    def statistics(self) -> list[tuple[str, int]]:
        return self.driver.statistics()


class VerifyPass(Pass):
    """Verify the IR (structure + dialect invariants + SSA dominance)."""

    name = "verify"

    def run(self, root: Operation) -> bool:
        from repro.ir.dominance import verify_dominance

        root.verify()
        verify_dominance(root, self.analyses)
        return False


class PassManager:
    """Runs a pipeline of passes, optionally verifying between them.

    Every run produces two logs: :attr:`history`, the compact
    ``(pass name, changed)`` pairs, and :attr:`records`, the
    :class:`~repro.obs.timing.PassRunRecord` list carrying per-pass wall
    time (always) and IR op-count deltas (when the observability layer
    is active).  ``verify_each`` interleaves a :class:`VerifyPass` after
    every pass; its cost shows up as ``verify`` rows in :attr:`records`
    and hence in the ``--timing`` report.
    """

    def __init__(self, passes: Iterable[Pass] = (),
                 verify_each: bool = False, analyses=None):
        from repro.analysis.dataflow.manager import AnalysisManager

        self.passes: list[Pass] = list(passes)
        self.verify_each = verify_each
        #: The shared analysis cache, handed to every pass via its
        #: ``analyses`` attribute and invalidated after changing passes.
        self.analyses = analyses if analyses is not None else AnalysisManager()
        #: (pass name, changed) log of the last run.
        self.history: list[tuple[str, bool]] = []
        #: Timed per-pass records of the last run (incl. ``verify`` rows).
        self.records: list[PassRunRecord] = []

    def add(self, new_pass: Pass) -> "PassManager":
        self.passes.append(new_pass)
        return self

    def run(self, root: Operation) -> bool:
        self.history = []
        self.records = []
        verifier = VerifyPass()
        verifier.analyses = self.analyses
        changed_any = False
        for pipeline_pass in self.passes:
            pipeline_pass.analyses = self.analyses
            changed = self._run_timed(pipeline_pass, root)
            self.history.append((pipeline_pass.name, changed))
            changed_any |= changed
            if changed:
                # Coarse pass-boundary invalidation: a pass that edited
                # the tree may have staled any cached analysis it did
                # not itself invalidate incrementally.
                self.analyses.invalidate_all()
            if self.verify_each:
                self._run_timed(verifier, root)
        return changed_any

    def _run_timed(self, pipeline_pass: Pass, root: Operation) -> bool:
        active = OBS.active
        ops_before = count_ops(root) if active else None
        start = _timing.now()
        with OBS.tracer.span(f"pass:{pipeline_pass.name}", category="pass"):
            changed = pipeline_pass.run(root)
        wall_time = _timing.now() - start
        ops_after = count_ops(root) if active else None
        self.records.append(PassRunRecord(
            pipeline_pass.name, wall_time, changed, ops_before, ops_after,
        ))
        if OBS.metrics.enabled:
            OBS.metrics.timer(
                f"rewriting.passes.{pipeline_pass.name}"
            ).record(wall_time)
        remarks = OBS.remarks
        if remarks.enabled:
            remarks.emit(
                "pass",
                origin=pipeline_pass.name,
                name=pipeline_pass.name,
                op=root.name,
                location=root.location,
                changed=changed,
                wall_time_s=wall_time,
                ops_before=ops_before,
                ops_after=ops_after,
            )
        return changed

    def timing_report(self) -> str:
        """The MLIR-style execution-time report of the last run."""
        from repro.obs.report import render_timing_report

        return render_timing_report(self.records)

    def statistics_report(self) -> str:
        """The ``--pass-statistics`` report over passes that have stats."""
        from repro.obs.report import render_pass_statistics

        sections = [
            (pipeline_pass.name, pipeline_pass.statistics())
            for pipeline_pass in self.passes
            if pipeline_pass.statistics()
        ]
        return render_pass_statistics(sections)
