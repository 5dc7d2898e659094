"""A greedy pattern application driver, in the style of MLIR's.

Two walk strategies share one observable surface:

* the **compiled worklist driver** (the default): patterns are
  partitioned into a root-op-indexed :class:`~repro.rewriting.matcher.
  MatcherTable` of ``exec``-compiled bucket functions, and after the
  seeding walk only the IR a rewrite could have affected is revisited —
  the inserted ops, the users of replaced results, the parents of
  erased ops, and the defining ops of erased ops' operands;
* the **interpretive round-based driver** (the reference
  implementation, behind ``REPRO_NO_COMPILED_MATCH`` / ``irdl-opt
  --no-compiled-match``): every round re-walks the whole module and
  offers every op to every pattern.

Both honor the same contracts: benefit-descending pattern order with
registration-order tie-breaks, the first firing pattern wins an op and
ends its offer round, at most ``max_iterations`` rounds/generations,
and identical statistics/remark semantics (the differential test pins
this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.ir.context import Context
from repro.ir.operation import Operation
from repro.obs.instrument import OBS
from repro.rewriting import matcher
from repro.rewriting.matcher import MatcherTable, PatternSlot
from repro.rewriting.pattern import PatternRewriter, RewritePattern


@dataclass
class PatternStatistics:
    """Match/apply tallies for one pattern label."""

    attempts: int = 0
    applications: int = 0


def _is_stale(op: Operation, root: Operation) -> bool:
    """Whether ``op`` is no longer attached under ``root``.

    Erasing an op detaches it but leaves the parent links *inside* its
    regions intact, so a nested survivor of an erased ancestor still has
    ``op.parent``.  Climbing the ancestor chain catches both the
    directly-erased op (no parent block) and anything stranded inside an
    erased ancestor (the chain dead-ends before reaching ``root``).
    """
    current = op
    while current is not root:
        block = current.parent
        if block is None or block.parent is None:
            return True
        current = block.parent.parent
        if current is None:
            return True
    return False


class GreedyPatternDriver:
    """Applies a pattern set to a fixpoint.

    Patterns are sorted by descending benefit.  By default the patterns
    are compiled into a root-indexed matcher table and the walk is
    incremental (see the module docstring); with compiled matching
    disabled, each round walks every operation under the root and
    offers it to each applicable pattern.  Either way, rounds repeat
    until no pattern fires or ``max_iterations`` is hit.

    The driver keeps running statistics (match attempts vs. rewrites per
    pattern, rounds to fixpoint) which accumulate across :meth:`run`
    calls; they feed ``irdl-opt --pass-statistics`` and, when the
    observability layer is enabled, the global metrics registry.
    """

    def __init__(
        self,
        context: Context,
        patterns: Sequence[RewritePattern],
        max_iterations: int = 64,
        validate_rewrites: bool = False,
    ):
        self.context = context
        self.patterns = sorted(patterns, key=lambda p: -p.benefit)
        self.max_iterations = max_iterations
        #: ``--validate-rewrites``: re-check dominance, def-use
        #: integrity, and the verifier around every application.
        self.validate_rewrites = validate_rewrites
        #: Optional :class:`~repro.analysis.dataflow.manager.
        #: AnalysisManager`; when set, the driver invalidates the scopes
        #: each rewrite touched (so unrelated cached analyses survive)
        #: and validation reuses its cached dominator trees.
        self.analyses = None
        #: The ``origin`` field of emitted remarks; the owning pass
        #: (e.g. the Canonicalizer) overwrites it with its own name.
        self.remark_origin = "greedy-driver"
        self.rewrites_applied = 0
        self.match_attempts = 0
        self.rounds = 0
        self.validations = 0
        self.validation_failures = 0
        #: Ops pushed onto the incremental worklist after rewrites
        #: (0 under the reference driver, which re-walks instead).
        self.worklist_pushes = 0
        #: Per-pattern tallies, keyed by the disambiguated label.
        self.pattern_stats: dict[str, PatternStatistics] = {}
        self._slots: list[PatternSlot] = []
        label_counts: dict[str, int] = {}
        for rewrite_pattern in self.patterns:
            base = rewrite_pattern.label
            n = label_counts.get(base, 0) + 1
            label_counts[base] = n
            # Two patterns reporting under one name (two instances of a
            # class, two wrapped functions with the same __name__) get
            # distinct rows: the first keeps the bare label.
            label = base if n == 1 else f"{base}#{n}"
            stats = PatternStatistics()
            self.pattern_stats[label] = stats
            self._slots.append(PatternSlot(rewrite_pattern, stats, label))
        self._compiled = matcher.enabled()
        self._table: MatcherTable | None = (
            MatcherTable(self._slots) if self._compiled else None
        )
        self._lint_unindexed()

    def _lint_unindexed(self) -> None:
        """Remark on patterns that defeat root indexing (both paths)."""
        remarks = OBS.remarks
        if not remarks.enabled:
            return
        for slot in self._slots:
            rewrite_pattern = slot.pattern
            if rewrite_pattern.op_name is not None:
                continue
            if "unindexed-rewrite-pattern" in rewrite_pattern.suppressions:
                continue
            remarks.emit(
                "lint",
                origin="pattern-index",
                name="unindexed-rewrite-pattern",
                op="",
                message=(
                    f"pattern '{slot.label}' has no op_name: it cannot be "
                    "root-indexed and is offered to every operation"
                ),
            )

    # -- post-application hooks ----------------------------------------

    def _after_fire(self, root: Operation, rewriter: PatternRewriter,
                    fired_op: Operation, new_ops: Sequence[Operation],
                    erased_parents: Sequence[Operation],
                    label: str, op_name: str) -> None:
        """Invalidate cached analyses and (optionally) validate one fire."""
        if self.analyses is not None:
            for changed in (fired_op, *new_ops, *erased_parents):
                self.analyses.invalidate_scope(changed)
        if self.validate_rewrites:
            self._validate_fire(root, rewriter, fired_op, new_ops,
                                label, op_name)

    def _validation_scope(self, root: Operation, fired_op: Operation,
                          new_ops: Sequence[Operation]) -> Operation:
        """The op whose subtree one rewrite could have corrupted.

        The enclosing op of the first surviving participant (an inserted
        op, or the matched root when it was updated in place) — its
        subtree contains every block the rewrite edited.  Falls back to
        ``root`` when everything the rewrite touched was erased.
        """
        for candidate in (*new_ops, fired_op):
            if _is_stale(candidate, root):
                continue
            enclosing = candidate.parent_op
            return enclosing if enclosing is not None else candidate
        return root

    def _validate_fire(self, root: Operation, rewriter: PatternRewriter,
                       fired_op: Operation, new_ops: Sequence[Operation],
                       label: str, op_name: str) -> None:
        """``--validate-rewrites``: re-check SSA invariants after a fire.

        Checks, on the touched subtree: def-use integrity (no operand
        defined by an erased op), SSA dominance, and the registered
        verifiers.  A violation becomes a ``verify-failure`` remark and
        a :class:`VerifyError` naming the offending pattern.
        """
        from repro.ir.exceptions import VerifyError

        scope = self._validation_scope(root, fired_op, new_ops)
        self.validations += 1
        metrics = OBS.metrics
        if metrics.enabled:
            metrics.counter("rewriting.validate.checks").inc()
        try:
            self._check_def_use(scope, root)
            from repro.ir.dominance import verify_dominance

            verify_dominance(scope, self.analyses)
            scope.verify()
        except VerifyError as error:
            self.validation_failures += 1
            if metrics.enabled:
                metrics.counter("rewriting.validate.failures").inc()
            remarks = OBS.remarks
            if remarks.enabled:
                remarks.emit(
                    "verify-failure",
                    origin=self.remark_origin,
                    name=label,
                    op=op_name,
                    location=rewriter.root_location,
                    message=f"rewrite validation failed: {error}",
                )
            raise VerifyError(
                f"rewrite pattern '{label}' applied to {op_name} broke IR "
                f"invariants: {error}",
                obj=getattr(error, "obj", None) or scope,
            ) from error

    def _check_def_use(self, scope: Operation, root: Operation) -> None:
        """Every operand under ``scope`` must have a live definition."""
        from repro.ir.exceptions import VerifyError
        from repro.ir.value import OpResult, Use

        for op in scope.walk():
            for i, operand in enumerate(op.operands):
                if isinstance(operand, OpResult):
                    definer = operand.op
                    if definer.parent is None or _is_stale(definer, root):
                        raise VerifyError(
                            f"operand #{i} of {op.name} is a result of "
                            f"erased op {definer.name}",
                            obj=op,
                        )
                else:  # block argument
                    block = operand.owner
                    if block.parent is None:
                        raise VerifyError(
                            f"operand #{i} of {op.name} is an argument of "
                            f"a detached block",
                            obj=op,
                        )
                if Use(op, i) not in operand.uses:
                    raise VerifyError(
                        f"use-list of operand #{i} of {op.name} lost its "
                        f"back-reference",
                        obj=op,
                    )

    def run(self, root: Operation) -> bool:
        """Apply patterns under ``root``; returns True if anything changed."""
        totals = (self.rounds, self.match_attempts, self.rewrites_applied,
                  self.worklist_pushes)
        any_change = False
        with OBS.tracer.span("rewriting.greedy_driver", category="rewriting"):
            if self._table is not None:
                any_change = self._run_worklist(root, self._table)
            else:
                for _ in range(self.max_iterations):
                    self.rounds += 1
                    rewriter = PatternRewriter(self.context)
                    self._one_round(root, rewriter)
                    if not rewriter.changed:
                        break
                    any_change = True
        if OBS.metrics.enabled:
            # The attributes are lifetime totals; a reused driver adds
            # only this run's share.
            rounds, attempts, applied, pushes = totals
            scope = OBS.metrics.scope("rewriting.driver")
            scope.counter("rounds").inc(self.rounds - rounds)
            scope.counter("match_attempts").inc(self.match_attempts - attempts)
            scope.counter("rewrites_applied").inc(
                self.rewrites_applied - applied
            )
            if self.worklist_pushes > pushes:
                scope.counter("worklist_pushes").inc(
                    self.worklist_pushes - pushes
                )
        return any_change

    # -- compiled worklist path ----------------------------------------

    def _run_worklist(self, root: Operation, table: MatcherTable) -> bool:
        """Seed with one full walk, then revisit only affected ops.

        Work is processed in *generations* (one generation = one pass
        over the current worklist), which preserves the round-based
        driver's ``max_iterations`` contract as a revisit cap and keeps
        :attr:`rounds` meaning "iterations to fixpoint, final quiet
        iteration included".
        """
        remarks = OBS.remarks
        remark_engine = remarks if remarks.enabled else None
        origin = self.remark_origin
        buckets = table.buckets
        catchall = table.catchall
        any_change = False
        worklist: list[Operation] = list(root.walk(include_self=False))
        for _ in range(self.max_iterations):
            self.rounds += 1
            rewriter = PatternRewriter(self.context)
            touched = rewriter.touched
            replaced = rewriter.replaced_values
            parents = rewriter.erased_parents
            defs = rewriter.erased_defs
            # Cursors into the rewriter lists, advanced after each fire:
            # between fires patterns do not mutate (the same invariant
            # the ``changed`` flag relies on), so no per-op snapshots.
            n_touched = n_replaced = n_parents = n_defs = 0
            attempts = 0
            fired = 0
            next_work: list[Operation] = []
            next_seen: set[int] = set()

            def push(op: Operation) -> None:
                if op is root or id(op) in next_seen:
                    return
                next_seen.add(id(op))
                next_work.append(op)

            for op in worklist:
                block = op.parent
                if block is None:
                    continue
                region = block.parent
                if region is None or (
                    region.parent is not root and _is_stale(op, root)
                ):
                    continue
                bucket = buckets.get(op.name)
                if bucket is None:
                    bucket = catchall
                    if bucket is None:
                        continue
                rewriter.root_location = op.location
                op_name = op.name
                index = bucket.match(op, rewriter, remark_engine, origin)
                if index < 0:
                    attempts += bucket.size
                    continue
                attempts += index + 1
                fired += 1
                self.rewrites_applied += 1
                any_change = True
                # Seed the next generation with everything this rewrite
                # could have affected (and, recursively, what they use).
                new_ops = touched[n_touched:]
                new_parents = parents[n_parents:]
                for new_op in new_ops:
                    push(new_op)
                    for nested in new_op.walk(include_self=False):
                        push(nested)
                for value in replaced[n_replaced:]:
                    for user in value.users():
                        push(user)
                for parent in new_parents:
                    push(parent)
                for definer in defs[n_defs:]:
                    push(definer)
                n_touched = len(touched)
                n_replaced = len(replaced)
                n_parents = len(parents)
                n_defs = len(defs)
                if self.analyses is not None or self.validate_rewrites:
                    self._after_fire(root, rewriter, op, new_ops,
                                     new_parents, bucket.slots[index].label,
                                     op_name)
                if not _is_stale(op, root):
                    # In-place update: the op (and its users) may now
                    # match a pattern that previously missed.
                    push(op)
                    for result in op.results:
                        for user in result.users():
                            push(user)
            self.match_attempts += attempts
            self.worklist_pushes += len(next_work)
            worklist = next_work
            if not fired:
                break
        return any_change

    # -- interpretive reference path -----------------------------------

    def _one_round(self, root: Operation, rewriter: PatternRewriter) -> None:
        attempts = 0
        remarks = OBS.remarks
        emit_remarks = remarks.enabled
        for op in list(root.walk(include_self=False)):
            if _is_stale(op, root):
                continue  # erased (or inside an op erased) this round
            # Captured before the match: a fired rewrite erases ``op``.
            rewriter.root_location = op_location = op.location
            op_name = op.name
            for slot in self._slots:
                rewrite_pattern = slot.pattern
                if (
                    rewrite_pattern.op_name is not None
                    and op.name != rewrite_pattern.op_name
                ):
                    continue
                attempts += 1
                slot.stats.attempts += 1
                n_touched = len(rewriter.touched)
                n_parents = len(rewriter.erased_parents)
                if rewrite_pattern.match_and_rewrite(op, rewriter):
                    self.rewrites_applied += 1
                    slot.stats.applications += 1
                    if emit_remarks:
                        remarks.emit(
                            "applied",
                            origin=self.remark_origin,
                            name=slot.label,
                            op=op_name,
                            location=op_location,
                        )
                    if self.analyses is not None or self.validate_rewrites:
                        self._after_fire(
                            root, rewriter, op,
                            rewriter.touched[n_touched:],
                            rewriter.erased_parents[n_parents:],
                            slot.label, op_name,
                        )
                    break
                if emit_remarks and rewrite_pattern.op_name is not None:
                    remarks.emit(
                        "missed",
                        origin=self.remark_origin,
                        name=slot.label,
                        op=op_name,
                        location=op_location,
                        message="pattern did not match",
                    )
        self.match_attempts += attempts

    def statistics(self) -> list[tuple[str, int]]:
        """``(label, value)`` statistic rows for ``--pass-statistics``."""
        rows = [
            ("pattern-match-attempts", self.match_attempts),
            ("pattern-rewrites", self.rewrites_applied),
            ("rounds-to-fixpoint", self.rounds),
        ]
        if self.validations:
            rows.append(("rewrite-validations", self.validations))
            rows.append(("rewrite-validation-failures",
                         self.validation_failures))
        for label in sorted(self.pattern_stats):
            stats = self.pattern_stats[label]
            rows.append((f"{label}.match-attempts", stats.attempts))
            rows.append((f"{label}.rewrites", stats.applications))
        return rows


def apply_patterns_greedily(
    context: Context,
    root: Operation,
    patterns: Iterable[RewritePattern],
    max_iterations: int = 64,
    validate_rewrites: bool = False,
) -> bool:
    """Convenience entry point: run patterns under ``root`` to fixpoint."""
    driver = GreedyPatternDriver(context, list(patterns), max_iterations,
                                 validate_rewrites=validate_rewrites)
    return driver.run(root)
