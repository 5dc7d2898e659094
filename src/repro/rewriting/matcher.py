"""Compiled root-indexed pattern matching for the greedy driver.

The naive driver offers every operation to every pattern, so one round
costs ``O(ops x patterns)`` attribute loads, name comparisons, and
polymorphic ``match_and_rewrite`` calls.  This module applies the same
definition-time specialization trick :mod:`repro.irdl.codegen` uses for
verifiers to the *matching* side of rewriting:

* at driver construction the registered patterns are partitioned by
  root operation name into a dict-dispatched **matcher table** — during
  the walk, one ``dict.get(op.name)`` replaces the per-pattern
  ``op_name`` comparisons, and ops no pattern can root at cost a single
  lookup;
* each bucket is lowered to one flat, ``exec``-compiled Python function
  that runs every candidate pattern in benefit order: the generated
  code inlines each pattern's **match prefix** — operand/result arity
  literals and root-attribute equality against interned constants via
  identity tests (with a structural ``==`` fallback for non-interned
  attributes) — and only calls the pattern's residual
  ``match_and_rewrite`` predicate when the prefix holds.  Statistics
  objects and the remark protocol are threaded through the generated
  source, so the observable surface (per-pattern tallies,
  applied/missed remarks) matches the interpretive loop;
* patterns registered *without* an ``op_name`` defeat the index: they
  land in a catch-all bucket that is merged into every root bucket (and
  offered to unknown roots), and the ``unindexed-rewrite-pattern`` lint
  flags them.

Every :class:`~repro.rewriting.driver.GreedyPatternDriver` dispatches
through this table.  The interpretive loop is kept only as the test
oracle :class:`~repro.rewriting.driver.RoundBasedDriver`, and
``tests/rewriting/test_driver_differential.py`` proves the two drivers
agree on final IR, statistics, and remark verdicts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.irdl.codegen import Emitter
from repro.obs.instrument import OBS

if TYPE_CHECKING:
    from repro.rewriting.driver import PatternStatistics
    from repro.rewriting.pattern import RewritePattern

__all__ = [
    "MatcherTable",
    "PatternSlot",
    "STATS",
]


#: Process-lifetime matcher-compiler statistics (mirrored into
#: ``repro.obs`` as ``rewriting.matcher.*`` whenever metrics are
#: enabled at table-construction time).
STATS = {
    "tables_compiled": 0,
    "buckets_compiled": 0,
    "patterns_indexed": 0,
    "patterns_unindexed": 0,
    "source_bytes": 0,
}


class PatternSlot:
    """One registered pattern plus its driver-owned bookkeeping.

    ``label`` is the driver's *disambiguated* statistics label (distinct
    even when two patterns share a class or function name); ``stats`` is
    the mutable tally row the generated matcher code updates in place.
    """

    __slots__ = ("pattern", "stats", "label")

    def __init__(
        self, pattern: "RewritePattern", stats: "PatternStatistics", label: str
    ):
        self.pattern = pattern
        self.stats = stats
        self.label = label


class _Bucket:
    """One compiled dispatch target: all candidate slots for a root name."""

    __slots__ = ("match", "slots", "source", "size")

    def __init__(self, match, slots: Sequence[PatternSlot], source: str):
        #: ``match(op, rewriter, remarks, origin) -> int`` — the applied
        #: slot's index into :attr:`slots`, or ``-1`` when nothing fired.
        self.match = match
        self.slots = list(slots)
        self.source = source
        #: Plain int (not a property): read once per non-firing offer.
        self.size = len(self.slots)


def _compile_bucket(root_name: str, slots: Sequence[PatternSlot]) -> _Bucket:
    """Lower one bucket's candidate list to a flat matcher function.

    The generated function mirrors the reference loop exactly: attempts
    are tallied before the prefix runs (the interpretive driver counts
    an attempt per *offer*, prefix included), an ``applied`` remark is
    emitted for the fired slot, and a ``missed`` remark for every
    offered-but-unmatched slot that declared an ``op_name`` — same
    remark fields, same order.
    """
    em = Emitter()
    em.emit(0, f"# compiled matcher bucket: root {root_name!r}, "
               f"{len(slots)} pattern(s)")
    em.emit(0, "def __match(op, rewriter, remarks, origin):")
    em.emit(1, "_name = op.name")
    if any(slot.pattern.root_attrs for slot in slots):
        em.emit(1, "_attrs = op.attributes")
    from repro.rewriting.pattern import FunctionPattern

    for index, slot in enumerate(slots):
        rewrite_pattern = slot.pattern
        # A plain FunctionPattern's match_and_rewrite only forwards to
        # the wrapped function; bind that directly to skip a call level
        # (subclasses may override, so only the exact type qualifies).
        residual = (
            rewrite_pattern.fn
            if type(rewrite_pattern) is FunctionPattern
            else rewrite_pattern.match_and_rewrite
        )
        fn = em.bind(residual, "p")
        st = em.bind(slot.stats, "s")
        em.emit(1, f"{st}.attempts += 1")
        conds: list[str] = []
        if rewrite_pattern.operand_arity is not None:
            conds.append(f"len(op.operands) == {int(rewrite_pattern.operand_arity)}")
        if rewrite_pattern.result_arity is not None:
            conds.append(f"len(op.results) == {int(rewrite_pattern.result_arity)}")
        for key, value in (rewrite_pattern.root_attrs or {}).items():
            const = em.bind(value, "a")
            probe = f"_attrs.get({key!r})"
            # Identity is the uniqued-attribute fast path; the ``==``
            # arm keeps non-interned attributes from being rejected.
            conds.append(f"({probe} is {const} or {probe} == {const})")
        conds.append(f"{fn}(op, rewriter)")
        em.emit(1, f"if {' and '.join(conds)}:")
        em.emit(2, f"{st}.applications += 1")
        em.emit(2, "if remarks is not None:")
        em.emit(3, f"remarks.emit('applied', origin=origin, "
                   f"name={slot.label!r}, op=_name, "
                   f"location=rewriter.root_location)")
        em.emit(2, f"return {index}")
        if rewrite_pattern.op_name is not None:
            em.emit(1, "if remarks is not None:")
            em.emit(2, f"remarks.emit('missed', origin=origin, "
                       f"name={slot.label!r}, op=_name, "
                       f"location=rewriter.root_location, "
                       f"message='pattern did not match')")
    em.emit(1, "return -1")
    source = em.source()
    fn = em.compile("__match")
    STATS["buckets_compiled"] += 1
    STATS["source_bytes"] += len(source)
    return _Bucket(fn, slots, source)


class MatcherTable:
    """The root-op-indexed dispatch table for one pattern set.

    ``slots`` must already be in global benefit order (the driver sorts
    once); each per-root bucket preserves that order over the root's own
    patterns *merged with* the catch-all patterns, so benefit tie-breaks
    are identical to the reference driver's linear scan.
    """

    __slots__ = ("buckets", "catchall", "catchall_slots")

    def __init__(self, slots: Sequence[PatternSlot]):
        indexed_roots: dict[str, None] = {}
        catchall_slots = [
            slot for slot in slots if slot.pattern.op_name is None
        ]
        for slot in slots:
            if slot.pattern.op_name is not None:
                indexed_roots.setdefault(slot.pattern.op_name)
        #: root op name -> compiled bucket over that root's candidates.
        self.buckets: dict[str, _Bucket] = {}
        for name in indexed_roots:
            merged = [
                slot for slot in slots
                if slot.pattern.op_name in (None, name)
            ]
            self.buckets[name] = _compile_bucket(name, merged)
        #: The bucket offered to roots no pattern declared (only the
        #: unindexed patterns can match there); ``None`` when every
        #: pattern is indexed — unknown roots then cost one dict miss.
        self.catchall: _Bucket | None = (
            _compile_bucket("<any>", catchall_slots) if catchall_slots else None
        )
        self.catchall_slots = catchall_slots
        STATS["tables_compiled"] += 1
        STATS["patterns_indexed"] += len(slots) - len(catchall_slots)
        STATS["patterns_unindexed"] += len(catchall_slots)
        metrics = OBS.metrics
        if metrics.enabled:
            scope = metrics.scope("rewriting.matcher")
            scope.counter("tables_compiled").inc()
            scope.counter("buckets_compiled").inc(
                len(self.buckets) + (1 if self.catchall else 0)
            )
            scope.counter("patterns_unindexed").inc(len(catchall_slots))

    def bucket_for(self, op_name: str) -> _Bucket | None:
        """The compiled bucket for a root name (``None``: skip the op)."""
        bucket = self.buckets.get(op_name)
        if bucket is not None:
            return bucket
        return self.catchall

    def sources(self) -> dict[str, str]:
        """Generated source per bucket, for tests and debugging."""
        out = {name: bucket.source for name, bucket in self.buckets.items()}
        if self.catchall is not None:
            out["<any>"] = self.catchall.source
        return out
