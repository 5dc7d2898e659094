"""Verification plans: hoist per-verify analysis to compile time.

Each :class:`~repro.irdl.defs.OpDef` is analysed once into a
:class:`VerificationPlan`:

* :class:`SegmentPlan` — the variadic-defs analysis of §4.6 (how many
  variadic definitions, which one, what the fixed count is) is performed
  once per definition list, so the per-verify work is a couple of integer
  comparisons plus the slicing itself;
* per-attribute and per-value check tables with the *variable-freeness*
  of each constraint precomputed (``Constraint.variables()`` is a
  recursive walk — running it per verify would defeat the point);
* :class:`ConstraintMemo` — an LRU of successful variable-free constraint
  checks keyed by ``(constraint, value)`` *identity*.  Uniqued attribute
  storage (:mod:`repro.ir.uniquer`) makes identity keys effective: every
  ``i32`` parsed from text is the same object, so the second operation of
  a given shape verifies its types with dictionary hits.

The plan is the input :mod:`repro.irdl.codegen` lowers to a generated
verifier, when an operation of its kind is first verified; only that
generated function ever verifies operations in production.
:meth:`VerificationPlan.run` and :func:`verify_parameters` are the
interpretive references the generated operation and parameter verifiers
are tested against (``tests/irdl/test_codegen_differential.py``); no
production path calls them.

Memoization is deliberately conservative:

* only **successes** are cached — failures raise descriptive errors whose
  construction dominates anyway, and error paths stay exact;
* only **variable-free** constraints are cached — a constraint mentioning
  a §4.6 constraint variable reads or writes the per-run
  :class:`~repro.irdl.constraints.ConstraintContext`, so its outcome is
  not a function of the value alone;
* entries pin both key objects alive, so an ``id`` is never reused while
  its entry exists, and the LRU bound keeps the pinning finite.

Cache effectiveness is observable via the ``irdl.verifier.memo_hits`` /
``irdl.verifier.memo_misses`` counters (mirrored into ``repro.obs``
whenever metrics are enabled).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Sequence

from repro.builtin.attributes import ArrayAttr, IntegerAttr
from repro.ir.exceptions import VerifyError
from repro.irdl.ast import Variadicity
from repro.irdl.constraints import Constraint, ConstraintContext
from repro.obs.instrument import OBS

if TYPE_CHECKING:
    from repro.ir.operation import Operation
    from repro.ir.value import SSAValue
    from repro.irdl.defs import ArgDef, OpDef, RegionDef, TypeDef


class ConstraintMemo:
    """A bounded LRU of *successful* variable-free constraint checks.

    Keys are ``(id(constraint), id(value))``; each entry stores the pair
    itself so both identities stay valid for the entry's lifetime.  A hit
    therefore proves the exact same constraint object accepted the exact
    same value object before — and since both are immutable, it still
    does.
    """

    __slots__ = ("maxsize", "enabled", "hits", "misses", "_entries")

    def __init__(self, maxsize: int = 4096):
        self.maxsize = maxsize
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple[int, int], tuple[Constraint, Any]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def hit(self, constraint: Constraint, value: Any) -> bool:
        """True when this exact (constraint, value) pair passed before."""
        if not self.enabled:
            return False
        key = (id(constraint), id(value))
        entry = self._entries.get(key)
        if (
            entry is not None
            and entry[0] is constraint
            and entry[1] is value
        ):
            try:
                self._entries.move_to_end(key)
            except KeyError:
                # Another thread's record evicted the entry since the
                # read; the identity check already proved this exact
                # pair passed, so the hit stands without the reorder.
                pass
            self.hits += 1
            if OBS.metrics.enabled:
                OBS.metrics.counter("irdl.verifier.memo_hits").inc()
            return True
        self.misses += 1
        if OBS.metrics.enabled:
            OBS.metrics.counter("irdl.verifier.memo_misses").inc()
        return False

    def record(self, constraint: Constraint, value: Any) -> None:
        """Remember that ``constraint`` accepted ``value``."""
        if not self.enabled:
            return
        self._entries[(id(constraint), id(value))] = (constraint, value)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "live": len(self)}


#: The process-wide memo shared by every compiled plan.  Sharing (rather
#: than one memo per plan) lets common constraints — ``!i32`` appears in
#: hundreds of corpus definitions — warm up once.
CONSTRAINT_MEMO = ConstraintMemo()


def _is_variable_free(constraint: Constraint) -> bool:
    return not constraint.variables()


def _checked_verify(
    constraint: Constraint,
    value: Any,
    cctx: ConstraintContext,
    memoizable: bool,
    memo: ConstraintMemo,
) -> None:
    """One constraint check, consulting the memo when that is sound."""
    if memoizable and memo.hit(constraint, value):
        return
    constraint.verify(value, cctx)
    if memoizable:
        memo.record(constraint, value)


class SegmentPlan:
    """The §4.6 variadic-segment analysis, performed once per def list."""

    __slots__ = (
        "defs",
        "kind",
        "n_defs",
        "variadic_count",
        "n_fixed",
        "only_variadic_optional",
        "sizes_attr_name",
    )

    def __init__(self, defs: Sequence["ArgDef"], kind: str):
        self.defs = tuple(defs)
        self.kind = kind
        self.n_defs = len(self.defs)
        variadics = [d for d in self.defs if d.is_variadic]
        self.variadic_count = len(variadics)
        self.n_fixed = self.n_defs - self.variadic_count
        self.only_variadic_optional = (
            variadics[0].variadicity is Variadicity.OPTIONAL
            if len(variadics) == 1
            else False
        )
        self.sizes_attr_name = f"{kind}_segment_sizes"

    def match(
        self, values: Sequence["SSAValue"], op: "Operation"
    ) -> list[list["SSAValue"]]:
        """Assign values to definitions; raise ``VerifyError`` on mismatch."""
        kind = self.kind
        n_values = len(values)

        if self.variadic_count == 0:
            if n_values != self.n_defs:
                raise VerifyError(
                    f"{op.name} expects {self.n_defs} {kind}s, got {n_values}"
                )
            return [[v] for v in values]

        if self.variadic_count == 1:
            n_variadic = n_values - self.n_fixed
            if n_variadic < 0:
                raise VerifyError(
                    f"{op.name} expects at least {self.n_fixed} {kind}s, "
                    f"got {n_values}"
                )
            if self.only_variadic_optional and n_variadic > 1:
                only = next(d for d in self.defs if d.is_variadic)
                raise VerifyError(
                    f"{op.name}: optional {kind} {only.name!r} matches at "
                    f"most one value, got {n_variadic}"
                )
            segments: list[list[SSAValue]] = []
            cursor = 0
            for arg_def in self.defs:
                size = n_variadic if arg_def.is_variadic else 1
                segments.append(list(values[cursor : cursor + size]))
                cursor += size
            return segments

        # Several variadic definitions: §4.6 requires an explicit
        # attribute giving the size of each segment.
        sizes = self._read_sizes(op)
        self._validate_sizes(sizes, n_values, op)
        segments = []
        cursor = 0
        for size in sizes:
            segments.append(list(values[cursor : cursor + size]))
            cursor += size
        return segments

    def _read_sizes(self, op: "Operation") -> list[int]:
        sizes_attr = op.attributes.get(self.sizes_attr_name)
        if not isinstance(sizes_attr, ArrayAttr):
            raise VerifyError(
                f"{op.name} has {self.variadic_count} variadic {self.kind} "
                f"definitions and requires an {self.sizes_attr_name} array "
                f"attribute"
            )
        sizes: list[int] = []
        for element in sizes_attr.elements:
            if not isinstance(element, IntegerAttr):
                raise VerifyError(
                    f"{op.name}: {self.sizes_attr_name} must contain "
                    f"integer attributes"
                )
            sizes.append(element.value)
        return sizes

    def _validate_sizes(
        self, sizes: list[int], n_values: int, op: "Operation"
    ) -> None:
        """Check the whole sizes list before any slicing happens.

        Validating up front (rather than while consuming segments) means
        the error always names the *first* offending entry, regardless of
        how later entries would have sliced.
        """
        if len(sizes) != self.n_defs:
            raise VerifyError(
                f"{op.name}: {self.sizes_attr_name} has {len(sizes)} "
                f"entries for {self.n_defs} {self.kind} definitions"
            )
        for arg_def, size in zip(self.defs, sizes):
            if arg_def.variadicity is Variadicity.SINGLE and size != 1:
                raise VerifyError(
                    f"{op.name}: {self.kind} {arg_def.name!r} is not "
                    f"variadic but its segment size is {size}"
                )
            if arg_def.variadicity is Variadicity.OPTIONAL and size > 1:
                raise VerifyError(
                    f"{op.name}: optional {self.kind} {arg_def.name!r} has "
                    f"segment size {size}"
                )
            if size < 0:
                raise VerifyError(
                    f"{op.name}: negative segment size {size}"
                )
        if sum(sizes) != n_values:
            raise VerifyError(
                f"{op.name}: {self.sizes_attr_name} sums to {sum(sizes)} "
                f"but there are {n_values} {self.kind}s"
            )


class _ValueChecks:
    """A segment plan plus per-definition constraint/memo metadata."""

    __slots__ = ("plan", "checks")

    def __init__(self, defs: Sequence["ArgDef"], kind: str):
        self.plan = SegmentPlan(defs, kind)
        self.checks = tuple(
            (d, d.constraint, _is_variable_free(d.constraint)) for d in defs
        )

    def run(
        self,
        values: Sequence["SSAValue"],
        op: "Operation",
        cctx: ConstraintContext,
        memo: ConstraintMemo,
    ) -> None:
        kind = self.plan.kind
        segments = self.plan.match(values, op)
        for (arg_def, constraint, memoizable), segment in zip(
            self.checks, segments
        ):
            for value in segment:
                try:
                    _checked_verify(
                        constraint, value.type, cctx, memoizable, memo
                    )
                except VerifyError as err:
                    raise VerifyError(
                        f"{op.name}: {kind} {arg_def.name!r}: {err}", obj=op
                    ) from err
        if OBS.metrics.enabled:
            OBS.metrics.counter("irdl.verifier.constraint_checks").inc(
                sum(len(segment) for segment in segments)
            )


class _RegionPlan:
    """Compiled checks for one ``Region`` directive."""

    __slots__ = ("region_def", "arg_checks", "must_not_be_empty")

    def __init__(self, region_def: "RegionDef"):
        self.region_def = region_def
        self.arg_checks = _ValueChecks(
            region_def.arguments,
            f"region {region_def.name!r} argument",
        )
        self.must_not_be_empty = bool(
            region_def.arguments or region_def.terminator
        )


class VerificationPlan:
    """Everything derivable from an ``OpDef`` before seeing any operation."""

    __slots__ = (
        "op_def",
        "operand_checks",
        "result_checks",
        "attr_checks",
        "region_plans",
        "expected_successors",
        "predicates",
    )

    def __init__(self, op_def: "OpDef"):
        from repro.irdl.irdl_py import compile_op_predicate

        self.op_def = op_def
        self.operand_checks = _ValueChecks(op_def.operands, "operand")
        self.result_checks = _ValueChecks(op_def.results, "result")
        self.attr_checks = tuple(
            (d, d.constraint, _is_variable_free(d.constraint))
            for d in op_def.attributes
        )
        self.region_plans = tuple(_RegionPlan(r) for r in op_def.regions)
        self.expected_successors = (
            len(op_def.successors) if op_def.successors is not None else 0
        )
        self.predicates = tuple(
            (code, compile_op_predicate(code)) for code in op_def.py_constraints
        )

    # ------------------------------------------------------------------

    def run(
        self, op: "Operation", memo: ConstraintMemo | None = None
    ) -> None:
        """Run every compiled check against one operation."""
        from repro.irdl.irdl_py import run_op_predicate

        if memo is None:
            memo = CONSTRAINT_MEMO
        cctx = ConstraintContext()
        self.operand_checks.run(op.operands, op, cctx, memo)
        self.result_checks.run(op.results, op, cctx, memo)
        self._run_attr_checks(op, cctx, memo)
        self._run_region_checks(op, cctx, memo)
        if len(op.successors) != self.expected_successors:
            raise VerifyError(
                f"{op.name} expects {self.expected_successors} successors, "
                f"got {len(op.successors)}",
                obj=op,
            )
        for code, predicate in self.predicates:
            run_op_predicate(predicate, code, op, self.op_def)

    def _run_attr_checks(
        self, op: "Operation", cctx: ConstraintContext, memo: ConstraintMemo
    ) -> None:
        if self.attr_checks and OBS.metrics.enabled:
            OBS.metrics.counter("irdl.verifier.constraint_checks").inc(
                len(self.attr_checks)
            )
        for attr_def, constraint, memoizable in self.attr_checks:
            attr = op.attributes.get(attr_def.name)
            if attr is None:
                raise VerifyError(
                    f"{op.name} expects an attribute named "
                    f"{attr_def.name!r}",
                    obj=op,
                )
            try:
                _checked_verify(constraint, attr, cctx, memoizable, memo)
            except VerifyError as err:
                raise VerifyError(
                    f"{op.name}: attribute {attr_def.name!r}: {err}", obj=op
                ) from err

    def _run_region_checks(
        self, op: "Operation", cctx: ConstraintContext, memo: ConstraintMemo
    ) -> None:
        run_region_checks(self.region_plans, op, cctx, memo)


def verify_parameters(
    type_def: "TypeDef", parameters: Sequence[Any]
) -> None:
    """Check parameters against a type or attribute definition.

    The interpretive reference for the generated parameter verifiers of
    :func:`repro.irdl.codegen.compile_param_verifier`: same checks, same
    diagnostics, no memo.
    """
    qualified = type_def.qualified_name
    if len(parameters) != len(type_def.parameters):
        raise VerifyError(
            f"{qualified} expects {len(type_def.parameters)} parameters, "
            f"got {len(parameters)}"
        )
    cctx = ConstraintContext()
    for param_def, value in zip(type_def.parameters, parameters):
        try:
            param_def.constraint.verify(value, cctx)
        except VerifyError as err:
            raise VerifyError(
                f"{qualified}: parameter {param_def.name!r}: {err}"
            ) from err


def run_region_checks(
    region_plans: Sequence[_RegionPlan],
    op: "Operation",
    cctx: ConstraintContext,
    memo: ConstraintMemo,
) -> None:
    """Region count + shape checks shared by the reference plan and the
    generated verifiers (:mod:`repro.irdl.codegen`), so both raise
    byte-identical diagnostics."""
    if len(op.regions) != len(region_plans):
        raise VerifyError(
            f"{op.name} expects {len(region_plans)} regions, got "
            f"{len(op.regions)}",
            obj=op,
        )
    for plan, region in zip(region_plans, op.regions):
        region_def = plan.region_def
        entry = region.entry_block
        if entry is None:
            if plan.must_not_be_empty:
                raise VerifyError(
                    f"{op.name}: region {region_def.name!r} must not "
                    f"be empty",
                    obj=op,
                )
            continue
        plan.arg_checks.run(entry.args, op, cctx, memo)
        if region_def.terminator is not None:
            if len(region.blocks) != 1:
                raise VerifyError(
                    f"{op.name}: region {region_def.name!r} must "
                    f"contain a single basic block (it declares a "
                    f"terminator)",
                    obj=op,
                )
            last = entry.last_op
            if last is None or last.name != region_def.terminator:
                found = last.name if last is not None else "nothing"
                raise VerifyError(
                    f"{op.name}: region {region_def.name!r} must end "
                    f"with {region_def.terminator}, found {found}",
                    obj=op,
                )
