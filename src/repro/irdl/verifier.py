"""Verifier generation: from an IRDL operation definition to a checker.

An IRDL specification carries enough information to derive verifiers that
assert IR invariants (§3, deliverable (3)).  The generated verifier
checks, in order:

1. operand/result counts, including *variadic segment matching* — with a
   single ``Variadic``/``Optional`` definition the segment sizes are
   implied; with several, a ``<kind>_segment_sizes`` attribute is
   required, as §4.6 specifies;
2. operand and result type constraints, with constraint variables unified
   across all uses (§4.6);
3. declared attributes and their constraints;
4. region shape: region count, entry-block argument constraints, and the
   single-block + terminator discipline when a ``Terminator`` is given;
5. successor counts, and the terminator-placement rule implied by any
   ``Successors`` directive (even an empty one, Listing 8);
6. IRDL-Py global constraints (§5.1).

Since the uniquing/plan work, all of the per-definition analysis happens
**once**, at ``make_op_verifier`` time: the definition is compiled into a
:class:`~repro.irdl.plan.VerificationPlan` that pre-resolves segment
layouts, attribute tables, and constraint variable-freeness, and
memoizes repeated variable-free checks against interned attributes (see
:mod:`repro.irdl.plan` for the soundness argument).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.ir.exceptions import VerifyError
from repro.irdl.defs import ArgDef, OpDef
from repro.irdl.plan import CONSTRAINT_MEMO, SegmentPlan, VerificationPlan
from repro.obs.instrument import OBS

if TYPE_CHECKING:
    from repro.ir.operation import Operation
    from repro.ir.value import SSAValue

__all__ = [
    "CONSTRAINT_MEMO",
    "SegmentPlan",
    "VerificationPlan",
    "make_op_verifier",
    "match_segments",
]


def match_segments(
    values: Sequence["SSAValue"],
    defs: Sequence[ArgDef],
    op: "Operation",
    kind: str,
) -> list[list["SSAValue"]]:
    """Assign actual values to operand/result definitions (§4.6).

    Returns one (possibly empty) list of values per definition.  Raises
    :class:`VerifyError` when the counts cannot match.

    This is the uncompiled convenience entry point; hot callers go
    through a cached :class:`~repro.irdl.plan.SegmentPlan` instead, which
    performs the variadic analysis once per definition list.
    """
    return SegmentPlan(defs, kind).match(values, op)


def make_op_verifier(op_def: OpDef) -> Callable[["Operation"], None]:
    """Compile one operation definition into its verification function.

    All definition-side analysis (variadic layout, attribute tables,
    IRDL-Py predicate compilation, constraint variable-freeness) happens
    here, once.  When definition-time code generation is enabled
    (:mod:`repro.irdl.codegen`, the default), the checks are additionally
    lowered to a generated Python function specialized to this
    definition; the interpretive plan remains the reference path
    (``REPRO_NO_CODEGEN=1`` / ``irdl-opt --no-codegen``) and is kept for
    introspection either way as ``verify.plan``.  The emitted source, if
    any, is exposed as ``verify.generated_source``
    (``irdl-opt --dump-generated``).
    """
    from repro.irdl import codegen

    plan = VerificationPlan(op_def)
    generated_source: str | None = None
    impl: Callable[["Operation"], None] = plan.run
    if codegen.enabled():
        impl, generated_source = codegen.compile_op_verifier(op_def, plan)

    def verify(op: "Operation") -> None:
        metrics = OBS.metrics
        if not metrics.enabled:
            impl(op)
            return
        metrics.counter("irdl.verifier.ops_verified").inc()
        try:
            impl(op)
        except VerifyError:
            metrics.counter(f"irdl.verifier.failures.{op.name}").inc()
            raise

    verify.plan = plan  # type: ignore[attr-defined]
    verify.compiled = generated_source is not None  # type: ignore[attr-defined]
    verify.generated_source = generated_source  # type: ignore[attr-defined]
    return verify
