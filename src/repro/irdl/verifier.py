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

All of the per-definition analysis happens **once**, at
``make_op_verifier`` time: the definition is compiled into a
:class:`~repro.irdl.plan.VerificationPlan` that pre-resolves segment
layouts, attribute tables, and constraint variable-freeness, and the
plan is lowered by :mod:`repro.irdl.codegen` to one generated Python
function, which is the verifier registration installs.  The plan's own
interpretive :meth:`~repro.irdl.plan.VerificationPlan.run` stays as the
reference the generated code is tested against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.ir.exceptions import VerifyError
from repro.irdl import codegen
from repro.irdl.defs import OpDef
from repro.irdl.plan import CONSTRAINT_MEMO, SegmentPlan, VerificationPlan
from repro.obs.instrument import OBS

if TYPE_CHECKING:
    from repro.ir.operation import Operation

__all__ = [
    "CONSTRAINT_MEMO",
    "SegmentPlan",
    "VerificationPlan",
    "make_op_verifier",
]


def make_op_verifier(op_def: OpDef) -> Callable[["Operation"], None]:
    """Compile one operation definition into its verification function.

    All definition-side analysis (variadic layout, attribute tables,
    IRDL-Py predicate compilation, constraint variable-freeness) happens
    here, once, and the checks are lowered to a generated Python
    function specialized to this definition (:mod:`repro.irdl.codegen`).
    The plan is kept for introspection as ``verify.plan`` and the
    emitted source as ``verify.generated_source``
    (``irdl-opt --dump-generated``).
    """
    plan = VerificationPlan(op_def)
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
    verify.generated_source = generated_source  # type: ignore[attr-defined]
    return verify
