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

All of the per-definition analysis happens **once**, when the
definition is lowered: it is compiled into a
:class:`~repro.irdl.plan.VerificationPlan` that pre-resolves segment
layouts, attribute tables, and constraint variable-freeness, and the
plan is lowered by :mod:`repro.irdl.codegen` to one generated Python
function (:func:`make_op_verifier`).  Registration lowers no
operation definition: it installs a :class:`LazyOpVerifier`, which
lowers its definition the first time it verifies an operation, or when
its ``plan`` or ``generated_source`` is read, and then installs the
lowered function on the binding in its own place.  A program therefore
pays for code generation only for the operation kinds it verifies, and
a binding shared by several contexts is lowered once for all of them.
The plan's own interpretive
:meth:`~repro.irdl.plan.VerificationPlan.run` stays as the reference
the generated code is tested against.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Callable

from repro.ir.exceptions import VerifyError
from repro.irdl import codegen
from repro.irdl.defs import OpDef
from repro.irdl.plan import CONSTRAINT_MEMO, SegmentPlan, VerificationPlan
from repro.obs.instrument import OBS

if TYPE_CHECKING:
    from repro.ir.operation import Operation
    from repro.irdl.instantiate import DynamicOpDef

__all__ = [
    "CONSTRAINT_MEMO",
    "LazyOpVerifier",
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


#: Held only while a definition is lowered, so each definition is
#: lowered once however many threads verify its first operations.
_LOWERING = threading.Lock()


def _renew_lowering_lock() -> None:
    """Give a forked child an unheld lock.  A child forked while another
    thread lowers inherits the lock held, with no thread left to
    release it, and would block on its first lowering for good."""
    global _LOWERING
    _LOWERING = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_lowering_lock)


class LazyOpVerifier:
    """The verifier registration installs on an IRDL operation binding.

    The first call, or the first read of :attr:`plan` or
    :attr:`generated_source`, lowers the binding's definition with
    :func:`make_op_verifier` and stores the lowered function as the
    binding's verifier in place of this one, so later verifications
    call the generated function directly, with no work added per call.
    """

    __slots__ = ("binding",)

    def __init__(self, binding: "DynamicOpDef"):
        #: The binding this verifier is installed on.
        self.binding = binding

    def lower(self) -> Callable[["Operation"], None]:
        """The lowered verifier, lowering the definition on first use."""
        binding = self.binding
        lowered = binding._verifier
        if lowered is self:
            with _LOWERING:
                lowered = binding._verifier
                if lowered is self:
                    lowered = make_op_verifier(binding.op_def)
                    binding._verifier = lowered
        return lowered  # type: ignore[return-value]

    def __call__(self, op: "Operation") -> None:
        self.lower()(op)

    @property
    def plan(self) -> VerificationPlan:
        return self.lower().plan  # type: ignore[attr-defined]

    @property
    def generated_source(self) -> str:
        return self.lower().generated_source  # type: ignore[attr-defined]
