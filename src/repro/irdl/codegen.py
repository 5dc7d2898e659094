"""Definition-time code generation: IRDL definitions to specialized Python.

The paper's deployment story (§5) is that IRDL definitions are *compiled*
— lowered through ODS into straight-line C++ verifiers — rather than
interpreted.  This module brings that compilation step to the
reproduction: each :class:`~repro.irdl.defs.OpDef` and each
type/attribute definition's parameter list is lowered to generated
Python source — one flat, specialized verifier function per definition —
compiled once with ``compile()``/``exec`` and installed as the
definition's verifier.  Parameter lists are lowered when their dialect
is registered; an ``OpDef`` is lowered the first time an operation of
its kind is verified, or its generated source is read
(:class:`~repro.irdl.verifier.LazyOpVerifier`), so a program lowers only
the operation kinds it verifies.

What the generated code specializes away, relative to the interpretive
:class:`~repro.irdl.plan.VerificationPlan`:

* **segment logic becomes constants** — the §4.6 variadic analysis is
  baked into the emitted source: fixed-arity ops get a single literal
  length comparison, single-variadic ops get constant slice offsets, and
  only the multi-variadic shapes (which need a ``*_segment_sizes``
  attribute) keep a call into the precompiled
  :class:`~repro.irdl.plan.SegmentPlan`;
* **constraint trees become straight-line checks** — ``Eq`` constraints
  compile to an identity test against the interned expected object
  (``v is _e0``), ``AnyType``/``AnyAttr`` to a single ``isinstance``,
  and every other *variable-free* constraint to an inline
  :class:`~repro.irdl.plan.ConstraintMemo` probe.  Only the cold miss
  path falls back to the interpretive ``Constraint.verify`` — which is
  also what keeps the diagnostics byte-identical to the reference
  implementation;
* **dispatch disappears** — the ~20 polymorphic ``Constraint.verify``
  calls per check collapse into locals, constants, and at most one
  method call on the memo.

Generated text carries no per-definition literal: names, labels and
qualified names are bound constants like the constraints themselves,
and the ``# generated from IRDL definition`` header lives only in the
``generated_source`` kept for ``irdl-opt --dump-generated``.  Definitions
of one *shape* (arity, variadicity, constraint kinds, attribute count)
therefore produce the same text, which :func:`shared_code` compiles once
per process through a bounded LRU cache; each definition only ``exec``s
the shared code object into its own constant namespace, and
``irdl.codegen.code_reused`` counts the definitions that did.  Lowering
all 1,034 definitions of one registration of the 28-dialect corpus,
631 reuse an earlier shape; lowering those of a second registration in
the same process reuses every one.

Soundness leans on the same two invariants as the constraint memo:
constraints and attributes are immutable, and uniqued attribute storage
makes identity a sound fast path for equality.

The generated verifiers are the only production path: registration
installs the parameter verifiers, and each operation's generated verifier
replaces its lazy one on first use.  The interpretive
:meth:`VerificationPlan.run <repro.irdl.plan.VerificationPlan.run>` and
:func:`repro.irdl.plan.verify_parameters` remain as test oracles:
``tests/irdl/test_codegen_differential.py`` proves the generated
verifiers agree with them on accept/reject — with identical
diagnostics — over the fuzz corpus.
"""

from __future__ import annotations

import functools
import threading
from types import CodeType
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.ir.attributes import Attribute, TypeAttribute
from repro.ir.exceptions import VerifyError
from repro.irdl.constraints import (
    AnyAttrConstraint,
    AnyTypeConstraint,
    Constraint,
    ConstraintContext,
    EqConstraint,
)
from repro.irdl.plan import CONSTRAINT_MEMO, ConstraintMemo, run_region_checks
from repro.obs.instrument import OBS

if TYPE_CHECKING:
    from repro.ir.operation import Operation
    from repro.irdl.defs import OpDef, TypeDef
    from repro.irdl.plan import VerificationPlan

__all__ = [
    "Emitter",
    "STATS",
    "compile_op_verifier",
    "compile_param_verifier",
    "shared_code",
]


#: Process-lifetime emitter statistics (mirrored into ``repro.obs`` as
#: ``irdl.codegen.*`` whenever metrics are enabled).
STATS = {"definitions_compiled": 0, "source_bytes": 0, "code_reused": 0}
_STATS_LOCK = threading.Lock()


#: Set by :func:`shared_code` on a cache miss, so the calling thread can
#: tell a freshly compiled code object from a reused one.
_fresh = threading.local()


@functools.lru_cache(maxsize=1024)
def shared_code(
    source: str, mode: str = "exec", filename: str = "<irdl-codegen>"
) -> CodeType:
    """Compile ``source`` once per process; equal texts share one code
    object.  The cache is bounded (each entry measured ~4.5 KB)."""
    _fresh.compiled = True
    return compile(source, filename, mode)


#: Shared context handed to variable-free fallback checks.  A
#: variable-free constraint never reads or writes bindings (that is the
#: definition of variable-freeness), so one immutable context is safe.
_VARFREE_CCTX = ConstraintContext()


def _slow_value_check(
    constraint: Constraint,
    value: Any,
    op: "Operation",
    label: str,
    memo: ConstraintMemo | None,
    cctx: ConstraintContext,
) -> None:
    """Cold path of one generated value/attribute check.

    Runs the interpretive constraint so failures carry the reference
    diagnostics; successes of memoizable checks are recorded so the next
    occurrence of the same (constraint, value) pair hits the inline probe.
    """
    try:
        constraint.verify(value, cctx)
    except VerifyError as err:
        raise VerifyError(f"{op.name}: {label}: {err}", obj=op) from err
    if memo is not None:
        memo.record(constraint, value)


def _slow_param_check(
    constraint: Constraint,
    value: Any,
    label: str,
    memo: ConstraintMemo | None,
    cctx: ConstraintContext,
) -> None:
    """Cold path of one generated type/attribute parameter check."""
    try:
        constraint.verify(value, cctx)
    except VerifyError as err:
        raise VerifyError(f"{label}: {err}") from err
    if memo is not None:
        memo.record(constraint, value)


class _Emitter:
    """Accumulates generated source lines plus their constant environment."""

    __slots__ = ("lines", "env", "_counter", "reused")

    def __init__(self):
        self.lines: list[str] = []
        self.env: dict[str, Any] = {
            "_VerifyError": VerifyError,
            "_memo": CONSTRAINT_MEMO,
            "_NOVARS": _VARFREE_CCTX,
            "_Cctx": ConstraintContext,
            "_Attribute": Attribute,
            "_TypeAttribute": TypeAttribute,
            "_OBS": OBS,
        }
        self._counter = 0
        #: Whether the last :meth:`compile` found its code in the cache.
        self.reused = False

    def bind(self, value: Any, prefix: str = "c") -> str:
        """Install ``value`` as a closed-over constant; returns its name."""
        name = f"_{prefix}{self._counter}"
        self._counter += 1
        self.env[name] = value
        return name

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"

    def compile(self, fn_name: str) -> Callable[..., None]:
        """Define ``fn_name`` over this emitter's constants; emitters of
        equal source share one code object from :func:`shared_code`."""
        _fresh.compiled = False
        code = shared_code(self.source())
        self.reused = not _fresh.compiled
        namespace = dict(self.env)
        exec(code, namespace)
        return namespace[fn_name]


#: Public alias: other definition-time compilers (the rewrite-pattern
#: matcher table in :mod:`repro.rewriting.matcher`) reuse the same
#: source-accumulation + constant-binding + ``exec`` machinery.
Emitter = _Emitter


def _fast_test(em: _Emitter, constraint: Constraint, var: str) -> str | None:
    """An inline success test for the common constraint shapes, or None."""
    cls = type(constraint)
    if cls is EqConstraint:
        expected = em.bind(constraint.expected, "e")
        return f"{var} is {expected}"
    if cls is AnyTypeConstraint:
        return f"isinstance({var}, _TypeAttribute)"
    if cls is AnyAttrConstraint:
        return f"isinstance({var}, _Attribute)"
    return None


def _emit_value_check(
    em: _Emitter,
    indent: int,
    value_expr: str,
    constraint: Constraint,
    memoizable: bool,
    label: str,
    cctx_expr: str,
) -> None:
    """One constraint check over ``value_expr`` (a type or attribute)."""
    cname = em.bind(constraint)
    lname = em.bind(label, "l")
    if memoizable:
        em.emit(indent, f"_v = {value_expr}")
        fast = _fast_test(em, constraint, "_v")
        cond = f"not _memo.hit({cname}, _v)"
        if fast is not None:
            cond = f"not ({fast}) and {cond}"
        em.emit(indent, f"if {cond}:")
        em.emit(indent + 1, f"_slow({cname}, _v, op, {lname}, _memo, _NOVARS)")
    else:
        # Variable-dependent checks must run the interpretive constraint
        # every time: their outcome reads/writes the per-run context.
        em.emit(indent,
                f"_slow({cname}, {value_expr}, op, {lname}, None, "
                f"{cctx_expr})")


def _emit_value_section(
    em: _Emitter, vc, kind: str, seq: str, cctx_expr: str
) -> None:
    """Segment matching + constraint checks for one operand/result list.

    Mirrors :meth:`repro.irdl.plan.SegmentPlan.match` followed by
    :meth:`_ValueChecks.run`, with the variadic analysis folded into
    constants.
    """
    sp = vc.plan
    n = sp.n_defs
    if sp.variadic_count == 0:
        em.emit(1, f"if len({seq}) != {n}:")
        em.emit(2, f'raise _VerifyError(f"{{op.name}} expects {n} {kind}s, '
                   f'got {{len({seq})}}")')
        for index, (arg_def, constraint, memoizable) in enumerate(vc.checks):
            label = f"{kind} {arg_def.name!r}"
            _emit_value_check(em, 1, f"{seq}[{index}].type", constraint,
                              memoizable, label, cctx_expr)
    elif sp.variadic_count == 1:
        n_fixed = sp.n_fixed
        em.emit(1, f"_nvar = len({seq}) - {n_fixed}")
        em.emit(1, "if _nvar < 0:")
        em.emit(2, f'raise _VerifyError(f"{{op.name}} expects at least '
                   f'{n_fixed} {kind}s, got {{len({seq})}}")')
        if sp.only_variadic_optional:
            only = em.bind(next(d.name for d in sp.defs if d.is_variadic), "n")
            em.emit(1, "if _nvar > 1:")
            em.emit(2, f'raise _VerifyError(f"{{op.name}}: optional {kind} '
                       f"{{{only}!r}} matches at most one value, "
                       f'got {{_nvar}}")')
        cursor = 0
        seen_variadic = False
        for arg_def, constraint, memoizable in vc.checks:
            label = f"{kind} {arg_def.name!r}"
            if arg_def.is_variadic:
                em.emit(1, f"for _item in {seq}[{cursor} : {cursor} + _nvar]:")
                _emit_value_check(em, 2, "_item.type", constraint,
                                  memoizable, label, cctx_expr)
                seen_variadic = True
            elif not seen_variadic:
                _emit_value_check(em, 1, f"{seq}[{cursor}].type", constraint,
                                  memoizable, label, cctx_expr)
                cursor += 1
            else:
                _emit_value_check(em, 1, f"{seq}[{cursor} + _nvar].type",
                                  constraint, memoizable, label, cctx_expr)
                cursor += 1
    else:
        # Several variadic defs need the *_segment_sizes attribute; the
        # sizes validation stays in the precompiled SegmentPlan constant.
        plan_name = em.bind(sp, "segplan")
        em.emit(1, f"_segs = {plan_name}.match({seq}, op)")
        for index, (arg_def, constraint, memoizable) in enumerate(vc.checks):
            label = f"{kind} {arg_def.name!r}"
            em.emit(1, f"for _item in _segs[{index}]:")
            _emit_value_check(em, 2, "_item.type", constraint, memoizable,
                              label, cctx_expr)


def _needs_cctx(plan: "VerificationPlan") -> bool:
    """Whether any check can read or write constraint-variable bindings."""
    if plan.region_plans:
        return True
    for _, _, memoizable in (*plan.operand_checks.checks,
                             *plan.result_checks.checks,
                             *plan.attr_checks):
        if not memoizable:
            return True
    return False


def compile_op_verifier(
    op_def: "OpDef", plan: "VerificationPlan"
) -> tuple[Callable[["Operation"], None], str]:
    """Lower one operation definition to a generated Python verifier.

    Returns ``(function, source)``; ``source`` is the emitted text under
    a ``# generated from IRDL definition`` header.
    """
    em = _Emitter()
    em.env["_slow"] = _slow_value_check
    em.emit(0, "def __irdl_verify(op):")
    em.emit(1, "operands = op.operands")
    em.emit(1, "results = op.results")
    cctx_expr = "_NOVARS"
    if _needs_cctx(plan):
        em.emit(1, "cctx = _Cctx()")
        cctx_expr = "cctx"

    _emit_value_section(em, plan.operand_checks, "operand", "operands",
                        cctx_expr)
    _emit_value_section(em, plan.result_checks, "result", "results",
                        cctx_expr)

    if plan.attr_checks:
        em.emit(1, "_attrs = op.attributes")
        for attr_def, constraint, memoizable in plan.attr_checks:
            name = em.bind(attr_def.name, "n")
            em.emit(1, f"_a = _attrs.get({name})")
            em.emit(1, "if _a is None:")
            em.emit(2, f'raise _VerifyError(f"{{op.name}} expects an '
                       f'attribute named {{{name}!r}}", obj=op)')
            _emit_value_check(em, 1, "_a", constraint, memoizable,
                              f"attribute {attr_def.name!r}", cctx_expr)

    if plan.region_plans:
        em.env["_check_regions"] = run_region_checks
        rplans = em.bind(plan.region_plans, "rplans")
        em.emit(1, f"_check_regions({rplans}, op, {cctx_expr}, _memo)")
    else:
        em.emit(1, "if op.regions:")
        em.emit(2, 'raise _VerifyError(f"{op.name} expects 0 regions, '
                   'got {len(op.regions)}", obj=op)')

    expected = plan.expected_successors
    em.emit(1, f"if len(op.successors) != {expected}:")
    em.emit(2, f'raise _VerifyError(f"{{op.name}} expects {expected} '
               'successors, got {len(op.successors)}", obj=op)')

    if plan.predicates:
        from repro.irdl.irdl_py import run_op_predicate

        em.env["_run_pred"] = run_op_predicate
        preds = em.bind(plan.predicates, "preds")
        opdef = em.bind(op_def, "opdef")
        em.emit(1, f"for _code, _pred in {preds}:")
        em.emit(2, f"_run_pred(_pred, _code, op, {opdef})")

    n_attrs = len(plan.attr_checks)
    em.emit(1, "_m = _OBS.metrics")
    em.emit(1, "if _m.enabled:")
    em.emit(2, '_m.counter("irdl.verifier.constraint_checks").inc('
               f"len(operands) + len(results) + {n_attrs})")

    fn = em.compile("__irdl_verify")
    return fn, _note_compiled(em, op_def.qualified_name)


def _note_compiled(em: _Emitter, qualified_name: str) -> str:
    """Count one lowered definition; returns its headed source."""
    source = (f"# generated from IRDL definition {qualified_name}\n"
              + em.source())
    with _STATS_LOCK:  # registrations may run on several threads
        STATS["definitions_compiled"] += 1
        STATS["source_bytes"] += len(source)
        STATS["code_reused"] += em.reused
    if OBS.metrics.enabled:
        scope = OBS.metrics.scope("irdl.codegen")
        scope.counter("definitions_compiled").inc()
        scope.counter("source_bytes").inc(len(source))
        if em.reused:
            scope.counter("code_reused").inc()
    return source


def compile_param_verifier(
    type_def: "TypeDef",
) -> tuple[Callable[[Sequence[Any]], None], str]:
    """Lower a type/attribute definition's parameter list to a verifier.

    The generated function performs the arity check plus every parameter
    constraint; IRDL-Py whole-value predicates stay with the binding
    (they need the constructed instance).
    """
    em = _Emitter()
    em.env["_slow"] = _slow_param_check
    qualified = type_def.qualified_name
    n = len(type_def.parameters)
    qname = em.bind(qualified, "q")
    em.emit(0, "def __irdl_verify_params(parameters):")
    em.emit(1, f"if len(parameters) != {n}:")
    em.emit(2, f'raise _VerifyError(f"{{{qname}}} expects {n} parameters, '
               'got {len(parameters)}")')
    needs_cctx = any(p.constraint.variables() for p in type_def.parameters)
    cctx_expr = "_NOVARS"
    if needs_cctx:
        em.emit(1, "cctx = _Cctx()")
        cctx_expr = "cctx"
    for index, param_def in enumerate(type_def.parameters):
        memoizable = not param_def.constraint.variables()
        label = em.bind(f"{qualified}: parameter {param_def.name!r}", "l")
        cname = em.bind(param_def.constraint)
        if memoizable:
            em.emit(1, f"_v = parameters[{index}]")
            fast = _fast_test(em, param_def.constraint, "_v")
            cond = f"not _memo.hit({cname}, _v)"
            if fast is not None:
                cond = f"not ({fast}) and {cond}"
            em.emit(1, f"if {cond}:")
            em.emit(2, f"_slow({cname}, _v, {label}, _memo, _NOVARS)")
        else:
            em.emit(1, f"_slow({cname}, parameters[{index}], {label}, "
                       f"None, {cctx_expr})")
    fn = em.compile("__irdl_verify_params")
    return fn, _note_compiled(em, qualified)
