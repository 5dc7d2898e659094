"""Differential fuzzing: generated verifiers vs the interpretive plans.

The codegen soundness claim is that a generated verifier is *behaviorally
identical* to the :class:`~repro.irdl.plan.VerificationPlan` it was
lowered from: same accept/reject verdict and the same diagnostic text on
every operation.  Registration installs only the generated verifier, so
the plan's ``run`` is called directly here as the reference.  This
suite checks that claim three ways:

1. over the paper corpus — every operation of every ``irgen``-generated
   module is run through both paths;
2. over *targeted mutations* of those operations (dropped/duplicated
   operands, removed/retyped attributes, added successors), so the
   rejection paths are exercised, not just the happy path;
3. over Hypothesis-built random dialects, where constraint variables and
   AnyOf alternatives stress the non-memoizable code paths.

Any disagreement — verdict or message — fails the property.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.builtin import IntegerAttr, StringAttr, default_context, i32
from repro.ir import Block, VerifyError
from repro.ir.operation import Operation
from repro.irdl import ast, register_dialect, register_irdl
from repro.irdl.irgen import IRGenerator, seed_values_dialect
from repro.irdl.plan import CONSTRAINT_MEMO


def _outcome(verify, op):
    """None on acceptance; the diagnostic text on rejection."""
    try:
        verify(op)
        return None
    except VerifyError as err:
        return str(err)


def _assert_agreement(ctx, op):
    """Compiled and interpretive verifiers must agree on one operation."""
    binding = ctx.get_op_def(op.name)
    if binding is None or getattr(binding, "_verifier", None) is None:
        return
    verifier = binding._verifier
    if not hasattr(verifier, "plan"):
        return  # natively implemented: no IRDL definition to compare
    generated = _outcome(verifier, op)
    CONSTRAINT_MEMO.clear()  # memo state must never change a verdict
    interpretive = _outcome(verifier.plan.run, op)
    assert (generated is None) == (interpretive is None), (
        f"accept/reject disagreement on {op.name}: "
        f"generated={generated!r} interpretive={interpretive!r}"
    )
    assert generated == interpretive, (
        f"diagnostic disagreement on {op.name}:\n"
        f"  generated:    {generated!r}\n"
        f"  interpretive: {interpretive!r}"
    )


def _mutants(op):
    """Deterministic invalid-ish variants of one generated operation."""
    variants = []

    def clone(operands=None, attributes=None, successors=None):
        return Operation(
            op.name,
            operands=op.operands if operands is None else operands,
            result_types=[r.type for r in op.results],
            attributes=dict(op.attributes)
            if attributes is None
            else attributes,
            successors=list(op.successors)
            if successors is None
            else successors,
        )

    if op.regions:
        return variants  # region ops are cloned shallowly; skip mutating
    if op.operands:
        variants.append(clone(operands=op.operands[:-1]))
        variants.append(clone(operands=(*op.operands, op.operands[0])))
    if op.attributes:
        first = next(iter(op.attributes))
        without = dict(op.attributes)
        del without[first]
        variants.append(clone(attributes=without))
        retyped = dict(op.attributes)
        retyped[first] = StringAttr.get("mutated")
        variants.append(clone(attributes=retyped))
        renumbered = dict(op.attributes)
        renumbered[first] = IntegerAttr.get(9999, i32)
        variants.append(clone(attributes=renumbered))
    variants.append(clone(successors=[Block()]))
    return variants


def _corpus_context():
    from repro.corpus import load_corpus

    return load_corpus(scale=False)


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_corpus_generated_modules_agree(seed):
    ctx, defs = _corpus_context()
    seeds = register_irdl(ctx, seed_values_dialect())
    generator = IRGenerator(ctx, defs + seeds, seed=seed)
    module = generator.generate_module(num_ops=25)
    checked = 0
    for op in module.walk():
        _assert_agreement(ctx, op)
        checked += 1
    assert checked > 25


@pytest.mark.parametrize("seed", [3, 11])
def test_corpus_mutations_agree(seed):
    ctx, defs = _corpus_context()
    seeds = register_irdl(ctx, seed_values_dialect())
    generator = IRGenerator(ctx, defs + seeds, seed=seed)
    module = generator.generate_module(num_ops=20)
    mutants_checked = 0
    for op in list(module.walk()):
        for mutant in _mutants(op):
            _assert_agreement(ctx, mutant)
            mutants_checked += 1
    assert mutants_checked > 20


# --- Hypothesis-built dialects stress the variable/AnyOf paths ---------

BASE_TYPES = ["!f32", "!f64", "!i1", "!i32", "!i64", "!index"]

type_refs = st.sampled_from(BASE_TYPES).map(
    lambda text: ast.RefExpr("!", text[1:])
)
any_of_refs = st.lists(type_refs, min_size=1, max_size=3).map(
    lambda refs: ast.RefExpr(None, "AnyOf", refs)
)
operand_constraints = st.one_of(type_refs, any_of_refs)


@st.composite
def fuzz_operations(draw, index):
    n_operands = draw(st.integers(0, 3))
    n_results = draw(st.integers(0, 2))
    if draw(st.booleans()) and (n_operands + n_results) >= 2:
        var = ast.ConstraintVarDecl("T", "!", draw(operand_constraints))
        ref = ast.RefExpr("!", "T")
        operands = [ast.ArgDecl(f"in{i}", ref) for i in range(n_operands)]
        results = [ast.ArgDecl(f"out{i}", ref) for i in range(n_results)]
        return ast.OperationDecl(f"op{index}", constraint_vars=[var],
                                 operands=operands, results=results)
    operands = [
        ast.ArgDecl(f"in{i}", draw(operand_constraints))
        for i in range(n_operands)
    ]
    results = [
        ast.ArgDecl(f"out{i}", draw(operand_constraints))
        for i in range(n_results)
    ]
    return ast.OperationDecl(f"op{index}", operands=operands, results=results)


@st.composite
def fuzz_dialects(draw):
    n_ops = draw(st.integers(1, 4))
    ops = [draw(fuzz_operations(i)) for i in range(n_ops)]
    return ast.DialectDecl("fuzz", operations=ops)


@given(fuzz_dialects(), st.integers(0, 1_000_000))
@settings(max_examples=40, deadline=None)
def test_random_dialects_agree_on_generated_and_mutated_ir(decl, seed):
    ctx = default_context()
    dialect = register_dialect(ctx, decl)
    seeds = register_irdl(ctx, seed_values_dialect())
    generator = IRGenerator(ctx, [dialect] + seeds, seed=seed)
    module = generator.generate_module(num_ops=6)
    for op in list(module.walk()):
        _assert_agreement(ctx, op)
        for mutant in _mutants(op):
            _assert_agreement(ctx, mutant)
