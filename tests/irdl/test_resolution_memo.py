"""One resolved constraint per spelling within a dialect registration.

``resolve_constraint`` memoizes on an expression's structure, once per
registration scope, so every ``!i32`` of a dialect resolves to one
shared constraint object.  These tests pin what that sharing could
break:

* constraint variables and alias parameters give one spelling a
  different meaning per operation or per expansion;
* spellings that resolve to structurally equal constraints must keep
  their own names in diagnostics;
* over the corpus, the lint report, the generated verifier source and
  the verifier diagnostics of generated modules and their mutants must
  equal goldens recorded before constraints were shared.
"""

import gc
import hashlib
import os
from pathlib import Path

import pytest

from repro.builtin import StringAttr, default_context, f32, i32, i64, index
from repro.corpus import CORPUS_ORDER, dialect_source_path, load_corpus
from repro.ir import Block
from repro.ir.operation import Operation
from repro.irdl import constraints as C
from repro.irdl import register_irdl
from repro.irdl.irgen import IRGenerator, seed_values_dialect
from tests.irdl.test_codegen_differential import _mutants, _outcome

REPO = Path(__file__).resolve().parents[2]

#: ``(findings, sha256 prefix)`` of the CI lint job's JSON report over
#: the corpus, cmath and the example patterns, paths relative to the repo.
LINT_REPORT = (28, "91c11b21b1253735")

#: dialect -> sha256 prefix of its definitions' ``generated_source``
#: (parameter verifiers, then operation verifiers) in the scaled corpus.
GENERATED_SOURCE = {
    "builtin": "7a13737fefd49479",
    "std": "a527f18fb97a478c",
    "arith": "37e429caaad02f42",
    "math": "3527c2e1fd5c1e24",
    "complex": "22ba3fea61352025",
    "scf": "0f8738832d08fede",
    "affine": "9d4484db7704a408",
    "memref": "13ac93f7d1a615ce",
    "tensor": "32df5bfcddc8182a",
    "linalg": "5a09c824d1b12a9b",
    "sparse_tensor": "552de8e1d476461b",
    "vector": "79b9baa4733c7545",
    "quant": "a5dcd266f5039591",
    "shape": "6b845436e3a7a2d5",
    "emitc": "7dc58cca7414aa10",
    "async": "8debc49a6ae699f4",
    "pdl": "0970bd879a365fa2",
    "pdl_interp": "f2c459b3a6fa7d3b",
    "gpu": "1658d0d2a8987209",
    "nvvm": "7ca169328333629e",
    "rocdl": "4757ce673739c300",
    "llvm": "7c6f22941faed46b",
    "spv": "e00a4b96e41858d4",
    "tosa": "5e02b8fe0c675b24",
    "amx": "4abea326b5268d35",
    "arm_neon": "579b5b613e3d0722",
    "arm_sve": "56dc51426209e98e",
    "x86vector": "9db0098c6c15e4f4",
}

#: Definitions in the scaled corpus with a generated verifier.
GENERATED_DEFINITIONS = 1034

#: ``(outcomes, rejections, sha256 prefix)`` of the verifier outcome of
#: every operation, and of each of its mutants, in generated corpus
#: modules at seeds 0-3.
DIAGNOSTICS = (1676, 1185, "9bbbd164e47eea3b")


def outcome(context, name, operand_type=None, attributes=None):
    """None when the op verifies; its diagnostic otherwise."""
    operands = [] if operand_type is None else list(Block([operand_type]).args)
    op = Operation(name, operands=operands, attributes=attributes)
    return _outcome(context.get_op_def(name).verify, op)


VARIABLES = """
Dialect t {
  Operation a {
    ConstraintVar (!T: !AnyOf<!i32, !i64>)
    Operands (x: !T)
  }
  Operation b {
    ConstraintVar (!T: !f32)
    Operands (x: !T)
  }
}
"""


def test_constraint_variables_bind_per_operation():
    context = default_context()
    register_irdl(context, VARIABLES)
    assert outcome(context, "t.a", i32) is None
    assert outcome(context, "t.a", i64) is None
    assert outcome(context, "t.a", f32) is not None
    assert outcome(context, "t.b", f32) is None
    assert outcome(context, "t.b", i32) is not None


@pytest.mark.parametrize("first,second", [("i32", "f32"), ("f32", "i32")])
def test_alias_parameters_bind_per_expansion(first, second):
    context = default_context()
    register_irdl(context, f"""
    Dialect t {{
      Alias !Pair<E> = !AnyOf<E, !index>
      Operation {first} {{ Operands (x: !Pair<!{first}>) }}
      Operation {second} {{ Operands (x: !Pair<!{second}>) }}
    }}
    """)
    assert outcome(context, "t.i32", i32) is None
    assert outcome(context, "t.i32", index) is None
    assert outcome(context, "t.i32", f32) is not None
    assert outcome(context, "t.f32", f32) is None
    assert outcome(context, "t.f32", index) is None
    assert outcome(context, "t.f32", i32) is not None


@pytest.mark.parametrize(
    "first,second",
    [("flat_symbol_ref", "symbol_ref"), ("symbol_ref", "flat_symbol_ref")],
)
def test_structurally_equal_constraints_keep_their_names(first, second):
    # Both resolve to a base constraint with the structural key of
    # builtin.symbol_ref, but each must report the name it was spelled as.
    context = default_context()
    register_irdl(context, f"""
    Dialect t {{
      Operation {first} {{ Attributes (s: #builtin.{first}) }}
      Operation {second} {{ Attributes (s: #builtin.{second}) }}
    }}
    """)
    bad = {"s": StringAttr.get("x")}
    for name in (first, second):
        message = outcome(context, f"t.{name}", attributes=bad)
        assert message == (f"t.{name}: attribute 's': expected a "
                           f'builtin.{name}, got "x"')


def test_equal_spellings_share_one_constraint():
    (dialect,) = register_irdl(default_context(), """
    Dialect t {
      Operation a { Operands (x: !i32) }
      Operation b { Results (y: !i32) }
      Operation c { Results (z: !AnyOf<!f32, !i32>) }
    }
    """)
    a, b, c = dialect.operations
    shared = a.operands[0].constraint
    assert isinstance(shared, C.EqConstraint)
    assert b.results[0].constraint is shared
    assert c.results[0].constraint.alternatives[1] is shared


def _constraints_alive():
    return sum(isinstance(o, C.Constraint) for o in gc.get_objects())


def test_scaled_corpus_registration_keeps_few_constraints_alive():
    gc.collect()
    before = _constraints_alive()
    corpus = load_corpus()
    gc.collect()
    alive = _constraints_alive() - before
    assert len(corpus[1]) == len(CORPUS_ORDER)
    assert alive <= 500


def lint_report(capsys, monkeypatch):
    """The CI lint job's JSON report, with paths relative to the repo."""
    from repro.tools.irdl_opt import lint_files

    monkeypatch.chdir(REPO)
    paths = [dialect_source_path(name) for name in CORPUS_ORDER]
    paths.append("src/repro/corpus/dialects/cmath.irdl")
    patterns = sorted(
        str(path.relative_to(REPO))
        for path in (REPO / "examples" / "patterns").glob("*.pattern")
    )
    assert lint_files(paths, patterns, "json") == 1  # warnings, no errors
    return capsys.readouterr().out.replace(f"{REPO}{os.sep}", "")


def test_corpus_lint_report_matches_golden(capsys, monkeypatch):
    report = lint_report(capsys, monkeypatch)
    digest = hashlib.sha256(report.encode()).hexdigest()[:16]
    assert (report.count('"code":'), digest) == LINT_REPORT


@pytest.fixture(scope="module")
def corpus():
    context, defs = load_corpus()
    seeds = register_irdl(context, seed_values_dialect())
    return context, defs, seeds


def generated_sources(context, defs):
    """dialect -> [generated_source of each of its definitions]."""
    sources = {}
    for dialect in defs:
        texts = sources[dialect.name] = []
        for type_def in (*dialect.types, *dialect.attributes):
            binding = context.get_type_or_attr_def(type_def.qualified_name)
            texts.append(binding.generated_param_source)
        for op_def in dialect.operations:
            binding = context.get_op_def(op_def.qualified_name)
            texts.append(binding._verifier.generated_source)
    return sources


def test_generated_verifier_source_matches_golden(corpus):
    context, defs, _ = corpus
    sources = generated_sources(context, defs)
    digests = {
        name: hashlib.sha256("".join(texts).encode()).hexdigest()[:16]
        for name, texts in sources.items()
    }
    assert sum(map(len, sources.values())) == GENERATED_DEFINITIONS
    assert digests == GENERATED_SOURCE


def verifier_outcomes(context, defs, seeds):
    """``op: outcome`` lines over generated modules and their mutants."""
    lines = []
    for seed in range(4):
        generator = IRGenerator(context, defs + seeds, seed=seed)
        module = generator.generate_module(num_ops=100)
        for op in list(module.walk()):
            for candidate in (op, *_mutants(op)):
                binding = context.get_op_def(candidate.name)
                if binding is not None:
                    outcome = _outcome(binding.verify, candidate)
                    lines.append(f"{candidate.name}: {outcome}")
    return lines


def test_verifier_diagnostics_match_golden(corpus):
    lines = verifier_outcomes(*corpus)
    rejected = sum(not line.endswith(": None") for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert (len(lines), rejected, digest) == DIAGNOSTICS
