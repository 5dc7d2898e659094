"""Generated verifiers share one compiled code object per shape.

Generated verifier text carries no per-definition literal: names and
labels are bound constants, so two definitions of one shape compile to
the same text and share one code object from ``codegen.shared_code``.
These tests pin the reuse (through ``irdl.codegen.code_reused``) and
that sharing never mixes up whose names a diagnostic carries.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.builtin import IntegerAttr, StringAttr, default_context, f32, i32
from repro.ir import Block, VerifyError
from repro.ir.operation import Operation
from repro.irdl import codegen, parse_irdl, register_dialect, register_irdl
from repro.irdl.irdl_py import compile_predicate
from repro.irdl.plan import verify_parameters

SRC = Path(__file__).resolve().parents[2] / "src"

#: One shape, spelled with different dialect, op, operand, attribute and
#: parameter names.
TEMPLATE = """
Dialect {d} {{
  Type {t} {{ Parameters ({p}: !i32) }}
  Operation {op} {{
    Operands ({x}: !i32, {y}: !i32, {o}: Optional<!f32>)
    Results ({r}: !i32)
    Attributes ({a}: string_attr)
  }}
}}
"""
FIRST = dict(d="shapea", t="box", p="width", op="first", x="lhs", y="rhs",
             o="bias", r="out", a="alpha")
SECOND = dict(d="shapeb", t="cell", p="height", op="second", x="src",
              y="dst", o="extra", r="res", a="beta")


def register(names, context=None):
    """Register the template under ``names`` and lower its op verifier,
    which registration leaves to the verifier's first use."""
    context = context or default_context()
    register_irdl(context, TEMPLATE.format(**names))
    assert context.get_op_def(
        f"{names['d']}.{names['op']}")._verifier.generated_source
    return context


def values(*types):
    return list(Block(list(types)).args)


def bad_ops(names):
    """One operation per diagnostic that names a definition's own label."""
    op = f"{names['d']}.{names['op']}"
    label = {names["a"]: StringAttr.get("k")}

    def make(operands, attributes=label):
        return Operation(op, operands=operands, result_types=[i32],
                         attributes=attributes)

    return [
        make(values(i32, f32)),                        # second operand
        make(values(f32, i32)),                        # first operand
        make(values(i32, i32, f32, f32)),              # optional operand
        make(values(i32, i32), attributes={}),         # missing attribute
        make(values(i32, i32),
             attributes={names["a"]: IntegerAttr.get(1, i32)}),
    ]


def diagnostics(context, names, reference=False):
    """The diagnostics of :func:`bad_ops` and two bad parameter lists,
    from the generated verifiers or, with ``reference``, from the
    interpretive plan and parameter check they were lowered from."""
    messages = []
    binding = context.get_op_def(f"{names['d']}.{names['op']}")
    verify = binding._verifier.plan.run if reference else binding.verify
    for op in bad_ops(names):
        with pytest.raises(VerifyError) as err:
            verify(op)
        messages.append(str(err.value))
    param_def = context.get_type_or_attr_def(f"{names['d']}.{names['t']}")
    for params in ((f32,), (i32, i32)):
        with pytest.raises(VerifyError) as err:
            if reference:
                verify_parameters(param_def.type_def, params)
            else:
                param_def.instantiate(params)
        messages.append(str(err.value))
    return messages


def test_second_definition_of_a_shape_reuses_the_first_ones_code():
    from repro.obs import enable_metrics, reset

    first = register(FIRST)
    registry = enable_metrics()
    try:
        second = register(SECOND)
        assert registry.value_of("irdl.codegen.definitions_compiled") == 2
        assert registry.value_of("irdl.codegen.code_reused") == 2
    finally:
        reset()
    sources = []
    for context, names in ((first, FIRST), (second, SECOND)):
        verifier = context.get_op_def(f"{names['d']}.{names['op']}")._verifier
        header, body = verifier.generated_source.split("\n", 1)
        assert header == (f"# generated from IRDL definition "
                          f"{names['d']}.{names['op']}")
        sources.append(body)
    assert sources[0] == sources[1]


def test_re_registration_reuses_every_definition():
    register(FIRST)
    before = dict(codegen.STATS)
    register(FIRST)
    compiled = codegen.STATS["definitions_compiled"] - (
        before["definitions_compiled"])
    assert compiled == 2
    assert codegen.STATS["code_reused"] - before["code_reused"] == compiled


@pytest.mark.parametrize("names", [FIRST, SECOND])
def test_diagnostics_name_their_own_definition(names):
    context = register(names)
    generated = diagnostics(context, names)
    assert generated == diagnostics(context, names, reference=True)
    op = f"{names['d']}.{names['op']}"
    qualified_type = f"{names['d']}.{names['t']}"
    assert generated[0].startswith(f"{op}: operand '{names['y']}': ")
    assert generated[1].startswith(f"{op}: operand '{names['x']}': ")
    assert generated[2] == (f"{op}: optional operand '{names['o']}' matches "
                            f"at most one value, got 2")
    assert generated[3] == f"{op} expects an attribute named '{names['a']}'"
    assert generated[4].startswith(f"{op}: attribute '{names['a']}': ")
    assert generated[5].startswith(
        f"{qualified_type}: parameter '{names['p']}': ")
    assert generated[6] == (f"{qualified_type} expects 1 parameters, "
                            f"got 2")


def test_names_that_are_not_identifiers_keep_reference_diagnostics():
    # Names are bound constants, never spliced into source, so any
    # string works; the reference path quotes them with repr().
    decl = parse_irdl(TEMPLATE.format(**FIRST))[0]
    decl.operations[0].attributes[0].name = "it's odd"
    decl.operations[0].operands[1].name = "a-b"
    context = default_context()
    register_dialect(context, decl)

    names = dict(FIRST, a="it's odd", y="a-b")
    generated = diagnostics(context, names)
    assert generated == diagnostics(context, names, reference=True)
    assert generated[3].endswith('''expects an attribute named "it's odd"''')


def test_concurrent_registrations_match_serial_diagnostics():
    expected = diagnostics(register(FIRST), FIRST)
    codegen.shared_code.cache_clear()  # make the eight threads race
    compiled_before = codegen.STATS["definitions_compiled"]
    barrier = threading.Barrier(8, timeout=60)
    contexts = [None] * 8
    errors = []

    def worker(index):
        try:
            barrier.wait()
            contexts[index] = register(FIRST)
        except Exception as err:  # surfaced below, not swallowed
            errors.append(err)

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # Two definitions per registration; a lost STATS update breaks this.
    assert codegen.STATS["definitions_compiled"] - compiled_before == 16
    for context in contexts:
        assert diagnostics(context, FIRST) == expected


def test_py_predicates_compile_once_per_text():
    code = "$_self % 2 == 0 and $_self > 3"
    first = compile_predicate(code)
    hits = codegen.shared_code.cache_info().hits
    second = compile_predicate(code)
    assert codegen.shared_code.cache_info().hits == hits + 1
    assert [first(n) for n in (2, 7, 8)] == [second(n) for n in (2, 7, 8)]
    assert [first(n) for n in (2, 7, 8)] == [False, False, True]


#: Registers the 942-op corpus under metrics, lowers every op verifier
#: by reading its generated source, and prints the codegen counters.
LOWER_CORPUS = """
from repro.corpus import load_corpus
from repro.obs import enable_metrics

registry = enable_metrics()
context, defs = load_corpus()
for dialect in defs:
    for op_def in dialect.operations:
        context.get_op_def(op_def.qualified_name)._verifier.generated_source
for name in ("definitions_compiled", "code_reused"):
    print(name, registry.value_of("irdl.codegen." + name))
"""


def test_fresh_process_corpus_reuses_631_of_1034_definitions():
    result = subprocess.run(
        [sys.executable, "-c", LOWER_CORPUS],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 0, result.stderr
    counts = dict(line.split() for line in result.stdout.splitlines())
    assert counts["definitions_compiled"] == "1034"
    assert int(counts["code_reused"]) >= 631
