"""The nesting limit on IRDL constraint expressions.

``MAX_NESTING`` also bounds how deeply constraint expressions nest, counted
as attribute nesting is: an expression's depth is 1 plus that of its
deepest parameter or element, so ``!AnyOf<!i32>`` is two deep.  At the
limit a dialect parses, registers, verifies and round-trips through IRBC
from a test's stack; past it ``parse_irdl`` reports the first expression
past the limit and ``decode_dialects`` raises ``BytecodeError``, however
deep the input goes, and neither raises ``RecursionError``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.builtin import default_context, f32, i32
from repro.bytecode import BytecodeError, decode_dialects, encode_dialects
from repro.ir import MAX_NESTING, Block, VerifyError
from repro.irdl import ast, parse_irdl, register_dialect, register_irdl
from repro.utils import DiagnosticError

SRC = Path(__file__).resolve().parents[2] / "src"
DEPTHS_PAST = [MAX_NESTING + 1, 197, 1000, 3000]
LIMIT = f"constraints nest deeper than the limit of {MAX_NESTING}"
PREFIX = "    Operands (x: "


def dialect(depth: int) -> str:
    """A dialect whose one operand constraint is ``!AnyOf<…>`` around
    ``!i32``, ``depth`` expressions deep in all."""
    expr = "!AnyOf<" * (depth - 1) + "!i32" + ">" * (depth - 1)
    return f"Dialect deep {{\n  Operation op {{\n{PREFIX}{expr})\n  }}\n}}\n"


def nested_decl(depth: int) -> ast.DialectDecl:
    """The declaration of :func:`dialect`, built without the parser."""
    decl = parse_irdl(dialect(1))[0]
    expr = decl.operations[0].operands[0].constraint
    for _ in range(depth - 1):
        expr = ast.RefExpr("!", "AnyOf", [expr])
    decl.operations[0].operands[0].constraint = expr
    return decl


def encode_deep(decl: ast.DialectDecl) -> bytes:
    """IRBC of ``decl``; the encoder recurses once per level."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        return encode_dialects([decl])
    finally:
        sys.setrecursionlimit(limit)


def verify_operand(context, operand_type):
    op = context.create_operation("deep.op",
                                  operands=Block([operand_type]).args)
    op.verify()


def test_a_dialect_at_the_limit_registers_verifies_and_round_trips():
    text = dialect(MAX_NESTING)
    context = default_context()
    register_irdl(context, text, "deep.irdl")
    verify_operand(context, i32)
    with pytest.raises(VerifyError):
        verify_operand(context, f32)

    data = encode_dialects(parse_irdl(text))
    assert data == encode_dialects([nested_decl(MAX_NESTING)])
    decoded = decode_dialects(data)
    assert encode_dialects(decoded) == data
    irbc_context = default_context()
    register_dialect(irbc_context, decoded[0])
    verify_operand(irbc_context, i32)


@pytest.mark.parametrize("depth", DEPTHS_PAST)
def test_parse_irdl_reports_the_expression_past_the_limit(depth):
    with pytest.raises(DiagnosticError, match=LIMIT) as err:
        parse_irdl(dialect(depth), "deep.irdl")
    column = len(PREFIX) + len("!AnyOf<") * MAX_NESTING + 1
    assert str(err.value).startswith(f"deep.irdl:3:{column}: error: ")


@pytest.mark.parametrize("depth", DEPTHS_PAST)
def test_register_irdl_reports_the_limit(depth):
    context = default_context()
    with pytest.raises(DiagnosticError, match=LIMIT):
        register_irdl(context, dialect(depth), "deep.irdl")
    assert "deep" not in context.dialects


@pytest.mark.parametrize("depth", DEPTHS_PAST)
def test_decode_dialects_refuses_expressions_past_the_limit(depth):
    data = encode_deep(nested_decl(depth))
    with pytest.raises(BytecodeError, match=LIMIT):
        decode_dialects(data)


def test_irdl_opt_reports_a_300_deep_file_without_a_traceback(tmp_path):
    path = tmp_path / "deep.irdl"
    path.write_text(dialect(300))
    ir = tmp_path / "in.mlir"
    ir.write_text("")
    result = subprocess.run(
        [sys.executable, "-m", "repro.tools.irdl_opt", "--irdl", str(path),
         str(ir)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 1
    column = len(PREFIX) + len("!AnyOf<") * MAX_NESTING + 1
    assert f"{path}:3:{column}: error: {LIMIT}" in result.stderr
    assert "Traceback" not in result.stderr
