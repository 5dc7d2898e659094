"""Registration failures are diagnostics, and leave no dialect behind.

A dialect is registered before its body resolves, so failures after
that point (resolution, IRDL-Py compilation, format compilation) must
roll it back: the context then holds no trace of it, and a corrected
retry in the same context registers.  ``irdl-opt`` reports each failure
as a ``file:line:col: error:`` diagnostic and exits 1, never with a
Python traceback.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.builtin import default_context
from repro.irdl import register_irdl
from repro.irdl.format import FormatError
from repro.irdl.resolver import ResolutionError
from repro.server.session import Session

SRC = Path(__file__).resolve().parents[2] / "src"

#: Python's own message for the bad code below.
try:
    compile("(((", "<test>", "eval")
except SyntaxError as err:
    BAD_CODE_REASON = err.msg

#: name -> (dialect text with a slot for the code or format, bad value,
#: good value, error type, message, line and column of the declaration).
CASES = {
    "op PyConstraint": (
        'Dialect t {{\n  Operation op {{ PyConstraint "{}" }}\n}}\n',
        "(((", "True", ResolutionError,
        f"PyConstraint '(((' does not compile: {BAD_CODE_REASON}", 2, 3,
    ),
    "op Format": (
        "Dialect t {{\n  Operation op {{\n    Operands (x: !i32)\n"
        '    Format "{}"\n  }}\n}}\n',
        "$nosuch attr-dict", "$x", FormatError,
        "t.op: format refers to unknown name $nosuch", 2, 3,
    ),
    "op Format character": (
        "Dialect t {{\n  Operation op {{\n"
        '    Operands (lhs: !i32, rhs: !i32)\n    Format "{}"\n  }}\n}}\n',
        "$lhs + $rhs", "$lhs, $rhs", FormatError,
        "t.op: format '$lhs + $rhs' has an unsupported character '+' at "
        "offset 5", 2, 3,
    ),
    "Type Format character": (
        "Dialect t {{\n  Type ty {{\n"
        "    Parameters (a: !AnyType, b: !AnyType)\n"
        '    Format "{}"\n  }}\n}}\n',
        "$a * $b", "$a x $b", FormatError,
        "t.ty: format '$a * $b' has an unsupported character '*' at "
        "offset 3", 2, 3,
    ),
    "Type PyConstraint": (
        "Dialect t {{\n  Type ty {{\n    Parameters (p: uint32_t)\n"
        '    PyConstraint "{}"\n  }}\n}}\n',
        "(((", "True", ResolutionError,
        f"PyConstraint '(((' does not compile: {BAD_CODE_REASON}", 2, 3,
    ),
    "named Constraint": (
        "Dialect t {{\n  Operation op {{ Operands (x: !i32) }}\n"
        '  Constraint Small : uint32_t {{ PyConstraint "{}" }}\n}}\n',
        "(((", "$_self < 8", ResolutionError,
        f"PyConstraint '(((' does not compile: {BAD_CODE_REASON}", 3, 3,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_failure_rolls_back_and_a_corrected_retry_registers(case):
    template, bad, good, error, message, line, col = CASES[case]
    context = default_context()
    before = set(context.dialects)
    with pytest.raises(error) as raised:
        register_irdl(context, template.format(bad), "bad.irdl")
    assert str(raised.value).startswith(
        f"bad.irdl:{line}:{col}: error: {message}\n")
    assert set(context.dialects) == before
    (dialect,) = register_irdl(context, template.format(good), "good.irdl")
    assert context.get_dialect("t").irdl_def is dialect


@pytest.mark.parametrize("case", sorted(CASES))
def test_irdl_opt_reports_a_diagnostic(case, tmp_path):
    template, bad, _, _, message, line, col = CASES[case]
    irdl = tmp_path / "bad.irdl"
    irdl.write_text(template.format(bad), encoding="utf-8")
    module = tmp_path / "m.mlir"
    module.write_text('"builtin.module"() ({\n}) : () -> ()\n',
                      encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "repro.tools.irdl_opt", "--irdl", str(irdl),
         str(module)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert f"{irdl}:{line}:{col}: error: {message}" in result.stderr


def test_duplicate_constraint_variable_points_at_its_declaration():
    text = ("Dialect t {\n  Operation op {\n"
            "    ConstraintVars (T: !i32, T: !f32)\n  }\n}\n")
    with pytest.raises(ResolutionError) as raised:
        register_irdl(default_context(), text, "dup.irdl")
    assert str(raised.value) == (
        "dup.irdl:3:30: error: constraint variable 'T' is declared twice\n"
        "    ConstraintVars (T: !i32, T: !f32)\n"
        "                             ^"
    )


DUPLICATE = "Dialect arith { Operation foo { Operands () Results () } }\n"


def test_a_dialect_named_like_a_registered_one_is_a_diagnostic(tmp_path):
    session = Session()
    before = dict(session.ctx.dialects)
    arith_ops = dict(before["arith"].operations)
    with pytest.raises(ResolutionError) as raised:
        session.register_dialect_data(DUPLICATE.encode(), "dup.irdl")
    assert str(raised.value) == (
        "dup.irdl:1:1: error: dialect 'arith' is already registered\n"
        f"{DUPLICATE.rstrip()}\n"
        "^~~~~~~"
    )
    assert session.ctx.dialects == before
    assert session.ctx.dialects["arith"].operations == arith_ops
    assert session.dialects == []

    (tmp_path / "dup.irdl").write_text(DUPLICATE, encoding="utf-8")
    (tmp_path / "m.mlir").write_text('"builtin.module"() ({\n}) : () -> ()\n',
                                     encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "repro.tools.irdl_opt", "--irdl", "dup.irdl",
         "m.mlir"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 1
    assert result.stderr == f"{raised.value}\n"
