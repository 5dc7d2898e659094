"""The nesting limit shared by the textual parser and printer and the
IRBC codec.

The parser, the decoder and the printer read or write regions by
recursion, one level at a time, as does ``Operation.verify``.  A chain
of single-block regions ``MAX_NESTING`` deep parses, prints, verifies,
encodes and decodes from a test's stack; one level deeper, the parser
reports the offending ``{``, and the printer, the encoders and the
decoder name the limit.
"""

import io

import pytest

from repro.builtin import default_context
from repro.bytecode import (
    BytecodeError,
    LazyModuleReader,
    decode_module,
    encode_module,
    encode_module_stream,
    encoder,
)
from repro.ir import (
    MAX_NESTING,
    Block,
    InvalidIRStructureError,
    Operation,
    Region,
)
from repro.textir import parse_module, print_op
from repro.utils import DiagnosticError

NEST = '"test.nest"() ({'
CLOSE = "}) : () -> ()"
LEAF = '"test.leaf"() : () -> ()'


@pytest.fixture
def context():
    return default_context(allow_unregistered=True)


def chain_text(levels: int, module: bool = True) -> str:
    """A leaf ``levels`` regions deep in the text: inside a
    ``builtin.module`` root, or in bare ops that the parser wraps."""
    head = ['"builtin.module"() ({'] if module else []
    nests = levels - len(head)
    return "\n".join(head + [NEST] * nests + [LEAF]
                     + [CLOSE] * (nests + len(head)))


def chain_module(levels: int) -> Operation:
    """A ``builtin.module`` whose leaf sits ``levels`` regions deep."""
    op = Operation("test.leaf")
    for _ in range(levels - 1):
        op = Operation("test.nest", regions=[Region([Block(ops=[op])])])
    return Operation("builtin.module", regions=[Region([Block(ops=[op])])])


def leaf_depth(root: Operation) -> int:
    """Regions around the first ``test.leaf`` in pre-order."""
    leaf = next(op for op in root.walk() if op.name == "test.leaf")
    depth = 0
    while leaf.parent_op is not None:
        leaf = leaf.parent_op
        depth += 1
    return depth


def test_the_limit_is_128():
    assert MAX_NESTING == 128


def test_parse_print_verify_at_the_limit(context):
    module = parse_module(context, chain_text(MAX_NESTING))
    assert leaf_depth(module) == MAX_NESTING
    module.verify()
    text = print_op(module)
    assert print_op(parse_module(context, text)) == text


def test_parser_reports_the_brace_one_level_deeper(context):
    text = chain_text(MAX_NESTING + 1)
    with pytest.raises(DiagnosticError) as info:
        parse_module(context, text, "deep.mlir")
    # Line 1 opens the module's region, line k the k-th nested region.
    line = MAX_NESTING + 1
    column = NEST.index("{") + 1
    assert str(info.value) == (
        f"deep.mlir:{line}:{column}: error: regions nest deeper than the "
        f"limit of {MAX_NESTING}\n{NEST}\n{' ' * (column - 1)}^"
    )


def test_parser_counts_the_module_it_wraps_bare_ops_in(context):
    module = parse_module(context, chain_text(MAX_NESTING - 1, module=False))
    assert leaf_depth(module) == MAX_NESTING
    with pytest.raises(DiagnosticError, match="limit of 128"):
        parse_module(context, chain_text(MAX_NESTING, module=False))


def test_parser_counts_a_leading_module_that_gets_wrapped(context):
    text = chain_text(MAX_NESTING - 1) + "\n" + LEAF
    assert leaf_depth(parse_module(context, text)) == MAX_NESTING
    with pytest.raises(DiagnosticError,
                       match="once the top-level operations are wrapped"):
        parse_module(context, chain_text(MAX_NESTING) + "\n" + LEAF)


def test_printer_at_the_limit():
    module = chain_module(MAX_NESTING)
    text = print_op(module)
    assert text.count("test.nest") == MAX_NESTING - 1
    assert text.count("test.leaf") == 1


@pytest.mark.parametrize("levels", [MAX_NESTING + 1, 1000])
def test_printer_names_the_limit_one_level_deeper(levels):
    # From a test's stack the printer's recursion would overflow at
    # about 199 levels; the limit is reported long before.
    module = chain_module(levels)
    with pytest.raises(InvalidIRStructureError) as info:
        print_op(module)
    assert str(info.value) == (
        f"regions nest deeper than the limit of {MAX_NESTING}"
    )


def test_decoder_at_the_limit(context):
    module = chain_module(MAX_NESTING)
    decoded = decode_module(context, encode_module(module))
    assert leaf_depth(decoded) == MAX_NESTING
    assert print_op(decoded) == print_op(module)
    with LazyModuleReader(context, encode_module(module)) as reader:
        assert reader.lazy
        assert print_op(reader.module()) == print_op(module)


def test_both_encoders_at_the_limit(context):
    module = chain_module(MAX_NESTING)
    stream = io.BytesIO()
    encode_module_stream(module, stream)
    assert stream.getvalue() == encode_module(module)
    assert print_op(decode_module(context, stream.getvalue())) == print_op(
        module
    )


@pytest.mark.parametrize("levels", [MAX_NESTING + 1, 1200])
def test_encoders_name_the_limit_before_writing(levels):
    module = chain_module(levels)
    limit = f"regions nest deeper than the limit of {MAX_NESTING}"
    with pytest.raises(BytecodeError, match=limit):
        encode_module(module)
    stream = io.BytesIO()
    with pytest.raises(BytecodeError, match=limit):
        encode_module_stream(module, stream)
    assert stream.getvalue() == b""


def test_decoder_names_the_limit_one_level_deeper(context, monkeypatch):
    # The encoders refuse this depth; one level of slack writes the
    # artifact a foreign writer could produce.
    monkeypatch.setattr(encoder, "MAX_NESTING", MAX_NESTING + 1)
    data = encode_module(chain_module(MAX_NESTING + 1))
    monkeypatch.undo()
    with pytest.raises(BytecodeError) as info:
        decode_module(context, data, name="deep.irbc")
    message = str(info.value)
    assert f"regions nest deeper than the limit of {MAX_NESTING}" in message
    assert "malformed" not in message and "RecursionError" not in message
    with LazyModuleReader(context, data) as reader:
        with pytest.raises(BytecodeError, match="limit of 128"):
            reader.handles[0].force()
