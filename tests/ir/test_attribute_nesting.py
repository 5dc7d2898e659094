"""The nesting limit on attributes and types.

``MAX_NESTING`` also bounds how deeply attribute, type and parameter
values nest.  A value's depth is 1 plus that of its deepest part (a
number's type counts, so ``[1 : i32]`` is three deep).  At the limit a
value parses, prints, encodes, decodes and round-trips from a test's
stack; past it the textual parser reports the opening bracket and the
IRBC decoder names the limit, however deep the input goes, and neither
raises ``RecursionError``.
"""

import pytest

from repro.builtin import StringAttr, default_context
from repro.bytecode import (
    BytecodeError,
    LazyModuleReader,
    decode_module,
    encode_module,
    encoder,
)
from repro.bytecode.wire import Writer
from repro.ir import MAX_NESTING, Block, Operation, Region
from repro.textir import parse_module, print_op
from repro.utils import DiagnosticError

DEPTHS_PAST = [MAX_NESTING + 1, 1000, 3000]
LIMIT = f"nest deeper than the limit of {MAX_NESTING}"


@pytest.fixture
def context():
    return default_context(allow_unregistered=True)


def array_attribute(depth: int) -> tuple[str, int]:
    """An op with an array attribute ``depth`` deep, and the column of
    the bracket one level past the limit."""
    prefix = '"t.a"() {a = '
    text = prefix + "[" * depth + "]" * depth + "} : () -> ()"
    return text, len(prefix) + MAX_NESTING + 1


def array_of_number(depth: int) -> tuple[str, int]:
    """Arrays around ``1 : i32``, ``depth`` deep in all."""
    prefix = '"t.a"() {a = '
    arrays = depth - 2
    text = (prefix + "[" * arrays + "1 : i32" + "]" * arrays
            + "} : () -> ()")
    if depth == MAX_NESTING + 1:
        return text, len(prefix) + arrays + 1  # at the number
    return text, len(prefix) + MAX_NESTING + 1


def function_type(depth: int) -> tuple[str, int]:
    """A result type of parenthesized function types around ``i32``,
    ``depth`` deep in all."""
    prefix = '%r = "t.a"() : () -> ('
    text = (prefix + "(" * (depth - 1) + "i32" + ") -> i32" * (depth - 1)
            + ")")
    return text, len(prefix) + MAX_NESTING + 1


def shaped_type(depth: int) -> tuple[str, int]:
    """A result type of shaped types ``depth`` deep in all."""
    prefix = '%r = "t.a"() : () -> (tensor'
    text = (prefix + "<4xtensor" * (depth - 2) + "<4xf32" + ">" * (depth - 1)
            + ")")
    return text, len(prefix) + len("<4xtensor") * (MAX_NESTING - 1) + 1


INPUTS = {
    "array attribute": array_attribute,
    "array of a number": array_of_number,
    "function type": function_type,
    "shaped type": shaped_type,
}


@pytest.mark.parametrize("what", sorted(INPUTS))
def test_round_trips_at_the_limit(context, what):
    text, _ = INPUTS[what](MAX_NESTING)
    module = parse_module(context, text)
    printed = print_op(module)
    assert print_op(parse_module(context, printed)) == printed
    data = encode_module(module)
    decoded = decode_module(context, data)
    assert print_op(decoded) == printed
    assert encode_module(decoded) == data


@pytest.mark.parametrize("depth", DEPTHS_PAST)
@pytest.mark.parametrize("what", sorted(INPUTS))
def test_parser_reports_the_bracket_past_the_limit(context, what, depth):
    text, column = INPUTS[what](depth)
    with pytest.raises(DiagnosticError) as info:
        parse_module(context, text, "deep.mlir")
    header = str(info.value).splitlines()[0]
    assert header == (f"deep.mlir:1:{column}: error: attributes and types "
                      f"{LIMIT}")


def test_a_number_counts_its_type(context):
    # ``1`` is an IntegerAttr holding i64: two levels, like ``1 : i32``.
    prefix = '"t.a"() {a = '
    arrays = MAX_NESTING - 1
    with pytest.raises(DiagnosticError, match=LIMIT):
        parse_module(context,
                     prefix + "[" * arrays + "1" + "]" * arrays + "} : () -> ()")
    arrays -= 1
    module = parse_module(
        context, prefix + "[" * arrays + "true" + "]" * arrays + "} : () -> ()"
    )
    assert print_op(decode_module(context, encode_module(module))) == (
        print_op(module)
    )


def deep_artifact(monkeypatch, depth: int) -> bytes:
    """A module whose one op's attribute is an array ``depth`` deep,
    written as a foreign writer could: the pool entries by hand."""
    marker = StringAttr("deep")

    class DeepPools(encoder.Pools):
        def __init__(self):
            super().__init__()
            for level in range(depth):
                entry = Writer()
                entry.varints((encoder.TAG_ARRAY_ATTR, 1, level - 1)
                              if level else (encoder.TAG_ARRAY_ATTR, 0))
                self.attr_entries.append(entry.getvalue())
            self._attr_ids[id(marker)] = depth - 1
            self._pinned.append(marker)

    op = Operation("t.a", attributes={"a": marker})
    module = Operation("builtin.module", regions=[Region([Block(ops=[op])])])
    with monkeypatch.context() as patch:
        patch.setattr(encoder, "Pools", DeepPools)
        return encode_module(module)


def test_decoder_at_the_limit(context, monkeypatch):
    data = deep_artifact(monkeypatch, MAX_NESTING)
    text, _ = array_attribute(MAX_NESTING)
    expected = print_op(parse_module(context, text))
    assert print_op(decode_module(context, data)) == expected
    with LazyModuleReader(context, data) as reader:
        assert print_op(reader.module()) == expected


@pytest.mark.parametrize("depth", DEPTHS_PAST)
def test_decoder_names_the_limit_past_it(context, monkeypatch, depth):
    data = deep_artifact(monkeypatch, depth)
    with pytest.raises(BytecodeError) as info:
        decode_module(context, data, name="deep.irbc")
    message = str(info.value)
    assert f"attributes {LIMIT}" in message
    assert "RecursionError" not in message
    with pytest.raises(BytecodeError, match=LIMIT):
        with LazyModuleReader(context, data) as reader:
            reader.module()
