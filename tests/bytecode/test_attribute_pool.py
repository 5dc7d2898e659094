"""The attribute pool interns each attribute instance once per encode.

``Pools.ref`` finds an attribute it has already pooled by identity.  An
equal instance that is not the canonical one is interned once and then
shares the canonical entry, so a module built from plain constructor
calls encodes to the same bytes as one built from interned attributes.
"""

import io

import pytest

from repro.builtin import FloatAttr, IntegerAttr, StringAttr, default_context
from repro.builtin.types import FloatType, FunctionType, IntegerType
from repro.bytecode import encode_module, encode_module_stream, encoder
from repro.ir import Block, Region

PAIRS = 20


def plain(cls, *args):
    return cls(*args)


def interned(cls, *args):
    return cls.get(*args)


def build(context, make):
    """``PAIRS`` def/use op pairs that spell the same few types and
    attributes over and over, each built by ``make(cls, *args)``.

    The values are ones no other test builds, so the canonical instances
    are the interned module's own.
    """
    ops = []
    for k in range(PAIRS):
        const = context.create_operation(
            "test.const",
            result_types=[make(IntegerType, 37)],
            attributes={
                "value": make(IntegerAttr, 1_000_003 + k % 3,
                              make(IntegerType, 37)),
                "name": make(StringAttr, "attribute-pool"),
                "scale": make(FloatAttr, 1234.5, make(FloatType, 32)),
            },
        )
        use = context.create_operation(
            "test.use",
            operands=[const.results[0]],
            result_types=[make(FunctionType, [make(IntegerType, 37)],
                               [make(FloatType, 32)])],
        )
        ops += [const, use]
    return context.create_operation(
        "builtin.module", regions=[Region([Block(ops=ops)])]
    )


@pytest.fixture
def interned_calls(monkeypatch):
    """The ``id`` of every attribute the encoder interns, in order."""
    calls = []
    intern = encoder.intern

    def counted(attr):
        calls.append(id(attr))
        return intern(attr)

    monkeypatch.setattr(encoder, "intern", counted)
    return calls


def stream_bytes(module) -> bytes:
    handle = io.BytesIO()
    encode_module_stream(module, handle)
    return handle.getvalue()


def test_plain_and_interned_modules_encode_alike():
    context = default_context(allow_unregistered=True)
    canonical = build(context, interned)
    copies = build(context, plain)
    assert encode_module(copies) == encode_module(canonical)
    assert stream_bytes(copies) == stream_bytes(canonical)


@pytest.mark.parametrize("encode", [encode_module, stream_bytes])
def test_each_attribute_is_interned_once_per_encode(interned_calls, encode):
    context = default_context(allow_unregistered=True)
    canonical = build(context, interned)
    encode(canonical)
    # i37, f32, three IntegerAttrs, the StringAttr, the FloatAttr and the
    # FunctionType: 8 distinct attributes, which the op stream alone
    # references 6 * PAIRS times.
    assert len(interned_calls) == 8
    assert len(set(interned_calls)) == 8
    encode(canonical)
    assert len(interned_calls) == 16

    interned_calls.clear()
    copies = build(context, plain)
    encode(copies)
    # Every plain instance the encoder meets is interned at most once.
    assert len(interned_calls) == len(set(interned_calls))
    assert len(interned_calls) <= 9 * PAIRS
