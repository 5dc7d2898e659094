"""Attribute elements of array parameters survive print -> parse -> print.

The printer writes a ``StringAttr`` element of an ``array<#AnyAttr>``
parameter as ``"..."``, the same text as a string parameter, and an
``IntegerAttr`` element as ``42 : i64``.  The parser reads them back as
the definition declares: string attributes where the parameter takes
attributes, string parameters where it takes strings.  Float and array
attributes share their text with parameters the same way, also where
the parameter takes ``#f32_attr``; unit, symbol reference and
dictionary attributes have a spelling of their own.
"""

import pytest

from repro.builtin import (
    ArrayAttr,
    DictionaryAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    UnitAttr,
    default_context,
    f16,
    f32,
    f64,
    i64,
)
from repro.ir import ArrayParam, StringParam
from repro.irdl import register_irdl
from repro.irdl.irgen import IRGenerator
from repro.textir import parse_module, print_op
from repro.textir.parser import IRParser
from repro.textir.printer import print_attribute

SPEC = """
Dialect tagged {
  Attribute bag {
    Parameters (items: array<#AnyAttr>, names: array<string>)
  }
  Attribute scale {
    Parameters (factor: #f32_attr, factors: array<#f64_attr>)
  }
}
"""


@pytest.fixture
def tctx():
    ctx = default_context()
    register_irdl(ctx, SPEC)
    return ctx


def test_attribute_elements_read_back_as_attributes(tctx):
    bag = tctx.make_attr("tagged.bag", [
        ArrayParam((StringAttr("s"), IntegerAttr(7, i64))),
        ArrayParam((StringParam("n"),)),
    ])
    text = print_attribute(bag)
    assert text == '#tagged.bag<["s", 7 : i64], ["n"]>'
    parsed = IRParser(tctx, text).parse_attribute()
    items, names = parsed.parameters
    assert items.elements == (StringAttr("s"), IntegerAttr(7, i64))
    assert names.elements == (StringParam("n"),)
    assert print_attribute(parsed) == text


def test_other_builtin_attribute_elements_read_back(tctx):
    elements = (
        FloatAttr(1.5, f32),
        FloatAttr(float("inf"), f64),
        UnitAttr(),
        SymbolRefAttr("callee"),
        ArrayAttr([StringAttr("a"), FloatAttr(2.0, f16)]),
        ArrayAttr([]),
        DictionaryAttr({"k": StringAttr("v")}),
    )
    bag = tctx.make_attr("tagged.bag", [ArrayParam(elements), ArrayParam(())])
    text = print_attribute(bag)
    parsed = IRParser(tctx, text).parse_attribute()
    assert parsed.parameters[0].elements == elements
    assert print_attribute(parsed) == text


def test_float_attribute_parameters_read_back(tctx):
    scale = tctx.make_attr("tagged.scale", [
        FloatAttr(0.5, f32), ArrayParam((FloatAttr(2.0, f64),)),
    ])
    text = print_attribute(scale)
    assert text == "#tagged.scale<0.5 : f32, [2.0 : f64]>"
    parsed = IRParser(tctx, text).parse_attribute()
    assert parsed.parameters == scale.parameters
    assert print_attribute(parsed) == text


@pytest.mark.parametrize("seed", range(8))
def test_generated_corpus_module_round_trips(full_corpus, seed):
    context, defs = full_corpus
    module = IRGenerator(context, defs, seed=seed).generate_module(300)
    text = print_op(module)
    assert print_op(parse_module(context, text)) == text
