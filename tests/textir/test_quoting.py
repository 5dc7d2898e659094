"""Quoted strings survive print → parse → print.

Op names, string attributes and parameters, location filenames and the
strings of IRDL declarations print through ``repro.utils.quoting.quote``
and read back through the lexer's single-pass ``unescape``.  The
explicit cases each failed to parse once printed before both sides
shared that pair (a random-edit fuzz of a ``rewrite_mix`` function
found the first, fuzz seed 1, op name ``"arith.consta\\nt"``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.builtin import StringAttr, default_context
from repro.ir import FileLineColLoc
from repro.ir.params import LocationParam, StringParam
from repro.irdl import parse_irdl, register_irdl
from repro.irdl.printer import print_dialect
from repro.textir import Lexer, parse_module, print_op
from repro.utils import SourceFile
from repro.utils.quoting import quote, unescape

CTX = default_context(allow_unregistered=True)
register_irdl(CTX, "Dialect q { Type s { Parameters (name: string, "
                   "where: location) } }")


def reprint(text: str) -> str:
    """``text`` parsed and printed with locations."""
    return print_op(parse_module(CTX, text, "q.mlir"), print_locations=True)


def only_op(text: str):
    return parse_module(CTX, text, "q.mlir").regions[0].blocks[0].ops[0]


PRINTED_THEN_UNPARSABLE = [
    r'"t.a\"b"() : () -> ()',
    r'"t.a\nb"() : () -> ()',
    r'"t.a"() {s = "x\ny"} : () -> ()',
    r'"t.a"() {s = "x\\ny"} : () -> ()',
    r'"t.a"() : () -> () loc("my\"file.mlir":3:4)',
]


@pytest.mark.parametrize("text", PRINTED_THEN_UNPARSABLE)
def test_printed_text_parses_back(text):
    printed = reprint(text)
    assert reprint(printed) == printed


def test_escaped_backslash_before_n_is_not_a_newline():
    op = only_op(r'"t.a"() {s = "x\\ny"} : () -> ()')
    assert op.attributes["s"] == StringAttr("x\\ny")


@pytest.mark.parametrize("body, text", [
    (r"a\nb", "a\nb"),
    (r"a\tb", "a\tb"),
    (r"a\"b", 'a"b'),
    (r"a\\b", "a\\b"),
    (r"a\\nb", "a\\nb"),
    (r"a\\\nb", "a\\\nb"),
    (r"a\qb", r"a\qb"),  # unknown escapes stand for themselves
    (r"\\\\", "\\\\"),
])
def test_unescape_reads_each_escape_once(body, text):
    assert unescape(body) == text


# Characters a quoted string must carry: the three ``quote`` escapes, a
# tab (printed raw) and plain text around them.
quoted_text = st.text(
    alphabet=st.sampled_from(['"', "\\", "\n", "\t", "n", "t", "a", ".", " "]),
    max_size=12,
)


def literal_value(text: str) -> str:
    """What the lexer reads from ``quote(text)``."""
    tokens = Lexer(SourceFile(quote(text))).tokenize()
    assert len(tokens) == 2  # the string, then EOF
    return tokens[0].value


@given(quoted_text)
@settings(max_examples=300, deadline=None)
def test_quote_reads_back(text):
    assert literal_value(text) == text


@given(quoted_text)
@settings(max_examples=100, deadline=None)
def test_op_name_round_trips(text):
    name = "t." + text
    printed = reprint(f"{quote(name)}() : () -> ()")
    assert only_op(printed).name == name
    assert reprint(printed) == printed


@given(quoted_text)
@settings(max_examples=100, deadline=None)
def test_string_attribute_round_trips(text):
    printed = reprint(f'"t.a"() {{s = {quote(text)}}} : () -> ()')
    assert only_op(printed).attributes["s"] == StringAttr(text)
    assert reprint(printed) == printed


@given(quoted_text)
@settings(max_examples=100, deadline=None)
def test_location_filename_round_trips(text):
    printed = reprint(f'"t.a"() : () -> () loc({quote(text)}:3:4)')
    assert only_op(printed).location == FileLineColLoc(text, 3, 4)
    assert reprint(printed) == printed


@given(quoted_text)
@settings(max_examples=100, deadline=None)
def test_string_and_location_parameters_round_trip(text):
    printed = reprint(
        f'%v = "t.a"() : () -> (!q.s<{quote(text)}, loc({quote(text)}:1:2)>)'
    )
    (result,) = only_op(printed).results
    assert result.type.parameters == (StringParam(text),
                                      LocationParam(text, 1, 2))
    assert reprint(printed) == printed


@given(quoted_text)
@settings(max_examples=100, deadline=None)
def test_irdl_strings_round_trip(text):
    source = (f"Dialect q {{ Constraint C : uint32_t {{ Summary {quote(text)} "
              f"PyConstraint {quote(text)} }} }}")
    printed = print_dialect(parse_irdl(source)[0])
    (constraint,) = parse_irdl(printed)[0].constraints
    assert constraint.summary == constraint.py_constraint == text
    assert print_dialect(parse_irdl(printed)[0]) == printed
