"""The parser's one-line op pattern, its runs, its spelling caches and
the printer's type spellings.

``IRParser`` reads a generic op printed on one line with one match of
``_GENERIC_OP_RE``, and a run of such ops one after the other without
tokens; it converts each distinct spelling of their signatures and
attribute dictionaries once per parse.  None of this may show: printed
text (with and without locations), IRBC bytes, value names, the ops
counted and diagnostics equal those of a parse with the pattern
disabled, in which every op is read token by token.
"""

import ast
import itertools
import pathlib
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.builtin import FloatAttr, default_context, f64
from repro.bytecode import encode_module
from repro.corpus import cmath_source, register_bench_dialect
from repro.irdl import register_irdl
from repro.irdl.irgen import IRGenerator
from repro.textir import parser as parser_module
from repro.textir import Printer, print_op
from repro.textir.lexer import Lexer, TokenCursor
from repro.textir.parser import SPELLING_CACHE_LIMIT, IRParser
from repro.utils import DiagnosticError, SourceFile

REPO = pathlib.Path(__file__).resolve().parents[2]
NEVER = re.compile(r"(?!)")


def load_workloads():
    """The end-to-end benchmark's workload module."""
    path = str(REPO / "benchmarks" / "e2e")
    sys.path.insert(0, path)
    try:
        import workloads
    finally:
        sys.path.remove(path)
    return workloads


def example_constant(script: str, name: str) -> str:
    """A string assigned to ``name`` at the top of an example script."""
    path = REPO / "examples" / f"{script}.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path} assigns no {name}")


def cmath_context(allow_unregistered=False):
    context = default_context(allow_unregistered=allow_unregistered)
    register_irdl(context, cmath_source())
    return context


def parse(context, text, cached=True):
    """The parser after ``parse_module``, and the module it built."""
    with pytest.MonkeyPatch.context() as patch:
        if not cached:
            patch.setattr(parser_module, "_GENERIC_OP_RE", NEVER)
        parser = IRParser(context, text, "input.mlir")
        return parser, parser.parse_module()


def diagnostic(context, text, cached=True) -> str:
    with pytest.raises(DiagnosticError) as info:
        parse(context, text, cached)
    return str(info.value)


def assert_same_text(actual: str, expected: str) -> None:
    """``actual == expected``; a mismatch is reported by its first
    differing line, since pytest's diff of two long texts takes minutes."""
    if actual == expected:
        return
    pairs = itertools.zip_longest(actual.splitlines(keepends=True),
                                  expected.splitlines(keepends=True))
    for number, (got, want) in enumerate(pairs, 1):
        if got != want:
            pytest.fail(f"texts differ first at line {number}:\n"
                        f"  actual:   {got!r}\n  expected: {want!r}")


def assert_caches_do_not_show(context, text, repeats=True):
    parser, module = parse(context, text)
    reference, expected = parse(context, text, cached=False)
    assert not reference._signatures and not reference._attr_dicts
    assert_same_text(print_op(module, print_locations=True),
                     print_op(expected, print_locations=True))
    assert_same_text(print_op(module), print_op(expected))
    assert encode_module(module) == encode_module(expected)
    if repeats:
        assert parser.lexer.tokens_lexed < reference.lexer.tokens_lexed


# ----------------------------------------------------------------------
# Same text, IRBC and locations with the pattern on and off
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def workloads():
    return load_workloads()


def test_synth_module(workloads):
    synth = workloads.Synth(0, n_ops=2000)
    context = default_context()
    register_bench_dialect(context)
    assert_caches_do_not_show(context, synth.text)


def test_rewrite_mix_module(workloads):
    mix = workloads.RewriteMix(0, functions=4)
    assert_caches_do_not_show(cmath_context(), mix.text)


@pytest.mark.parametrize("seed", range(8))
def test_generated_corpus_module(full_corpus, seed):
    context, defs = full_corpus
    module = IRGenerator(context, defs, seed=seed).generate_module(300)
    assert_caches_do_not_show(context, print_op(module))


def example_inputs() -> list[tuple[str, str]]:
    """Every ``examples/**/*.mlir`` file, and the IR the example scripts
    parse."""
    files = [
        (path.relative_to(REPO).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted((REPO / "examples").rglob("*.mlir"))
    ]
    return files + [
        ("cmath_optimization.CONORM_BEFORE",
         example_constant("cmath_optimization", "CONORM_BEFORE")),
        ("lower_cmath_to_arith.PROGRAM",
         example_constant("lower_cmath_to_arith", "PROGRAM")),
    ]


EXAMPLE_INPUTS = example_inputs()


@pytest.mark.parametrize("name, text", EXAMPLE_INPUTS,
                         ids=[name for name, _ in EXAMPLE_INPUTS])
def test_example_input(name, text):
    assert_caches_do_not_show(cmath_context(allow_unregistered=True), text,
                              repeats=False)


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------


@pytest.fixture
def seeks(monkeypatch):
    """How many times a parser seeks past a cached spelling."""
    count = {"seeks": 0}
    seek = TokenCursor.seek

    def counted_seek(self, offset):
        count["seeks"] += 1
        return seek(self, offset)

    monkeypatch.setattr(TokenCursor, "seek", counted_seek)
    return count


MISMATCHES = {
    "operand count": (
        '%a = "t.c"() : () -> (i32)\n'
        '"t.u"(%a) : (i32) -> ()\n'
        '"t.u"(%a, %a) : (i32) -> ()\n',
        "input.mlir:3:1: error: operation has 2 operands but 1 operand "
        "types",
    ),
    "operand type": (
        '%a = "t.c"() : () -> (i32)\n'
        '%f = "t.c"() : () -> (f32)\n'
        '"t.u"(%a) : (i32) -> ()\n'
        '"t.u"(%f) : (i32) -> ()\n',
        "input.mlir:4:7: error: operand %f has type f32 but is used with "
        "type i32",
    ),
    "result count": (
        '%a = "t.c"() {v = 1} : () -> (i32)\n'
        '%b, %c = "t.c"() {v = 1} : () -> (i32)\n',
        "input.mlir:2:10: error: operation t.c produced 1 results but 2 "
        "names were bound",
    ),
}


@pytest.mark.parametrize("what", sorted(MISMATCHES))
def test_cached_signature_mismatch_reports_as_before(what, seeks):
    text, expected = MISMATCHES[what]
    context = default_context(allow_unregistered=True)
    reference = diagnostic(context, text, cached=False)
    assert seeks["seeks"] == 0
    message = diagnostic(context, text)
    assert seeks["seeks"] > 0  # the failing op's signature was a hit
    assert message == reference
    assert message.startswith(expected + "\n")


@pytest.mark.parametrize("text", [
    '"t.a"() : () -> (i32 $)\n',
    '"t.a"() {a = 1 : i32 x} : () -> ()\n',
    '%a = "t.a"() : () -> (i32)\n%b = "t.a"() : () -> (!t.unknown)\n',
])
def test_failed_spelling_raises_as_before(text):
    context = default_context(allow_unregistered=True)
    assert diagnostic(context, text) == diagnostic(context, text,
                                                   cached=False)


# ----------------------------------------------------------------------
# Spellings the patterns exclude
# ----------------------------------------------------------------------


EXCLUDED = {
    "quoted string": (
        '"t.a"() {s = "x"} : () -> ()\n' * 2, "_attr_dicts",
    ),
    "nested function type": (
        '%f = "t.a"() : () -> ((i32) -> (i32))\n'
        '%g = "t.a"() : () -> ((i32) -> (i32))\n',
        "_signatures",
    ),
    "multi-line dictionary": (
        '"t.a"() {a = 1,\n  b = 2} : () -> ()\n' * 2, "_attr_dicts",
    ),
}


@pytest.mark.parametrize("what", sorted(EXCLUDED))
def test_excluded_spelling_parses_token_by_token(what):
    text, cache = EXCLUDED[what]
    context = default_context(allow_unregistered=True)
    parser, module = parse(context, text)
    assert getattr(parser, cache) == {}
    _, expected = parse(context, text, cached=False)
    assert print_op(module) == print_op(expected)
    first, second = module.regions[0].blocks[0].ops
    assert first.attributes == second.attributes
    assert [r.type for r in first.results] == [r.type for r in second.results]


# ----------------------------------------------------------------------
# The pattern's boundary
# ----------------------------------------------------------------------


class CountedPattern:
    """``_GENERIC_OP_RE``, counting the ops it matches."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.matches = 0

    def match(self, *args):
        match = self.pattern.match(*args)
        self.matches += match is not None
        return match


def matched_parse(context, text):
    """``parse(context, text)``, and how many ops the pattern matched;
    a diagnostic takes the place of the parser and module."""
    counted = CountedPattern(parser_module._GENERIC_OP_RE)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser_module, "_GENERIC_OP_RE", counted)
        try:
            return parse(context, text), counted.matches
        except DiagnosticError as err:
            return str(err), counted.matches


def name_hints(module) -> list:
    return [result.name_hint for op in module.walk() for result in op.results]


REGION = '"t.region"() ({{\n{}}}) : () -> ()\n'

#: ``text``, whether unregistered ops are allowed, and how many of its
#: ops the pattern matches.
BOUNDARY = {
    "no spaces": (
        '%a="t.c"(){v = 1}:()->(i32)\n%b="t.u"(%a):(i32)->(i32)\n', True, 2,
    ),
    "tabs": (
        '%a\t=\t"t.c"()\t{v = 1}\t:\t()\t->\t(i32)\n'
        '"t.u"(\t%a\t)\t:\t(i32)\t->\t()\n',
        True, 2,
    ),
    "two results": (
        '%a, %b = "t.c"() : () -> (i32, f32)\n'
        '%c,%d = "t.c"() : () -> (i32, f32)\n'
        '"t.u"(%b, %a, %d) : (f32, i32, f32) -> ()\n',
        True, 3,
    ),
    "trailing loc": (
        '%a = "t.c"() : () -> (i32) loc("gen.py":7:3)\n'
        '"t.u"(%a) : (i32) -> () loc(fused["a.mlir":1:2, "b.mlir":3:4])\n',
        True, 2,
    ),
    "trailing comment": (
        '%a = "t.c"() : () -> (i32) // made here\n'
        '"t.u"(%a) : (i32) -> () // used here\n',
        True, 2,
    ),
    "escaped op name": (
        '%a = "t.c\\"q"() : () -> (i32)\n"t.u"(%a) : (i32) -> ()\n', True, 1,
    ),
    "successors": (
        REGION.format('  "t.br"()[^bb1] : () -> ()\n^bb1:\n'
                      '  "t.ret"() : () -> ()\n'),
        True, 1,
    ),
    "forward reference": (
        '"t.u"(%late, %late) : (i32, i32) -> ()\n'
        '%late = "t.c"() : () -> (i32)\n',
        True, 2,
    ),
    "forward reference of another type": (
        '"t.u"(%late) : (f32) -> ()\n%late = "t.c"() : () -> (i32)\n',
        True, 2,
    ),
    "duplicate definition": (
        '%a = "t.c"() : () -> (i32)\n%b, %a = "t.c"() : () -> (i32, i32)\n',
        True, 2,
    ),
    "unregistered op": (
        '%a = "arith.constant"() {value = 1 : i32} : () -> (i32)\n'
        '"t.u"(%a) : (i32) -> ()\n',
        False, 2,
    ),
    "wrong operand count": (
        '%a = "t.c"() : () -> (i32)\n"t.u"(%a, %a) : (i32) -> ()\n', True, 2,
    ),
    "wrong result count": (
        '%a, %b = "t.c"() : () -> (i32)\n', True, 1,
    ),
    "wrong operand type": (
        '%a = "t.c"() : () -> (i32)\n"t.u"(%a, %a) : (i32, f32) -> ()\n',
        True, 2,
    ),
}


def assert_parses_as_token_path(context, text, matches=None):
    """``text`` parses, or fails, exactly as with the pattern off; with
    ``matches``, the pattern matched that many ops."""
    result, matched = matched_parse(context, text)
    if matches is not None:
        assert matched == matches
    if isinstance(result, str):
        assert result == diagnostic(context, text, cached=False)
        return
    parser, module = result
    reference, expected = parse(context, text, cached=False)
    assert_same_text(print_op(module, print_locations=True),
                     print_op(expected, print_locations=True))
    assert encode_module(module) == encode_module(expected)
    assert name_hints(module) == name_hints(expected)
    assert parser.ops_parsed == reference.ops_parsed


@pytest.mark.parametrize("what", sorted(BOUNDARY))
def test_pattern_boundary(what):
    text, unregistered, matches = BOUNDARY[what]
    context = default_context(allow_unregistered=unregistered)
    assert_parses_as_token_path(context, text, matches)


def test_pattern_lexes_one_token_per_printed_op(workloads):
    """The printed ``rewrite_mix`` text: every op but the module, the
    functions and the custom-format ``cmath.norm`` ops is matched, and
    each run of matched ops costs one token besides the first reading
    of each distinct spelling, so a printer change that stops the
    pattern matching fails here."""
    mix = workloads.RewriteMix(0, functions=4)
    context = cmath_context()
    text = print_op(parse(context, mix.text)[1])
    (parser, module), matched = matched_parse(context, text)
    ops = sum(1 for _ in module.walk())
    assert text.count(" = cmath.norm ") == 8
    assert matched == ops - 1 - 4 - 8 == 372
    spans = matched_lines(text)
    # Each function's ops before and after its two cmath.norm ops.
    runs = sum(in_run for in_run, _ in itertools.groupby(
        span is not None for span in spans
    ))
    assert runs == 2 * 4
    reference, _ = parse(context, text, cached=False)
    outside = reference.lexer.tokens_lexed - sum(
        tokens_in(span) for span in spans if span is not None
    )
    # A spelling read once: its tokens and the one after it.
    spellings = sum(tokens_in(spelling) + 1 for spelling in
                    [*parser._attr_dicts, *parser._signatures])
    assert parser.lexer.tokens_lexed == outside + runs + spellings


def tokens_in(text: str) -> int:
    return len(Lexer(SourceFile(text)).tokenize()) - 1


def matched_lines(text: str) -> list[str | None]:
    """For each line, the text of its op if the pattern matches it."""
    spans = []
    for line in text.splitlines():
        match = parser_module._GENERIC_OP_RE.match(line.strip())
        spans.append(None if match is None else match.group())
    return spans


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


A = '%a = "t.c"() : () -> (i32)'
B = '%b = "t.c"() : () -> (i32)'
USE = '"t.u"(%a, %b) : (i32, i32) -> ()'

#: ``text``, whether unregistered ops are allowed, and how many of its
#: ops the pattern matches.
RUNS = {
    "ended by a region op": (
        f'{A}\n{B}\n"t.region"() ({{\n  {USE}\n}}) : () -> ()\n'
        '"t.u"(%a) : (i32) -> ()\n',
        True, 4,
    ),
    "ended by a custom-format op": (
        '%p = "t.c"() : () -> (!cmath.complex<f32>)\n'
        '%n = cmath.norm %p : f32\n"t.u"(%n) : (f32) -> ()\n',
        True, 2,
    ),
    "ended by a block label": (
        f'"t.region"() ({{\n  {A}\n  "t.u"(%a) : (i32) -> ()\n'
        '^bb1:\n  "t.u"() : () -> ()\n}) : () -> ()\n',
        True, 3,
    ),
    "ended by a brace on the same line": (
        f'"t.region"() ({{ {A} {B} {USE} }}) : () -> ()', True, 3,
    ),
    "ended by EOF without a newline": (f"{A}\n{B}\n{USE}", True, 3),
    "ended by EOF after a comment": (f"{A}\n{B} // last", True, 2),
    "ended by a slash that starts no comment": (
        f"{A}\n{B} /\n{USE}\n", True, 2,
    ),
    "comment and blank lines": (
        f"// head\n\n{A}\n// between\n\n   // indented\n{B}\n\n\n"
        f"{USE}\n",
        True, 3,
    ),
    "CRLF": (f"{A}\r\n\r\n{B}\r\n{USE}\r\n", True, 3),
    "tabs": (f"\t{A}\n\t\t{B}\t\n \t{USE}\n", True, 3),
    "two ops on one line": (
        f"{A} {B}\n{USE}  {USE}\t{USE}\n", True, 5,
    ),
    "loc on the first op": (
        f'{A} loc("x.py":7:3)\n{B}\n{USE}\n', True, 3,
    ),
    "loc on a middle op": (
        f'{A}\n{B} loc("x.py":7:3)\n{USE}\n', True, 3,
    ),
    "loc on the last op": (
        f'{A}\n{B}\n{USE} loc(fused["x.py":7:3, "y.py":1:1])\n', True, 3,
    ),
    "loc on the line after a comment": (
        f'{A} // made here\n  loc("x.py":7:3)\n{B}\n{USE}\n', True, 3,
    ),
    "unregistered op mid-run": (
        '%a = "arith.constant"() {value = 1 : i32} : () -> (i32)\n'
        '%b = "arith.addi"(%a, %a) : (i32, i32) -> (i32)\n'
        '"t.u"(%b) : (i32) -> ()\n'
        '%c = "arith.addi"(%b, %b) : (i32, i32) -> (i32)\n',
        False, 3,
    ),
    "wrong operand count mid-run": (
        f'{A}\n"t.u"(%a, %a) : (i32) -> ()\n{B}\n', True, 2,
    ),
    "wrong operand type mid-run": (
        f'{A}\n{B}\n"t.u"(%a, %b) : (i32, f32) -> ()\n{USE}\n', True, 3,
    ),
    "duplicate definition mid-run": (f"{A}\n{B}\n{A}\n{USE}\n", True, 3),
    "forward references inside and after the run": (
        '"t.u"(%late, %later) : (i32, i32) -> ()\n'
        '%late = "t.c"() : () -> (i32)\n'
        '"t.region"() ({\n  "t.u"(%late) : (i32) -> ()\n}) : () -> ()\n'
        '%later = "t.c"() : () -> (i32)\n',
        True, 4,
    ),
}


@pytest.mark.parametrize("what", sorted(RUNS))
def test_run_parses_as_the_token_path(what):
    text, unregistered, matches = RUNS[what]
    context = cmath_context(allow_unregistered=unregistered)
    assert_parses_as_token_path(context, text, matches)


def test_run_seeks_once(seeks):
    text = "".join(f'%a{k} = "t.c"() : () -> (i32)\n'
                   f'"t.u"(%a{k}) : (i32) -> ()\n' for k in range(50))
    parser, module = parse(default_context(allow_unregistered=True), text)
    assert len(module.regions[0].blocks[0].ops) == 100
    # One seek to read each signature and one at the end of the run.
    assert seeks["seeks"] == len(parser._signatures) + 1 == 3


#: One-line generic ops ``interleavings`` draws: ``{i}`` keeps each
#: definition fresh, and ``{u}`` is a value defined before or after.
RUN_OPS = [
    '%v{i} = "t.c"() : () -> (i32)',
    '%v{i}, %w{i} = "t.c"() {{k = {i} : i32}} : () -> (i32, f32)',
    '"t.u"({u}) : (i32) -> ()',
    '%v{i} = "t.u"({u}, {u}) : (i32, i32) -> (i32)',
]
#: Ops that end a run; ``{d}`` is a value defined before.
BREAKS = [
    '%c{i} = "t.c"() : () -> (!cmath.complex<f32>)\n'
    '%n{i} = cmath.norm %c{i} : f32',
    '"t.region"() ({{\n  "t.u"({d}) : (i32) -> ()\n^bb1:\n'
    '  "t.u"() : () -> ()\n}}) : () -> ()',
]
#: Ops the token path reports a diagnostic for.
ERRORS = [
    '"t.u"({d}) : () -> ()',
    '"t.u"({d}) : (f32) -> ()',
    '{d} = "t.c"() : () -> (i32)',
    '"t.u"() : () -> (i32 $)',
]
SEPARATORS = ["\n", "\n\n", "\n// note\n", " // note\n", "\r\n", "\n\t",
              " ", "\t"]
LOCATIONS = ["", "", ' loc("x.py":3:4)', " loc(unknown)",
             ' loc(fused["x.py":3:4, unknown])']


@st.composite
def interleavings(draw) -> str:
    """Runs of one-line generic ops, what ends them, and sometimes an
    op the token path rejects."""
    count = draw(st.integers(1, 12))
    error_at = draw(st.integers(0, 3 * count))
    defined, forward = ["%v0"], []
    pieces = ['%v0 = "t.c"() : () -> (i32)']

    def separate():
        pieces.append(draw(st.sampled_from(LOCATIONS)))
        pieces.append(draw(st.sampled_from(SEPARATORS)))

    for index in range(1, count + 1):
        separate()
        if index == error_at:
            template = draw(st.sampled_from(ERRORS))
        else:
            template = draw(st.sampled_from(RUN_OPS * 3 + BREAKS))
        used = draw(st.sampled_from(defined + [f"%f{index}"]))
        if used not in defined:
            forward.append(used)
        pieces.append(template.format(
            i=index, u=used, d=draw(st.sampled_from(defined))
        ))
        if template.startswith("%v{i}"):
            defined.append(f"%v{index}")
    for name in forward:
        separate()
        pieces.append(f'{name} = "t.c"() : () -> (i32)')
    return "".join(pieces)


@settings(max_examples=200, deadline=None)
@given(interleavings())
def test_interleaved_runs_parse_as_the_token_path(text):
    assert_parses_as_token_path(cmath_context(allow_unregistered=True), text)


# ----------------------------------------------------------------------
# Cache size
# ----------------------------------------------------------------------


def test_each_cache_stops_at_the_limit():
    assert SPELLING_CACHE_LIMIT == 1024
    text = "\n".join(f'%v{k} = "t.c"() {{v = {k} : i32}} : () -> (i{k})'
                      for k in range(1, 1501))
    context = default_context(allow_unregistered=True)
    parser, module = parse(context, text)
    assert len(parser._attr_dicts) == SPELLING_CACHE_LIMIT
    assert len(parser._signatures) == SPELLING_CACHE_LIMIT
    _, expected = parse(context, text, cached=False)
    assert_same_text(print_op(module, print_locations=True),
                     print_op(expected, print_locations=True))
    assert len(module.regions[0].blocks[0].ops) == 1500
    # The printer's type spellings stop at the same size.
    printer = Printer()
    printer.print_op(module)
    assert len(printer._type_spellings) == SPELLING_CACHE_LIMIT
    assert_same_text(printer.getvalue(), print_op(expected))


# ----------------------------------------------------------------------
# Printer
# ----------------------------------------------------------------------


def test_printer_keeps_signed_zero_types_apart():
    context = default_context(allow_unregistered=True)
    register_irdl(context,
                  "Dialect fp { Type t { Parameters (x: #f64_attr) } }")
    negative = context.make_type("fp.t", [FloatAttr(-0.0, f64)])
    positive = context.make_type("fp.t", [FloatAttr(0.0, f64)])
    op = context.create_operation("test.op",
                                  result_types=[negative, positive])
    assert print_op(op).endswith(
        ": () -> (!fp.t<-0.0 : f64>, !fp.t<0.0 : f64>)"
    )
