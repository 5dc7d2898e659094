"""The streaming token cursor shared by the IR, IRDL and pattern parsers.

The goldens here were recorded with the previous pull-one-token lexer,
so they pin the stream and the diagnostics without keeping that lexer.
"""

import hashlib
import pathlib

import pytest

from repro.builtin import default_context
from repro.corpus import register_bench_dialect, synthesize_module
from repro.irdl.parser import parse_irdl
from repro.obs import MetricsRegistry, enable_metrics, reset
from repro.rewriting.declarative import PatternParser
from repro.textir import Lexer, TokenKind, parse_module, print_op
from repro.textir.lexer import TokenCursor
from repro.utils import DiagnosticError, SourceFile

REPO = pathlib.Path(__file__).resolve().parents[2]

#: ``(tokens including EOF, sha256 prefix)`` of every source file's
#: token stream, each token hashed as ``kind text start end``.
GOLDEN_STREAMS = {
    "examples/patterns/conorm.pattern": (55, "a8ddc8eee3ebda5c"),
    "src/repro/corpus/dialects/affine.irdl": (258, "363d3b4372b3bcf4"),
    "src/repro/corpus/dialects/amx.irdl": (147, "6566685176af86e6"),
    "src/repro/corpus/dialects/arith.irdl": (831, "39e432f73470a88f"),
    "src/repro/corpus/dialects/arm_neon.irdl": (81, "a21d1082d745a850"),
    "src/repro/corpus/dialects/arm_sve.irdl": (180, "5fb69774f20b72cd"),
    "src/repro/corpus/dialects/async.irdl": (185, "52c1134f849ac437"),
    "src/repro/corpus/dialects/builtin.irdl": (667, "7a51262bbbd80395"),
    "src/repro/corpus/dialects/cmath.irdl": (144, "d6772327cae7423c"),
    "src/repro/corpus/dialects/complex.irdl": (207, "9ca231c7b1261a10"),
    "src/repro/corpus/dialects/emitc.irdl": (141, "4dd3b53c791a6449"),
    "src/repro/corpus/dialects/gpu.irdl": (257, "9f0eb1de6a5191cf"),
    "src/repro/corpus/dialects/linalg.irdl": (236, "ded43e07090e6a49"),
    "src/repro/corpus/dialects/llvm.irdl": (601, "db546a1dbdbf7a15"),
    "src/repro/corpus/dialects/math.irdl": (442, "0116ef8a95bde401"),
    "src/repro/corpus/dialects/memref.irdl": (402, "63fde246e5719e1d"),
    "src/repro/corpus/dialects/nvvm.irdl": (126, "11c42f9054807c53"),
    "src/repro/corpus/dialects/pdl.irdl": (227, "dc273125dd7c0010"),
    "src/repro/corpus/dialects/pdl_interp.irdl": (276, "32d65e21af1478d7"),
    "src/repro/corpus/dialects/quant.irdl": (145, "eda78e64a16027e3"),
    "src/repro/corpus/dialects/rocdl.irdl": (165, "fd3a41c7729e9296"),
    "src/repro/corpus/dialects/scf.irdl": (237, "ef0c09853d36f9bc"),
    "src/repro/corpus/dialects/shape.irdl": (332, "5426d2bddb013b83"),
    "src/repro/corpus/dialects/sparse_tensor.irdl": (210, "6dd8dc49838d2e01"),
    "src/repro/corpus/dialects/spv.irdl": (566, "a70064094497e991"),
    "src/repro/corpus/dialects/std.irdl": (163, "cd3e017f8d3f9688"),
    "src/repro/corpus/dialects/tensor.irdl": (321, "f1cf732f728c7c13"),
    "src/repro/corpus/dialects/tosa.irdl": (240, "f9673173f6bdf6fc"),
    "src/repro/corpus/dialects/vector.irdl": (554, "9160138c48bee396"),
    "src/repro/corpus/dialects/x86vector.irdl": (165, "4e8eb3d6ef26c7fb"),
}


def source_files() -> list[str]:
    return sorted(
        path.relative_to(REPO).as_posix()
        for base in ("src/repro/corpus", "examples")
        for pattern in ("*.irdl", "*.mlir", "*.pattern")
        for path in (REPO / base).rglob(pattern)
    )


class TestTokenStream:
    def test_goldens_cover_every_source_file(self):
        assert source_files() == sorted(GOLDEN_STREAMS)

    @pytest.mark.parametrize("relpath", sorted(GOLDEN_STREAMS))
    def test_stream_matches_golden(self, relpath):
        text = (REPO / relpath).read_text(encoding="utf-8")
        lexer = Lexer(SourceFile(text, relpath))
        tokens = lexer.tokenize()
        digest = hashlib.sha256()
        for token in tokens:
            digest.update(
                f"{token.kind.name} {token.text!r} {token.span.start} "
                f"{token.span.end}\n".encode()
            )
        assert (len(tokens), digest.hexdigest()[:16]) == GOLDEN_STREAMS[relpath]
        assert lexer.tokens_lexed == len(tokens) - 1

    def test_span_is_built_on_read(self):
        source = SourceFile("a\n  bc", "t.mlir")
        token = Lexer(source).tokenize()[1]
        assert not hasattr(token, "__dict__")
        assert (token.start, token.end) == (4, 6)
        assert token.span.text == "bc"
        assert str(token.span) == "t.mlir:2:3"

    def test_eof_repeats_after_the_last_token(self):
        stream = Lexer(SourceFile("x")).tokens()
        kinds = [next(stream).kind for _ in range(4)]
        assert kinds == [TokenKind.BARE_IDENT] + [TokenKind.EOF] * 3


def _diagnostic(parse, text: str) -> str:
    with pytest.raises(DiagnosticError) as info:
        parse(text)
    return str(info.value)


def _parse_ir(text: str):
    return parse_module(default_context(allow_unregistered=True), text,
                        "t.mlir")


def _parse_patterns(text: str):
    return PatternParser(text).parse_file()


class TestDeferredLexingErrors:
    """A lexing error is reported only once the parser reaches it, so
    the first error in the file wins, byte for byte as before."""

    @pytest.mark.parametrize("parse, text, expected", [
        # The parse error at ')' comes before the unterminated string.
        (_parse_ir, '"x.y"() : () -> ()\n)\n"abc',
         "t.mlir:2:1: error: expected an operation, found ')'\n)\n^"),
        (_parse_ir, '"x.y"() : () -> ()\n) $',
         "t.mlir:2:1: error: expected an operation, found ')'\n) $\n^"),
        (_parse_ir, '"x.y"() : () -> ()\n"abc',
         't.mlir:2:1: error: unterminated string literal\n"abc\n^~~~'),
        (_parse_ir, '"x.y"() : () -> ()\n%',
         "t.mlir:2:1: error: expected identifier after '%'\n%\n^"),
        # Reached through the one-token lookahead after ``loc``.
        (_parse_ir, '"x.y"() : () -> () loc $',
         "t.mlir:1:24: error: unexpected character '$'\n"
         '"x.y"() : () -> () loc $\n'
         "                       ^"),
        (parse_irdl, 'Dialect x {\n} )"abc',
         "<irdl>:2:3: error: expected 'Dialect', found ')'\n} )\"abc\n  ^"),
        (parse_irdl, 'Dialect x {\n} "abc',
         '<irdl>:2:3: error: unterminated string literal\n} "abc\n  ^~~~'),
        (_parse_patterns, "Pattern p { Match { %a = x.y(%b %$) } }",
         "<patterns>:1:33: error: expected ')', found '%$'\n"
         "Pattern p { Match { %a = x.y(%b %$) } }\n"
         "                                ^~"),
        (_parse_patterns, "Pattern p { Match { } $",
         "<patterns>:1:23: error: unexpected character '$'\n"
         "Pattern p { Match { } $\n"
         "                      ^"),
    ])
    def test_first_error_in_the_file_is_reported(self, parse, text, expected):
        assert _diagnostic(parse, text) == expected

    def test_error_is_raised_again_if_reached_again(self):
        cursor = TokenCursor(SourceFile("a $"))
        assert cursor.next().text == "a"
        for _ in range(2):
            with pytest.raises(DiagnosticError, match="unexpected character"):
                cursor.peek()


@pytest.fixture(scope="module")
def synth_text() -> str:
    return print_op(synthesize_module(1000, seed=0,
                                      context=default_context()))


def _bench_context():
    context = default_context()
    register_bench_dialect(context)
    return context


def test_cursor_holds_the_current_token_plus_at_most_one(monkeypatch,
                                                         synth_text):
    context = _bench_context()
    state = {"lexed": 0, "consumed": 0, "dropped": 0, "most_ahead": 0}
    tokens, advance, seek = Lexer.tokens, TokenCursor.next, TokenCursor.seek

    def counted_tokens(self, offset=0):
        for token in tokens(self, offset):
            state["lexed"] += 1
            released = state["consumed"] + state["dropped"]
            state["most_ahead"] = max(state["most_ahead"],
                                      state["lexed"] - released)
            yield token

    def counted_next(self):
        state["consumed"] += 1
        return advance(self)

    def counted_seek(self, offset):
        # The held tokens are released unconsumed.
        state["dropped"] += 1 + (self._ahead is not None)
        return seek(self, offset)

    monkeypatch.setattr(Lexer, "tokens", counted_tokens)
    monkeypatch.setattr(TokenCursor, "next", counted_next)
    monkeypatch.setattr(TokenCursor, "seek", counted_seek)
    parse_module(context, synth_text)
    # The module's ops are one run of generic ops, each matched whole:
    # the tokens lexed are the module's own, one for the run and each
    # spelling's first reading.
    assert (state["consumed"], state["lexed"]) == (157, 179)
    assert state["most_ahead"] <= 2


def test_tokens_lexed_is_unchanged(synth_text):
    lexer = Lexer(SourceFile(synth_text))
    assert len(lexer.tokenize()) == 16_811
    assert lexer.tokens_lexed == 16_810
    metrics = enable_metrics(MetricsRegistry())
    try:
        parse_module(_bench_context(), synth_text)
        # The parser matches the module's one-line generic ops as one
        # run, which costs one token, and lexes each distinct signature
        # and attribute dictionary once (docs/performance.md, "One-line
        # generic ops").
        assert metrics.value_of("textir.lexer.tokens") == 178
    finally:
        reset()
