"""Lexer for the MLIR-like textual IR syntax, and the token cursor
every parser in this project reads through.

The token inventory follows MLIR's generic syntax: sigil-prefixed
identifiers for SSA values (``%x``), blocks (``^bb0``), symbols (``@f``),
types (``!cmath.complex``) and attributes (``#cmath.attr``), plus bare
identifiers, numbers, strings, and punctuation.

Scanning is driven by a single compiled *master regex*: one alternation
whose named groups cover every token class (trivia included).
:meth:`Lexer.tokens` is one generator over its ``finditer`` matches, so
the classification work happens inside the regex engine's C loop.  The
alternation is ordered so its longest-match cases mirror the original
scanner's lookahead rules exactly (``->`` before ``-``; a number's
fraction/exponent only consumed when a digit actually follows); the
rare error paths re-scan by hand to reproduce the original diagnostic
spans byte for byte.

Three choices keep the front end cheap:

* a :class:`Token` is a ``__slots__`` record of offsets; its
  :class:`~repro.utils.source.Span` is built only when ``span`` is read
  (for a diagnostic or an op's location);
* a lexing error travels down the stream as a marker that
  :class:`TokenCursor` raises only when the parser reaches it, so a
  parse error earlier in the file is still the one reported;
* the IR, IRDL and pattern parsers all extend :class:`TokenCursor`,
  which holds the current token and at most one lookahead token.  The
  token list is never materialized, so tokens cost no memory that
  grows with the input (docs/performance.md has the measurement).
"""

from __future__ import annotations

import re
from enum import Enum, auto
from itertools import repeat
from typing import Iterator

from repro.utils.diagnostics import DiagnosticError
from repro.utils.quoting import unescape
from repro.utils.source import SourceFile, Span


class TokenKind(Enum):
    PERCENT_IDENT = auto()   # %value
    CARET_IDENT = auto()     # ^block
    AT_IDENT = auto()        # @symbol
    BANG_IDENT = auto()      # !type
    HASH_IDENT = auto()      # #attr
    BARE_IDENT = auto()      # keyword-ish identifiers
    INTEGER = auto()
    FLOAT = auto()
    STRING = auto()
    LPAREN = auto()
    RPAREN = auto()
    LBRACE = auto()
    RBRACE = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    LESS = auto()
    GREATER = auto()
    COMMA = auto()
    COLON = auto()
    EQUAL = auto()
    ARROW = auto()           # ->
    QUESTION = auto()        # ? (dynamic dimension)
    STAR = auto()
    PLUS = auto()
    MINUS = auto()
    DOT = auto()
    EOF = auto()


PUNCTUATION = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "<": TokenKind.LESS,
    ">": TokenKind.GREATER,
    ",": TokenKind.COMMA,
    ":": TokenKind.COLON,
    "=": TokenKind.EQUAL,
    "?": TokenKind.QUESTION,
    "*": TokenKind.STAR,
    "+": TokenKind.PLUS,
    ".": TokenKind.DOT,
}

_SIGILS = {
    "%": TokenKind.PERCENT_IDENT,
    "^": TokenKind.CARET_IDENT,
    "@": TokenKind.AT_IDENT,
    "!": TokenKind.BANG_IDENT,
    "#": TokenKind.HASH_IDENT,
}

#: Sigil-identifier kinds, for ``Token.value``'s prefix stripping (a
#: tuple: membership compares identities, where a set would call
#: ``Enum.__hash__``, a Python function).
_SIGIL_KINDS = tuple(_SIGILS.values())


class Token:
    """One token: its kind, its text, and its offsets in ``source``."""

    __slots__ = ("kind", "text", "start", "end", "source")

    def __init__(self, kind: TokenKind, text: str, start: int, end: int,
                 source: SourceFile):
        self.kind = kind
        self.text = text
        self.start = start
        self.end = end
        self.source = source

    @property
    def span(self) -> Span:
        return Span(self.start, self.end, self.source)

    @property
    def value(self) -> str:
        """Identifier text without its sigil; string text without quotes."""
        if self.kind in _SIGIL_KINDS:
            return self.text[1:]
        if self.kind is TokenKind.STRING:
            return unescape(self.text[1:-1])
        return self.text

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"


class LexError:
    """Stands in the token stream for a lexing error.

    Its ``kind`` is ``None``, so it never matches an expected kind;
    :class:`TokenCursor` raises ``error`` when the parser reaches it.
    """

    __slots__ = ("error",)
    kind = None

    def __init__(self, error: DiagnosticError):
        self.error = error


# The master token regex.  Alternative order is load-bearing:
#
# * ``arrow`` precedes ``minus`` so ``->`` never splits;
# * ``number`` requires a digit after ``-``/``.``/exponent before
#   consuming them, reproducing the old scanner's one-character
#   lookahead (``4.`` is INTEGER then DOT; ``1e`` is INTEGER then a bare
#   ``e``; a lone ``-`` falls through to MINUS);
# * ``string`` treats a backslash as escaping *any* following character
#   (newline included) and refuses unescaped newlines, so a match failure
#   on a ``"`` means exactly "unterminated string literal";
# * identifier classes are built from ``\w`` (minus digits for the
#   leading character) to keep the Unicode acceptance of the previous
#   ``str.isalnum``-based scanner.
#
# Trivia (whitespace and ``//`` comments) is an ordinary alternative so
# one match call per loop iteration handles everything.
_MASTER_RE = re.compile(
    r"""
      (?P<trivia>  [ \t\r\n]+ | //[^\n]* )
    | (?P<sigil>   [%^@!#][\w$.]+ )
    | (?P<arrow>   -> )
    | (?P<number>  -?\d+ (?:\.\d+)? (?:[eE][+-]?\d+)? )
    | (?P<string>  "(?:\\[\s\S]|[^"\\\n])*" )
    | (?P<bare>    [^\W\d][\w$]* )
    | (?P<punct>   [(){}\[\]<>,:=?*+.] )
    | (?P<minus>   - )
    | (?P<badsigil> [%^@!#] )
    | (?P<badstring> " )
    """,
    re.VERBOSE,
)


# Group numbers of the master regex, for integer dispatch in the hot
# loop (every alternative's nested groups are non-capturing, so these
# are dense and stable; resolving them by name keeps reordering safe).
_G_TRIVIA = _MASTER_RE.groupindex["trivia"]
_G_SIGIL = _MASTER_RE.groupindex["sigil"]
_G_ARROW = _MASTER_RE.groupindex["arrow"]
_G_NUMBER = _MASTER_RE.groupindex["number"]
_G_STRING = _MASTER_RE.groupindex["string"]
_G_BARE = _MASTER_RE.groupindex["bare"]
_G_PUNCT = _MASTER_RE.groupindex["punct"]
_G_MINUS = _MASTER_RE.groupindex["minus"]
_G_BADSIGIL = _MASTER_RE.groupindex["badsigil"]

_FINDITER = _MASTER_RE.finditer


class Lexer:
    """A scanner producing :class:`Token` values from one master regex."""

    def __init__(self, source: SourceFile):
        self.source = source
        #: Tokens produced so far (EOF excluded); read by the
        #: observability layer after a parse (repro.obs).
        self.tokens_lexed = 0

    def tokens(self, offset: int = 0) -> Iterator[Token | LexError]:
        """Every token of the source from ``offset`` on, then EOF
        forever.

        A lexing error ends the stream instead: its :class:`LexError`
        marker repeats forever.
        """
        source = self.source
        text = source.contents
        pos = offset
        for match in _FINDITER(text, offset):
            start, end = match.span()
            if start != pos:
                break  # the text at ``pos`` matched no token
            pos = end
            group = match.lastindex
            if group == _G_TRIVIA:
                continue
            lexeme = text[start:end]
            if group == _G_PUNCT:
                kind = PUNCTUATION[lexeme]
            elif group == _G_BARE:
                kind = TokenKind.BARE_IDENT
            elif group == _G_SIGIL:
                kind = _SIGILS[lexeme[0]]
            elif group == _G_NUMBER:
                kind = (
                    TokenKind.FLOAT
                    if "." in lexeme or "e" in lexeme or "E" in lexeme
                    else TokenKind.INTEGER
                )
            elif group == _G_STRING:
                kind = TokenKind.STRING
            elif group == _G_ARROW:
                kind = TokenKind.ARROW
            elif group == _G_MINUS:
                kind = TokenKind.MINUS
            else:  # a sigil or string that does not lex ends the stream
                yield from repeat(LexError(self._bad_token(group, start)))
            self.tokens_lexed += 1
            yield Token(kind, lexeme, start, end, source)
        if pos < len(text):
            error = DiagnosticError.at(
                f"unexpected character {text[pos]!r}", source.span(pos, pos + 1)
            )
            yield from repeat(LexError(error))
        yield from repeat(Token(TokenKind.EOF, "", pos, pos, source))

    def _bad_token(self, group: int, start: int) -> DiagnosticError:
        """The diagnostic for a sigil or string that starts at ``start``
        but does not lex, with the original scanner's span."""
        source = self.source
        text = source.contents
        if group == _G_BADSIGIL:
            # The sigil was consumed before the missing identifier was
            # noticed.
            return DiagnosticError.at(
                f"expected identifier after {text[start]!r}",
                source.span(start, start + 2),
            )
        # An unterminated string: re-scan by hand to end the span where
        # the original scanner stopped.
        size = len(text)
        cursor = start + 1
        while cursor < size:
            char = text[cursor]
            if char == "\\":
                cursor += 2
                continue
            if char == "\n":
                break
            cursor += 1
        return DiagnosticError.at(
            "unterminated string literal", source.span(start, cursor + 1)
        )

    def tokenize(self) -> list[Token]:
        """All tokens, EOF included; raises the first lexing error."""
        tokens = []
        for token in self.tokens():
            if token.kind is None:
                raise token.error
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens


class TokenCursor:
    """The token plumbing shared by the IR, IRDL and pattern parsers.

    Reads :meth:`Lexer.tokens` one token at a time, holding the current
    token and at most one token of lookahead (``peek(1)``).  Reaching a
    :class:`LexError` marker, by peeking or consuming, raises its
    diagnostic: exactly when a scanner pulled on demand would have
    raised it.
    """

    def __init__(self, source: SourceFile):
        self.source = source
        self.lexer = Lexer(source)
        self._pull = self.lexer.tokens().__next__
        self._token: Token | LexError = self._pull()
        self._ahead: Token | LexError | None = None

    def peek(self, offset: int = 0) -> Token:
        """The current token, or with ``offset=1`` the one after it."""
        if offset:
            token = self._ahead
            if token is None:
                token = self._ahead = self._pull()
        else:
            token = self._token
        if token.kind is None:
            raise token.error
        return token

    def seek(self, offset: int) -> None:
        """Drop the held tokens and continue the stream at ``offset``.

        The caller vouches that ``offset`` is where a token (or trivia)
        starts: the IR parser seeks once past a run of generic ops it
        has matched as a whole (``IRParser._parse_ops``), or to a
        spelling inside one that it converts token by token
        (``IRParser._convert``).
        """
        self._pull = self.lexer.tokens(offset).__next__
        self._token = self._pull()
        self._ahead = None

    def next(self) -> Token:
        """Consume and return the current token."""
        token = self._token
        if token.kind is None:
            raise token.error
        ahead = self._ahead
        if ahead is None:
            self._token = self._pull()
        else:
            self._token = ahead
            self._ahead = None
        return token

    def accept(self, kind: TokenKind, text: str | None = None) -> Token | None:
        token = self._token
        if token.kind is kind and (text is None or token.text == text):
            return self.next()
        if token.kind is None:
            raise token.error
        return None

    def expect(self, kind: TokenKind, what: str) -> Token:
        token = self._token
        if token.kind is not kind:
            if token.kind is None:
                raise token.error
            raise self.error(f"expected {what}, found {token.text!r}", token)
        return self.next()

    def expect_keyword(self, keyword: str) -> Token:
        token = self.peek()
        if token.kind is not TokenKind.BARE_IDENT or token.text != keyword:
            raise self.error(f"expected {keyword!r}, found {token.text!r}", token)
        return self.next()

    def error(self, message: str, token: Token | None = None) -> DiagnosticError:
        span = (token or self.peek()).span
        return DiagnosticError.at(message, span)

    def at_end(self) -> bool:
        return self.peek().kind is TokenKind.EOF
