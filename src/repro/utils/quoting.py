"""Double-quoted string literals, as the lexers read and the printers
write them.

``quote`` escapes exactly what a literal cannot hold raw (``\\``, ``"``
and newline), and ``unescape`` reads a literal's body back in one pass,
so ``unescape(quote(text)[1:-1]) == text`` for every string.
"""

from __future__ import annotations

import re

# One backslash escape: the backslash and the character it escapes
# (any character, newline included, as the lexers accept).
_ESCAPE_RE = re.compile(r"\\([\s\S])")

_UNESCAPED = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def unescape(body: str) -> str:
    """The text a string literal's ``body`` (between its quotes) denotes.

    ``\\n``, ``\\t``, ``\\"`` and ``\\\\`` are escapes; any other
    backslash sequence stands for itself.
    """
    if "\\" not in body:
        return body
    return _ESCAPE_RE.sub(
        lambda match: _UNESCAPED.get(match.group(1), match.group()), body
    )


def quote(text: str) -> str:
    """``text`` as a double-quoted literal that ``unescape`` reads back."""
    if "\\" in text or '"' in text or "\n" in text:
        text = (text.replace("\\", "\\\\").replace('"', '\\"')
                .replace("\n", "\\n"))
    return f'"{text}"'
