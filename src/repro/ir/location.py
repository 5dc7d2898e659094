"""Source locations: where an operation came from.

MLIR threads location attributes through every layer of the compiler so
diagnostics and optimization remarks can point back at user code; this
module is the same idea scaled to the reproduction.  Three concrete
kinds:

* :class:`UnknownLoc` — the absence of provenance (a shared singleton,
  :data:`UNKNOWN_LOC`);
* :class:`FileLineColLoc` — a point in a source file, attached by the
  textual parser and by the builder API (caller frames);
* :class:`FusedLoc` — the merge of several locations, produced when a
  rewrite pattern replaces a set of matched operations with new ones.

Locations are immutable and hashable, so they are shareable between
operations and safely usable as pool keys by the bytecode encoder.
They are *not* attributes: they never affect IR equality or
verification, mirroring MLIR's decision to keep locations out of the
operation's folding identity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.utils.quoting import quote

if TYPE_CHECKING:
    from repro.utils.source import Span


class Location:
    """Base class of source locations."""

    __slots__ = ()

    @property
    def is_unknown(self) -> bool:
        return False

    def resolve(self) -> "FileLineColLoc | None":
        """The primary file position behind this location, if any."""
        return None

    @staticmethod
    def fuse(locations: Iterable["Location"]) -> "Location":
        """Merge locations, MLIR ``FusedLoc`` style.

        Nested fused locations are flattened, unknowns and duplicates
        are dropped, and degenerate merges collapse: zero distinct
        inputs yield :data:`UNKNOWN_LOC`, one yields itself.
        """
        flat: list[Location] = []
        seen: set[Location] = set()
        for loc in locations:
            parts = loc.locations if isinstance(loc, FusedLoc) else (loc,)
            for part in parts:
                if part.is_unknown or part in seen:
                    continue
                seen.add(part)
                flat.append(part)
        if not flat:
            return UNKNOWN_LOC
        if len(flat) == 1:
            return flat[0]
        return FusedLoc(flat)

    @staticmethod
    def from_span(span: "Span") -> "FileLineColLoc":
        """The location of a span's start position."""
        start = span.start_position
        return FileLineColLoc(span.source.name, start.line, start.column)


class UnknownLoc(Location):
    """No provenance information.  Use the :data:`UNKNOWN_LOC` singleton."""

    __slots__ = ()

    @property
    def is_unknown(self) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnknownLoc)

    def __hash__(self) -> int:
        return hash(UnknownLoc)

    def __str__(self) -> str:
        return "unknown"

    def __repr__(self) -> str:
        return "UnknownLoc()"


#: The shared "no location" instance every operation starts with.
UNKNOWN_LOC = UnknownLoc()


class FileLineColLoc(Location):
    """A 1-based line/column position in a named source file."""

    __slots__ = ("filename", "line", "col")

    def __init__(self, filename: str, line: int, col: int):
        self.filename = filename
        self.line = line
        self.col = col

    def resolve(self) -> "FileLineColLoc":
        return self

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FileLineColLoc)
            and self.filename == other.filename
            and self.line == other.line
            and self.col == other.col
        )

    def __hash__(self) -> int:
        return hash((FileLineColLoc, self.filename, self.line, self.col))

    def __str__(self) -> str:
        return f"{quote(self.filename)}:{self.line}:{self.col}"

    def __repr__(self) -> str:
        return f"FileLineColLoc({self.filename!r}, {self.line}, {self.col})"


class FusedLoc(Location):
    """Several locations merged into one (rewrite provenance).

    Build through :meth:`Location.fuse`, which flattens and
    deduplicates; the constructor stores its inputs as given.
    """

    __slots__ = ("locations",)

    def __init__(self, locations: Sequence[Location]):
        self.locations: tuple[Location, ...] = tuple(locations)

    def resolve(self) -> "FileLineColLoc | None":
        for loc in self.locations:
            resolved = loc.resolve()
            if resolved is not None:
                return resolved
        return None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FusedLoc) and self.locations == other.locations

    def __hash__(self) -> int:
        return hash((FusedLoc, self.locations))

    def __str__(self) -> str:
        inner = ", ".join(str(loc) for loc in self.locations)
        return f"fused[{inner}]"

    def __repr__(self) -> str:
        return f"FusedLoc({list(self.locations)!r})"


def caller_location(depth: int = 1) -> Location:
    """The location of a Python caller frame (builder provenance).

    ``depth`` counts frames above the caller of this function: the
    default attributes to whoever called the function invoking us.
    """
    import sys

    try:
        frame = sys._getframe(depth + 1)
    except ValueError:
        return UNKNOWN_LOC
    return FileLineColLoc(frame.f_code.co_filename, frame.f_lineno, 1)
