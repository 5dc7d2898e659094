"""Wire-level primitives of the bytecode format.

The encoding is deliberately MLIR-bytecode-shaped: a fixed magic number
and format version, then a sequence of *section frames*.  Every integer
is an unsigned LEB128 varint (signed values are zigzag-folded first),
strings are length-prefixed UTF-8, and doubles travel as their raw
little-endian IEEE-754 bit pattern so floating-point values survive
bit-for-bit (including NaN payloads and signed zeros).

Robustness contract: a :class:`Reader` validates *every* read against
the remaining buffer and raises :class:`BytecodeError` — a
:class:`~repro.utils.diagnostics.DiagnosticError` — on truncation,
overlong varints, bad UTF-8, or out-of-range indices.  Decoders built on
top of it therefore never leak a raw ``IndexError``/``struct.error`` to
callers, no matter how corrupt the input is.
"""

from __future__ import annotations

import struct

from repro.utils.diagnostics import Diagnostic, DiagnosticError

#: The four magic bytes opening every bytecode artifact.
MAGIC = b"IRBC"

#: Current format version.  Readers accept exactly the versions listed in
#: :data:`SUPPORTED_VERSIONS`; anything else is a clean version-skew error.
FORMAT_VERSION = 1
SUPPORTED_VERSIONS = (1,)

#: Payload kinds carried in the header.
KIND_MODULE = 0
KIND_DIALECTS = 1

#: Varints longer than this many bytes cannot encode a value we ever
#: produce (10 bytes covers 64 bits) and are rejected as corrupt.
_MAX_VARINT_BYTES = 10


class BytecodeError(DiagnosticError):
    """A malformed, truncated, or version-skewed bytecode artifact.

    Subclasses :class:`DiagnosticError` so every decoder failure carries
    a renderable :class:`Diagnostic` and flows through the same error
    channel as textual parse errors.
    """

    def __init__(self, message: str, source_name: str = "<bytecode>"):
        self.source_name = source_name
        super().__init__(Diagnostic(f"{source_name}: {message}"))


def is_bytecode(data: bytes) -> bool:
    """Whether ``data`` starts with the bytecode magic number."""
    return data[: len(MAGIC)] == MAGIC


def zigzag(value: int) -> int:
    """Fold a signed integer into an unsigned one (small |x| stays small)."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    return value >> 1 if value & 1 == 0 else -((value + 1) >> 1)


class Writer:
    """An append-only byte buffer with varint/string/float emitters."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts = bytearray()

    def getvalue(self) -> bytes:
        return bytes(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def raw(self, data: bytes) -> None:
        self._parts += data

    def varint(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"varint cannot encode negative value {value}")
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                self._parts.append(byte | 0x80)
            else:
                self._parts.append(byte)
                return

    def signed(self, value: int) -> None:
        self.varint(zigzag(value))

    def string_bytes(self, text: str) -> None:
        data = text.encode("utf-8")
        self.varint(len(data))
        self.raw(data)

    def f64_bits(self, value: float) -> None:
        self.raw(struct.pack("<d", value))


def varint_bytes(value: int) -> bytes:
    """The canonical LEB128 encoding of one unsigned integer."""
    w = Writer()
    w.varint(value)
    return w.getvalue()


def varint_len(value: int) -> int:
    """The canonical LEB128 length of one unsigned integer."""
    length = 1
    while value >= 0x80:
        value >>= 7
        length += 1
    return length


#: Width of the reserve-then-patch section lengths the streaming writer
#: emits.  5 bytes of forced-continuation LEB128 cover 35 bits, far more
#: than any section we can address.
PADDED_VARINT_WIDTH = 5


def padded_varint_bytes(value: int, width: int = PADDED_VARINT_WIDTH) -> bytes:
    """A fixed-width (non-canonical) LEB128 encoding of ``value``.

    Readers accept padded varints because the decode loop only stops at
    a byte without the continuation bit; forcing continuation bits on
    the leading bytes lets a streaming writer reserve the slot first and
    patch the real value in after the payload is known.
    """
    if value < 0 or value >= 1 << (7 * width):
        raise ValueError(
            f"padded varint of width {width} cannot encode {value}"
        )
    out = bytearray()
    for index in range(width):
        byte = (value >> (7 * index)) & 0x7F
        if index + 1 < width:
            byte |= 0x80
        out.append(byte)
    return bytes(out)


#: The encoding of each single-byte varint, allocated once.
_ONE_BYTE = [bytes((value,)) for value in range(0x80)]


class FileWriter:
    """A :class:`Writer` twin that appends to a binary file object.

    ``len()`` counts the bytes written through it, so offsets recorded
    while streaming one section payload match offsets recorded against
    an in-memory :class:`Writer` holding the same payload.
    """

    __slots__ = ("_file", "_count")

    def __init__(self, fileobj) -> None:
        self._file = fileobj
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def raw(self, data: bytes) -> None:
        self._file.write(data)
        self._count += len(data)

    def varint(self, value: int) -> None:
        if 0 <= value < 0x80:
            self._file.write(_ONE_BYTE[value])
            self._count += 1
            return
        if value < 0:
            raise ValueError(f"varint cannot encode negative value {value}")
        out = bytearray()
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
        self.raw(bytes(out))

    def signed(self, value: int) -> None:
        self.varint(zigzag(value))

    def string_bytes(self, text: str) -> None:
        data = text.encode("utf-8")
        self.varint(len(data))
        self.raw(data)

    def f64_bits(self, value: float) -> None:
        self.raw(struct.pack("<d", value))


class Reader:
    """A bounds-checked cursor over a bytecode buffer.

    Every accessor raises :class:`BytecodeError` instead of the raw
    Python exception the underlying operation would produce.
    """

    __slots__ = ("data", "pos", "end", "name")

    def __init__(self, data: bytes, name: str = "<bytecode>",
                 start: int = 0, end: int | None = None):
        self.data = data
        self.pos = start
        self.end = len(data) if end is None else end
        self.name = name

    def error(self, message: str) -> BytecodeError:
        return BytecodeError(f"at byte {self.pos}: {message}", self.name)

    @property
    def remaining(self) -> int:
        return self.end - self.pos

    def at_end(self) -> bool:
        return self.pos >= self.end

    def raw(self, count: int) -> bytes:
        if count < 0 or count > self.remaining:
            raise self.error(
                f"truncated input: needed {count} bytes, have {self.remaining}"
            )
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def byte(self) -> int:
        if self.at_end():
            raise self.error("truncated input: expected one more byte")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def varint(self) -> int:
        pos = self.pos
        if pos < self.end:
            byte = self.data[pos]
            if byte < 0x80:
                self.pos = pos + 1
                return byte
        result = 0
        shift = 0
        for count in range(_MAX_VARINT_BYTES):
            byte = self.byte()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
        raise self.error("varint is longer than 10 bytes")

    def signed(self) -> int:
        return unzigzag(self.varint())

    def bounded_varint(self, limit: int, what: str) -> int:
        """A varint that must be ``< limit`` (table indices, counts)."""
        pos = self.pos
        if pos < self.end and self.data[pos] < 0x80:
            value = self.data[pos]
            self.pos = pos + 1
        else:
            value = self.varint()
        if value >= limit:
            raise self.error(f"{what} {value} out of range (limit {limit})")
        return value

    def string_bytes(self) -> str:
        length = self.varint()
        data = self.raw(length)
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise self.error(f"invalid UTF-8 in string: {err}") from None

    def f64_bits(self) -> float:
        return struct.unpack("<d", self.raw(8))[0]

    def subreader(self, length: int) -> "Reader":
        """A reader confined to the next ``length`` bytes (one section)."""
        if length > self.remaining:
            raise self.error(
                f"truncated section: declared {length} bytes, "
                f"have {self.remaining}"
            )
        sub = Reader(self.data, self.name, self.pos, self.pos + length)
        self.pos += length
        return sub
