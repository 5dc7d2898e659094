"""Wire-level primitives of the bytecode format.

The encoding is deliberately MLIR-bytecode-shaped: a fixed magic number
and format version, then a sequence of *section frames*.  Every integer
is an unsigned LEB128 varint (signed values are zigzag-folded first),
strings are length-prefixed UTF-8, and doubles travel as their raw
little-endian IEEE-754 bit pattern so floating-point values survive
bit-for-bit (including NaN payloads and signed zeros).

Robustness contract: the :class:`Reader` cursor and the one-pass
readers :func:`varints` and :func:`strings` validate *every* read
against their range and raise :class:`BytecodeError` — a
:class:`~repro.utils.diagnostics.DiagnosticError` — on truncation,
overlong varints, bad UTF-8, or out-of-range counts, naming the byte
offset in the artifact.  Decoders built on top of them therefore never
leak a raw ``IndexError``/``struct.error`` to callers, no matter how
corrupt the input is.
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


#: A :class:`Writer` given a file hands its buffer over once it holds
#: this many bytes, and at the end of each section.
FLUSH_BYTES = 1 << 16


def varint_bytes(value: int) -> bytes:
    """The canonical LEB128 encoding of one unsigned integer."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


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
    return bytes(
        (value >> (7 * index)) & 0x7F | (0x80 if index < width - 1 else 0)
        for index in range(width)
    )


class Writer(bytearray):
    """An append-only byte buffer with varint/string/float emitters.

    Given a binary file it is a buffered stream onto that file:
    :meth:`flush` hands the buffered bytes over (:meth:`varints` and
    :meth:`section` do so on their own), :meth:`tell` counts every byte
    written through the writer, and :meth:`patch` rewrites bytes already
    written, seeking the file when they have left the buffer.
    """

    __slots__ = ("file", "flushed")

    def __init__(self, file=None) -> None:
        super().__init__()
        self.file = file
        self.flushed = 0

    def getvalue(self) -> bytes:
        return bytes(self)

    def tell(self) -> int:
        return self.flushed + len(self)

    def raw(self, data: bytes) -> None:
        self.extend(data)

    def varint(self, value: int) -> None:
        if 0 <= value < 0x80:
            self.append(value)
        else:
            self.extend(varint_bytes(value))

    def varints(self, values) -> None:
        """Append many unsigned varints; flushes past FLUSH_BYTES."""
        append = self.append
        for value in values:
            if value < 0x80:
                append(value)
            elif value < 0x4000:
                append(value & 0x7F | 0x80)
                append(value >> 7)
            else:
                self.extend(varint_bytes(value))
        if len(self) >= FLUSH_BYTES:
            self.flush()

    def signed(self, value: int) -> None:
        self.varint(zigzag(value))

    def string_bytes(self, text: str) -> None:
        data = text.encode("utf-8")
        self.varint(len(data))
        self.extend(data)

    def f64_bits(self, value: float) -> None:
        self.extend(struct.pack("<d", value))

    def section(self, section_id: int, parts) -> None:
        """One section frame holding the concatenation of ``parts``."""
        self.varint(section_id)
        self.varint(sum(map(len, parts)))
        for part in parts:
            self.extend(part)
        self.flush()

    def flush(self) -> None:
        if self.file is not None and self:
            self.file.write(self)
            self.flushed += len(self)
            del self[:]

    def patch(self, position: int, data: bytes) -> None:
        """Overwrite the bytes written at ``position`` (a :meth:`tell`)."""
        offset = position - self.flushed
        if offset >= 0:
            self[offset:offset + len(data)] = data
            return
        end = self.file.tell()
        self.file.seek(end + offset)
        self.file.write(data)
        self.file.seek(end)


def varints(data, start: int, end: int, name: str = "<bytecode>") -> list[int]:
    """Every varint of ``data[start:end]``, decoded in one pass.

    Raises :class:`BytecodeError`, with the offset counted from the start
    of ``data``, for a varint longer than 10 bytes or one the range cuts.
    """
    buf = data[start:end]
    if buf.isascii():
        return list(buf)
    out: list[int] = []
    append = out.append
    value = shift = 0
    for byte in buf:
        if shift:
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                append(value)
                shift = 0
            elif shift == 7 * (_MAX_VARINT_BYTES - 1):
                break
            else:
                shift += 7
        elif byte < 0x80:
            append(byte)
        else:
            value = byte & 0x7F
            shift = 7
    if shift:
        # Re-read varint by varint for the exact error and offset.
        pos = start
        while True:
            pos = varint_at(data, pos, end, name)[1]
    return out


def varint_offset(data, start: int, count: int, end: int) -> int:
    """Where the ``count``-th varint from ``start`` ends (at most ``end``)."""
    pos = start
    while count > 0 and pos < end:
        if data[pos] < 0x80:
            count -= 1
        pos += 1
    return pos


def strings(data, start: int, end: int,
            name: str = "<bytecode>") -> list[str]:
    """The string table in ``data[start:end]``, read in one loop: a
    varint count, then each string as a varint byte length and UTF-8."""
    count, pos = varint_at(data, start, end, name)
    if count > end - pos:
        raise BytecodeError(
            f"at byte {pos}: string count {count} out of range "
            f"(limit {end - pos + 1})", name,
        )
    out: list[str] = []
    append = out.append
    for _ in range(count):
        # A one-byte length inline; anything else (or no byte at all)
        # through varint_at, which also reports truncation.
        length = data[pos] if pos < end else 0x80
        if length < 0x80:
            pos += 1
        else:
            length, pos = varint_at(data, pos, end, name)
        stop = pos + length
        if stop > end:
            raise BytecodeError(
                f"at byte {pos}: truncated input: needed {length} bytes, "
                f"have {end - pos}", name,
            )
        try:
            append(str(data[pos:stop], "utf-8"))
        except UnicodeDecodeError as err:
            raise BytecodeError(
                f"at byte {pos}: invalid UTF-8 in string: {err}", name
            ) from None
        pos = stop
    return out


def varint_at(data, pos: int, end: int, name: str) -> tuple[int, int]:
    """The varint at ``data[pos]``, which must end before ``end``, and
    the position after it."""
    result = shift = 0
    for _ in range(_MAX_VARINT_BYTES):
        if pos >= end:
            raise BytecodeError(
                f"at byte {pos}: truncated input: expected one more byte",
                name,
            )
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7
    raise BytecodeError(
        f"at byte {pos}: varint is longer than {_MAX_VARINT_BYTES} bytes",
        name,
    )


class Reader:
    """A bounds-checked cursor over a bytecode buffer.

    Reads the header, the section frames, the attribute pool and the
    dialects payload; the op stream, the op index, the locations and
    the string table are decoded in one pass each (:func:`varints`,
    :func:`strings`).  Every accessor raises :class:`BytecodeError`
    instead of the raw Python exception the underlying operation would
    produce.
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
        value, self.pos = varint_at(self.data, pos, self.end, self.name)
        return value

    def signed(self) -> int:
        return unzigzag(self.varint())

    def bounded_varint(self, limit: int, what: str) -> int:
        """A varint that must be ``< limit`` (table indices, counts)."""
        value = self.varint()
        if value >= limit:
            raise self.error(f"{what} {value} out of range (limit {limit})")
        return value

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
