"""The wire-level primitives: varints, zigzag, readers, writers."""

from __future__ import annotations

import io
import math

import pytest

from repro.bytecode import is_bytecode
from repro.bytecode.wire import (
    MAGIC,
    BytecodeError,
    Reader,
    Writer,
    strings,
    unzigzag,
    varints,
    zigzag,
)


class TestVarint:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 255, 300, 2**14, 2**32, 2**63, 2**64 - 1]
    )
    def test_roundtrip(self, value):
        w = Writer()
        w.varint(value)
        r = Reader(w.getvalue())
        assert r.varint() == value
        assert r.remaining == 0

    def test_single_byte_for_small_values(self):
        w = Writer()
        w.varint(127)
        assert len(w.getvalue()) == 1

    def test_overlong_encoding_rejected(self):
        r = Reader(b"\x80" * 10 + b"\x01")
        with pytest.raises(BytecodeError):
            r.varint()

    def test_truncated_varint_rejected(self):
        r = Reader(b"\x80\x80")
        with pytest.raises(BytecodeError):
            r.varint()

    def test_file_writer_matches_writer(self):
        values = [*range(300), 2**14, 2**32, 2**64 - 1]
        expected = Writer()
        handle = io.BytesIO()
        streamed = Writer(handle)
        for value in values:
            expected.varint(value)
            streamed.varint(value)
        streamed.flush()
        assert handle.getvalue() == expected.getvalue()
        assert streamed.tell() == len(expected)

    def test_negative_value_rejected_by_both_writers(self):
        for writer in (Writer(), Writer(io.BytesIO())):
            with pytest.raises(ValueError, match="negative"):
                writer.varint(-1)

    def test_reading_past_the_end_reports_the_offset(self):
        r = Reader(b"\x05")
        assert r.varint() == 5
        with pytest.raises(BytecodeError, match="at byte 1: truncated input"):
            r.varint()
        with pytest.raises(BytecodeError, match="at byte 1: truncated input"):
            r.bounded_varint(16, "count")


class TestVarints:
    """``varints``: one pass over a range of the artifact."""

    def test_decodes_every_varint_of_the_range(self):
        values = [0, 1, 127, 128, 300, 2**32, 2**64 - 1, 5]
        w = Writer()
        w.raw(b"\xff\xff")
        for value in values:
            w.varint(value)
        data = w.getvalue() + b"\x80"
        assert varints(data, 2, len(data) - 1) == values

    def test_empty_range(self):
        assert varints(b"\x80\x01", 1, 1) == []

    def test_truncated_last_varint_rejected(self):
        with pytest.raises(BytecodeError, match="truncated input"):
            varints(b"\x05\x80\x80", 0, 3)

    def test_eleven_byte_varint_rejected(self):
        with pytest.raises(BytecodeError, match="longer than 10 bytes"):
            varints(b"\x80" * 10 + b"\x01", 0, 11)

    def test_ten_byte_maximum_accepted(self):
        w = Writer()
        w.varint(2**64 - 1)
        assert len(w) == 10
        assert varints(w.getvalue(), 0, 10) == [2**64 - 1]

    def test_offsets_count_from_the_start_of_the_artifact(self):
        data = b"IRBC\x01\x80\x80"
        with pytest.raises(BytecodeError, match="at byte 7: truncated"):
            varints(data, 4, 7, "a.irbc")
        data = b"IRBC\x01" + b"\x80" * 11
        with pytest.raises(BytecodeError,
                           match="a.irbc: at byte 15: varint is longer"):
            varints(data, 4, len(data), "a.irbc")


class TestSigned:
    @pytest.mark.parametrize("value", [0, -1, 1, -64, 64, -(2**40), 2**40])
    def test_roundtrip(self, value):
        assert unzigzag(zigzag(value)) == value
        w = Writer()
        w.signed(value)
        assert Reader(w.getvalue()).signed() == value

    def test_zigzag_packs_small_magnitudes_small(self):
        assert zigzag(0) == 0
        assert zigzag(-1) == 1
        assert zigzag(1) == 2
        assert zigzag(-2) == 3


class TestStrings:
    """The string table: a count, then length-prefixed UTF-8 strings."""

    @staticmethod
    def table(*texts: str) -> bytes:
        w = Writer()
        w.varint(len(texts))
        for text in texts:
            w.string_bytes(text)
        return w.getvalue()

    @pytest.mark.parametrize("text", ["", "abc", "héllo ✓", "a" * 1000])
    def test_roundtrip(self, text):
        data = self.table("x", text, "y")
        assert strings(data, 0, len(data)) == ["x", text, "y"]

    def test_truncated_string_rejected(self):
        data = self.table("hello")[:-2]
        with pytest.raises(BytecodeError):
            strings(data, 0, len(data))

    def test_length_past_the_end_rejected(self):
        data = b"pad" + self.table("ok", "hello") + b"trailing"
        end = len(data) - len("trailing") - 2
        with pytest.raises(BytecodeError, match=(
            r"at byte 8: truncated input: needed 5 bytes, have 3"
        )):
            strings(data, 3, end)

    def test_invalid_utf8_rejected(self):
        w = Writer()
        w.varint(1)
        w.varint(2)
        w.raw(b"\xff\xfe")
        with pytest.raises(BytecodeError, match="UTF-8"):
            strings(w.getvalue(), 0, len(w))


class TestFloatBits:
    @pytest.mark.parametrize(
        "value", [0.0, -0.0, 1.5, -2.75, math.inf, -math.inf, 1e-310]
    )
    def test_roundtrip_bit_exact(self, value):
        w = Writer()
        w.f64_bits(value)
        out = Reader(w.getvalue()).f64_bits()
        assert math.copysign(1.0, out) == math.copysign(1.0, value)
        assert out == value or (math.isnan(out) and math.isnan(value))

    def test_nan_payload_preserved(self):
        import struct

        payload = 0x7FF8DEADBEEF0001
        value = struct.unpack("<Q", struct.pack("<Q", payload))[0]
        nan = struct.unpack("<d", struct.pack("<Q", payload))[0]
        w = Writer()
        w.f64_bits(nan)
        out = Reader(w.getvalue()).f64_bits()
        assert struct.unpack("<Q", struct.pack("<d", out))[0] == value


class TestReaderBounds:
    def test_bounded_varint_rejects_absurd_counts(self):
        w = Writer()
        w.varint(10**9)
        r = Reader(w.getvalue())
        with pytest.raises(BytecodeError, match="count"):
            r.bounded_varint(16, "count")

    @pytest.mark.parametrize("value", [16, 127, 128])
    def test_bounded_varint_limit_message(self, value):
        w = Writer()
        w.varint(value)
        r = Reader(w.getvalue())
        with pytest.raises(BytecodeError, match=(
            rf"count {value} out of range \(limit 16\)"
        )):
            r.bounded_varint(16, "count")

    def test_subreader_is_bounded(self):
        w = Writer()
        w.raw(b"abcdef")
        r = Reader(w.getvalue())
        sub = r.subreader(3)
        assert sub.raw(3) == b"abc"
        with pytest.raises(BytecodeError):
            sub.raw(1)

    def test_subreader_beyond_end_rejected(self):
        r = Reader(b"ab")
        with pytest.raises(BytecodeError):
            r.subreader(3)


class TestMagic:
    def test_is_bytecode(self):
        assert is_bytecode(MAGIC + b"\x01\x00")
        assert not is_bytecode(b"")
        assert not is_bytecode(b'"builtin.module"() ({}) : () -> ()')
        assert not is_bytecode(MAGIC[:3])
