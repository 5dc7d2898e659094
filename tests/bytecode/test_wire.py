"""The wire-level primitives: varints, zigzag, readers, writers."""

from __future__ import annotations

import io
import math

import pytest

from repro.bytecode import is_bytecode
from repro.bytecode.wire import (
    MAGIC,
    BytecodeError,
    FileWriter,
    Reader,
    Writer,
    unzigzag,
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
        streamed = FileWriter(handle)
        for value in values:
            expected.varint(value)
            streamed.varint(value)
        assert handle.getvalue() == expected.getvalue()
        assert len(streamed) == len(expected)

    def test_negative_value_rejected_by_both_writers(self):
        for writer in (Writer(), FileWriter(io.BytesIO())):
            with pytest.raises(ValueError, match="negative"):
                writer.varint(-1)

    def test_reading_past_the_end_reports_the_offset(self):
        r = Reader(b"\x05")
        assert r.varint() == 5
        with pytest.raises(BytecodeError, match="at byte 1: truncated input"):
            r.varint()
        with pytest.raises(BytecodeError, match="at byte 1: truncated input"):
            r.bounded_varint(16, "count")


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
    @pytest.mark.parametrize("text", ["", "abc", "héllo ✓", "a" * 1000])
    def test_roundtrip(self, text):
        w = Writer()
        w.string_bytes(text)
        assert Reader(w.getvalue()).string_bytes() == text

    def test_truncated_string_rejected(self):
        w = Writer()
        w.string_bytes("hello")
        data = w.getvalue()[:-2]
        with pytest.raises(BytecodeError):
            Reader(data).string_bytes()

    def test_invalid_utf8_rejected(self):
        w = Writer()
        w.varint(2)
        w.raw(b"\xff\xfe")
        with pytest.raises(BytecodeError, match="UTF-8"):
            Reader(w.getvalue()).string_bytes()


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
