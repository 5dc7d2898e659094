"""Mutation fuzzing the decoder: corrupt input may only raise Diagnostics.

The robustness contract of :mod:`repro.bytecode` is that *no* input —
truncated, bit-flipped, or randomly mutated — ever escapes a raw
``IndexError`` / ``struct.error`` / ``UnicodeDecodeError`` from the
decoder.  Every failure must surface as a
:class:`~repro.bytecode.BytecodeError` (a ``DiagnosticError``), and every
success must yield a well-formed result.  All mutations are derived from
fixed seeds so failures reproduce exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.builtin import default_context
from repro.bytecode import (
    BytecodeError,
    decode_dialects,
    decode_module,
    encode_dialects,
    encode_module,
)
from repro.corpus import cmath_source
from repro.irdl import register_irdl
from repro.irdl.parser import parse_irdl
from repro.textir.parser import parse_module

RICH_IR = """
"func.func"() ({
^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>):
  %prod = "cmath.mul"(%p, %q)
      : (!cmath.complex<f32>, !cmath.complex<f32>) -> (!cmath.complex<f32>)
  %len = cmath.norm %prod : f32
  "func.return"(%len) : (f32) -> ()
}) {sym_name = "mag2", function_type = (!cmath.complex<f32>,
    !cmath.complex<f32>) -> f32,
    extras = [1 : i32, "s", {nested = true}, tensor<2xf32>]} : () -> ()
"""


@pytest.fixture(scope="module")
def artifacts():
    context = default_context()
    register_irdl(context, cmath_source())
    module_bytes = encode_module(parse_module(context, RICH_IR))
    dialect_bytes = encode_dialects(parse_irdl(cmath_source(), "cmath.irdl"))
    return context, module_bytes, dialect_bytes


def fresh_context():
    context = default_context()
    register_irdl(context, cmath_source())
    return context


def try_decode_module(data: bytes) -> None:
    """Decode; anything other than clean success or BytecodeError fails."""
    try:
        decode_module(fresh_context(), data)
    except BytecodeError:
        pass


def try_decode_dialects(data: bytes) -> None:
    try:
        decode_dialects(data)
    except BytecodeError:
        pass


class TestTruncation:
    def test_every_module_prefix(self, artifacts):
        _, module_bytes, _ = artifacts
        for length in range(len(module_bytes)):
            try_decode_module(module_bytes[:length])

    def test_every_dialect_prefix(self, artifacts):
        _, _, dialect_bytes = artifacts
        for length in range(len(dialect_bytes)):
            try_decode_dialects(dialect_bytes[:length])


class TestByteFlips:
    def test_single_byte_all_positions_module(self, artifacts):
        _, module_bytes, _ = artifacts
        for pos in range(len(module_bytes)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(module_bytes)
                mutated[pos] ^= flip
                try_decode_module(bytes(mutated))

    def test_single_byte_all_positions_dialects(self, artifacts):
        _, _, dialect_bytes = artifacts
        for pos in range(len(dialect_bytes)):
            mutated = bytearray(dialect_bytes)
            mutated[pos] ^= 0xFF
            try_decode_dialects(bytes(mutated))


class TestRandomMutations:
    @pytest.mark.parametrize("seed", range(8))
    def test_module_mutations(self, artifacts, seed):
        _, module_bytes, _ = artifacts
        rng = random.Random(seed)
        for _ in range(200):
            mutated = bytearray(module_bytes)
            for _ in range(rng.randrange(1, 6)):
                choice = rng.random()
                if choice < 0.5 and mutated:
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
                elif choice < 0.75 and mutated:
                    del mutated[rng.randrange(len(mutated))]
                else:
                    mutated.insert(
                        rng.randrange(len(mutated) + 1), rng.randrange(256)
                    )
            try_decode_module(bytes(mutated))

    @pytest.mark.parametrize("seed", range(4))
    def test_dialect_mutations(self, artifacts, seed):
        _, _, dialect_bytes = artifacts
        rng = random.Random(1000 + seed)
        for _ in range(200):
            mutated = bytearray(dialect_bytes)
            for _ in range(rng.randrange(1, 6)):
                if rng.random() < 0.5 and mutated:
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
                else:
                    mutated.insert(
                        rng.randrange(len(mutated) + 1), rng.randrange(256)
                    )
            try_decode_dialects(bytes(mutated))

    def test_pure_garbage(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(300):
            data = bytes(
                rng.randrange(256) for _ in range(rng.randrange(0, 120))
            )
            try_decode_module(data)
            try_decode_dialects(data)

    def test_garbage_behind_valid_magic(self):
        from repro.bytecode import MAGIC

        rng = random.Random(0xBEEF)
        for _ in range(300):
            data = MAGIC + bytes(
                rng.randrange(256) for _ in range(rng.randrange(0, 80))
            )
            try_decode_module(data)
            try_decode_dialects(data)


def split_sections(data: bytes):
    """Parse an artifact into its header bytes and section frames."""
    from repro.bytecode.wire import Reader

    reader = Reader(data)
    reader.raw(4)  # magic
    reader.varint()  # version
    reader.byte()  # kind
    header = data[: reader.pos]
    sections = []
    while not reader.at_end():
        section_id = reader.varint()
        length = reader.varint()
        sections.append((section_id, reader.raw(length)))
    return header, sections


def join_sections(header: bytes, sections) -> bytes:
    from repro.bytecode.wire import Writer

    writer = Writer()
    writer.raw(header)
    for section_id, payload in sections:
        writer.varint(section_id)
        writer.varint(len(payload))
        writer.raw(payload)
    return writer.getvalue()


def mutate_index(data: bytes, edit) -> bytes:
    """Rebuild ``data`` with its op-index payload passed through ``edit``."""
    from repro.bytecode.encoder import SECTION_OP_INDEX

    header, sections = split_sections(data)
    rebuilt = [
        (sid, edit(payload) if sid == SECTION_OP_INDEX else payload)
        for sid, payload in sections
    ]
    assert any(sid == SECTION_OP_INDEX for sid, _ in sections)
    return join_sections(header, rebuilt)


def try_lazy_open(data: bytes) -> None:
    """Lazy-open and force; only BytecodeError may escape."""
    from repro.bytecode import LazyModuleReader

    try:
        LazyModuleReader(fresh_context(), data).module()
    except BytecodeError:
        pass


class TestLazyIndexCorruption:
    """Corrupt op-index payloads must raise BytecodeError, never escape
    a raw exception — the index is attacker-controlled input like every
    other section."""

    def test_truncated_index_payloads(self, artifacts):
        _, module_bytes, _ = artifacts
        from repro.bytecode import LazyModuleReader

        _, sections = split_sections(module_bytes)
        from repro.bytecode.encoder import SECTION_OP_INDEX

        index_len = next(
            len(p) for sid, p in sections if sid == SECTION_OP_INDEX
        )
        for cut in range(index_len):
            mutated = mutate_index(module_bytes, lambda p: p[:cut])
            with pytest.raises(BytecodeError):
                LazyModuleReader(fresh_context(), mutated).module()

    @staticmethod
    def _edit_field(field: int, delta: int):
        """Return an editor that bumps one field of the first index
        entry (fields per entry: 0 byte_length, 1 value_count,
        2 op_count)."""
        from repro.bytecode.wire import Reader, Writer

        def edit(payload: bytes) -> bytes:
            reader = Reader(payload)
            writer = Writer()
            n = reader.varint()
            writer.varint(n)
            for entry in range(n):
                for pos in range(3):
                    value = reader.varint()
                    if entry == 0 and pos == field:
                        value = max(0, value + delta)
                    writer.varint(value)
            return writer.getvalue()

        return edit

    def test_wrong_byte_length(self, artifacts):
        _, module_bytes, _ = artifacts
        from repro.bytecode import LazyModuleReader

        # Offsets are prefix sums over the lengths, so a wrong length
        # shifts every later span: the forced subtrees cannot reconcile.
        for delta in (1, -1, 1 << 24):
            mutated = mutate_index(module_bytes, self._edit_field(0, delta))
            with pytest.raises(BytecodeError):
                LazyModuleReader(fresh_context(), mutated).module()

    def test_wrong_value_count(self, artifacts):
        _, module_bytes, _ = artifacts
        from repro.bytecode import LazyModuleReader

        for delta in (1, -1, 1 << 24):
            mutated = mutate_index(module_bytes, self._edit_field(1, delta))
            with pytest.raises(BytecodeError):
                LazyModuleReader(fresh_context(), mutated).module()

    def test_wrong_op_count(self, artifacts):
        _, module_bytes, _ = artifacts
        from repro.bytecode import LazyModuleReader

        for delta in (1, -1):
            mutated = mutate_index(module_bytes, self._edit_field(2, delta))
            with pytest.raises(BytecodeError):
                LazyModuleReader(fresh_context(), mutated).module()

    def test_entry_count_mismatch(self, artifacts):
        _, module_bytes, _ = artifacts
        from repro.bytecode import LazyModuleReader
        from repro.bytecode.wire import Reader, Writer

        def change_count(delta):
            def edit(payload: bytes) -> bytes:
                reader = Reader(payload)
                writer = Writer()
                writer.varint(max(0, reader.varint() + delta))
                writer.raw(payload[reader.pos:])
                return writer.getvalue()

            return edit

        for delta in (-1, 1, 1000):
            mutated = mutate_index(module_bytes, change_count(delta))
            with pytest.raises(BytecodeError):
                LazyModuleReader(fresh_context(), mutated).module()

    def test_index_byte_flips_never_escape_raw(self, artifacts):
        _, module_bytes, _ = artifacts
        from repro.bytecode.encoder import SECTION_OP_INDEX

        header, sections = split_sections(module_bytes)
        for i, (sid, payload) in enumerate(sections):
            if sid != SECTION_OP_INDEX:
                continue
            for pos in range(len(payload)):
                for flip in (0x01, 0x80, 0xFF):
                    corrupt = bytearray(payload)
                    corrupt[pos] ^= flip
                    rebuilt = list(sections)
                    rebuilt[i] = (sid, bytes(corrupt))
                    try_lazy_open(join_sections(header, rebuilt))

    def test_lazy_truncation_of_whole_artifact(self, artifacts):
        _, module_bytes, _ = artifacts
        for length in range(len(module_bytes)):
            try_lazy_open(module_bytes[:length])

    def test_unindexed_payloads_still_load_eagerly(self, artifacts):
        """Artifacts from writers that predate the index (and lazy
        readers given them) keep working through the eager path."""
        context, module_bytes, _ = artifacts
        from repro.bytecode import LazyModuleReader
        from repro.bytecode.encoder import SECTION_OP_INDEX
        from repro.textir.printer import print_op

        header, sections = split_sections(module_bytes)
        stripped = join_sections(
            header,
            [(sid, p) for sid, p in sections if sid != SECTION_OP_INDEX],
        )
        eager = decode_module(fresh_context(), stripped)
        reader = LazyModuleReader(fresh_context(), stripped)
        assert reader.lazy is False
        assert print_op(reader.module()) == print_op(eager)


class TestDiagnosticQuality:
    def test_errors_carry_source_name(self, artifacts):
        _, module_bytes, _ = artifacts
        with pytest.raises(BytecodeError) as excinfo:
            decode_module(
                fresh_context(), module_bytes[:10], name="thing.irbc"
            )
        assert "thing.irbc" in str(excinfo.value)

    def test_decoded_modules_verify(self, artifacts):
        """Mutations that still decode must produce verifiable IR."""
        _, module_bytes, _ = artifacts
        rng = random.Random(42)
        survivors = 0
        for _ in range(400):
            mutated = bytearray(module_bytes)
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            try:
                module = decode_module(fresh_context(), bytes(mutated))
            except BytecodeError:
                continue
            survivors += 1
            from repro.textir.printer import print_op

            print_op(module)  # must not crash either
        # Most single-bit flips must be *detected*; a decoder that accepts
        # everything would be vacuous here.
        assert survivors < 400


class TestLazyMatchesEagerOnCorruption:
    """Lazy decoding equals eager decoding on corrupt input too.

    Every single-byte flip of the module artifact, in every section:
    lazy open + force-all may raise only :class:`BytecodeError`, and
    whenever it succeeds, eager decoding of the same bytes succeeds and
    prints the identical module, locations included.  (Eager decoding
    may accept more: it never reads the op index.)
    """

    def test_single_byte_flips(self, artifacts):
        from repro.bytecode import LazyModuleReader
        from repro.textir.printer import print_op

        _, module_bytes, _ = artifacts
        for pos in range(len(module_bytes)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(module_bytes)
                mutated[pos] ^= flip
                data = bytes(mutated)
                try:
                    lazy = LazyModuleReader(fresh_context(), data).module()
                except BytecodeError:
                    continue
                try:
                    eager = decode_module(fresh_context(), data)
                except BytecodeError as err:
                    pytest.fail(
                        f"flip {flip:#04x} at byte {pos}: lazy decoding "
                        f"succeeded, eager decoding failed: {err}"
                    )
                assert print_op(lazy, print_locations=True) == print_op(
                    eager, print_locations=True
                ), f"flip {flip:#04x} at byte {pos}: lazy and eager differ"
