"""Differential tests pinning the lazy reader to the eager decoder.

The contract of :class:`~repro.bytecode.lazy.LazyModuleReader` is that
forcing every handle yields *exactly* the module the eager decoder
builds — same printed IR, same interned attribute identities, same
locations — for every corpus dialect, for streamed artifacts, through a
real mmap, and regardless of forcing order.
"""

from __future__ import annotations

import io
import mmap

import pytest

from repro.builtin import default_context
from repro.builtin.types import IntegerType
from repro.bytecode import (
    LazyModuleReader,
    decode_module,
    encode_module,
    encode_module_stream,
)
from repro.bytecode import lazy
from repro.bytecode.wire import BytecodeError, varints
from repro.corpus import (
    CORPUS_ORDER,
    cmath_source,
    load_hand_corpus,
    synthesize_module,
)
from repro.ir import Block, Operation, Region
from repro.irdl import register_irdl
from repro.irdl.irgen import IRGenerator, seed_values_dialect
from repro.textir.parser import parse_module
from repro.textir.printer import print_op

LOCATED_IR = """
"func.func"() ({
^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>):
  %prod = "cmath.mul"(%p, %q)
      : (!cmath.complex<f32>, !cmath.complex<f32>) -> (!cmath.complex<f32>)
  %len = cmath.norm %prod : f32
  "func.return"(%len) : (f32) -> ()
}) {sym_name = "mag2", function_type = (!cmath.complex<f32>,
    !cmath.complex<f32>) -> f32} : () -> ()
"""


def cmath_context():
    context = default_context()
    register_irdl(context, cmath_source())
    return context


@pytest.fixture(scope="module")
def corpus_ctx():
    context, defs = load_hand_corpus()
    seeds = register_irdl(context, seed_values_dialect())
    return context, {d.name: d for d in defs}, seeds


def assert_lazy_matches_eager(context, data, *, expect_lazy=True):
    eager = decode_module(context, data)
    reader = LazyModuleReader(context, data)
    assert reader.lazy is expect_lazy
    forced = reader.module()
    assert print_op(forced, print_locations=True) == print_op(
        eager, print_locations=True
    )
    return eager, forced


@pytest.mark.parametrize("name", CORPUS_ORDER)
def test_corpus_lazy_matches_eager(name, corpus_ctx):
    context, defs_by_name, seeds = corpus_ctx
    generator = IRGenerator(context, [defs_by_name[name], *seeds], seed=13)
    module = generator.generate_module(6)
    assert_lazy_matches_eager(context, encode_module(module))


def test_locations_survive_lazy_loading():
    context = cmath_context()
    module = parse_module(context, LOCATED_IR, name="mag2.mlir")
    data = encode_module(module)
    eager, forced = assert_lazy_matches_eager(context, data)
    assert "mag2.mlir" in print_op(forced, print_locations=True)


def test_interned_attributes_are_identical():
    context = cmath_context()
    module = parse_module(context, LOCATED_IR)
    reader = LazyModuleReader(context, encode_module(module))
    forced = reader.module()
    for original, copy in zip(
        module.walk(), forced.walk(), strict=True
    ):
        for key, attr in original.attributes.items():
            assert copy.attributes[key] is context.intern(attr)


def test_streamed_artifact_matches_eager_artifact():
    context = cmath_context()
    module = parse_module(context, LOCATED_IR, name="mag2.mlir")
    stream = io.BytesIO()
    written = encode_module_stream(module, stream)
    data = stream.getvalue()
    assert written == len(data)
    # Streamed bytes differ (section order, padded lengths) but decode
    # to the same module, eagerly and lazily.
    eager_from_stream = decode_module(context, data)
    assert print_op(eager_from_stream, print_locations=True) == print_op(
        module, print_locations=True
    )
    assert_lazy_matches_eager(context, data)


def test_mmap_open_from_file(tmp_path):
    context = cmath_context()
    module = parse_module(context, LOCATED_IR)
    path = tmp_path / "mod.irbc"
    with open(path, "wb") as handle:
        encode_module_stream(module, handle)
    with LazyModuleReader.open(context, str(path)) as reader:
        assert reader.lazy
        forced = reader.module()
        assert print_op(forced) == print_op(module)


def test_open_missing_file_raises_bytecode_error(tmp_path):
    with pytest.raises(BytecodeError):
        LazyModuleReader.open(cmath_context(), str(tmp_path / "nope.irbc"))


@pytest.mark.parametrize("corrupt", ["header", "truncated"])
def test_failed_open_closes_the_file_and_its_mapping(tmp_path, monkeypatch,
                                                      corrupt):
    if corrupt == "header":
        data = b"IRBC\x01\x01garbage"
    else:
        stream = io.BytesIO()
        encode_module_stream(synthesize_module(50, seed=1), stream)
        data = stream.getvalue()[:len(stream.getvalue()) // 2]
    path = tmp_path / "bad.irbc"
    path.write_bytes(data)
    opened = []

    def recording(real):
        def wrapper(*args, **kwargs):
            opened.append(real(*args, **kwargs))
            return opened[-1]
        return wrapper

    monkeypatch.setattr(lazy, "open", recording(open), raising=False)
    monkeypatch.setattr(mmap, "mmap", recording(mmap.mmap))
    with pytest.raises(BytecodeError):
        LazyModuleReader.open(default_context(), str(path))
    assert len(opened) == 2  # the file, then its mapping
    assert all(resource.closed for resource in opened)


def test_out_of_order_forcing():
    context = default_context()
    module = synthesize_module(40, seed=9, context=context)
    data = encode_module(module)
    reader = LazyModuleReader(context, data)
    assert len(reader.handles) == 40
    # Force back-to-front; insertion order must still match.
    for handle in reversed(reader.handles):
        handle.force()
    assert print_op(reader.module()) == print_op(module)


def test_partial_forcing_leaves_other_handles_cold():
    context = default_context()
    module = synthesize_module(40, seed=9, context=context)
    reader = LazyModuleReader(context, encode_module(module))
    reader.handles[5].force()
    assert reader.handles[5].materialized
    cold = [h for h in reader.handles if not h.materialized]
    assert len(cold) == 39


def test_handle_names_without_forcing():
    context = default_context()
    module = synthesize_module(25, seed=4, context=context)
    reader = LazyModuleReader(context, encode_module(module))
    expected = [op.name for op in module.regions[0].blocks[0].ops]
    assert [h.name for h in reader.handles] == expected
    assert not any(h.materialized for h in reader.handles)


def test_unindexed_artifact_falls_back_to_eager():
    context = cmath_context()
    module = parse_module(context, LOCATED_IR)
    data = encode_module(module, index=False)
    eager, forced = assert_lazy_matches_eager(
        context, data, expect_lazy=False
    )
    assert print_op(forced) == print_op(module)


def test_index_section_is_skipped_by_old_readers():
    """Eager decoding never reads the index, so indexed artifacts stay
    loadable by readers that predate the section."""
    context = cmath_context()
    module = parse_module(context, LOCATED_IR)
    indexed = encode_module(module, index=True)
    plain = encode_module(module, index=False)
    assert len(indexed) > len(plain)
    assert print_op(decode_module(context, indexed)) == print_op(
        decode_module(context, plain)
    )


def test_closed_reader_refuses_to_force(tmp_path):
    context = default_context()
    module = synthesize_module(10, seed=1, context=context)
    path = tmp_path / "mod.irbc"
    with open(path, "wb") as handle:
        encode_module_stream(module, handle)
    reader = LazyModuleReader.open(context, str(path))
    handle = reader.handles[0]
    reader.close()
    with pytest.raises(BytecodeError):
        handle.force()


def test_self_roundtrip_of_forced_module():
    """Forcing then re-encoding reproduces the original artifact."""
    context = cmath_context()
    module = parse_module(context, LOCATED_IR, name="mag2.mlir")
    data = encode_module(module)
    forced = LazyModuleReader(context, data).module()
    assert encode_module(forced) == data


def many_block_root(blocks: int) -> Operation:
    """A root with two regions of ``blocks`` blocks each: every third
    block is empty, the others hold a use of the block's argument and a
    branch to the next block; the second region's arguments are named."""
    i32 = IntegerType(32)
    root = Operation("test.root")
    for named in (False, True):
        region = Region()
        for index in range(blocks):
            block = Block([i32])
            if named:
                block.args[0].name_hint = f"a{index}"
            region.add_block(block)
        for index, block in enumerate(region.blocks):
            if index % 3 == 1:
                continue
            block.add_op(Operation("test.use", [block.args[0]], [i32]))
            if index + 1 < blocks:
                block.add_op(Operation(
                    "test.br", successors=[region.blocks[index + 1]]
                ))
        root.add_region(region)
    return root


def test_root_with_many_blocks_and_regions_matches_eager():
    context = default_context(allow_unregistered=True)
    data = encode_module(many_block_root(12))
    eager, _ = assert_lazy_matches_eager(context, data)
    reader = LazyModuleReader(context, data)
    assert len(reader.handles) == 2 * (8 * 2 - 1)
    for handle in reversed(reader.handles):
        handle.force()
    assert print_op(reader.module()) == print_op(eager)


def test_open_decodes_each_shell_varint_about_once(monkeypatch):
    """Opening reads the shell between runs only as far as it needs:
    the varints decoded stay within a small multiple of the artifact's
    size however many blocks the root has (re-decoding the rest of the
    shell after every run made open quadratic in the block count)."""
    import repro.bytecode.lazy as lazy

    context = default_context(allow_unregistered=True)
    data = encode_module(many_block_root(2000))
    decoded = []

    def counted(data, start, end, name="<bytecode>"):
        decoded.append(end - start)
        return varints(data, start, end, name)

    monkeypatch.setattr(lazy, "varints", counted)
    reader = LazyModuleReader(context, data)
    assert reader.lazy and len(reader.handles) > 2000
    assert sum(decoded) < 2 * len(data)
