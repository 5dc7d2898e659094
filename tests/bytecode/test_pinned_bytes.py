"""Pinned IRBC bytes: the writer's output and old artifacts stay put.

The digests below are SHA-256 sums of ``encode_module_stream`` output,
recorded with an earlier writer, for ``synthesize_module(2000, seed=s)``
as built through the API (no locations) and re-parsed from its printed
text (every op located in ``synth.mlir``).  The two hex artifacts are
``encode_module`` output of the fuzz module (``test_fuzz.RICH_IR``) from
that writer, with and without the op index: whatever layout the current
writer picks, they must keep decoding, eagerly and lazily, to the
module they were written from.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro.builtin import default_context
from repro.bytecode import (
    LazyModuleReader,
    decode_module,
    encode_module_stream,
)
from repro.corpus import cmath_source, synthesize_module
from repro.irdl import register_irdl
from repro.textir.parser import parse_module
from repro.textir.printer import print_op

#: seed -> (bytes, sha256) without locations, then re-parsed with them.
STREAM_DIGESTS = {
    0: ((
        31223, "bb29d15e70ebf6c86406040005be07475d2965466237f298e99c72f6a5faf193"
    ), (
        61932, "395d60cd33579cdf04186e1a6b6f99452840edf02df670bd412e63b92a8b5835"
    )),
    1: ((
        30834, "033822e37786d0d9f26f05d465e57b8d6194c054f86a429486b32bd2fab440c9"
    ), (
        61452, "1b996127171959f660a7f2863c0fa4a2cbb29d62af630ef90a9d82b241ab8290"
    )),
    2: ((
        30921, "16e2f9091322e71410ef209df23dfc2252b53562bfe37f1c983092bd27c33456"
    ), (
        61623, "0c50dfa73f94ed236ee0ced48e6d75080217a3f735d084737d9c593c51b4270d"
    )),
    3: ((
        30911, "bfb7eb433653ccac64d72d7d4515ecdbfc2310b653c5fc09f6761f74e7e6e1a7"
    ), (
        61424, "2dbd6f7bac55ddb55d39af356aa21c802256116cd3f579abceedcf520f5ddecb"
    )),
}

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

#: ``encode_module`` artifacts of RICH_IR, with and without the op index.
OLD_ARTIFACTS = {
    "indexed": bytes.fromhex(
        "495242430100018a01110e6275696c74696e2e6d6f64756c650966756e632e66"
        "756e63066578747261730173066e65737465640d66756e6374696f6e5f747970"
        "650d636d6174682e636f6d706c65780873796d5f6e616d65046d616732017001"
        "7109636d6174682e6d756c0470726f640a636d6174682e6e6f726d036c656e0b"
        "66756e632e72657475726e073c696e7075743e022c0c01200009020008030101"
        "000902030e0104040320050104060d0401020507100601010604020909010608"
        "08033f04000000000001010001010000030208050a070b000101020901090901"
        "0a030b02000901090109010c0000000d0102090106010e0000000f0103060000"
        "000007040135040406200501100101011002010110040b0110060a0110070305"
        "00000101020203030404"
    ),
    "plain": bytes.fromhex(
        "495242430100018a01110e6275696c74696e2e6d6f64756c650966756e632e66"
        "756e63066578747261730173066e65737465640d66756e6374696f6e5f747970"
        "650d636d6174682e636f6d706c65780873796d5f6e616d65046d616732017001"
        "7109636d6174682e6d756c0470726f640a636d6174682e6e6f726d036c656e0b"
        "66756e632e72657475726e073c696e7075743e022c0c01200009020008030101"
        "000902030e0104040320050104060d0401020507100601010604020909010608"
        "08033f04000000000001010001010000030208050a070b000101020901090901"
        "0a030b02000901090109010c0000000d0102090106010e0000000f0103060000"
        "000006200501100101011002010110040b0110060a0110070305000001010202"
        "03030404"
    ),
}


def _stream(module) -> bytes:
    out = io.BytesIO()
    written = encode_module_stream(module, out)
    data = out.getvalue()
    assert written == len(data)
    return data


@pytest.mark.parametrize("seed", sorted(STREAM_DIGESTS))
def test_stream_bytes_are_pinned(seed):
    context = default_context()
    module = synthesize_module(2000, seed=seed, context=context)
    reparsed = parse_module(context, print_op(module), "synth.mlir")
    for data, (size, digest) in zip(
        (_stream(module), _stream(reparsed)), STREAM_DIGESTS[seed]
    ):
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


@pytest.mark.parametrize("kind", sorted(OLD_ARTIFACTS))
def test_old_artifacts_still_decode(kind):
    context = default_context()
    register_irdl(context, cmath_source())
    expected = print_op(parse_module(context, RICH_IR), print_locations=True)
    data = OLD_ARTIFACTS[kind]
    decoded = decode_module(context, data)
    assert print_op(decoded, print_locations=True) == expected
    with LazyModuleReader(context, data) as reader:
        assert reader.lazy is (kind == "indexed")
        assert print_op(reader.module(), print_locations=True) == expected
