"""Binary encoder: IR modules and IRDL dialect declarations → bytecode.

Layout of an artifact (details in ``docs/serialization.md``)::

    MAGIC "IRBC" | varint format_version | byte kind | section*
    section ::= varint section_id | varint byte_length | payload

A *module* artifact carries three sections — the string table, the
attribute pool, and the op stream.  A *dialects* artifact carries the
string table and the dialect-declaration tree.  Readers skip section ids
they do not recognise, which is what buys forward compatibility.

The attribute pool is the binary mirror of the PR 2 uniquer: every
attribute is interned before pooling, so structurally equal attributes
collapse to one pool entry referenced by index.  Entries are emitted
children-first, which makes the pool a topologically ordered DAG the
decoder can rebuild in a single forward pass.

SSA values are numbered implicitly by a fixed pre-order traversal
(results of an op before its regions; a region's block arguments before
any of its op bodies), so the op stream never spells out value names —
operands are just varint indices into that numbering.
"""

from __future__ import annotations

from typing import Sequence

from repro.builtin.attributes import (
    ArrayAttr,
    DictionaryAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
)
from repro.builtin.types import (
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    Signedness,
    TensorType,
    VectorType,
)
from repro.bytecode.wire import (
    FORMAT_VERSION,
    KIND_DIALECTS,
    KIND_MODULE,
    MAGIC,
    BytecodeError,
    FileWriter,
    Writer,
    padded_varint_bytes,
    varint_bytes,
    varint_len,
)
from repro.ir.attributes import Attribute, DynamicParametrizedAttribute
from repro.ir.location import FileLineColLoc, FusedLoc, Location
from repro.ir.operation import Operation
from repro.ir.params import (
    ArrayParam,
    EnumParam,
    FloatParam,
    IntegerParam,
    LocationParam,
    OpaqueParam,
    ParamValue,
    StringParam,
    TypeIdParam,
)
from repro.ir.uniquer import intern
from repro.ir.value import SSAValue
from repro.irdl import ast
from repro.obs.instrument import OBS

# ---------------------------------------------------------------------------
# Section identifiers (new sections get fresh ids; readers skip unknown ones)
# ---------------------------------------------------------------------------

SECTION_STRINGS = 1
SECTION_ATTRS = 2
SECTION_OPS = 3
SECTION_DIALECTS = 4
#: Optional lint-suppression annotations of a dialects artifact.  Emitted
#: only when some declaration carries a ``Suppress`` directive, so older
#: readers (which skip unknown section ids) stay compatible.
SECTION_SUPPRESSIONS = 5
#: Optional op-location provenance of a module artifact: a pool of
#: locations plus a sparse (op pre-order index → pool ref) mapping.
#: Emitted only when some op carries a known location, so location-free
#: modules stay byte-identical to artifacts from older encoders.
SECTION_LOCATIONS = 6
#: Optional index over the top-level ops of a module artifact: one entry
#: per direct child of the root op, carrying its byte length inside the
#: OPS payload, its SSA-value count, and its subtree op count (offsets
#: are prefix sums; see :func:`_index_payload`).  Lazy readers use it to
#: materialize top-level ops on demand (:mod:`repro.bytecode.lazy`); old
#: readers skip the unknown id.
SECTION_OP_INDEX = 7

# Location pool entry tags (SECTION_LOCATIONS).
LOC_FILE = 1
LOC_FUSED = 2

# Suppression-target kinds (SECTION_SUPPRESSIONS entries).
SUPPRESS_DIALECT = 0
SUPPRESS_TYPE = 1
SUPPRESS_ATTRIBUTE = 2
SUPPRESS_OPERATION = 3

# ---------------------------------------------------------------------------
# Attribute-pool entry tags
# ---------------------------------------------------------------------------

TAG_INTEGER_TYPE = 1
TAG_INDEX_TYPE = 2
TAG_FLOAT_TYPE = 3
TAG_FUNCTION_TYPE = 4
TAG_TENSOR_TYPE = 5
TAG_VECTOR_TYPE = 6
TAG_MEMREF_TYPE = 7
TAG_STRING_ATTR = 8
TAG_INTEGER_ATTR = 9
TAG_FLOAT_ATTR = 10
TAG_UNIT_ATTR = 11
TAG_TYPE_ATTR = 12
TAG_ARRAY_ATTR = 13
TAG_DICTIONARY_ATTR = 14
TAG_SYMBOL_REF_ATTR = 15
TAG_DYNAMIC_ATTR = 16
TAG_INTEGER_PARAM = 17
TAG_FLOAT_PARAM = 18
TAG_STRING_PARAM = 19
TAG_ENUM_PARAM = 20
TAG_ARRAY_PARAM = 21
TAG_LOCATION_PARAM = 22
TAG_TYPEID_PARAM = 23
TAG_OPAQUE_PARAM = 24

SIGNEDNESS_CODE = {
    Signedness.SIGNLESS: 0,
    Signedness.SIGNED: 1,
    Signedness.UNSIGNED: 2,
}

# Constraint-expression tags (dialect section).
EXPR_REF = 1
EXPR_INT_LITERAL = 2
EXPR_STRING_LITERAL = 3
EXPR_LIST = 4

SIGIL_CODE = {None: 0, "!": 1, "#": 2}

VARIADICITY_CODE = {
    ast.Variadicity.SINGLE: 0,
    ast.Variadicity.OPTIONAL: 1,
    ast.Variadicity.VARIADIC: 2,
}


class Pools:
    """The shared string table and attribute pool of one artifact."""

    def __init__(self) -> None:
        self.strings: list[str] = []
        self._string_ids: dict[str, int] = {}
        self.attr_entries: list[bytes] = []
        self._attr_ids: dict[int, int] = {}
        self._param_ids: dict[ParamValue, int] = {}
        # The uniquer holds attributes weakly; pin pooled ones so their
        # ``id`` keys stay valid for the lifetime of this encoding.
        self._pinned: list[Attribute] = []

    def string(self, text: str) -> int:
        index = self._string_ids.get(text)
        if index is None:
            index = self._string_ids[text] = len(self.strings)
            self.strings.append(text)
        return index

    def ref(self, value: object) -> int:
        """Pool index of an attribute or parameter value (children first)."""
        if isinstance(value, Attribute):
            value = intern(value)
            index = self._attr_ids.get(id(value))
            if index is None:
                entry = self._encode_entry(value)
                index = len(self.attr_entries)
                self.attr_entries.append(entry)
                self._attr_ids[id(value)] = index
                self._pinned.append(value)
            return index
        if isinstance(value, ParamValue):
            try:
                index = self._param_ids.get(value)
            except TypeError:  # unhashable payload (opaque params)
                index = None
            if index is None:
                entry = self._encode_entry(value)
                index = len(self.attr_entries)
                self.attr_entries.append(entry)
                try:
                    self._param_ids[value] = index
                except TypeError:
                    pass
            return index
        raise BytecodeError(
            f"cannot encode {type(value).__name__} as an attribute parameter"
        )

    # -- entry encodings -------------------------------------------------

    def _encode_entry(self, value: object) -> bytes:
        w = Writer()
        if isinstance(value, Attribute):
            self._encode_attr(w, value)
        else:
            self._encode_param(w, value)  # type: ignore[arg-type]
        return w.getvalue()

    def _encode_attr(self, w: Writer, attr: Attribute) -> None:
        if isinstance(attr, DynamicParametrizedAttribute):
            from repro.ir.attributes import DynamicTypeAttribute

            w.varint(TAG_DYNAMIC_ATTR)
            w.varint(self.string(attr.attr_name))
            w.varint(1 if isinstance(attr, DynamicTypeAttribute) else 0)
            w.varint(len(attr.parameters))
            for param in attr.parameters:
                w.varint(self.ref(param))
        elif isinstance(attr, IntegerType):
            w.varint(TAG_INTEGER_TYPE)
            w.varint(attr.bitwidth)
            w.varint(SIGNEDNESS_CODE[attr.signedness])
        elif isinstance(attr, IndexType):
            w.varint(TAG_INDEX_TYPE)
        elif isinstance(attr, FloatType):
            w.varint(TAG_FLOAT_TYPE)
            w.varint(attr.bitwidth)
        elif isinstance(attr, FunctionType):
            inputs = [self.ref(t) for t in attr.inputs]
            results = [self.ref(t) for t in attr.result_types]
            w.varint(TAG_FUNCTION_TYPE)
            w.varint(len(inputs))
            for ref in inputs:
                w.varint(ref)
            w.varint(len(results))
            for ref in results:
                w.varint(ref)
        elif isinstance(attr, (TensorType, VectorType, MemRefType)):
            tag = {
                TensorType: TAG_TENSOR_TYPE,
                VectorType: TAG_VECTOR_TYPE,
                MemRefType: TAG_MEMREF_TYPE,
            }[type(attr)]
            element = self.ref(attr.element_type)
            w.varint(tag)
            w.varint(attr.rank)
            for dim in attr.shape:
                w.signed(dim)
            w.varint(element)
        elif isinstance(attr, StringAttr):
            w.varint(TAG_STRING_ATTR)
            w.varint(self.string(attr.data))
        elif isinstance(attr, IntegerAttr):
            type_ref = self.ref(attr.type)
            w.varint(TAG_INTEGER_ATTR)
            w.signed(attr.value)
            w.varint(type_ref)
        elif isinstance(attr, FloatAttr):
            type_ref = self.ref(attr.type)
            w.varint(TAG_FLOAT_ATTR)
            w.f64_bits(attr.value)
            w.varint(type_ref)
        elif isinstance(attr, UnitAttr):
            w.varint(TAG_UNIT_ATTR)
        elif isinstance(attr, TypeAttr):
            wrapped = self.ref(attr.type)
            w.varint(TAG_TYPE_ATTR)
            w.varint(wrapped)
        elif isinstance(attr, ArrayAttr):
            refs = [self.ref(e) for e in attr.elements]
            w.varint(TAG_ARRAY_ATTR)
            w.varint(len(refs))
            for ref in refs:
                w.varint(ref)
        elif isinstance(attr, DictionaryAttr):
            entries = [
                (self.string(key), self.ref(value))
                for key, value in attr.parameters
            ]
            w.varint(TAG_DICTIONARY_ATTR)
            w.varint(len(entries))
            for key_ref, value_ref in entries:
                w.varint(key_ref)
                w.varint(value_ref)
        elif isinstance(attr, SymbolRefAttr):
            w.varint(TAG_SYMBOL_REF_ATTR)
            w.varint(self.string(attr.data))
        else:
            raise BytecodeError(
                f"cannot encode attribute class "
                f"{type(attr).__module__}.{type(attr).__qualname__}; "
                "only builtin and IRDL-defined attributes have a "
                "bytecode encoding"
            )

    def _encode_param(self, w: Writer, param: ParamValue) -> None:
        if isinstance(param, IntegerParam):
            w.varint(TAG_INTEGER_PARAM)
            w.signed(param.value)
            w.varint(param.bitwidth)
            w.varint(1 if param.signed else 0)
        elif isinstance(param, FloatParam):
            w.varint(TAG_FLOAT_PARAM)
            w.f64_bits(param.value)
            w.varint(param.bitwidth)
        elif isinstance(param, StringParam):
            w.varint(TAG_STRING_PARAM)
            w.varint(self.string(param.value))
        elif isinstance(param, EnumParam):
            w.varint(TAG_ENUM_PARAM)
            w.varint(self.string(param.enum_name))
            w.varint(self.string(param.constructor))
        elif isinstance(param, ArrayParam):
            refs = [self.ref(e) for e in param.elements]
            w.varint(TAG_ARRAY_PARAM)
            w.varint(len(refs))
            for ref in refs:
                w.varint(ref)
        elif isinstance(param, LocationParam):
            w.varint(TAG_LOCATION_PARAM)
            w.varint(self.string(param.filename))
            w.varint(param.line)
            w.varint(param.column)
        elif isinstance(param, TypeIdParam):
            w.varint(TAG_TYPEID_PARAM)
            w.varint(self.string(param.qualified_name))
        elif isinstance(param, OpaqueParam):
            if not isinstance(param.value, str):
                raise BytecodeError(
                    f"cannot encode opaque parameter of {param.class_name} "
                    f"holding a non-string {type(param.value).__name__}"
                )
            w.varint(TAG_OPAQUE_PARAM)
            w.varint(self.string(param.class_name))
            w.varint(self.string(param.value))
        else:
            raise BytecodeError(
                f"cannot encode parameter class {type(param).__qualname__}"
            )


# ---------------------------------------------------------------------------
# Sections and artifact assembly
# ---------------------------------------------------------------------------


def _strings_payload(pools: Pools) -> bytes:
    w = Writer()
    w.varint(len(pools.strings))
    for text in pools.strings:
        w.string_bytes(text)
    return w.getvalue()


def _attrs_payload(pools: Pools) -> bytes:
    w = Writer()
    w.varint(len(pools.attr_entries))
    for entry in pools.attr_entries:
        w.raw(entry)
    return w.getvalue()


def _assemble(kind: int, sections: Sequence[tuple[int, bytes]]) -> bytes:
    w = Writer()
    w.raw(MAGIC)
    w.varint(FORMAT_VERSION)
    w.varint(kind)
    for section_id, payload in sections:
        w.varint(section_id)
        w.varint(len(payload))
        w.raw(payload)
    return w.getvalue()


# ---------------------------------------------------------------------------
# Module encoding
# ---------------------------------------------------------------------------


def _number_values(root: Operation) -> dict[SSAValue, int]:
    """Assign pre-order indices: op results, then per-region block args
    (all blocks first), then op bodies — exactly the decoder's order."""
    table: dict[SSAValue, int] = {}

    def visit(op: Operation) -> None:
        for result in op.results:
            table[result] = len(table)
        for region in op.regions:
            for block in region.blocks:
                for arg in block.args:
                    table[arg] = len(table)
            for block in region.blocks:
                for inner in block.ops:
                    visit(inner)

    visit(root)
    return table


def _write_name_hint(w: Writer, pools: Pools, value: SSAValue) -> None:
    """An optional SSA name hint, so ``%c`` survives the round-trip."""
    if value.name_hint is None:
        w.varint(0)
    else:
        w.varint(1)
        w.varint(pools.string(value.name_hint))


def _write_op(
    w,
    op: Operation,
    pools: Pools,
    values: dict[SSAValue, int],
    block_ids: dict[int, int],
    record: list[tuple[int, int]] | None = None,
) -> int:
    """Emit one op (and its regions) onto ``w``; returns the number of
    ops written, nested ones included.

    ``w`` is a :class:`Writer` or :class:`~repro.bytecode.wire.FileWriter`
    positioned at the start of the OPS payload.  With ``record`` set —
    only ever for the root op — each directly nested op's
    ``(byte_offset, byte_length)`` span within the payload is appended
    to it, in emission order, for the op-index section.
    """
    written = 1
    w.varint(pools.string(op.name))
    w.varint(len(op.operands))
    for operand in op.operands:
        index = values.get(operand)
        if index is None:
            raise BytecodeError(
                f"operand of {op.name} is defined outside the module "
                "being encoded"
            )
        w.varint(index)
        w.varint(pools.ref(operand.type))
    w.varint(len(op.results))
    for result in op.results:
        w.varint(pools.ref(result.type))
        _write_name_hint(w, pools, result)
    w.varint(len(op.attributes))
    for name, attr in op.attributes.items():
        w.varint(pools.string(name))
        w.varint(pools.ref(attr))
    w.varint(len(op.successors))
    for successor in op.successors:
        block_index = block_ids.get(id(successor))
        if block_index is None:
            raise BytecodeError(
                f"successor of {op.name} is not a block of the "
                "enclosing region"
            )
        w.varint(block_index)
    w.varint(len(op.regions))
    for region in op.regions:
        w.varint(len(region.blocks))
        for block in region.blocks:
            w.varint(len(block.args))
            for arg in block.args:
                w.varint(pools.ref(arg.type))
                _write_name_hint(w, pools, arg)
        inner_ids = {id(b): i for i, b in enumerate(region.blocks)}
        for block in region.blocks:
            w.varint(len(block.ops))
            for inner in block.ops:
                if record is None:
                    written += _write_op(w, inner, pools, values, inner_ids)
                else:
                    start = len(w)
                    written += _write_op(w, inner, pools, values, inner_ids)
                    record.append((start, len(w) - start))
    return written


def _locations_payload(root: Operation, pools: Pools) -> bytes | None:
    """The optional location section of a module artifact.

    A pool of location entries (fused entries reference earlier pool
    slots, so the pool is acyclic like the attribute pool) followed by a
    sparse mapping from op pre-order index — the order :func:`_write_op`
    emits ops, which is ``Operation.walk()`` — to a pool slot.  Returns
    ``None`` when every op's location is unknown."""
    pool_entries: list[bytes] = []
    pool_ids: dict[Location, int] = {}

    def pool_ref(loc: Location) -> int:
        index = pool_ids.get(loc)
        if index is not None:
            return index
        w = Writer()
        if isinstance(loc, FileLineColLoc):
            w.varint(LOC_FILE)
            w.varint(pools.string(loc.filename))
            w.varint(loc.line)
            w.varint(loc.col)
        elif isinstance(loc, FusedLoc):
            refs = [pool_ref(part) for part in loc.locations]
            w.varint(LOC_FUSED)
            w.varint(len(refs))
            for ref in refs:
                w.varint(ref)
        else:
            raise BytecodeError(
                f"cannot encode location class {type(loc).__qualname__}"
            )
        index = len(pool_entries)
        pool_entries.append(w.getvalue())
        pool_ids[loc] = index
        return index

    mapping: list[tuple[int, int]] = []
    for op_index, op in enumerate(root.walk()):
        location = op.location
        if location.is_unknown:
            continue
        mapping.append((op_index, pool_ref(location)))
    if not mapping:
        return None
    w = Writer()
    w.varint(len(pool_entries))
    for entry in pool_entries:
        w.raw(entry)
    w.varint(len(mapping))
    for op_index, ref in mapping:
        w.varint(op_index)
        w.varint(ref)
    return w.getvalue()


def _subtree_counts(op: Operation) -> tuple[int, int]:
    """``(value_count, op_count)`` of one op's subtree.

    The value count follows :func:`_number_values`' pre-order exactly
    (results, then per region all block args, then op bodies), so each
    subtree owns one contiguous range of the module's value numbering.
    """
    value_count = len(op.results)
    op_count = 1
    for region in op.regions:
        for block in region.blocks:
            value_count += len(block.args)
        for block in region.blocks:
            for inner in block.ops:
                inner_values, inner_ops = _subtree_counts(inner)
                value_count += inner_values
                op_count += inner_ops
    return value_count, op_count


def _index_payload(
    root: Operation, spans: list[tuple[int, int]]
) -> bytes:
    """The op-index section: one 3-varint entry per top-level op.

    Each entry is ``(byte_length, value_count, op_count)``.  Byte
    offsets and value starts are deliberately *not* stored: both are
    prefix sums the lazy reader reconstructs while walking the root
    shell (op spans tile each block's run contiguously, value spans
    tile the pre-order numbering), and for a million-op module the
    difference between three mostly-single-byte varints and five is
    most of the open-time parse cost.  ``spans`` holds the byte spans
    :func:`_write_op` recorded while emitting the root op's direct
    children, in the same order the value numbering visits them.
    """
    entries: list[tuple[int, int]] = []
    for region in root.regions:
        for block in region.blocks:
            for inner in block.ops:
                entries.append(_subtree_counts(inner))
    if len(entries) != len(spans):
        raise BytecodeError(
            f"op-index mismatch: {len(spans)} byte spans recorded for "
            f"{len(entries)} top-level ops"
        )
    w = Writer()
    w.varint(len(entries))
    for (_offset, length), (value_count, op_count) in zip(spans, entries):
        w.varint(length)
        w.varint(value_count)
        w.varint(op_count)
    return w.getvalue()


def _encode_module(root: Operation, index: bool = True) -> tuple[bytes, int]:
    """The artifact, and the number of ops it holds."""
    pools = Pools()
    values = _number_values(root)
    ops = Writer()
    ops.varint(len(values))
    spans: list[tuple[int, int]] | None = [] if index else None
    op_count = _write_op(ops, root, pools, values, {}, record=spans)
    locations = _locations_payload(root, pools)
    sections = [
        (SECTION_STRINGS, _strings_payload(pools)),
        (SECTION_ATTRS, _attrs_payload(pools)),
        (SECTION_OPS, ops.getvalue()),
    ]
    if spans is not None:
        sections.append((SECTION_OP_INDEX, _index_payload(root, spans)))
    if locations is not None:
        sections.append((SECTION_LOCATIONS, locations))
    return _assemble(KIND_MODULE, sections), op_count


def encode_module(root: Operation, *, index: bool = True) -> bytes:
    """Serialize an operation (usually a module) to bytecode.

    With ``index`` (the default) the artifact carries the op-index
    section that enables lazy loading; ``index=False`` reproduces the
    pre-index layout old writers emitted.
    """
    if not OBS.active:
        return _encode_module(root, index)[0]
    import time

    start = time.perf_counter()
    with OBS.tracer.span("bytecode.encode", category="bytecode"):
        data, op_count = _encode_module(root, index)
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter("bytecode.encode.modules").inc()
        metrics.counter("bytecode.encode.ops").inc(op_count)
        metrics.histogram("bytecode.encode.module_bytes").observe(len(data))
        metrics.timer("bytecode.encode.time").record(
            time.perf_counter() - start
        )
    return data


# ---------------------------------------------------------------------------
# Streaming module encoding
# ---------------------------------------------------------------------------


def _stream_section(fileobj, section_id: int, payload_len: int) -> None:
    """Emit one section frame header directly to the file."""
    fileobj.write(varint_bytes(section_id))
    fileobj.write(varint_bytes(payload_len))


def _encode_module_stream(root: Operation, fileobj,
                          index: bool) -> tuple[int, int]:
    """The number of bytes written, and of ops written."""
    if not fileobj.seekable():
        raise BytecodeError(
            "streaming encoding needs a seekable file (the OPS section "
            "length is patched in after the payload); use encode_module "
            "for pipes"
        )
    base = fileobj.tell()
    header = Writer()
    header.raw(MAGIC)
    header.varint(FORMAT_VERSION)
    header.varint(KIND_MODULE)
    fileobj.write(header.getvalue())

    # The OPS section is streamed op by op behind a reserved fixed-width
    # length slot: the attribute pool and string table fill up as ops are
    # written, and the payload never exists as one in-memory blob.
    pools = Pools()
    values = _number_values(root)
    fileobj.write(varint_bytes(SECTION_OPS))
    length_pos = fileobj.tell()
    fileobj.write(padded_varint_bytes(0))
    ops = FileWriter(fileobj)
    ops.varint(len(values))
    spans: list[tuple[int, int]] | None = [] if index else None
    op_count = _write_op(ops, root, pools, values, {}, record=spans)
    end = fileobj.tell()
    fileobj.seek(length_pos)
    fileobj.write(padded_varint_bytes(len(ops)))
    fileobj.seek(end)

    # Locations may intern new strings, so build that payload before the
    # string table is frozen.
    locations = _locations_payload(root, pools)

    if spans is not None:
        payload = _index_payload(root, spans)
        _stream_section(fileobj, SECTION_OP_INDEX, len(payload))
        fileobj.write(payload)

    # Strings and attributes stream entry by entry behind exact lengths,
    # so neither section payload is ever concatenated in memory.
    strings_len = varint_len(len(pools.strings))
    encoded_lengths = [len(text.encode("utf-8")) for text in pools.strings]
    for length in encoded_lengths:
        strings_len += varint_len(length) + length
    _stream_section(fileobj, SECTION_STRINGS, strings_len)
    strings_writer = FileWriter(fileobj)
    strings_writer.varint(len(pools.strings))
    for text in pools.strings:
        strings_writer.string_bytes(text)
    if len(strings_writer) != strings_len:
        raise BytecodeError("string section length accounting is broken")

    attrs_len = varint_len(len(pools.attr_entries))
    attrs_len += sum(len(entry) for entry in pools.attr_entries)
    _stream_section(fileobj, SECTION_ATTRS, attrs_len)
    fileobj.write(varint_bytes(len(pools.attr_entries)))
    for entry in pools.attr_entries:
        fileobj.write(entry)

    if locations is not None:
        _stream_section(fileobj, SECTION_LOCATIONS, len(locations))
        fileobj.write(locations)
    return fileobj.tell() - base, op_count


def encode_module_stream(root: Operation, fileobj, *, index: bool = True) -> int:
    """Serialize a module to a seekable binary file, section by section.

    Functionally equivalent to ``fileobj.write(encode_module(root))``
    but the op stream goes straight to the file — the encoder never
    holds the OPS payload, the string table blob, or a second copy of
    the attribute pool in memory, so modules larger than memory encode
    in bounded space.  Returns the number of bytes written.  The OPS
    section length travels as a padded (non-canonical) varint that is
    patched after the payload, which is why the file must be seekable.
    """
    if not OBS.active:
        return _encode_module_stream(root, fileobj, index)[0]
    import time

    start = time.perf_counter()
    with OBS.tracer.span("bytecode.encode_stream", category="bytecode"):
        written, op_count = _encode_module_stream(root, fileobj, index)
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter("bytecode.encode.modules").inc()
        metrics.counter("bytecode.encode.streamed").inc()
        metrics.counter("bytecode.encode.ops").inc(op_count)
        metrics.histogram("bytecode.encode.module_bytes").observe(written)
        metrics.timer("bytecode.encode.time").record(
            time.perf_counter() - start
        )
    return written


# ---------------------------------------------------------------------------
# Dialect encoding
# ---------------------------------------------------------------------------


def _write_optional_string(w: Writer, pools: Pools, text: str | None) -> None:
    if text is None:
        w.varint(0)
    else:
        w.varint(1)
        w.varint(pools.string(text))


def _write_expr(w: Writer, pools: Pools, expr: ast.ConstraintExpr) -> None:
    if isinstance(expr, ast.RefExpr):
        w.varint(EXPR_REF)
        w.varint(SIGIL_CODE[expr.sigil])
        w.varint(pools.string(expr.name))
        if expr.params is None:
            w.varint(0)
        else:
            w.varint(1)
            w.varint(len(expr.params))
            for param in expr.params:
                _write_expr(w, pools, param)
    elif isinstance(expr, ast.IntLiteralExpr):
        w.varint(EXPR_INT_LITERAL)
        w.signed(expr.value)
        _write_optional_string(w, pools, expr.type_name)
    elif isinstance(expr, ast.StringLiteralExpr):
        w.varint(EXPR_STRING_LITERAL)
        w.varint(pools.string(expr.value))
    elif isinstance(expr, ast.ListExpr):
        w.varint(EXPR_LIST)
        w.varint(len(expr.elements))
        for element in expr.elements:
            _write_expr(w, pools, element)
    else:
        raise BytecodeError(
            f"cannot encode constraint expression {type(expr).__qualname__}"
        )


def _write_param_decl(w: Writer, pools: Pools, decl: ast.ParamDecl) -> None:
    w.varint(pools.string(decl.name))
    _write_expr(w, pools, decl.constraint)


def _write_arg_decl(w: Writer, pools: Pools, decl: ast.ArgDecl) -> None:
    w.varint(pools.string(decl.name))
    _write_expr(w, pools, decl.constraint)
    w.varint(VARIADICITY_CODE[decl.variadicity])


def _write_string_list(w: Writer, pools: Pools, items: Sequence[str]) -> None:
    w.varint(len(items))
    for item in items:
        w.varint(pools.string(item))


def _write_type_decl(w: Writer, pools: Pools, decl: ast.TypeDecl) -> None:
    w.varint(pools.string(decl.name))
    w.varint(1 if decl.is_type else 0)
    w.varint(len(decl.parameters))
    for param in decl.parameters:
        _write_param_decl(w, pools, param)
    w.varint(pools.string(decl.summary))
    _write_optional_string(w, pools, decl.format)
    _write_string_list(w, pools, decl.py_constraints)


def _write_operation_decl(
    w: Writer, pools: Pools, decl: ast.OperationDecl
) -> None:
    w.varint(pools.string(decl.name))
    w.varint(len(decl.constraint_vars))
    for var in decl.constraint_vars:
        w.varint(pools.string(var.name))
        w.varint(SIGIL_CODE[var.sigil])
        _write_expr(w, pools, var.constraint)
    for args in (decl.operands, decl.results, decl.attributes):
        w.varint(len(args))
        for arg in args:
            _write_arg_decl(w, pools, arg)
    w.varint(len(decl.regions))
    for region in decl.regions:
        w.varint(pools.string(region.name))
        w.varint(len(region.arguments))
        for arg in region.arguments:
            _write_arg_decl(w, pools, arg)
        _write_optional_string(w, pools, region.terminator)
    if decl.successors is None:
        w.varint(0)
    else:
        w.varint(1)
        _write_string_list(w, pools, decl.successors)
    _write_optional_string(w, pools, decl.format)
    w.varint(pools.string(decl.summary))
    _write_string_list(w, pools, decl.py_constraints)


def _write_dialect(w: Writer, pools: Pools, decl: ast.DialectDecl) -> None:
    w.varint(pools.string(decl.name))
    w.varint(len(decl.types))
    for type_decl in decl.types:
        _write_type_decl(w, pools, type_decl)
    w.varint(len(decl.attributes))
    for attr_decl in decl.attributes:
        _write_type_decl(w, pools, attr_decl)
    w.varint(len(decl.operations))
    for op_decl in decl.operations:
        _write_operation_decl(w, pools, op_decl)
    w.varint(len(decl.aliases))
    for alias in decl.aliases:
        w.varint(pools.string(alias.name))
        w.varint(SIGIL_CODE[alias.sigil])
        _write_string_list(w, pools, alias.type_params)
        _write_expr(w, pools, alias.body)
    w.varint(len(decl.enums))
    for enum in decl.enums:
        w.varint(pools.string(enum.name))
        _write_string_list(w, pools, enum.constructors)
    w.varint(len(decl.constraints))
    for constraint in decl.constraints:
        w.varint(pools.string(constraint.name))
        _write_expr(w, pools, constraint.base)
        w.varint(pools.string(constraint.summary))
        _write_optional_string(w, pools, constraint.py_constraint)
    w.varint(len(decl.param_wrappers))
    for wrapper in decl.param_wrappers:
        w.varint(pools.string(wrapper.name))
        w.varint(pools.string(wrapper.summary))
        w.varint(pools.string(wrapper.py_class_name))
        w.varint(pools.string(wrapper.py_parser))
        w.varint(pools.string(wrapper.py_printer))


def _suppression_entries(
    decls: Sequence[ast.DialectDecl],
) -> list[tuple[int, int, int, str]]:
    entries: list[tuple[int, int, int, str]] = []
    for dialect_index, decl in enumerate(decls):
        for code in decl.suppressions:
            entries.append((dialect_index, SUPPRESS_DIALECT, 0, code))
        for kind, items in (
            (SUPPRESS_TYPE, decl.types),
            (SUPPRESS_ATTRIBUTE, decl.attributes),
            (SUPPRESS_OPERATION, decl.operations),
        ):
            for index, item in enumerate(items):
                for code in item.suppressions:
                    entries.append((dialect_index, kind, index, code))
    return entries


def _encode_dialects(decls: Sequence[ast.DialectDecl]) -> bytes:
    pools = Pools()
    body = Writer()
    body.varint(len(decls))
    for decl in decls:
        _write_dialect(body, pools, decl)
    extra: list[tuple[int, bytes]] = []
    entries = _suppression_entries(decls)
    if entries:
        w = Writer()
        w.varint(len(entries))
        for dialect_index, kind, index, code in entries:
            w.varint(dialect_index)
            w.varint(kind)
            w.varint(index)
            w.varint(pools.string(code))
        extra.append((SECTION_SUPPRESSIONS, w.getvalue()))
    return _assemble(
        KIND_DIALECTS,
        [
            (SECTION_STRINGS, _strings_payload(pools)),
            (SECTION_DIALECTS, body.getvalue()),
            *extra,
        ],
    )


def encode_dialects(
    decls: ast.DialectDecl | Sequence[ast.DialectDecl],
) -> bytes:
    """Serialize IRDL dialect declarations (the parsed AST) to bytecode."""
    if isinstance(decls, ast.DialectDecl):
        decls = [decls]
    decls = list(decls)
    if not OBS.active:
        return _encode_dialects(decls)
    import time

    start = time.perf_counter()
    with OBS.tracer.span("bytecode.encode_dialects", category="bytecode"):
        data = _encode_dialects(decls)
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter("bytecode.encode.dialects").inc(len(decls))
        metrics.histogram("bytecode.encode.dialect_bytes").observe(len(data))
        metrics.timer("bytecode.encode.time").record(
            time.perf_counter() - start
        )
    return data
