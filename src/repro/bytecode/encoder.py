"""Binary encoder: IR modules and IRDL dialect declarations → bytecode.

Layout of an artifact (details in ``docs/serialization.md``)::

    MAGIC "IRBC" | varint format_version | byte kind | section*
    section ::= varint section_id | varint byte_length | payload

A *module* artifact carries the op stream, the op index (unless left
out), the string table, the attribute pool and, if any op has one, the
locations, in that order, whether written to memory or streamed to a
file.  A *dialects* artifact carries the string table and the
dialect-declaration tree.  Readers skip section ids they do not
recognise, which is what buys forward compatibility.

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
    Writer,
    padded_varint_bytes,
    varint_bytes,
    zigzag,
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
from repro.ir.region import MAX_NESTING, Region
from repro.ir.uniquer import intern
from repro.ir.value import SSAValue
from repro.irdl import ast
from repro.obs.instrument import OBS, observed

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
#: are prefix sums).  Lazy readers use it to
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
        self._string_ids: dict[str, int] = {}
        #: Each string's byte length and UTF-8 bytes, in index order.
        self._string_bytes = Writer()
        self.attr_entries: list[bytes] = []
        # Pool index by ``id`` of every attribute seen: each canonical
        # instance, and each equal non-canonical one, which is interned
        # once and then shares its canonical entry.
        self._attr_ids: dict[int, int] = {}
        self._param_ids: dict[ParamValue, int] = {}
        # The uniquer holds attributes weakly; pin every attribute keyed
        # above so its ``id`` stays valid for the lifetime of this
        # encoding.
        self._pinned: list[Attribute] = []

    def string(self, text: str) -> int:
        index = self._string_ids.get(text)
        if index is None:
            index = self._string_ids[text] = len(self._string_ids)
            self._string_bytes.string_bytes(text)
        return index

    def strings_section(self) -> list[bytes]:
        return [varint_bytes(len(self._string_ids)), self._string_bytes]

    def attrs_section(self) -> list[bytes]:
        return [varint_bytes(len(self.attr_entries)), *self.attr_entries]

    def ref(self, value: object) -> int:
        """Pool index of an attribute or parameter value (children first)."""
        index = self._attr_ids.get(id(value))
        if index is not None:
            return index
        if isinstance(value, Attribute):
            canonical = intern(value)
            index = self._attr_ids.get(id(canonical))
            if index is None:
                entry = self._encode_entry(canonical)
                index = len(self.attr_entries)
                self.attr_entries.append(entry)
                self._attr_ids[id(canonical)] = index
                self._pinned.append(canonical)
            if canonical is not value:
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

            w.varints((TAG_DYNAMIC_ATTR, self.string(attr.attr_name),
                       1 if isinstance(attr, DynamicTypeAttribute) else 0,
                       len(attr.parameters),
                       *[self.ref(param) for param in attr.parameters]))
        elif isinstance(attr, IntegerType):
            w.varints((TAG_INTEGER_TYPE, attr.bitwidth,
                       SIGNEDNESS_CODE[attr.signedness]))
        elif isinstance(attr, IndexType):
            w.varint(TAG_INDEX_TYPE)
        elif isinstance(attr, FloatType):
            w.varints((TAG_FLOAT_TYPE, attr.bitwidth))
        elif isinstance(attr, FunctionType):
            inputs = [self.ref(t) for t in attr.inputs]
            results = [self.ref(t) for t in attr.result_types]
            w.varints((TAG_FUNCTION_TYPE, len(inputs), *inputs,
                       len(results), *results))
        elif isinstance(attr, (TensorType, VectorType, MemRefType)):
            tag = {
                TensorType: TAG_TENSOR_TYPE,
                VectorType: TAG_VECTOR_TYPE,
                MemRefType: TAG_MEMREF_TYPE,
            }[type(attr)]
            element = self.ref(attr.element_type)
            w.varints((tag, attr.rank, *map(zigzag, attr.shape), element))
        elif isinstance(attr, StringAttr):
            w.varints((TAG_STRING_ATTR, self.string(attr.data)))
        elif isinstance(attr, IntegerAttr):
            type_ref = self.ref(attr.type)
            w.varints((TAG_INTEGER_ATTR, zigzag(attr.value), type_ref))
        elif isinstance(attr, FloatAttr):
            type_ref = self.ref(attr.type)
            w.varint(TAG_FLOAT_ATTR)
            w.f64_bits(attr.value)
            w.varint(type_ref)
        elif isinstance(attr, UnitAttr):
            w.varint(TAG_UNIT_ATTR)
        elif isinstance(attr, TypeAttr):
            w.varints((TAG_TYPE_ATTR, self.ref(attr.type)))
        elif isinstance(attr, ArrayAttr):
            refs = [self.ref(e) for e in attr.elements]
            w.varints((TAG_ARRAY_ATTR, len(refs), *refs))
        elif isinstance(attr, DictionaryAttr):
            refs = []
            for key, value in attr.parameters:
                refs += (self.string(key), self.ref(value))
            w.varints((TAG_DICTIONARY_ATTR, len(refs) // 2, *refs))
        elif isinstance(attr, SymbolRefAttr):
            w.varints((TAG_SYMBOL_REF_ATTR, self.string(attr.data)))
        else:
            raise BytecodeError(
                f"cannot encode attribute class "
                f"{type(attr).__module__}.{type(attr).__qualname__}; "
                "only builtin and IRDL-defined attributes have a "
                "bytecode encoding"
            )

    def _encode_param(self, w: Writer, param: ParamValue) -> None:
        if isinstance(param, IntegerParam):
            w.varints((TAG_INTEGER_PARAM, zigzag(param.value),
                       param.bitwidth, 1 if param.signed else 0))
        elif isinstance(param, FloatParam):
            w.varint(TAG_FLOAT_PARAM)
            w.f64_bits(param.value)
            w.varint(param.bitwidth)
        elif isinstance(param, StringParam):
            w.varints((TAG_STRING_PARAM, self.string(param.value)))
        elif isinstance(param, EnumParam):
            w.varints((TAG_ENUM_PARAM, self.string(param.enum_name),
                       self.string(param.constructor)))
        elif isinstance(param, ArrayParam):
            refs = [self.ref(e) for e in param.elements]
            w.varints((TAG_ARRAY_PARAM, len(refs), *refs))
        elif isinstance(param, LocationParam):
            w.varints((TAG_LOCATION_PARAM, self.string(param.filename),
                       param.line, param.column))
        elif isinstance(param, TypeIdParam):
            w.varints((TAG_TYPEID_PARAM, self.string(param.qualified_name)))
        elif isinstance(param, OpaqueParam):
            if not isinstance(param.value, str):
                raise BytecodeError(
                    f"cannot encode opaque parameter of {param.class_name} "
                    f"holding a non-string {type(param.value).__name__}"
                )
            w.varints((TAG_OPAQUE_PARAM, self.string(param.class_name),
                       self.string(param.value)))
        else:
            raise BytecodeError(
                f"cannot encode parameter class {type(param).__qualname__}"
            )


# ---------------------------------------------------------------------------
# Module encoding
# ---------------------------------------------------------------------------


def _number_values(root: Operation) -> dict[SSAValue, int]:
    """Assign pre-order indices: op results, then per region all its
    blocks' arguments, then its ops — exactly the decoder's order.

    Walks with an explicit stack, and raises :class:`BytecodeError` for
    regions nested deeper than ``MAX_NESTING`` (the decoder's limit)
    before anything is written.
    """
    table: dict[SSAValue, int] = {}
    stack: list[tuple[Operation | Region, int]] = [(root, 0)]
    while stack:
        item, depth = stack.pop()
        if isinstance(item, Operation):
            for result in item.results:
                table[result] = len(table)
            if item.regions:
                if depth == MAX_NESTING:
                    raise BytecodeError(
                        f"regions nest deeper than the limit of {MAX_NESTING}"
                    )
                stack += [(region, depth + 1)
                          for region in reversed(item.regions)]
        else:
            for block in item.blocks:
                for arg in block.args:
                    table[arg] = len(table)
            for block in reversed(item.blocks):
                stack += [(op, depth) for op in reversed(block.ops)]
    return table


class _ModuleWriter:
    """Writes a module's op stream, collecting what the sections after
    it need: the op index and the location pool and mapping.

    An op record is its fields as varints; ``ops`` counts the records
    written, so it is the next op's pre-order (``walk()``) index, the
    key of the location mapping.
    """

    def __init__(self, w: Writer, root: Operation, index: bool):
        self.w = w
        self.pools = Pools()
        self.values = _number_values(root)
        self.ops = 0
        self.values_written = 0
        #: One (byte length, value count, op count) entry per top-level op.
        self.index: Writer | None = Writer() if index else None
        self.entries = 0
        #: Pool index of each location; equal locations share one entry,
        #: and ``loc_ids`` finds a location seen before by identity.
        self.loc_refs: dict[Location, int] = {}
        self.loc_ids: dict[int, int] = {}
        #: (op pre-order index, pool index) pairs of located ops.
        self.loc_map = Writer()
        self.mapped = 0

    def op(self, op: Operation, block_ids: dict[int, int],
           top: bool = False) -> None:
        """One op record, then its regions; ``top`` marks the root, whose
        regions' ops get op-index entries."""
        location = self.loc_ids.get(id(op.location))
        if location is None:
            location = self._location(op.location)
        if location >= 0:
            self.loc_map.varints((self.ops, location))
            self.mapped += 1
        self.ops += 1
        string = self.pools.string
        ref = self.pools.ref
        values = self.values
        f = [string(op.name), len(op.operands)]
        for operand in op.operands:
            index = values.get(operand)
            if index is None:
                raise BytecodeError(
                    f"operand of {op.name} is defined outside the module "
                    "being encoded"
                )
            f += (index, ref(operand.type))
        f.append(len(op.results))
        for result in op.results:
            hint = result.name_hint
            f += (ref(result.type), 0) if hint is None else (
                ref(result.type), 1, string(hint))
        self.values_written += len(op.results)
        f.append(len(op.attributes))
        for name, attr in op.attributes.items():
            f += (string(name), ref(attr))
        f.append(len(op.successors))
        for successor in op.successors:
            block_index = block_ids.get(id(successor))
            if block_index is None:
                raise BytecodeError(
                    f"successor of {op.name} is not a block of the "
                    "enclosing region"
                )
            f.append(block_index)
        f.append(len(op.regions))
        self.w.varints(f)
        for region in op.regions:
            self._region(region, top)

    def _region(self, region: Region, top: bool) -> None:
        w = self.w
        string = self.pools.string
        ref = self.pools.ref
        f = [len(region.blocks)]
        for block in region.blocks:
            f.append(len(block.args))
            for arg in block.args:
                hint = arg.name_hint
                f += (ref(arg.type), 0) if hint is None else (
                    ref(arg.type), 1, string(hint))
            self.values_written += len(block.args)
        w.varints(f)
        block_ids = {id(b): i for i, b in enumerate(region.blocks)}
        for block in region.blocks:
            w.varint(len(block.ops))
            for inner in block.ops:
                if not top:
                    self.op(inner, block_ids)
                    continue
                start, values, ops = w.tell(), self.values_written, self.ops
                self.op(inner, block_ids)
                self.index.varints((w.tell() - start,
                                    self.values_written - values,
                                    self.ops - ops))
                self.entries += 1

    def _location(self, location: Location) -> int:
        """Pool index of an op's location, -1 if it is unknown."""
        ref = -1 if location.is_unknown else self._pool(location)
        self.loc_ids[id(location)] = ref
        return ref

    def _pool(self, location: Location) -> int:
        """Pool index of a location; fused locations pool their parts
        first, so entries only reference earlier slots."""
        refs = self.loc_refs
        if isinstance(location, FileLineColLoc):
            return refs.setdefault(location, len(refs))
        if not isinstance(location, FusedLoc):
            raise BytecodeError(
                f"cannot encode location class {type(location).__qualname__}"
            )
        ref = refs.get(location)
        if ref is None:
            for part in location.locations:
                self._pool(part)
            ref = refs[location] = len(refs)
        return ref

    def locations_section(self) -> list[bytes]:
        """The location pool, then the mapping.  Filenames are interned
        here, after every op, so the string table keeps that order."""
        string = self.pools.string
        refs = self.loc_refs
        pool = Writer()
        for location in refs:
            if isinstance(location, FileLineColLoc):
                pool.varints((LOC_FILE, string(location.filename),
                              location.line, location.col))
            else:
                pool.varints((LOC_FUSED, len(location.locations),
                              *[refs[part] for part in location.locations]))
        return [varint_bytes(len(refs)), pool,
                varint_bytes(self.mapped), self.loc_map]


def _write_module(root: Operation, w: Writer, index: bool) -> int:
    """Write a module artifact onto ``w``; returns the ops it holds.

    Sections: the op stream behind a padded length patched once it is
    written, so ops stream straight through ``w``; then the op index,
    the string table and the attribute pool, which the op stream filled;
    then the locations, if any op has one.
    """
    writer = _ModuleWriter(w, root, index)
    w.raw(MAGIC)
    w.varint(FORMAT_VERSION)
    w.varint(KIND_MODULE)
    w.varint(SECTION_OPS)
    slot = w.tell()
    w.raw(padded_varint_bytes(0))
    start = w.tell()
    w.varint(len(writer.values))
    writer.op(root, {}, top=index)
    w.patch(slot, padded_varint_bytes(w.tell() - start))
    w.flush()
    if writer.index is not None:
        w.section(SECTION_OP_INDEX,
                  [varint_bytes(writer.entries), writer.index])
    locations = writer.locations_section() if writer.mapped else None
    w.section(SECTION_STRINGS, writer.pools.strings_section())
    w.section(SECTION_ATTRS, writer.pools.attrs_section())
    if locations is not None:
        w.section(SECTION_LOCATIONS, locations)
    return writer.ops


@observed("bytecode.encode", "bytecode.encode.time", "bytecode")
def encode_module(root: Operation, *, index: bool = True) -> bytes:
    """Serialize an operation (usually a module) to bytecode.

    The bytes are those :func:`encode_module_stream` writes.  With
    ``index`` (the default) the artifact carries the op-index section
    that enables lazy loading; ``index=False`` leaves it out.
    """
    w = Writer()
    op_count = _write_module(root, w, index)
    data = w.getvalue()
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter("bytecode.encode.modules").inc()
        metrics.counter("bytecode.encode.ops").inc(op_count)
        metrics.histogram("bytecode.encode.module_bytes").observe(len(data))
    return data


@observed("bytecode.encode_stream", "bytecode.encode.time", "bytecode")
def encode_module_stream(root: Operation, fileobj, *, index: bool = True) -> int:
    """Serialize a module to a seekable binary file, section by section.

    Writes exactly the bytes of :func:`encode_module`, but through a
    64 KiB buffer: the encoder never holds the op stream, so modules
    larger than memory encode in bounded space.  Returns the number of
    bytes written.  The OPS section length travels as a padded
    (non-canonical) varint that is patched after the payload, which is
    why the file must be seekable.
    """
    if not fileobj.seekable():
        raise BytecodeError(
            "streaming encoding needs a seekable file (the OPS section "
            "length is patched in after the payload); use encode_module "
            "for pipes"
        )
    w = Writer(fileobj)
    op_count = _write_module(root, w, index)
    written = w.tell()
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter("bytecode.encode.modules").inc()
        metrics.counter("bytecode.encode.streamed").inc()
        metrics.counter("bytecode.encode.ops").inc(op_count)
        metrics.histogram("bytecode.encode.module_bytes").observe(written)
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


@observed("bytecode.encode_dialects", "bytecode.encode.time", "bytecode")
def encode_dialects(
    decls: ast.DialectDecl | Sequence[ast.DialectDecl],
) -> bytes:
    """Serialize IRDL dialect declarations (the parsed AST) to bytecode."""
    if isinstance(decls, ast.DialectDecl):
        decls = [decls]
    decls = list(decls)
    pools = Pools()
    body = Writer()
    body.varint(len(decls))
    for decl in decls:
        _write_dialect(body, pools, decl)
    entries = _suppression_entries(decls)
    suppressions = Writer()
    suppressions.varint(len(entries))
    for dialect_index, kind, index, code in entries:
        suppressions.varints((dialect_index, kind, index, pools.string(code)))
    w = Writer()
    w.raw(MAGIC)
    w.varint(FORMAT_VERSION)
    w.varint(KIND_DIALECTS)
    w.section(SECTION_STRINGS, pools.strings_section())
    w.section(SECTION_DIALECTS, [body])
    if entries:
        w.section(SECTION_SUPPRESSIONS, [suppressions])
    data = w.getvalue()
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter("bytecode.encode.dialects").inc(len(decls))
        metrics.histogram("bytecode.encode.dialect_bytes").observe(len(data))
    return data
