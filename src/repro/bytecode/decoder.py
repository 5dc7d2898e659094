"""Binary decoder: bytecode → IR modules and IRDL dialect declarations.

The decoder is a single forward pass over the section frames written by
:mod:`repro.bytecode.encoder`.  Unknown section ids are skipped (their
length prefix tells us how far), which is the format's forward-compat
mechanism.

Robustness contract: **no input, however corrupt, escapes as anything
but a** :class:`~repro.bytecode.wire.BytecodeError` (a
:class:`~repro.utils.diagnostics.DiagnosticError`).  Three layers
enforce it:

* the header, section frames, attribute pool and dialects payload are
  read through the bounds-checked :class:`wire.Reader`; the op stream
  and the locations are decoded to varints in one pass each, and the op
  reader checks every count and reference it takes from them;
* every table reference is range-checked against the entries decoded so
  far (which also rules out reference cycles: an entry can only point
  backwards);
* the public entry points wrap any *other* exception a hostile byte
  stream manages to provoke (``VerifyError`` from attribute
  verification, arity errors from dataclass constructors, …) into a
  ``BytecodeError`` as a last line of defence.
"""

from __future__ import annotations

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
from repro.bytecode import encoder as enc
from repro.bytecode.wire import (
    KIND_DIALECTS,
    KIND_MODULE,
    MAGIC,
    SUPPORTED_VERSIONS,
    BytecodeError,
    Reader,
    strings,
    varint_offset,
    varints,
)
from repro.ir.attributes import Attribute, TypeAttribute
from repro.ir.block import Block
from repro.ir.context import Context
from repro.ir.location import UNKNOWN_LOC, FileLineColLoc, FusedLoc, Location
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
from repro.ir.value import SSAValue
from repro.irdl import ast
from repro.obs.instrument import OBS, observed
from repro.utils.collector import bulk_construction

_SIGNEDNESS_FROM_CODE = {
    code: signedness for signedness, code in enc.SIGNEDNESS_CODE.items()
}
_SIGIL_FROM_CODE = {code: sigil for sigil, code in enc.SIGIL_CODE.items()}
_VARIADICITY_FROM_CODE = {
    code: var for var, code in enc.VARIADICITY_CODE.items()
}


class malformed_as_bytecode_error:
    """Context manager: any exception but a BytecodeError escaping its
    body is re-raised as a BytecodeError about the artifact ``name``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, err, traceback) -> None:
        if (kind is not None and issubclass(kind, Exception)
                and not issubclass(kind, BytecodeError)):
            raise BytecodeError(
                f"malformed bytecode: {kind.__name__}: {err}", self.name
            ) from err


# ---------------------------------------------------------------------------
# Header and section framing
# ---------------------------------------------------------------------------


def _read_header(reader: Reader, expected_kind: int) -> None:
    magic = reader.raw(len(MAGIC))
    if magic != MAGIC:
        raise BytecodeError(
            f"bad magic number {magic!r} (expected {MAGIC!r})", reader.name
        )
    version = reader.varint()
    if version not in SUPPORTED_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
        raise BytecodeError(
            f"unsupported format version {version} "
            f"(this reader supports: {supported})",
            reader.name,
        )
    kind = reader.varint()
    if kind != expected_kind:
        names = {KIND_MODULE: "an IR module", KIND_DIALECTS: "IRDL dialects"}
        raise BytecodeError(
            f"artifact holds {names.get(kind, f'unknown payload {kind}')}, "
            f"expected {names[expected_kind]}",
            reader.name,
        )


def _read_sections(reader: Reader) -> dict[int, Reader]:
    """Collect known section frames, skipping unrecognised ids."""
    sections: dict[int, Reader] = {}
    known = (
        enc.SECTION_STRINGS,
        enc.SECTION_ATTRS,
        enc.SECTION_OPS,
        enc.SECTION_DIALECTS,
        enc.SECTION_SUPPRESSIONS,
        enc.SECTION_LOCATIONS,
        enc.SECTION_OP_INDEX,
    )
    skipped = 0
    while not reader.at_end():
        section_id = reader.varint()
        length = reader.varint()
        sub = reader.subreader(length)
        if section_id in known:
            if section_id in sections:
                raise BytecodeError(
                    f"duplicate section {section_id}", reader.name
                )
            sections[section_id] = sub
        else:
            skipped += 1
    if skipped and OBS.metrics.enabled:
        OBS.metrics.counter("bytecode.decode.sections_skipped").inc(skipped)
    return sections


def _require_section(
    sections: dict[int, Reader], section_id: int, what: str, name: str
) -> Reader:
    section = sections.get(section_id)
    if section is None:
        raise BytecodeError(f"missing {what} section", name)
    return section


def _read_string_table(sections: dict[int, Reader], name: str) -> list[str]:
    reader = _require_section(sections, enc.SECTION_STRINGS, "string", name)
    return strings(reader.data, reader.pos, reader.end, name)


class _StringTable:
    __slots__ = ("strings",)

    def __init__(self, strings: list[str]):
        self.strings = strings

    def get(self, reader: Reader) -> str:
        index = reader.bounded_varint(len(self.strings), "string reference")
        return self.strings[index]


# ---------------------------------------------------------------------------
# Attribute pool
# ---------------------------------------------------------------------------


class _AttrTable:
    """Decodes the attribute pool in one forward pass.

    References inside an entry are bounded by the number of entries
    decoded *before* it, so the pool is acyclic by construction.  Each
    entry's depth is 1 plus that of its deepest reference; an entry
    deeper than ``MAX_NESTING`` is refused, as the textual parser
    refuses such a value, before anything recurses over it.
    """

    __slots__ = ("entries", "depths", "deepest", "context", "attrs",
                 "types")

    def __init__(self, context: Context):
        self.entries: list[Attribute | ParamValue] = []
        #: Per entry: its nesting depth.
        self.depths: list[int] = []
        #: The deepest entry referenced by the entry being read.
        self.deepest = 0
        self.context = context
        #: Per entry: the attribute, or None for a bare parameter value.
        self.attrs: list[Attribute | None] = []
        #: Per entry: the type, or None for anything else.
        self.types: list[Attribute | None] = []

    def get(self, reader: Reader) -> Attribute | ParamValue:
        index = reader.bounded_varint(len(self.entries), "attribute reference")
        depth = self.depths[index]
        if depth > self.deepest:
            self.deepest = depth
        return self.entries[index]

    def get_attr(self, reader: Reader) -> Attribute:
        value = self.get(reader)
        if not isinstance(value, Attribute):
            raise reader.error(
                "attribute reference resolves to a bare parameter value"
            )
        return value

    def get_type(self, reader: Reader) -> Attribute:
        attr = self.get_attr(reader)
        if not isinstance(attr, TypeAttribute):
            raise reader.error(
                f"type reference resolves to non-type {attr!r}"
            )
        return attr

    def load(self, reader: Reader, strings: _StringTable) -> None:
        count = reader.bounded_varint(reader.remaining + 1, "attribute count")
        for _ in range(count):
            self.entries.append(self._read_entry(reader, strings))
        self.attrs = [entry if isinstance(entry, Attribute) else None
                      for entry in self.entries]
        self.types = [entry if isinstance(entry, TypeAttribute) else None
                      for entry in self.entries]

    def ref_error(self, ref: int, want: str) -> str:
        """Why entry ``ref`` is no ``want`` ("attribute" or "type")."""
        if ref >= len(self.entries):
            return (f"attribute reference {ref} out of range "
                    f"(limit {len(self.entries)})")
        entry = self.entries[ref]
        if not isinstance(entry, Attribute):
            return "attribute reference resolves to a bare parameter value"
        return f"{want} reference resolves to non-{want} {entry!r}"

    def _read_entry(
        self, reader: Reader, strings: _StringTable
    ) -> Attribute | ParamValue:
        tag = reader.varint()
        self.deepest = 0
        value = self._build(tag, reader, strings)
        depth = self.deepest + 1
        if depth > MAX_NESTING:
            raise reader.error(
                f"attributes nest deeper than the limit of {MAX_NESTING}"
            )
        self.depths.append(depth)
        if isinstance(value, Attribute):
            value.verify()
            return self.context.intern(value)
        return value

    def _build(
        self, tag: int, reader: Reader, strings: _StringTable
    ) -> Attribute | ParamValue:
        if tag == enc.TAG_INTEGER_TYPE:
            bitwidth = reader.varint()
            code = reader.varint()
            signedness = _SIGNEDNESS_FROM_CODE.get(code)
            if signedness is None:
                raise reader.error(f"invalid signedness code {code}")
            return IntegerType(bitwidth, signedness)
        if tag == enc.TAG_INDEX_TYPE:
            return IndexType()
        if tag == enc.TAG_FLOAT_TYPE:
            return FloatType(reader.varint())
        if tag == enc.TAG_FUNCTION_TYPE:
            inputs = [
                self.get_type(reader) for _ in range(reader.varint())
            ]
            results = [
                self.get_type(reader) for _ in range(reader.varint())
            ]
            return FunctionType(inputs, results)
        if tag in (enc.TAG_TENSOR_TYPE, enc.TAG_VECTOR_TYPE,
                   enc.TAG_MEMREF_TYPE):
            rank = reader.bounded_varint(reader.remaining + 1, "shape rank")
            shape = [reader.signed() for _ in range(rank)]
            element = self.get_type(reader)
            cls = {
                enc.TAG_TENSOR_TYPE: TensorType,
                enc.TAG_VECTOR_TYPE: VectorType,
                enc.TAG_MEMREF_TYPE: MemRefType,
            }[tag]
            return cls(shape, element)
        if tag == enc.TAG_STRING_ATTR:
            return StringAttr(strings.get(reader))
        if tag == enc.TAG_INTEGER_ATTR:
            value = reader.signed()
            return IntegerAttr(value, self.get_type(reader))
        if tag == enc.TAG_FLOAT_ATTR:
            value = reader.f64_bits()
            return FloatAttr(value, self.get_type(reader))
        if tag == enc.TAG_UNIT_ATTR:
            return UnitAttr()
        if tag == enc.TAG_TYPE_ATTR:
            return TypeAttr(self.get_type(reader))
        if tag == enc.TAG_ARRAY_ATTR:
            count = reader.bounded_varint(
                reader.remaining + 1, "array length"
            )
            return ArrayAttr([self.get_attr(reader) for _ in range(count)])
        if tag == enc.TAG_DICTIONARY_ATTR:
            count = reader.bounded_varint(
                reader.remaining + 1, "dictionary size"
            )
            entries: dict[str, Attribute] = {}
            for _ in range(count):
                key = strings.get(reader)
                entries[key] = self.get_attr(reader)
            return DictionaryAttr(entries)
        if tag == enc.TAG_SYMBOL_REF_ATTR:
            return SymbolRefAttr(strings.get(reader))
        if tag == enc.TAG_DYNAMIC_ATTR:
            qualified_name = strings.get(reader)
            is_type = reader.varint()
            count = reader.bounded_varint(
                reader.remaining + 1, "parameter count"
            )
            params = [self.get(reader) for _ in range(count)]
            binding = self.context.get_type_or_attr_def(qualified_name)
            if binding is None:
                raise reader.error(
                    f"references {qualified_name!r}, which is not "
                    "registered in this context"
                )
            attr = binding.instantiate(params)
            if bool(is_type) != isinstance(attr, TypeAttribute):
                raise reader.error(
                    f"{qualified_name!r} type/attribute kind mismatch"
                )
            return attr
        if tag == enc.TAG_INTEGER_PARAM:
            value = reader.signed()
            bitwidth = reader.varint()
            signed = reader.varint()
            return IntegerParam(value, bitwidth, bool(signed))
        if tag == enc.TAG_FLOAT_PARAM:
            value = reader.f64_bits()
            return FloatParam(value, reader.varint())
        if tag == enc.TAG_STRING_PARAM:
            return StringParam(strings.get(reader))
        if tag == enc.TAG_ENUM_PARAM:
            enum_name = strings.get(reader)
            return EnumParam(enum_name, strings.get(reader))
        if tag == enc.TAG_ARRAY_PARAM:
            count = reader.bounded_varint(
                reader.remaining + 1, "array length"
            )
            return ArrayParam(tuple(self.get(reader) for _ in range(count)))
        if tag == enc.TAG_LOCATION_PARAM:
            filename = strings.get(reader)
            line = reader.varint()
            return LocationParam(filename, line, reader.varint())
        if tag == enc.TAG_TYPEID_PARAM:
            return TypeIdParam(strings.get(reader))
        if tag == enc.TAG_OPAQUE_PARAM:
            class_name = strings.get(reader)
            return OpaqueParam(class_name, strings.get(reader))
        raise reader.error(f"unknown attribute pool tag {tag}")


# ---------------------------------------------------------------------------
# Op stream
# ---------------------------------------------------------------------------


def _error(data, start: int, i: int, end: int, name: str,
           message: str) -> BytecodeError:
    """An error at the byte where varint ``i`` counted from ``start``
    begins."""
    return BytecodeError(
        f"at byte {varint_offset(data, start, i, end)}: {message}", name
    )


class _Locations:
    """The optional location section, read whole before any op is built.

    A pool of entries (fused entries reference earlier slots, so the
    pool is acyclic like the attribute pool) and a sparse mapping from
    op pre-order index — the order ops are created in, which is
    ``walk()`` — to a pool slot.  Both stay varints: a
    :class:`~repro.ir.location.Location` is built only for a slot an op
    asks for, once.
    """

    __slots__ = ("ints", "fail", "strings", "starts", "map", "pairs",
                 "built")

    def __init__(self, section: Reader, strings: list[str]):
        data, start, end, name = (section.data, section.pos, section.end,
                                  section.name)
        ints = self.ints = varints(data, start, end, name)
        self.fail = lambda i, message: _error(data, start, i, end, name,
                                              message)
        self.strings = strings
        #: Per pool slot, the index of its tag in ``ints``.
        self.starts: list[int] = []
        try:
            i = self.pairs = self._read_pool(ints) + 1
            count = ints[i - 1]
        except IndexError:
            raise self.fail(len(ints), "truncated input: the location pool "
                                       "ends inside an entry") from None
        if len(ints) - i < 2 * count:
            raise self.fail(len(ints), f"truncated input: {count} location "
                                       "mappings declared")
        if len(ints) - i > 2 * count:
            at = varint_offset(data, start, i + 2 * count, end)
            raise BytecodeError(
                f"at byte {at}: {end - at} trailing bytes after the last "
                "location", name,
            )
        refs = ints[i + 1::2]
        if refs and max(refs) >= len(self.starts):
            j = next(j for j, ref in enumerate(refs)
                     if ref >= len(self.starts))
            raise self.fail(i + 2 * j + 2, f"location reference {refs[j]} "
                            f"out of range (limit {len(self.starts)})")
        self.map = dict(zip(ints[i::2], refs))
        self.built: list[Location | None] = [None] * len(self.starts)

    def _read_pool(self, ints: list[int]) -> int:
        count = ints[0]
        if count > len(ints) - 1:
            raise self.fail(1, f"location count {count} out of range "
                               f"(limit {len(ints)})")
        i = 1
        for ref in range(count):
            self.starts.append(i)
            tag = ints[i]
            if tag == enc.LOC_FILE:
                if ints[i + 1] >= len(self.strings):
                    raise self.fail(i + 2, f"string reference {ints[i + 1]} "
                                    f"out of range (limit {len(self.strings)})")
                i += 4
            elif tag == enc.LOC_FUSED:
                arity = ints[i + 1]
                i += 2
                if arity > len(ints) - i:
                    raise self.fail(i, f"fused location arity {arity} out of "
                                       f"range (limit {len(ints) - i + 1})")
                parts = ints[i:i + arity]
                if parts and max(parts) >= ref:
                    raise self.fail(i + arity, f"location reference "
                                    f"{max(parts)} out of range (limit {ref})")
                i += arity
            else:
                raise self.fail(i + 1, f"unknown location pool tag {tag}")
        return i

    def check(self, ops: int) -> None:
        """Every mapped op index must name one of the module's ``ops``."""
        if self.map and max(self.map) >= ops:
            j = next(j for j in range(self.pairs, len(self.ints), 2)
                     if self.ints[j] >= ops)
            raise self.fail(j + 1, f"location op index {self.ints[j]} out of "
                                   f"range (limit {ops})")

    def build(self, ref: int) -> Location:
        ints = self.ints
        i = self.starts[ref]
        if ints[i] == enc.LOC_FILE:
            location = FileLineColLoc(self.strings[ints[i + 1]], ints[i + 2],
                                      ints[i + 3])
        else:
            location = FusedLoc([self.built[part] or self.build(part)
                                 for part in ints[i + 2:i + 2 + ints[i + 1]]])
        self.built[ref] = location
        return location


class _Values:
    """The module's SSA values by wire index.

    Every definition lands at an explicit index: eager decoding defines
    the span ``[0, total)`` in order, each lazily forced op the span its
    op-index entry records.  An operand naming a value not defined yet
    (later in the stream — CFG dominance, not lexical order — or in a
    top-level op not forced yet) gets a typed placeholder, replaced via
    ``replace_all_uses_with`` when the definition arrives.
    """

    __slots__ = ("table", "placeholders")

    def __init__(self, ints: list[int], ops: Reader) -> None:
        # Every value costs at least one byte of the op stream (its type
        # reference), so a corrupt total cannot make a large table.
        total = ints[0] if ints else 0
        if total > ops.remaining:
            raise BytecodeError(
                f"at byte {ops.pos}: op stream declares {total} values in "
                f"{ops.remaining} bytes", ops.name,
            )
        self.table: list[SSAValue | None] = [None] * total
        self.placeholders: dict[int, SSAValue] = {}

    def check_resolved(self, name: str) -> None:
        """Once every span is read, no placeholder may remain."""
        if self.placeholders:
            raise BytecodeError(
                "operands reference undefined values "
                f"{sorted(self.placeholders)}", name,
            )


class _OpReader:
    """Builds ops from op records decoded to varints.

    One reader serves eager decoding (the root record, whose regions
    hold every other), lazy forcing (one top-level record per handle)
    and the lazy reader's root shell.  :meth:`read` reads one record and
    its regions from ``ints[i]`` on, defining values at the indices of
    its value span and numbering ops in pre-order from its walk start;
    an op's pre-order index is also the key of its location.
    """

    def __init__(self, context: Context, strings: list[str],
                 attrs: _AttrTable, values: _Values,
                 locations: _Locations | None, data, name: str):
        self.context = context
        self.strings = strings
        self.attrs = attrs
        self.values = values
        self.locations = locations
        self.data = data
        self.name = name
        #: Op name reference -> (name, registered definition).
        self.definitions: dict[int, tuple] = {}
        # Per read: where each run of ``ints`` starts in ``data`` (the
        # lazy shell reads several), the end of the records, the next
        # value index and its limit, and the next op's walk index.
        self.segments: list[tuple[int, int]] = []
        self.end = 0
        self.value = self.value_end = 0
        self.walk = 0

    def read(self, ints: list[int], i: int, start: int, end: int,
             values: tuple[int, int], walk: int, blocks: list[Block],
             depth: int, what: str) -> Operation:
        """The op record at ``ints[i]``, which must be the last; ``ints``
        are the varints of ``data[start:end]``."""
        self.segments = [(0, start)]
        self.end = end
        self.value, self.value_end = values
        self.walk = walk
        try:
            (op,), i = self._ops(ints, i, 1, blocks, depth)
        except IndexError:
            raise self.error(len(ints), "truncated input: an op record "
                                        f"runs past byte {end}") from None
        if i != len(ints):
            at = self.offset(i)
            raise BytecodeError(
                f"at byte {at}: {end - at} trailing bytes after {what}",
                self.name,
            )
        return op

    def offset(self, i: int) -> int:
        """Where ``ints[i]`` starts in ``data``."""
        first, start = next(s for s in reversed(self.segments) if s[0] <= i)
        return varint_offset(self.data, start, i - first, self.end)

    def error(self, i: int, message: str) -> BytecodeError:
        return BytecodeError(f"at byte {self.offset(i)}: {message}",
                             self.name)

    def _count(self, ints: list[int], i: int, what: str) -> int:
        """The count at ``ints[i]``: never more than the varints left."""
        if ints[i] > len(ints) - i - 1:
            raise self._over(ints, i, what)
        return ints[i]

    def _over(self, ints: list[int], i: int, what: str) -> BytecodeError:
        return self.error(i + 1, f"{what} {ints[i]} out of range "
                                 f"(limit {len(ints) - i})")

    def _ops(self, ints: list[int], i: int, count: int,
             blocks: list[Block], depth: int) -> tuple[list[Operation], int]:
        """``count`` op records from ``ints[i]`` on, regions included;
        returns the ops and the index after them."""
        strings = self.strings
        attrs = self.attrs.attrs
        types = self.attrs.types
        table = self.values.table
        definitions = self.definitions
        locations = self.locations
        located = locations.map if locations is not None else {}
        ops = []
        n = len(ints)
        for _ in range(count):
            name, op_def = (definitions.get(ints[i])
                            or self._definition(ints[i], i))
            k = ints[i + 1]
            i += 2
            if k > n - i:
                raise self._over(ints, i - 1, "operand count")
            operands = []
            for _ in range(k):
                index, ref = ints[i], ints[i + 1]
                i += 2
                value_type = types[ref] if ref < len(types) else None
                if value_type is None:
                    raise self.error(i, self.attrs.ref_error(ref, "type"))
                if index >= len(table):
                    raise self.error(i - 1, f"operand value index {index} "
                                            f"out of range (limit {len(table)})")
                value = table[index]
                if value is None or value.type is not value_type:
                    value = self._operand(index, value_type, i)
                operands.append(value)
            if ints[i]:
                result_types, hints, i = self._typed(ints, i, "result count")
            else:
                result_types = hints = ()
                i += 1
            k = ints[i]
            i += 1
            if k > n - i:
                raise self._over(ints, i - 1, "attribute count")
            attributes = {}
            for _ in range(k):
                key, ref = ints[i], ints[i + 1]
                i += 2
                if key >= len(strings):
                    raise self.error(i - 1, f"string reference {key} out of "
                                            f"range (limit {len(strings)})")
                attr = attrs[ref] if ref < len(attrs) else None
                if attr is None:
                    raise self.error(i, self.attrs.ref_error(ref, "attribute"))
                attributes[strings[key]] = attr
            k = ints[i]
            i += 1
            if k > n - i:
                raise self._over(ints, i - 1, "successor count")
            successors = []
            for _ in range(k):
                block_index = ints[i]
                i += 1
                if block_index >= len(blocks):
                    raise self.error(i, f"successor block index {block_index} "
                                        f"out of range (limit {len(blocks)})")
                successors.append(blocks[block_index])
            walk = self.walk
            self.walk = walk + 1
            ref = located.get(walk)
            op = Operation(
                name, operands, result_types, attributes, successors, (),
                op_def, UNKNOWN_LOC if ref is None else (
                    locations.built[ref] or locations.build(ref)),
            )
            if result_types:
                self._define(op.results, hints, i)
            k = ints[i]
            i += 1
            if k:
                if k > n - i:
                    raise self._over(ints, i - 1, "region count")
                for _ in range(k):
                    region, i = self._region(ints, i, depth + 1)
                    op.add_region(region)
                n = len(ints)
            ops.append(op)
        return ops, i

    def _definition(self, ref: int, i: int) -> tuple:
        if ref >= len(self.strings):
            raise self.error(i + 1, f"string reference {ref} out of range "
                                    f"(limit {len(self.strings)})")
        name = self.strings[ref]
        op_def = self.context.get_op_def(name)
        if op_def is None and not self.context.allow_unregistered:
            raise self.error(i + 1, f"operation {name!r} is not registered "
                                    "(known dialects: "
                                    f"{sorted(self.context.dialects)})")
        definition = self.definitions[ref] = (name, op_def)
        return definition

    def _typed(self, ints: list[int], i: int,
               what: str) -> tuple[list, list, int]:
        """A count, then that many (type, name hint) pairs: the results
        of an op or the arguments of a block."""
        types = self.attrs.types
        strings = self.strings
        value_types = []
        hints = []
        count = ints[i]
        i += 1
        if count > len(ints) - i:
            raise self._over(ints, i - 1, what)
        for _ in range(count):
            ref, flag = ints[i], ints[i + 1]
            i += 2
            value_type = types[ref] if ref < len(types) else None
            if value_type is None:
                raise self.error(i - 1, self.attrs.ref_error(ref, "type"))
            value_types.append(value_type)
            if not flag:
                hints.append(None)
                continue
            if flag != 1:
                raise self.error(i, f"invalid name-hint flag {flag}")
            hint = ints[i]
            i += 1
            if hint >= len(strings):
                raise self.error(i, f"string reference {hint} out of range "
                                    f"(limit {len(strings)})")
            hints.append(strings[hint])
        return value_types, hints, i

    def _define(self, new, hints: list, i: int) -> None:
        """Define ``new`` values, with their name hints, at the next
        indices of the span."""
        v = self.value
        if v + len(new) > self.value_end:
            raise self.error(i, "more values defined than declared")
        table = self.values.table
        placeholders = self.values.placeholders
        for value, hint in zip(new, hints):
            value.name_hint = hint
            if table[v] is not None:
                raise self.error(i, f"value {v} defined twice")
            table[v] = value
            placeholder = placeholders.pop(v, None) if placeholders else None
            if placeholder is not None:
                if placeholder.type != value.type:
                    raise self.error(i, (
                        f"value {v} was forward-referenced with type "
                        f"{placeholder.type} but defined with type "
                        f"{value.type}"))
                placeholder.replace_all_uses_with(value)
            v += 1
        self.value = v

    def _operand(self, index: int, value_type: Attribute,
                 i: int) -> SSAValue:
        value = self.values.table[index]
        if value is not None:
            if value.type != value_type:
                raise self.error(i, (
                    f"operand references value {index} as {value_type}, "
                    f"but it has type {value.type}"))
            return value
        placeholders = self.values.placeholders
        placeholder = placeholders.get(index)
        if placeholder is None:
            placeholder = placeholders[index] = SSAValue(value_type)
        elif placeholder.type != value_type:
            raise self.error(i, (
                f"conflicting forward-reference types for value {index}: "
                f"{placeholder.type} vs {value_type}"))
        return placeholder

    def _region(self, ints: list[int], i: int,
                depth: int) -> tuple[Region, int]:
        if depth > MAX_NESTING:
            raise self.error(i, f"regions nest deeper than the limit of "
                                f"{MAX_NESTING}")
        count = self._count(ints, i, "block count")
        i += 1
        region = Region()
        for _ in range(count):
            arg_types, hints, i = self._typed(ints, i, "block argument count")
            block = Block(arg_types)
            self._define(block.args, hints, i)
            region.add_block(block)
        for block in region.blocks:
            i = self._block_ops(ints, i, block, region.blocks, depth)
        return region, i

    def _block_ops(self, ints: list[int], i: int, block: Block,
                   blocks: list[Block], depth: int) -> int:
        """A block's op count and its ops; returns the index after them."""
        ops, i = self._ops(ints, i + 1, self._count(ints, i, "op count"),
                           blocks, depth)
        for op in ops:
            block.add_op(op)
        return i

    def finish(self, ints: list[int]) -> None:
        """Checks once every value span has been read."""
        if self.value != len(self.values.table):
            raise self.error(len(ints), (
                f"op stream defines {self.value} values, header declares "
                f"{len(self.values.table)}"))
        if self.locations is not None:
            self.locations.check(self.walk)


def _read_tables(context: Context, sections: dict[int, Reader], name: str):
    """The string table, attribute pool and locations op records refer
    to, and the op section."""
    string_table = _read_string_table(sections, name)
    attrs = _AttrTable(context)
    attrs.load(
        _require_section(sections, enc.SECTION_ATTRS, "attribute", name),
        _StringTable(string_table),
    )
    section = sections.get(enc.SECTION_LOCATIONS)
    locations = None if section is None else _Locations(section,
                                                         string_table)
    ops = _require_section(sections, enc.SECTION_OPS, "op", name)
    return string_table, attrs, locations, ops


@bulk_construction
@observed("bytecode.decode", "bytecode.decode.time", "bytecode")
def decode_module(
    context: Context, data: bytes, *, name: str = "<bytecode>"
) -> Operation:
    """Deserialize a module artifact into an operation tree.

    Operations are bound to their definitions in ``context``, so
    dialects referenced by the module must already be registered (or the
    context must allow unregistered constructs).  Any malformed input
    raises :class:`BytecodeError`.
    """
    with malformed_as_bytecode_error(name):
        reader = Reader(data, name)
        _read_header(reader, KIND_MODULE)
        string_table, attrs, locations, ops = _read_tables(
            context, _read_sections(reader), name
        )
        ints = varints(data, ops.pos, ops.end, name)
        values = _Values(ints, ops)
        op_reader = _OpReader(context, string_table, attrs, values,
                              locations, data, name)
        root = op_reader.read(ints, 1, ops.pos, ops.end,
                              (0, len(values.table)), 0, [], 0,
                              "the root operation")
        op_reader.finish(ints)
        values.check_resolved(name)
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter("bytecode.decode.modules").inc()
        metrics.counter("bytecode.decode.ops").inc(op_reader.walk)
        metrics.histogram("bytecode.decode.module_bytes").observe(len(data))
    return root


# ---------------------------------------------------------------------------
# Dialect decoding
# ---------------------------------------------------------------------------


class _DialectReader:
    def __init__(self, strings: _StringTable):
        self.strings = strings

    def _optional_string(self, reader: Reader) -> str | None:
        flag = reader.varint()
        if flag == 0:
            return None
        if flag != 1:
            raise reader.error(f"invalid optional-string flag {flag}")
        return self.strings.get(reader)

    def _string_list(self, reader: Reader) -> list[str]:
        count = reader.bounded_varint(reader.remaining + 1, "list length")
        return [self.strings.get(reader) for _ in range(count)]

    def _sigil(self, reader: Reader) -> str | None:
        code = reader.varint()
        if code not in _SIGIL_FROM_CODE:
            raise reader.error(f"invalid sigil code {code}")
        return _SIGIL_FROM_CODE[code]

    def _expr(self, reader: Reader, depth: int = 1) -> ast.ConstraintExpr:
        """One constraint expression, ``depth`` levels deep counting
        itself; past ``MAX_NESTING`` levels it is refused, as the IRDL
        parser refuses it."""
        if depth > MAX_NESTING:
            raise reader.error(
                f"constraints nest deeper than the limit of {MAX_NESTING}"
            )
        tag = reader.varint()
        if tag == enc.EXPR_REF:
            sigil = self._sigil(reader)
            ref_name = self.strings.get(reader)
            has_params = reader.varint()
            params = None
            if has_params:
                count = reader.bounded_varint(
                    reader.remaining + 1, "parameter count"
                )
                params = [self._expr(reader, depth + 1) for _ in range(count)]
            return ast.RefExpr(sigil, ref_name, params)
        if tag == enc.EXPR_INT_LITERAL:
            value = reader.signed()
            return ast.IntLiteralExpr(value, self._optional_string(reader))
        if tag == enc.EXPR_STRING_LITERAL:
            return ast.StringLiteralExpr(self.strings.get(reader))
        if tag == enc.EXPR_LIST:
            count = reader.bounded_varint(
                reader.remaining + 1, "list length"
            )
            return ast.ListExpr(
                [self._expr(reader, depth + 1) for _ in range(count)])
        raise reader.error(f"unknown constraint expression tag {tag}")

    def _param_decl(self, reader: Reader) -> ast.ParamDecl:
        name = self.strings.get(reader)
        return ast.ParamDecl(name, self._expr(reader))

    def _arg_decl(self, reader: Reader) -> ast.ArgDecl:
        name = self.strings.get(reader)
        constraint = self._expr(reader)
        code = reader.varint()
        variadicity = _VARIADICITY_FROM_CODE.get(code)
        if variadicity is None:
            raise reader.error(f"invalid variadicity code {code}")
        return ast.ArgDecl(name, constraint, variadicity)

    def _type_decl(self, reader: Reader) -> ast.TypeDecl:
        name = self.strings.get(reader)
        is_type = bool(reader.varint())
        count = reader.bounded_varint(
            reader.remaining + 1, "parameter count"
        )
        parameters = [self._param_decl(reader) for _ in range(count)]
        summary = self.strings.get(reader)
        format_str = self._optional_string(reader)
        py_constraints = self._string_list(reader)
        return ast.TypeDecl(
            name, is_type, parameters, summary, format_str, py_constraints
        )

    def _operation_decl(self, reader: Reader) -> ast.OperationDecl:
        name = self.strings.get(reader)
        var_count = reader.bounded_varint(
            reader.remaining + 1, "constraint-var count"
        )
        constraint_vars = []
        for _ in range(var_count):
            var_name = self.strings.get(reader)
            sigil = self._sigil(reader)
            constraint_vars.append(
                ast.ConstraintVarDecl(var_name, sigil, self._expr(reader))
            )
        arg_lists = []
        for _ in range(3):
            count = reader.bounded_varint(
                reader.remaining + 1, "argument count"
            )
            arg_lists.append([self._arg_decl(reader) for _ in range(count)])
        operands, results, attributes = arg_lists
        region_count = reader.bounded_varint(
            reader.remaining + 1, "region count"
        )
        regions = []
        for _ in range(region_count):
            region_name = self.strings.get(reader)
            arg_count = reader.bounded_varint(
                reader.remaining + 1, "region argument count"
            )
            arguments = [self._arg_decl(reader) for _ in range(arg_count)]
            terminator = self._optional_string(reader)
            regions.append(ast.RegionDecl(region_name, arguments, terminator))
        has_successors = reader.varint()
        successors = self._string_list(reader) if has_successors else None
        format_str = self._optional_string(reader)
        summary = self.strings.get(reader)
        py_constraints = self._string_list(reader)
        return ast.OperationDecl(
            name,
            constraint_vars,
            operands,
            results,
            attributes,
            regions,
            successors,
            format_str,
            summary,
            py_constraints,
        )

    def dialect(self, reader: Reader) -> ast.DialectDecl:
        name = self.strings.get(reader)
        decl = ast.DialectDecl(name)
        count = reader.bounded_varint(reader.remaining + 1, "type count")
        decl.types = [self._type_decl(reader) for _ in range(count)]
        count = reader.bounded_varint(reader.remaining + 1, "attribute count")
        decl.attributes = [self._type_decl(reader) for _ in range(count)]
        count = reader.bounded_varint(reader.remaining + 1, "operation count")
        decl.operations = [self._operation_decl(reader) for _ in range(count)]
        count = reader.bounded_varint(reader.remaining + 1, "alias count")
        for _ in range(count):
            alias_name = self.strings.get(reader)
            sigil = self._sigil(reader)
            type_params = self._string_list(reader)
            decl.aliases.append(
                ast.AliasDecl(alias_name, sigil, type_params,
                              self._expr(reader))
            )
        count = reader.bounded_varint(reader.remaining + 1, "enum count")
        for _ in range(count):
            enum_name = self.strings.get(reader)
            decl.enums.append(
                ast.EnumDecl(enum_name, self._string_list(reader))
            )
        count = reader.bounded_varint(reader.remaining + 1, "constraint count")
        for _ in range(count):
            constraint_name = self.strings.get(reader)
            base = self._expr(reader)
            summary = self.strings.get(reader)
            decl.constraints.append(
                ast.ConstraintDecl(
                    constraint_name, base, summary,
                    self._optional_string(reader),
                )
            )
        count = reader.bounded_varint(reader.remaining + 1, "wrapper count")
        for _ in range(count):
            decl.param_wrappers.append(
                ast.ParamWrapperDecl(
                    self.strings.get(reader),
                    self.strings.get(reader),
                    self.strings.get(reader),
                    self.strings.get(reader),
                    self.strings.get(reader),
                )
            )
        return decl


def _apply_suppressions(
    reader: Reader, strings: "_StringTable", decls: list[ast.DialectDecl]
) -> None:
    """Re-attach ``Suppress`` annotations from their optional section."""
    count = reader.bounded_varint(reader.remaining + 1, "suppression count")
    for _ in range(count):
        dialect_index = reader.varint()
        kind = reader.varint()
        index = reader.varint()
        code = strings.get(reader)
        if dialect_index >= len(decls):
            raise reader.error(
                f"suppression refers to dialect {dialect_index}, "
                f"artifact has {len(decls)}"
            )
        decl = decls[dialect_index]
        if kind == enc.SUPPRESS_DIALECT:
            decl.suppressions.append(code)
            continue
        pools = {
            enc.SUPPRESS_TYPE: decl.types,
            enc.SUPPRESS_ATTRIBUTE: decl.attributes,
            enc.SUPPRESS_OPERATION: decl.operations,
        }
        items = pools.get(kind)
        if items is None:
            raise reader.error(f"unknown suppression target kind {kind}")
        if index >= len(items):
            raise reader.error(
                f"suppression refers to declaration {index}, "
                f"dialect has {len(items)}"
            )
        items[index].suppressions.append(code)
    if not reader.at_end():
        raise reader.error(
            f"{reader.remaining} trailing bytes after the last suppression"
        )


@observed("bytecode.decode_dialects", "bytecode.decode.time", "bytecode")
def decode_dialects(
    data: bytes, *, name: str = "<bytecode>"
) -> list[ast.DialectDecl]:
    """Deserialize a dialects artifact into IRDL declaration ASTs.

    The returned declarations can be registered with
    :func:`repro.irdl.instantiate.register_dialect` without any textual
    parsing.  Any malformed input raises :class:`BytecodeError`.
    """
    with malformed_as_bytecode_error(name):
        reader = Reader(data, name)
        _read_header(reader, KIND_DIALECTS)
        sections = _read_sections(reader)
        strings = _StringTable(_read_string_table(sections, name))
        body = _require_section(
            sections, enc.SECTION_DIALECTS, "dialect", name
        )
        dialect_reader = _DialectReader(strings)
        count = body.bounded_varint(body.remaining + 1, "dialect count")
        decls = [dialect_reader.dialect(body) for _ in range(count)]
        if not body.at_end():
            raise body.error(
                f"{body.remaining} trailing bytes after the last dialect"
            )
        suppressions = sections.get(enc.SECTION_SUPPRESSIONS)
        if suppressions is not None:
            _apply_suppressions(suppressions, strings, decls)
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter("bytecode.decode.dialects").inc(len(decls))
        metrics.histogram("bytecode.decode.dialect_bytes").observe(len(data))
    return decls
