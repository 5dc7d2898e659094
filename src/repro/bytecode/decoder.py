"""Binary decoder: bytecode → IR modules and IRDL dialect declarations.

The decoder is a single forward pass over the section frames written by
:mod:`repro.bytecode.encoder`.  Unknown section ids are skipped (their
length prefix tells us how far), which is the format's forward-compat
mechanism.

Robustness contract: **no input, however corrupt, escapes as anything
but a** :class:`~repro.bytecode.wire.BytecodeError` (a
:class:`~repro.utils.diagnostics.DiagnosticError`).  Three layers
enforce it:

* every primitive read is bounds-checked by :class:`wire.Reader`;
* every table reference is range-checked against the entries decoded so
  far (which also rules out reference cycles: an entry can only point
  backwards);
* the public entry points wrap any *other* exception a hostile byte
  stream manages to provoke (``VerifyError`` from attribute
  verification, arity errors from dataclass constructors, …) into a
  ``BytecodeError`` as a last line of defence.
"""

from __future__ import annotations

from typing import Any

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
)
from repro.ir.attributes import Attribute, TypeAttribute
from repro.ir.block import Block
from repro.ir.context import Context
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
from repro.ir.value import SSAValue
from repro.irdl import ast
from repro.obs.instrument import OBS

_SIGNEDNESS_FROM_CODE = {
    code: signedness for signedness, code in enc.SIGNEDNESS_CODE.items()
}
_SIGIL_FROM_CODE = {code: sigil for sigil, code in enc.SIGIL_CODE.items()}
_VARIADICITY_FROM_CODE = {
    code: var for var, code in enc.VARIADICITY_CODE.items()
}


def _wrap_errors(fn):
    """Convert any non-BytecodeError escape into a clean BytecodeError."""

    def wrapper(*args: Any, name: str = "<bytecode>", **kwargs: Any):
        try:
            return fn(*args, name=name, **kwargs)
        except BytecodeError:
            raise
        except Exception as err:
            raise BytecodeError(
                f"malformed bytecode: {type(err).__name__}: {err}", name
            ) from err

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


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
    count = reader.bounded_varint(reader.remaining + 1, "string count")
    return [reader.string_bytes() for _ in range(count)]


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
    decoded *before* it, so the pool is acyclic by construction.
    """

    __slots__ = ("entries", "context")

    def __init__(self, context: Context):
        self.entries: list[Attribute | ParamValue] = []
        self.context = context

    def get(self, reader: Reader) -> Attribute | ParamValue:
        index = reader.bounded_varint(len(self.entries), "attribute reference")
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

    def _read_entry(
        self, reader: Reader, strings: _StringTable
    ) -> Attribute | ParamValue:
        tag = reader.varint()
        value = self._build(tag, reader, strings)
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


class _ValueTable:
    """Maps wire value indices to SSA values, with forward references.

    An operand may name a value whose defining op appears later in the
    stream (CFG-dominance, not lexical order).  Such operands get a
    typed placeholder that is patched via ``replace_all_uses_with`` once
    the real definition arrives.
    """

    __slots__ = ("total", "defined", "placeholders", "reader")

    def __init__(self, total: int, reader: Reader):
        self.total = total
        self.defined: dict[int, SSAValue] = {}
        self.placeholders: dict[int, SSAValue] = {}
        self.reader = reader

    def define(self, value: SSAValue) -> None:
        index = len(self.defined)
        if index >= self.total:
            raise self.reader.error(
                f"op stream defines more than the declared "
                f"{self.total} values"
            )
        self.defined[index] = value
        placeholder = self.placeholders.pop(index, None)
        if placeholder is not None:
            if placeholder.type != value.type:
                raise self.reader.error(
                    f"value {index} was forward-referenced with type "
                    f"{placeholder.type} but defined with type {value.type}"
                )
            placeholder.replace_all_uses_with(value)

    def operand(self, index: int, value_type: Attribute) -> SSAValue:
        value = self.defined.get(index)
        if value is not None:
            if value.type != value_type:
                raise self.reader.error(
                    f"operand references value {index} as {value_type}, "
                    f"but it has type {value.type}"
                )
            return value
        placeholder = self.placeholders.get(index)
        if placeholder is None:
            placeholder = self.placeholders[index] = SSAValue(value_type)
        elif placeholder.type != value_type:
            raise self.reader.error(
                f"conflicting forward-reference types for value {index}: "
                f"{placeholder.type} vs {value_type}"
            )
        return placeholder

    def finish(self) -> None:
        if self.placeholders:
            missing = sorted(self.placeholders)
            raise self.reader.error(
                f"operands reference undefined values {missing}"
            )


class _ModuleReader:
    def __init__(
        self,
        context: Context,
        strings: _StringTable,
        attrs: _AttrTable,
    ):
        self.context = context
        self.strings = strings
        self.attrs = attrs
        self.ops_decoded = 0

    def read(self, reader: Reader) -> Operation:
        total_values = reader.varint()
        values = _ValueTable(total_values, reader)
        root = self._read_op(reader, values, [])
        if not reader.at_end():
            raise reader.error(
                f"{reader.remaining} trailing bytes after the root operation"
            )
        values.finish()
        return root

    def _read_name_hint(self, reader: Reader) -> str | None:
        flag = reader.varint()
        if flag == 0:
            return None
        if flag != 1:
            raise reader.error(f"invalid name-hint flag {flag}")
        return self.strings.get(reader)

    def _read_op(
        self,
        reader: Reader,
        values: _ValueTable,
        blocks: list[Block],
        depth: int = 0,
    ) -> Operation:
        """One op and its regions; ``depth`` counts the regions around
        it (0 for the root)."""
        name = self.strings.get(reader)
        operand_count = reader.bounded_varint(
            reader.remaining + 1, "operand count"
        )
        operands = []
        for _ in range(operand_count):
            index = reader.bounded_varint(values.total, "operand value index")
            value_type = self.attrs.get_type(reader)
            operands.append(values.operand(index, value_type))
        result_count = reader.bounded_varint(
            reader.remaining + 1, "result count"
        )
        result_types = []
        result_hints = []
        for _ in range(result_count):
            result_types.append(self.attrs.get_type(reader))
            result_hints.append(self._read_name_hint(reader))
        attr_count = reader.bounded_varint(
            reader.remaining + 1, "attribute count"
        )
        attributes: dict[str, Attribute] = {}
        for _ in range(attr_count):
            attr_name = self.strings.get(reader)
            attributes[attr_name] = self.attrs.get_attr(reader)
        successor_count = reader.bounded_varint(
            reader.remaining + 1, "successor count"
        )
        successors = []
        for _ in range(successor_count):
            block_index = reader.bounded_varint(
                len(blocks), "successor block index"
            )
            successors.append(blocks[block_index])
        op = self.context.create_operation(
            name,
            operands=operands,
            result_types=result_types,
            attributes=attributes,
            successors=successors,
        )
        self.ops_decoded += 1
        for result, hint in zip(op.results, result_hints):
            result.name_hint = hint
            values.define(result)
        region_count = reader.bounded_varint(
            reader.remaining + 1, "region count"
        )
        for _ in range(region_count):
            op.add_region(self._read_region(reader, values, depth + 1))
        return op

    def _read_region(
        self, reader: Reader, values: _ValueTable, depth: int
    ) -> Region:
        if depth > MAX_NESTING:
            raise reader.error(
                f"regions nest deeper than the limit of {MAX_NESTING}"
            )
        block_count = reader.bounded_varint(
            reader.remaining + 1, "block count"
        )
        region = Region()
        for _ in range(block_count):
            arg_count = reader.bounded_varint(
                reader.remaining + 1, "block argument count"
            )
            arg_types = []
            arg_hints = []
            for _ in range(arg_count):
                arg_types.append(self.attrs.get_type(reader))
                arg_hints.append(self._read_name_hint(reader))
            block = Block(arg_types)
            for arg, hint in zip(block.args, arg_hints):
                arg.name_hint = hint
                values.define(arg)
            region.add_block(block)
        for block in region.blocks:
            op_count = reader.bounded_varint(
                reader.remaining + 1, "op count"
            )
            for _ in range(op_count):
                block.add_op(
                    self._read_op(reader, values, region.blocks, depth)
                )
        return region


def _apply_locations(
    reader: Reader, strings: _StringTable, root: Operation
) -> None:
    """Re-attach op locations from their optional section.

    The pool is decoded in one forward pass (fused entries may only
    reference earlier slots); the sparse mapping then patches ops by
    their ``walk()`` pre-order index — the order the encoder used.
    """
    pool: list[Location] = []
    count = reader.bounded_varint(reader.remaining + 1, "location count")
    for _ in range(count):
        tag = reader.varint()
        if tag == enc.LOC_FILE:
            filename = strings.get(reader)
            line = reader.varint()
            pool.append(FileLineColLoc(filename, line, reader.varint()))
        elif tag == enc.LOC_FUSED:
            arity = reader.bounded_varint(
                reader.remaining + 1, "fused location arity"
            )
            parts = []
            for _ in range(arity):
                ref = reader.bounded_varint(len(pool), "location reference")
                parts.append(pool[ref])
            pool.append(FusedLoc(parts))
        else:
            raise reader.error(f"unknown location pool tag {tag}")
    ops = list(root.walk())
    mapping_count = reader.bounded_varint(
        reader.remaining + 1, "location mapping count"
    )
    for _ in range(mapping_count):
        op_index = reader.bounded_varint(len(ops), "location op index")
        ref = reader.bounded_varint(len(pool), "location reference")
        ops[op_index].location = pool[ref]
    if not reader.at_end():
        raise reader.error(
            f"{reader.remaining} trailing bytes after the last location"
        )


@_wrap_errors
def decode_module(
    context: Context, data: bytes, *, name: str = "<bytecode>"
) -> Operation:
    """Deserialize a module artifact into an operation tree.

    Operations are created through ``context.create_operation``, so
    dialects referenced by the module must already be registered (or the
    context must allow unregistered constructs).  Any malformed input
    raises :class:`BytecodeError`.
    """
    import time

    start = time.perf_counter()
    with OBS.tracer.span("bytecode.decode", category="bytecode"):
        reader = Reader(data, name)
        _read_header(reader, KIND_MODULE)
        sections = _read_sections(reader)
        strings = _StringTable(_read_string_table(sections, name))
        attrs = _AttrTable(context)
        attrs.load(
            _require_section(sections, enc.SECTION_ATTRS, "attribute", name),
            strings,
        )
        module_reader = _ModuleReader(context, strings, attrs)
        root = module_reader.read(
            _require_section(sections, enc.SECTION_OPS, "op", name)
        )
        locations = sections.get(enc.SECTION_LOCATIONS)
        if locations is not None:
            _apply_locations(locations, strings, root)
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter("bytecode.decode.modules").inc()
        metrics.counter("bytecode.decode.ops").inc(module_reader.ops_decoded)
        metrics.histogram("bytecode.decode.module_bytes").observe(len(data))
        metrics.timer("bytecode.decode.time").record(
            time.perf_counter() - start
        )
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

    def _expr(self, reader: Reader) -> ast.ConstraintExpr:
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
                params = [self._expr(reader) for _ in range(count)]
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
            return ast.ListExpr([self._expr(reader) for _ in range(count)])
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


@_wrap_errors
def decode_dialects(
    data: bytes, *, name: str = "<bytecode>"
) -> list[ast.DialectDecl]:
    """Deserialize a dialects artifact into IRDL declaration ASTs.

    The returned declarations can be registered with
    :func:`repro.irdl.instantiate.register_dialect` without any textual
    parsing.  Any malformed input raises :class:`BytecodeError`.
    """
    import time

    start = time.perf_counter()
    with OBS.tracer.span("bytecode.decode_dialects", category="bytecode"):
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
        metrics.timer("bytecode.decode.time").record(
            time.perf_counter() - start
        )
    return decls
