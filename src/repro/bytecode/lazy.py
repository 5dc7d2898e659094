"""Lazy module loading over the op-index section.

A :class:`LazyModuleReader` decodes a module artifact's *tables* — the
string table, the attribute pool, the location pool — plus the root
operation's shell (its attributes, regions, blocks, and block
arguments), but leaves every top-level op as an unread byte range
described by the op-index section (``SECTION_OP_INDEX``).  Each range is
exposed as a :class:`LazyOpHandle`; :meth:`LazyOpHandle.force` decodes
exactly that subtree and splices it into the root shell, producing — op
for op, value for value, location for location — the graph the eager
:func:`~repro.bytecode.decoder.decode_module` builds.

:meth:`LazyModuleReader.open` maps the file with :mod:`mmap`, so opening
a million-op artifact touches only the table pages; op pages fault in as
handles are forced.  Artifacts without an index section (from older
writers, or ``encode_module(..., index=False)``) fall back to one eager
decode behind pre-materialized handles, so callers never branch on the
artifact's vintage.

Robustness contract: like the eager decoder, every failure — truncated
index entries, offsets that disagree with the op stream, value spans
that do not reconcile — surfaces as :class:`BytecodeError`, never a raw
``IndexError``/``ValueError``.
"""

from __future__ import annotations

import mmap
from bisect import bisect_left, insort
from typing import Any, Callable

from repro.bytecode import encoder as enc
from repro.bytecode.decoder import (
    _AttrTable,
    _ModuleReader,
    _read_header,
    _read_sections,
    _read_string_table,
    _require_section,
    _StringTable,
)
from repro.bytecode.wire import KIND_MODULE, BytecodeError, Reader
from repro.ir.attributes import Attribute
from repro.ir.block import Block
from repro.ir.context import Context
from repro.ir.location import FileLineColLoc, FusedLoc, Location
from repro.ir.operation import Operation
from repro.ir.region import Region
from repro.ir.value import SSAValue
from repro.obs.instrument import OBS


def _parse_index(index: Reader) -> list[tuple[int, int, int]]:
    """Decode the op-index payload: ``n`` then 3 varints per entry
    (byte length, value count, subtree op count).

    A module can carry millions of entries, so this is a tight local
    LEB128 loop over one contiguous buffer rather than per-field
    ``Reader.varint`` calls — the open-time cost per entry is what the
    ``bytecode.lazy.open_time`` budget is spent on.
    """
    buf = index.data[index.pos:index.end]
    if not isinstance(buf, bytes):
        buf = bytes(buf)
    end = len(buf)
    pos = 0
    values: list[int] = []
    append = values.append
    while pos < end:
        byte = buf[pos]
        pos += 1
        if byte < 0x80:
            append(byte)
            continue
        result = byte & 0x7F
        shift = 7
        while True:
            if pos >= end:
                raise index.error("truncated varint in op index")
            if shift > 63:
                raise index.error("varint too long in op index")
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        append(result)
    if not values:
        raise index.error("empty op-index section")
    count = values[0]
    if len(values) - 1 != count * 3:
        raise index.error(
            f"op index declares {count} entries but carries "
            f"{len(values) - 1} fields"
        )
    index.pos = index.end
    it = iter(values[1:])
    return list(zip(it, it, it))


def _wrapped(name: str, fn: Callable[[], Any]) -> Any:
    """Run ``fn``, converting unexpected escapes into BytecodeError."""
    try:
        return fn()
    except BytecodeError:
        raise
    except Exception as err:
        raise BytecodeError(
            f"malformed bytecode: {type(err).__name__}: {err}", name
        ) from err


class _LazyValueTable:
    """The module-wide SSA value numbering, defined out of order.

    The eager decoder's value table assigns indices by arrival order;
    here every definition carries its explicit global index (each
    handle's subtree owns the contiguous ``[value_start, value_start +
    value_count)`` range the encoder recorded).  Cross-shard operand
    references resolve to typed placeholders that are patched via
    ``replace_all_uses_with`` when the defining handle is forced — the
    same forward-reference mechanism the eager decoder uses within one
    stream.
    """

    __slots__ = ("total", "defined", "placeholders", "reader")

    def __init__(self, total: int, reader: Reader):
        self.total = total
        self.defined: dict[int, SSAValue] = {}
        self.placeholders: dict[int, SSAValue] = {}
        self.reader = reader

    def define_at(self, index: int, value: SSAValue) -> None:
        if index >= self.total:
            raise self.reader.error(
                f"op stream defines value {index}, beyond the declared "
                f"{self.total} values"
            )
        if index in self.defined:
            raise self.reader.error(f"value {index} defined twice")
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


class _ShardValues:
    """Adapter presenting one handle's value span as an eager table.

    :class:`~repro.bytecode.decoder._ModuleReader` defines values by
    arrival order; within one subtree that order is exactly the global
    pre-order starting at ``value_start``, so a cursor over the span
    translates sequential ``define`` calls into explicit global indices.
    """

    __slots__ = ("table", "cursor", "end", "reader")

    def __init__(self, table: _LazyValueTable, start: int, end: int,
                 reader: Reader):
        self.table = table
        self.cursor = start
        self.end = end
        self.reader = reader

    @property
    def total(self) -> int:
        return self.table.total

    def define(self, value: SSAValue) -> None:
        if self.cursor >= self.end:
            raise self.reader.error(
                "op defines more values than its index entry declared"
            )
        self.table.define_at(self.cursor, value)
        self.cursor += 1

    def operand(self, index: int, value_type: Attribute) -> SSAValue:
        return self.table.operand(index, value_type)


class LazyOpHandle:
    """One top-level op of a lazily opened module.

    Holds the op's byte span and spans of the module-wide value and
    walk numberings; :meth:`force` decodes the subtree (idempotently)
    and attaches it to the root shell at its original position.
    """

    __slots__ = ("reader", "index", "byte_offset", "byte_length",
                 "value_start", "value_count", "op_count", "walk_start",
                 "block", "block_position", "op")

    def __init__(self, reader: "LazyModuleReader", index: int,
                 byte_offset: int, byte_length: int, value_start: int,
                 value_count: int, op_count: int, walk_start: int,
                 block: Block, block_position: int):
        self.reader = reader
        self.index = index
        self.byte_offset = byte_offset
        self.byte_length = byte_length
        self.value_start = value_start
        self.value_count = value_count
        self.op_count = op_count
        self.walk_start = walk_start
        self.block = block
        self.block_position = block_position
        self.op: Operation | None = None

    @property
    def materialized(self) -> bool:
        return self.op is not None

    @property
    def name(self) -> str:
        """The op name, peeked from the first bytes of the span."""
        if self.op is not None:
            return self.op.name
        return _wrapped(self.reader.name, self._peek_name)

    def _peek_name(self) -> str:
        sub = self.reader._span_reader(self)
        return self.reader._strings.get(sub)

    def force(self) -> Operation:
        """Materialize this op (and its regions); idempotent."""
        if self.op is not None:
            return self.op
        return _wrapped(self.reader.name, lambda: self.reader._force(self))

    def __repr__(self) -> str:
        state = "materialized" if self.op is not None else "lazy"
        return (f"<LazyOpHandle #{self.index} {self.name!r} "
                f"{self.byte_length}B {state}>")


class LazyModuleReader:
    """Materializes a module artifact's top-level ops on demand.

    Construct over in-memory ``bytes`` (or any buffer: an ``mmap``
    works), or use :meth:`open` to map a file.  ``reader.handles`` lists
    one :class:`LazyOpHandle` per top-level op; ``reader.root`` is the
    root shell those handles attach to; :meth:`module` forces everything
    and returns the complete graph — identical to what the eager decoder
    would have produced.  Usable as a context manager; :meth:`close`
    releases the mapping (forcing after close raises
    :class:`BytecodeError`).
    """

    def __init__(self, context: Context, data, *,
                 name: str = "<bytecode>", _close: Callable[[], None] | None = None):
        self.context = context
        self.data = data
        self.name = name
        self._close = _close
        self._closed = False
        self.lazy = False
        self.root: Operation | None = None
        self.handles: list[LazyOpHandle] = []
        self._strings: _StringTable | None = None
        self._attrs: _AttrTable | None = None
        self._values: _LazyValueTable | None = None
        self._ops_payload_start = 0
        self._locations: dict[int, Location] = {}
        #: Per block: sorted original positions of already-forced ops,
        #: so a force's insertion index is one bisect, not a sibling
        #: scan (out-of-order forcing must not be quadratic).
        self._forced_positions: dict[int, list[int]] = {}
        self._total_walk = 0
        import time

        start = time.perf_counter()
        with OBS.tracer.span("bytecode.lazy.open", category="bytecode"):
            _wrapped(name, self._open)
        metrics = OBS.metrics
        if metrics.enabled:
            metrics.counter("bytecode.lazy.opens").inc()
            if self.lazy:
                metrics.counter("bytecode.lazy.ops_indexed").inc(
                    len(self.handles)
                )
            else:
                metrics.counter("bytecode.lazy.fallbacks").inc()
            metrics.timer("bytecode.lazy.open_time").record(
                time.perf_counter() - start
            )

    # ------------------------------------------------------------------
    # Opening
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, context: Context, path: str) -> "LazyModuleReader":
        """Map ``path`` with :mod:`mmap` and open it lazily."""
        try:
            handle = open(path, "rb")
        except OSError as err:
            raise BytecodeError(f"cannot open file: {err}", path) from err
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as err:
            handle.close()
            raise BytecodeError(f"cannot mmap file: {err}", path) from err

        def close() -> None:
            mapped.close()
            handle.close()

        return cls(context, mapped, name=path, _close=close)

    def _open(self) -> None:
        reader = Reader(self.data, self.name)
        _read_header(reader, KIND_MODULE)
        sections = _read_sections(reader)
        index = sections.get(enc.SECTION_OP_INDEX)
        if index is None:
            self._open_eager()
            return
        self.lazy = True
        self._strings = _StringTable(_read_string_table(sections, self.name))
        self._attrs = _AttrTable(self.context)
        self._attrs.load(
            _require_section(
                sections, enc.SECTION_ATTRS, "attribute", self.name
            ),
            self._strings,
        )
        ops = _require_section(sections, enc.SECTION_OPS, "op", self.name)
        self._ops_payload_start = ops.pos
        total = ops.varint()
        self._values = _LazyValueTable(total, ops)
        self._read_shell(ops, index)
        locations = sections.get(enc.SECTION_LOCATIONS)
        if locations is not None:
            self._load_locations(locations)
            root_loc = self._locations.get(0)
            if root_loc is not None:
                self.root.location = root_loc

    def _open_eager(self) -> None:
        """No index section: decode everything once, wrap it in handles."""
        from repro.bytecode.decoder import decode_module

        root = decode_module(self.context, self.data, name=self.name)
        self.root = root
        for region in root.regions:
            for block in region.blocks:
                for position, op in enumerate(block.ops):
                    handle = LazyOpHandle(
                        self, len(self.handles), 0, 0, 0, 0,
                        sum(1 for _ in op.walk()), 0, block, position,
                    )
                    handle.op = op
                    self.handles.append(handle)

    # ------------------------------------------------------------------
    # Shell decoding
    # ------------------------------------------------------------------

    def _read_shell(self, ops: Reader, index: Reader) -> None:
        """Decode the root op minus its children, validating the index.

        Byte spans tile each block's run of the op stream and value
        spans tile the numbering, so both starts are reconstructed as
        prefix sums; the run totals are checked against the section
        bounds and the declared value count here, and each span is
        reconciled op-by-op when its handle is forced — a corrupt index
        always surfaces as :class:`BytecodeError`.
        """
        strings = self._strings
        attrs = self._attrs
        values = self._values
        entries = _parse_index(index)

        # Root header: mirrors _ModuleReader._read_op up to the regions.
        helper = _ModuleReader(self.context, strings, attrs)
        name = strings.get(ops)
        operand_count = ops.bounded_varint(
            ops.remaining + 1, "operand count"
        )
        operands = []
        for _ in range(operand_count):
            operand_index = ops.bounded_varint(
                values.total, "operand value index"
            )
            operand_type = attrs.get_type(ops)
            operands.append(values.operand(operand_index, operand_type))
        result_count = ops.bounded_varint(ops.remaining + 1, "result count")
        result_types = []
        result_hints = []
        for _ in range(result_count):
            result_types.append(attrs.get_type(ops))
            result_hints.append(helper._read_name_hint(ops))
        attr_count = ops.bounded_varint(ops.remaining + 1, "attribute count")
        attributes: dict[str, Attribute] = {}
        for _ in range(attr_count):
            attr_name = strings.get(ops)
            attributes[attr_name] = attrs.get_attr(ops)
        successor_count = ops.varint()
        if successor_count:
            raise ops.error("root operation cannot have successors")
        root = self.context.create_operation(
            name,
            operands=operands,
            result_types=result_types,
            attributes=attributes,
        )
        cursor = 0
        for result, hint in zip(root.results, result_hints):
            result.name_hint = hint
            values.define_at(cursor, result)
            cursor += 1

        entry_base = 0
        walk_cursor = 1  # the root itself is walk index 0
        region_count = ops.bounded_varint(ops.remaining + 1, "region count")
        for _ in range(region_count):
            block_count = ops.bounded_varint(
                ops.remaining + 1, "block count"
            )
            region = Region()
            for _ in range(block_count):
                arg_count = ops.bounded_varint(
                    ops.remaining + 1, "block argument count"
                )
                arg_types = []
                arg_hints = []
                for _ in range(arg_count):
                    arg_types.append(attrs.get_type(ops))
                    arg_hints.append(helper._read_name_hint(ops))
                block = Block(arg_types)
                for arg, hint in zip(block.args, arg_hints):
                    arg.name_hint = hint
                    values.define_at(cursor, arg)
                    cursor += 1
                region.add_block(block)
            for block in region.blocks:
                op_count = ops.bounded_varint(
                    ops.remaining + 1, "op count"
                )
                self._forced_positions[id(block)] = []
                if op_count == 0:
                    continue
                if entry_base + op_count > len(entries):
                    raise ops.error(
                        "op stream holds more top-level ops than "
                        "the op index declares"
                    )
                # One contiguous run of spans per block: entries carry
                # only (length, value count, subtree op count); byte
                # offsets and value starts are the prefix sums over the
                # run, reconstructed here.  Then jump the stream past
                # the whole run in one step — the point of lazy opening
                # is never touching those pages.
                expected = ops.pos - self._ops_payload_start
                handle_list = self.handles
                append = handle_list.append
                for position in range(op_count):
                    entry_index = entry_base + position
                    length, value_count, subtree_ops = entries[entry_index]
                    if subtree_ops < 1:
                        raise ops.error(
                            f"op-index entry {entry_index} declares an "
                            "empty subtree"
                        )
                    append(LazyOpHandle(
                        self, entry_index, expected, length, cursor,
                        value_count, subtree_ops, walk_cursor, block,
                        position,
                    ))
                    expected += length
                    cursor += value_count
                    walk_cursor += subtree_ops
                entry_base += op_count
                landing = self._ops_payload_start + expected
                if landing > ops.end:
                    raise ops.error(
                        "op-index byte spans run past the op section"
                    )
                ops.pos = landing
            root.add_region(region)
        if entry_base != len(entries):
            raise ops.error(
                f"op index declares {len(entries) - entry_base} more "
                "top-level ops than the op stream holds"
            )
        if not ops.at_end():
            raise ops.error(
                f"{ops.remaining} trailing bytes after the root operation"
            )
        if cursor != values.total:
            raise ops.error(
                f"op index accounts for {cursor} values, stream declares "
                f"{values.total}"
            )
        self.root = root
        self._total_walk = walk_cursor

    def _load_locations(self, reader: Reader) -> None:
        """Decode the location pool and the sparse walk-index mapping."""
        strings = self._strings
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
                    ref = reader.bounded_varint(
                        len(pool), "location reference"
                    )
                    parts.append(pool[ref])
                pool.append(FusedLoc(parts))
            else:
                raise reader.error(f"unknown location pool tag {tag}")
        mapping_count = reader.bounded_varint(
            reader.remaining + 1, "location mapping count"
        )
        for _ in range(mapping_count):
            op_index = reader.bounded_varint(
                self._total_walk, "location op index"
            )
            ref = reader.bounded_varint(len(pool), "location reference")
            self._locations[op_index] = pool[ref]
        if not reader.at_end():
            raise reader.error(
                f"{reader.remaining} trailing bytes after the last location"
            )

    # ------------------------------------------------------------------
    # Forcing
    # ------------------------------------------------------------------

    def _span_reader(self, handle: LazyOpHandle) -> Reader:
        if self._closed:
            raise BytecodeError(
                "lazy module reader is closed", self.name
            )
        start = self._ops_payload_start + handle.byte_offset
        return Reader(self.data, self.name, start,
                      start + handle.byte_length)

    def _force(self, handle: LazyOpHandle) -> Operation:
        sub = self._span_reader(handle)
        shard = _ShardValues(
            self._values, handle.value_start,
            handle.value_start + handle.value_count, sub,
        )
        module_reader = _ModuleReader(self.context, self._strings,
                                      self._attrs)
        region_blocks = list(handle.block.parent.blocks)
        op = module_reader._read_op(sub, shard, region_blocks, depth=1)
        if not sub.at_end():
            raise sub.error(
                f"{sub.remaining} trailing bytes after op "
                f"#{handle.index}"
            )
        if module_reader.ops_decoded != handle.op_count:
            raise sub.error(
                f"op #{handle.index} decoded {module_reader.ops_decoded} "
                f"ops, index declared {handle.op_count}"
            )
        if shard.cursor != handle.value_start + handle.value_count:
            raise sub.error(
                f"op #{handle.index} defined "
                f"{shard.cursor - handle.value_start} values, index "
                f"declared {handle.value_count}"
            )
        if self._locations:
            for walk_index, inner in enumerate(
                op.walk(), start=handle.walk_start
            ):
                location = self._locations.get(walk_index)
                if location is not None:
                    inner.location = location
        forced = self._forced_positions[id(handle.block)]
        position = bisect_left(forced, handle.block_position)
        handle.block.insert_op(op, position)
        insort(forced, handle.block_position)
        handle.op = op
        if OBS.metrics.enabled:
            OBS.metrics.counter("bytecode.lazy.ops_forced").inc()
        return op

    def module(self) -> Operation:
        """Force every handle and return the complete root operation.

        After this the value numbering must have no unresolved
        forward references — the same closing check the eager decoder
        performs.
        """
        if self.lazy:
            with OBS.tracer.span("bytecode.lazy.force_all",
                                 category="bytecode"):
                for handle in self.handles:
                    handle.force()
            _wrapped(self.name, self._values.finish)
        return self.root

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the underlying mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._close is not None:
            self._close()

    def __enter__(self) -> "LazyModuleReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        forced = sum(1 for h in self.handles if h.op is not None)
        mode = "lazy" if self.lazy else "eager-fallback"
        return (f"<LazyModuleReader {self.name!r} {mode} "
                f"{forced}/{len(self.handles)} forced>")
