"""Lazy module loading over the op-index section.

A :class:`LazyModuleReader` decodes a module artifact's *tables* — the
string table and the attribute pool — checks its location section, and
reads the root operation's shell (its attributes, regions, blocks, and
block arguments) with the eager decoder's op reader, but leaves every
top-level op as an unread byte range described by the op-index section
(``SECTION_OP_INDEX``).  Each range is exposed as a
:class:`LazyOpHandle`, built on first access; :meth:`LazyOpHandle.force`
decodes exactly that subtree with the same op reader and splices it
into the root shell, producing — op for op, value for value, location
for location — the graph the eager
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
from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence
from itertools import accumulate
from typing import Callable

from repro.bytecode import encoder as enc
from repro.bytecode.decoder import (
    _error,
    _OpReader,
    _read_header,
    _read_sections,
    _read_tables,
    _Values,
    malformed_as_bytecode_error,
)
from repro.bytecode.wire import (
    KIND_MODULE,
    BytecodeError,
    Reader,
    varint_at,
    varint_offset,
    varints,
)
from repro.ir.block import Block
from repro.ir.context import Context
from repro.ir.operation import Operation
from repro.ir.region import Region
from repro.obs.instrument import OBS, observed


class _ShellReader(_OpReader):
    """Reads an indexed module's root op without its top-level ops.

    Each block's run of top-level op records is skipped, not read: its
    op-index entries give its byte length and the values and ops it
    holds, and record where its handles start.  Past a run, the shell's
    varints are decoded only as far as the reader needs them — a
    block's op count, the next region's header — so opening stays
    linear in the shell's size however many blocks and regions the root
    has.
    """

    def __init__(self, *args, lengths: list[int], value_counts: list[int],
                 op_counts: list[int]):
        super().__init__(*args)
        self.lengths = lengths
        self.value_counts = value_counts
        self.op_counts = op_counts
        self.entry = 0
        #: Per run: its first entry, its block, and where it starts in
        #: bytes (from the op section start), values and walk order.
        self.runs: list[tuple[int, Block, int, int, int]] = []
        #: Where the shell's undecoded varints start, once past a run.
        self.next: int | None = None

    def _more(self, ints: list[int], j: int) -> None:
        """Decode the shell's varints past the last run up to ``ints[j]``."""
        if j >= len(ints) and self.next is not None:
            stop = varint_offset(self.data, self.next, j + 1 - len(ints),
                                 self.end)
            ints += varints(self.data, self.next, stop, self.name)
            self.next = stop

    def _region(self, ints: list[int], i: int,
                depth: int) -> tuple[Region, int]:
        if self.next is not None:
            # Decode the header the op reader reads first: the block
            # count, then per block an argument count and per argument
            # a type, a name-hint flag and, after flag 1, the hint.
            self._more(ints, i)
            j = i + 1
            for _ in range(ints[i]):
                self._more(ints, j)
                j += 1
                for _ in range(ints[j - 1]):
                    self._more(ints, j + 1)
                    j += 2 + (ints[j + 1] == 1)
                    self._more(ints, j - 1)
        return super()._region(ints, i, depth)

    def _block_ops(self, ints: list[int], i: int, block: Block,
                   blocks: list[Block], depth: int) -> int:
        self._more(ints, i)
        count = ints[i]
        i += 1
        if not count:
            return i
        first, self.entry = self.entry, self.entry + count
        if self.entry > len(self.lengths):
            raise self.error(i, "op stream holds more top-level ops than "
                                "the op index declares")
        start = self.offset(i)
        end = start + sum(self.lengths[first:self.entry])
        if end > self.end:
            raise self.error(i, "op-index byte spans run past the op "
                                "section")
        self.runs.append((first, block, start - self.segments[0][1],
                          self.value, self.walk))
        self.value += sum(self.value_counts[first:self.entry])
        if self.value > self.value_end:
            raise self.error(i, f"op index accounts for {self.value} "
                                f"values, stream declares {self.value_end}")
        self.walk += sum(self.op_counts[first:self.entry])
        # What was decoded past the run's start belongs to the run; the
        # shell continues after its end.
        del ints[i:]
        self.segments.append((i, end))
        self.next = end
        return i


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
        reader = self.reader
        with malformed_as_bytecode_error(reader.name):
            start, end = reader._span(self)
            ints = varints(reader.data, start,
                           varint_offset(reader.data, start, 1, end),
                           reader.name)
            strings = reader._ops.strings
            if not ints or ints[0] >= len(strings):
                raise BytecodeError(
                    f"at byte {start}: op #{self.index} has no valid name",
                    reader.name,
                )
            return strings[ints[0]]

    def force(self) -> Operation:
        """Materialize this op (and its regions); idempotent."""
        if self.op is not None:
            return self.op
        with malformed_as_bytecode_error(self.reader.name):
            return self.reader._force(self)

    def __repr__(self) -> str:
        state = "materialized" if self.op is not None else "lazy"
        return (f"<LazyOpHandle #{self.index} {self.name!r} "
                f"{self.byte_length}B {state}>")


class _Handles(Sequence):
    """One :class:`LazyOpHandle` per top-level op, each built on first
    access: offsets, value starts and walk starts are prefix sums of the
    op-index entries within their block's run."""

    def __init__(self, reader: "LazyModuleReader", shell: _ShellReader):
        self.reader = reader
        self.lengths = shell.lengths
        self.value_counts = shell.value_counts
        self.op_counts = shell.op_counts
        self.runs = shell.runs
        self.firsts = [run[0] for run in shell.runs]
        self.sums: list[list[int]] | None = None
        self.made: dict[int, LazyOpHandle] = {}

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        index = range(len(self))[index]
        handle = self.made.get(index)
        if handle is None:
            handle = self.made[index] = self._make(index)
        return handle

    def _make(self, index: int) -> "LazyOpHandle":
        if self.sums is None:
            self.sums = [
                list(accumulate(column, initial=0))
                for column in (self.lengths, self.value_counts,
                               self.op_counts)
            ]
        lengths, values, walks = self.sums
        first, block, offset, value, walk = self.runs[
            bisect_right(self.firsts, index) - 1
        ]
        return LazyOpHandle(
            self.reader, index,
            offset + lengths[index] - lengths[first], self.lengths[index],
            value + values[index] - values[first], self.value_counts[index],
            self.op_counts[index], walk + walks[index] - walks[first],
            block, index - first,
        )


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

    @observed("bytecode.lazy.open", "bytecode.lazy.open_time", "bytecode")
    def __init__(self, context: Context, data, *,
                 name: str = "<bytecode>", _close: Callable[[], None] | None = None):
        self.context = context
        self.data = data
        self.name = name
        self._close = _close
        self._closed = False
        self.lazy = False
        self.root: Operation | None = None
        self.handles: Sequence[LazyOpHandle] = []
        self._ops: _OpReader | None = None
        self._ops_start = 0
        #: Per block: sorted original positions of already-forced ops,
        #: so a force's insertion index is one bisect, not a sibling
        #: scan (out-of-order forcing must not be quadratic).
        self._forced_positions: dict[int, list[int]] = {}
        self._forced = 0
        with malformed_as_bytecode_error(name):
            self._open()
        metrics = OBS.metrics
        if metrics.enabled:
            metrics.counter("bytecode.lazy.opens").inc()
            if self.lazy:
                metrics.counter("bytecode.lazy.ops_indexed").inc(
                    len(self.handles)
                )
            else:
                metrics.counter("bytecode.lazy.fallbacks").inc()

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

        try:
            return cls(context, mapped, name=path, _close=close)
        except BaseException:
            # A corrupt artifact: no reader owns the mapping to close it.
            close()
            raise

    def _open(self) -> None:
        """Read the tables, the op index and the root shell.

        Byte spans tile each block's run of the op stream and value
        spans tile the numbering, so every start is a prefix sum; the
        run totals are checked against the section bounds and the
        declared value count here, and each span is reconciled op by op
        when its handle is forced — a corrupt index always surfaces as
        :class:`BytecodeError`.
        """
        data, name = self.data, self.name
        reader = Reader(data, name)
        _read_header(reader, KIND_MODULE)
        sections = _read_sections(reader)
        index = sections.get(enc.SECTION_OP_INDEX)
        if index is None:
            self._open_eager()
            return
        self.lazy = True
        string_table, attrs, locations, ops = _read_tables(
            self.context, sections, name
        )
        # The entry count is the one multi-byte varint of a typical index:
        # without it the entries decode as one ASCII run.
        count, start = varint_at(data, index.pos, index.end, name)
        entries = varints(data, start, index.end, name)
        if len(entries) != 3 * count:
            raise _error(data, start, len(entries), index.end, name,
                         f"op index declares {count} entries but carries "
                         f"{len(entries)} fields")
        lengths, value_counts, op_counts = (entries[0::3], entries[1::3],
                                            entries[2::3])
        if count and min(op_counts) < 1:
            raise BytecodeError(
                f"op-index entry {op_counts.index(0)} declares an empty "
                "subtree", name,
            )
        self._ops_start = ops.pos
        budget = ops.end - ops.pos - sum(lengths)
        if budget < 0:
            raise BytecodeError("op-index byte spans run past the op "
                                "section", name)
        shell_ints = varints(data, ops.pos, varint_offset(
            data, ops.pos, budget, ops.end), name)
        values = _Values(shell_ints, ops)
        args = (self.context, string_table, attrs, values, locations, data,
                name)
        shell = _ShellReader(*args, lengths=lengths,
                             value_counts=value_counts, op_counts=op_counts)
        self.root = shell.read(shell_ints, 1, ops.pos, ops.end,
                               (0, len(values.table)), 0, [], 0,
                               "the root operation")
        if shell.next not in (None, ops.end):
            raise BytecodeError(f"at byte {shell.next}: {ops.end - shell.next}"
                                " trailing bytes after the root operation", name)
        if shell.entry != count:
            raise shell.error(len(shell_ints), (
                f"op index declares {count - shell.entry} more top-level "
                "ops than the op stream holds"))
        shell.finish(shell_ints)
        self._ops = _OpReader(*args)
        self.handles = _Handles(self, shell)

    def _open_eager(self) -> None:
        """No index section: decode everything once, wrap it in handles."""
        from repro.bytecode.decoder import decode_module

        root = decode_module(self.context, self.data, name=self.name)
        self.root = root
        handles = []
        for region in root.regions:
            for block in region.blocks:
                for position, op in enumerate(block.ops):
                    handle = LazyOpHandle(
                        self, len(handles), 0, 0, 0, 0,
                        sum(1 for _ in op.walk()), 0, block, position,
                    )
                    handle.op = op
                    handles.append(handle)
        self.handles = handles

    # ------------------------------------------------------------------
    # Forcing
    # ------------------------------------------------------------------

    def _span(self, handle: LazyOpHandle) -> tuple[int, int]:
        if self._closed:
            raise BytecodeError(
                "lazy module reader is closed", self.name
            )
        start = self._ops_start + handle.byte_offset
        return start, start + handle.byte_length

    def _force(self, handle: LazyOpHandle) -> Operation:
        start, end = self._span(handle)
        ints = varints(self.data, start, end, self.name)
        reader = self._ops
        values = handle.value_start, handle.value_start + handle.value_count
        op = reader.read(ints, 0, start, end, values, handle.walk_start,
                         list(handle.block.parent.blocks), 1,
                         f"op #{handle.index}")
        if reader.walk - handle.walk_start != handle.op_count:
            raise reader.error(len(ints), (
                f"op #{handle.index} decoded "
                f"{reader.walk - handle.walk_start} ops, index declared "
                f"{handle.op_count}"))
        if reader.value != values[1]:
            raise reader.error(len(ints), (
                f"op #{handle.index} defined "
                f"{reader.value - handle.value_start} values, index "
                f"declared {handle.value_count}"))
        forced = self._forced_positions.setdefault(id(handle.block), [])
        position = bisect_left(forced, handle.block_position)
        handle.block.insert_op(op, position)
        insort(forced, handle.block_position)
        handle.op = op
        self._forced += 1
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
            self._ops.values.check_resolved(self.name)
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
        forced = self._forced if self.lazy else len(self.handles)
        mode = "lazy" if self.lazy else "eager-fallback"
        return (f"<LazyModuleReader {self.name!r} {mode} "
                f"{forced}/{len(self.handles)} forced>")
