"""Regions: control-flow graphs nested inside operations.

A region contains a CFG of basic blocks with a single entry block (§2).
Regions are MLIR's extension to classical SSA that lets operations carry
hierarchical control flow (``scf.if``, loops, functions, modules, …).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.ir.block import Block
from repro.ir.exceptions import InvalidIRStructureError, VerifyError

if TYPE_CHECKING:
    from repro.ir.operation import Operation
    from repro.ir.value import SSAValue


#: The deepest region nesting the textual parser and printer and the
#: IRBC decoder and encoders accept.  The root op's regions are level 1,
#: so an op inside ``MAX_NESTING`` nested regions still parses, prints
#: and decodes; a region one level deeper is refused with a diagnostic
#: (the printer and the encoders raise, naming the limit).  Parsing,
#: decoding, printing and ``Operation.verify`` recurse once per level;
#: at this depth all four run from a test's stack at Python's default
#: recursion limit (1,000).  ``Operation.verify`` does not check the
#: limit.
#:
#: The same number bounds how deeply attribute, type and parameter
#: values nest, where a value is 1 deeper than its deepest part (an
#: array than its elements, a function type than its inputs and
#: results, ``1 : i32`` than ``i32``).  The textual parser reports the
#: opening bracket of a value past the limit, and the IRBC decoder
#: refuses an attribute-pool entry past it, before printing or
#: encoding recurses over the value.  Values built through the API are
#: not checked.
MAX_NESTING = 128


class Region:
    """An ordered list of basic blocks; the first block is the entry."""

    __slots__ = ("blocks", "parent")

    def __init__(self, blocks: Iterable[Block] = ()):
        self.blocks: list[Block] = []
        self.parent: Operation | None = None
        for block in blocks:
            self.add_block(block)

    @property
    def entry_block(self) -> Block | None:
        return self.blocks[0] if self.blocks else None

    def add_block(self, block: Block) -> Block:
        if block.parent is not None:
            raise InvalidIRStructureError("block is already attached to a region")
        block.parent = self
        self.blocks.append(block)
        return block

    def insert_block(self, block: Block, index: int) -> Block:
        if block.parent is not None:
            raise InvalidIRStructureError("block is already attached to a region")
        block.parent = self
        self.blocks.insert(index, block)
        return block

    def detach_block(self, block: Block) -> Block:
        try:
            self.blocks.remove(block)
        except ValueError:
            raise InvalidIRStructureError("block is not in this region") from None
        block.parent = None
        return block

    def walk(self) -> Iterator["Operation"]:
        for block in self.blocks:
            yield from block.walk()

    def clone_into(
        self, target: "Region", value_map: dict["SSAValue", "SSAValue"]
    ) -> None:
        """Clone all blocks of this region into ``target``.

        ``value_map`` maps original values to clones; it is extended with
        block arguments and op results as they are created, and used to
        remap operands and successors.  Nested ops are copied in pre-order
        from an explicit stack, so the nesting depth is not bounded by
        Python's recursion limit.
        """
        # Frames: (ops still to copy, their new block, the block map of
        # the enclosing region); the top frame is copied next.
        stack: list[tuple[Iterator[Operation], Block, dict[Block, Block]]] = []
        _stack_blocks(stack, [(self, target)], value_map)
        while stack:
            ops, new_block, block_map = stack[-1]
            op = next(ops, None)
            if op is None:
                stack.pop()
                continue
            successors = op.successors
            if successors:
                successors = [block_map.get(block, block) for block in successors]
            new_op = op._copy(value_map, successors)
            new_op.parent = new_block
            new_block.ops.append(new_op)
            if op.regions:
                pairs = []
                for region in op.regions:
                    new_region = Region()
                    new_op.add_region(new_region)
                    pairs.append((region, new_region))
                _stack_blocks(stack, pairs, value_map)

    def verify(self) -> None:
        for block in self.blocks:
            if block.parent is not self:
                raise VerifyError("block has a stale parent pointer", obj=self)
            block.verify()

    def drop_all_references(self) -> None:
        for block in self.blocks:
            block.drop_all_references()

    def __repr__(self) -> str:
        return f"<Region with {len(self.blocks)} blocks>"


def _stack_blocks(
    stack: list,
    pairs: list[tuple[Region, Region]],
    value_map: dict["SSAValue", "SSAValue"],
) -> None:
    """Append an empty copy of each ``(region, target)`` pair's blocks to
    ``target``, arguments mapped in ``value_map``, and stack one frame per
    block for :meth:`Region.clone_into`, the first block on top."""
    frames = []
    for region, target in pairs:
        block_map: dict[Block, Block] = {}
        for block in region.blocks:
            new_block = Block(arg_types=[a.type for a in block.args])
            for old_arg, new_arg in zip(block.args, new_block.args):
                value_map[old_arg] = new_arg
            block_map[block] = new_block
            target.add_block(new_block)
            frames.append((iter(block.ops), new_block, block_map))
    stack.extend(reversed(frames))
