"""Operations: the unit of computation in the IR.

An operation takes previously defined SSA values as operands and produces
zero or more result values (§2).  Operations may carry attributes (static
information), successors (for terminators passing control between basic
blocks), and nested regions (hierarchical control flow, MLIR's extension
of classical SSA).

Operations are *generic by default*: any name with any number of operands,
results, regions, and attributes is representable.  Invariants come from
an attached :class:`~repro.ir.dialect.OpDefBinding` — hand-written for
native dialects, generated from IRDL for dynamic ones (§3).
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

from repro.ir.attributes import Attribute
from repro.ir.exceptions import InvalidIRStructureError, VerifyError
from repro.ir.location import UNKNOWN_LOC, Location
from repro.ir.value import OpResult, SSAValue, add_uses, broken_use, drop_uses
from repro.utils.collector import bulk_construction

if TYPE_CHECKING:
    from repro.ir.block import Block
    from repro.ir.dialect import OpDefBinding
    from repro.ir.region import Region


class Operation:
    """A single IR operation."""

    __slots__ = (
        "name",
        "_operands",
        "results",
        "attributes",
        "successors",
        "regions",
        "parent",
        "definition",
        "location",
    )

    def __init__(
        self,
        name: str,
        operands: Sequence[SSAValue] = (),
        result_types: Sequence[Attribute] = (),
        attributes: Mapping[str, Attribute] | None = None,
        successors: Sequence["Block"] = (),
        regions: Sequence["Region"] = (),
        definition: "OpDefBinding | None" = None,
        location: Location | None = None,
    ):
        self.name = name
        self.results: tuple[OpResult, ...] = tuple([
            OpResult(t, self, i) for i, t in enumerate(result_types)
        ])
        self.attributes: dict[str, Attribute] = (
            dict(attributes) if attributes else {}
        )
        # Most ops have neither successors nor regions: they share the
        # empty tuple instead of each owning an empty list, which the
        # garbage collector would track.  ``add_region`` makes the list.
        self.successors: list[Block] | tuple[()] = (
            list(successors) if successors else ()
        )
        self.regions: list[Region] | tuple[()] = ()
        self.parent: Block | None = None
        self.definition = definition
        self.location: Location = (
            location if location is not None else UNKNOWN_LOC
        )
        self._operands: tuple[SSAValue, ...] = tuple(operands)
        add_uses(self, self._operands)
        for region in regions:
            self.add_region(region)

    # ------------------------------------------------------------------
    # Operands and use-def maintenance
    # ------------------------------------------------------------------

    @property
    def operands(self) -> tuple[SSAValue, ...]:
        return self._operands

    @operands.setter
    def operands(self, new_operands: Sequence[SSAValue]) -> None:
        self._set_operands(new_operands)

    def _set_operands(self, new_operands: Sequence[SSAValue]) -> None:
        drop_uses(self, self._operands)
        self._operands = tuple(new_operands)
        add_uses(self, self._operands)

    def set_operand(self, index: int, value: SSAValue) -> None:
        """Replace the operand at ``index``, maintaining use lists."""
        operands = self._operands
        old = operands[index]
        if old is value:
            return
        drop_uses(self, (old,))
        new_operands = list(operands)
        new_operands[index] = value
        self._operands = tuple(new_operands)
        add_uses(self, (value,))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def dialect_name(self) -> str:
        return self.name.split(".", 1)[0]

    def add_region(self, region: "Region") -> None:
        if region.parent is not None:
            raise InvalidIRStructureError(
                "region is already attached to an operation"
            )
        region.parent = self
        if isinstance(self.regions, list):
            self.regions.append(region)
        else:
            self.regions = [*self.regions, region]

    def result(self, index: int = 0) -> OpResult:
        return self.results[index]

    def operand(self, index: int = 0) -> SSAValue:
        return self._operands[index]

    @property
    def parent_op(self) -> "Operation | None":
        if self.parent is not None and self.parent.parent is not None:
            return self.parent.parent.parent
        return None

    def is_ancestor_of(self, other: "Operation") -> bool:
        current = other.parent_op
        while current is not None:
            if current is self:
                return True
            current = current.parent_op
        return False

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def walk(self, include_self: bool = True) -> Iterator["Operation"]:
        """Pre-order traversal of this operation and everything nested.

        Each block's op list is copied when the walk enters it, so the
        caller may edit the IR as it goes.
        """
        if not self.regions:
            return iter((self,) if include_self else ())
        return _walk_nested(self, include_self)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def detach(self) -> "Operation":
        """Remove this operation from its parent block, keeping it intact."""
        if self.parent is not None:
            self.parent.detach_op(self)
        return self

    def erase(self, *, safe_erase: bool = True) -> None:
        """Detach and destroy this operation.

        With ``safe_erase`` (the default) the operation's results must be
        unused.  Nested regions are erased recursively.
        """
        self.detach()
        if safe_erase:
            for res in self.results:
                res.erase_check()
        for region in self.regions:
            region.drop_all_references()
        self._set_operands(())

    def replace_by(self, values: Sequence[SSAValue]) -> None:
        """Replace all result uses with ``values`` and erase this op."""
        if len(values) != len(self.results):
            raise InvalidIRStructureError(
                f"replace_by got {len(values)} values for "
                f"{len(self.results)} results"
            )
        for result, value in zip(self.results, values):
            result.replace_all_uses_with(value)
        self.erase()

    @bulk_construction
    def clone(
        self, value_map: dict[SSAValue, SSAValue] | None = None
    ) -> "Operation":
        """Deep-copy this operation, remapping operands through ``value_map``.

        ``value_map`` is extended with every result and block argument
        copied.  Nested ops are copied by :meth:`Region.clone_into`, so
        the nesting depth is not bounded by Python's recursion limit.
        """
        from repro.ir.region import Region

        if value_map is None:
            value_map = {}
        new_root = self._copy(value_map, list(self.successors) or ())
        for region in self.regions:
            new_region = Region()
            new_root.add_region(new_region)
            region.clone_into(new_region, value_map)
        return new_root

    def _copy(
        self,
        value_map: dict[SSAValue, SSAValue],
        successors: "list[Block] | tuple[()]",
    ) -> "Operation":
        """This op without its regions: operands remapped, fresh results."""
        new = Operation.__new__(Operation)
        new.name = self.name
        lookup = value_map.get
        new._operands = operands = tuple([
            lookup(operand, operand) for operand in self._operands
        ])
        add_uses(new, operands)
        new.results = results = tuple([
            OpResult(result.type, new, result.index)
            for result in self.results
        ])
        for old_result, new_result in zip(self.results, results):
            value_map[old_result] = new_result
        new.attributes = dict(self.attributes)
        new.successors = successors
        new.regions = ()
        new.parent = None
        new.definition = self.definition
        new.location = self.location
        return new

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self, recursive: bool = True) -> None:
        """Check structural invariants, then the attached definition's.

        Structural checks are dialect-independent: parent links are
        consistent, successors are only present on block terminators, and
        every region is well-formed.  Definition-level invariants (operand
        counts, type constraints, …) run through ``definition.verify`` —
        the code path IRDL-generated verifiers plug into.
        """
        for attr in self.attributes.values():
            attr.verify()
        index = broken_use(self)
        if index is not None:
            raise VerifyError(
                f"use-def chain broken: operand #{index} of {self.name} "
                "does not know about its use",
                obj=self,
            )
        if self.successors:
            if self.parent is not None and self.parent.ops and self.parent.ops[-1] is not self:
                raise VerifyError(
                    f"operation {self.name} has successors but is not the "
                    "last operation of its block",
                    obj=self,
                )
            for successor in self.successors:
                if self.parent is not None and successor.parent is not self.parent.parent:
                    raise VerifyError(
                        f"successor of {self.name} is not in the same region",
                        obj=self,
                    )
        if recursive:
            for region in self.regions:
                region.verify()
        if self.definition is not None:
            try:
                self.definition.verify(self)
            except VerifyError as err:
                from repro.obs.instrument import OBS

                remarks = OBS.remarks
                if remarks.enabled:
                    remarks.emit(
                        "verify-failure",
                        origin="verifier",
                        name=type(err).__name__,
                        op=self.name,
                        location=self.location,
                        message=str(err),
                    )
                raise

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"<Operation {self.name}: {len(self._operands)} operands, "
            f"{len(self.results)} results, {len(self.regions)} regions>"
        )


_blocks_of = attrgetter("blocks")


def _nested_blocks(op: Operation) -> Iterator["Block"]:
    """The blocks of every region of ``op``, read lazily."""
    return chain.from_iterable(map(_blocks_of, op.regions))


def _walk_nested(root: Operation, include_self: bool) -> Iterator[Operation]:
    """:meth:`Operation.walk` over an op with regions, without recursion."""
    if include_self:
        yield root
    stack: list[tuple[Iterator[Block], Iterator[Operation]]] = []
    blocks = _nested_blocks(root)
    ops: Iterator[Operation] = iter(())
    while True:
        for op in ops:
            yield op
            if op.regions:
                stack.append((blocks, ops))
                blocks = _nested_blocks(op)
                ops = iter(())
                break
        else:
            block = next(blocks, None)
            if block is not None:
                ops = iter(block.ops[:])
            elif stack:
                blocks, ops = stack.pop()
            else:
                return
