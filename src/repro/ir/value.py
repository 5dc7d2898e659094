"""SSA values and use-def chains.

Each SSA value is assigned at exactly one program location (§2): either as
the result of an operation (:class:`OpResult`) or as a block argument
(:class:`BlockArgument`, MLIR's functional substitute for phi nodes).
Values track their uses so rewrites can run ``replace_all_uses_with`` in
time proportional to the number of uses.

A value records its users in one insertion-ordered ``dict`` mapping each
user operation to the number of that operation's operand slots holding
the value.  No object exists per use: :attr:`SSAValue.uses` derives the
``(operation, index)`` pairs from the map and the users' operands.
Operations keep the maps current through :func:`add_uses` and
:func:`drop_uses`, and :func:`broken_use` checks one against its user's
operands; only this module reads or writes the maps directly.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterator, NamedTuple

from repro.ir.attributes import Attribute
from repro.ir.exceptions import InvalidIRStructureError

if TYPE_CHECKING:
    from repro.ir.block import Block
    from repro.ir.operation import Operation


class Use(NamedTuple):
    """One use of an SSA value: operand slot ``index`` of ``operation``."""

    operation: "Operation"
    index: int

    def __repr__(self) -> str:
        return f"Use({self.operation.name}, operand #{self.index})"


class SSAValue:
    """Abstract base of all SSA values."""

    __slots__ = ("type", "_users", "name_hint")

    def __init__(self, value_type: Attribute, name_hint: str | None = None):
        self.type = value_type
        #: user operation -> number of its operand slots holding this value
        self._users: dict[Operation, int] = {}
        self.name_hint = name_hint

    @property
    def owner(self) -> "Operation | Block":
        raise NotImplementedError

    @property
    def uses(self) -> tuple[Use, ...]:
        """Every ``(operation, index)`` slot holding this value, in
        first-use order."""
        return tuple([
            Use(operation, index)
            for operation in self._users
            for index, operand in enumerate(operation.operands)
            if operand is self
        ])

    @property
    def has_uses(self) -> bool:
        return bool(self._users)

    def users(self) -> Iterator["Operation"]:
        """Operations that use this value, once each, in first-use order."""
        return iter(list(self._users))

    def replace_all_uses_with(self, replacement: "SSAValue") -> None:
        """Redirect every use of this value to ``replacement``."""
        if replacement is self:
            return
        users = self._users
        replacement_users = replacement._users
        for operation, count in list(users.items()):
            operation._operands = tuple([
                replacement if operand is self else operand
                for operand in operation._operands
            ])
            replacement_users[operation] = (
                replacement_users.get(operation, 0) + count
            )
        users.clear()

    def erase_check(self) -> None:
        if self._users:
            raise InvalidIRStructureError(
                f"cannot erase SSA value {self!r}: it still has "
                f"{len(self.uses)} uses"
            )


class OpResult(SSAValue):
    """The ``index``-th result of an operation."""

    __slots__ = ("op", "index")

    def __init__(self, value_type: Attribute, op: "Operation", index: int):
        # The base slots are set here: every op built or cloned makes one
        # result per result type, and calling super().__init__ made
        # cloning a 20,000-op module about 6% slower.
        self.type = value_type
        self._users = {}
        self.name_hint = None
        self.op = op
        self.index = index

    @property
    def owner(self) -> "Operation":
        return self.op

    def __repr__(self) -> str:
        return f"<result #{self.index} of {self.op.name}>"


class BlockArgument(SSAValue):
    """The ``index``-th argument of a basic block."""

    __slots__ = ("block", "index")

    def __init__(self, value_type: Attribute, block: "Block", index: int):
        super().__init__(value_type)
        self.block = block
        self.index = index

    @property
    def owner(self) -> "Block":
        return self.block

    def __repr__(self) -> str:
        return f"<block argument #{self.index}>"


def add_uses(operation: "Operation", operands: tuple[SSAValue, ...]) -> None:
    """Record each operand slot of ``operation`` in its value's user map."""
    for operand in operands:
        users = operand._users
        users[operation] = users.get(operation, 0) + 1


def drop_uses(operation: "Operation", operands: tuple[SSAValue, ...]) -> None:
    """Forget each operand slot of ``operation`` in its value's user map."""
    for operand in operands:
        users = operand._users
        count = users.get(operation)
        if count is None:
            continue
        if count > 1:
            users[operation] = count - 1
        else:
            del users[operation]


def broken_use(operation: "Operation") -> int | None:
    """The first operand of ``operation`` whose user map miscounts it.

    Each operand's map must record ``operation`` with exactly the number
    of its operand slots holding the value.  An op with more than eight
    operands counts its slots in one pass, so the check stays linear in
    the operand count.
    """
    operands = operation._operands
    counts = Counter(operands) if len(operands) > 8 else None
    for index, operand in enumerate(operands):
        slots = counts[operand] if counts else operands.count(operand)
        if operand._users.get(operation, 0) != slots:
            return index
    return None
