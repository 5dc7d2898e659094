"""Dialect bindings: the registration interface between definitions and IR.

A *dialect* groups operations, types, and attributes under a namespace
(§2).  This module defines the binding classes a dialect registers with a
:class:`~repro.ir.context.Context`:

* :class:`OpDefBinding` — knows how to verify (and optionally parse/print)
  one kind of operation;
* :class:`AttrDefBinding` — likewise for one kind of type or attribute;
* :class:`EnumBinding` — an enum declared by the dialect (IRDL §4.8);
* :class:`DialectBinding` — the namespace bundling all of the above.

Native dialects (``builtin``, ``func``, …) implement these classes by
hand; the IRDL instantiation layer (§3) generates them at runtime from a
dialect definition file.  Both flavours flow through the exact same
registration and verification code paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.ir.attributes import Attribute
from repro.ir.exceptions import VerifyError
from repro.ir.location import UNKNOWN_LOC, Location

if TYPE_CHECKING:
    from repro.ir.operation import Operation


class OpDefBinding:
    """The definition backing one operation kind.

    ``verify`` is the hook IRDL-generated verifiers plug into — it
    corresponds to the hand-written ``MulOp::verify`` style code the paper
    shows in Listing 2, derived automatically in our system.
    """

    def __init__(
        self,
        qualified_name: str,
        *,
        summary: str = "",
        is_terminator: bool = False,
        verifier: Callable[["Operation"], None] | None = None,
    ):
        self.qualified_name = qualified_name
        self.summary = summary
        self.is_terminator = is_terminator
        self._verifier = verifier
        #: Where the definition lives (IRDL instantiation fills this in
        #: with the declaration's source span; native dialects keep the
        #: unknown default).
        self.location: Location = UNKNOWN_LOC

    @property
    def dialect_name(self) -> str:
        return self.qualified_name.split(".", 1)[0]

    @property
    def base_name(self) -> str:
        return self.qualified_name.split(".", 1)[-1]

    def verify(self, op: "Operation") -> None:
        if self._verifier is not None:
            self._verifier(op)

    # -- optional custom assembly format ------------------------------

    def has_custom_format(self) -> bool:
        return False

    def prepare_custom(self, op: "Operation") -> Any:
        """Pre-flight check before printing the custom format; returns
        what :meth:`print_custom` takes (the constraint-variable
        bindings recovered from ``op``).

        Raises :class:`VerifyError` when the operation cannot be printed
        in its declarative format (e.g. it is invalid); the printer then
        falls back to the generic form.
        """

    def print_custom(self, op: "Operation", printer: Any,
                     bindings: Any) -> None:
        raise NotImplementedError

    def parse_custom(self, parser: Any) -> "Operation":
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<OpDefBinding {self.qualified_name}>"


class AttrDefBinding:
    """The definition backing one type or attribute kind."""

    def __init__(
        self,
        qualified_name: str,
        *,
        is_type: bool,
        parameter_names: Sequence[str] = (),
        summary: str = "",
        param_verifier: Callable[[tuple[Any, ...]], None] | None = None,
        constructor: Callable[[tuple[Any, ...]], Attribute] | None = None,
        canonical_name: str | None = None,
    ):
        self.qualified_name = qualified_name
        self.is_type = is_type
        self.parameter_names = tuple(parameter_names)
        #: Name→index table so dynamic ``param()`` lookups are O(1).
        self.param_index = {
            name: i for i, name in enumerate(self.parameter_names)
        }
        self.summary = summary
        self._param_verifier = param_verifier
        self._constructor = constructor
        #: The attribute name instances of this definition carry.  Alias
        #: registrations (e.g. ``builtin.string_attr`` for
        #: ``builtin.string``) construct attributes under a different
        #: canonical name than their registration name.
        self.canonical_name = canonical_name or qualified_name

    @property
    def dialect_name(self) -> str:
        return self.qualified_name.split(".", 1)[0]

    @property
    def base_name(self) -> str:
        return self.qualified_name.split(".", 1)[-1]

    def verify_parameters(self, parameters: tuple[Any, ...]) -> None:
        if self.parameter_names and len(parameters) != len(self.parameter_names):
            raise VerifyError(
                f"{self.qualified_name} expects {len(self.parameter_names)} "
                f"parameters, got {len(parameters)}"
            )
        if self._param_verifier is not None:
            self._param_verifier(parameters)

    def instantiate(self, parameters: Sequence[Any] = ()) -> Attribute:
        """Build a verified, uniqued attribute/type instance."""
        params = tuple(parameters)
        self.verify_parameters(params)
        if self._constructor is None:
            raise VerifyError(
                f"{self.qualified_name} has no registered constructor"
            )
        from repro.ir.uniquer import intern

        return intern(self._constructor(params))

    def __repr__(self) -> str:
        kind = "type" if self.is_type else "attribute"
        return f"<AttrDefBinding {kind} {self.qualified_name}>"


class EnumBinding:
    """An enumerated type declared by a dialect (IRDL ``Enum``, §4.8)."""

    def __init__(self, qualified_name: str, constructors: Sequence[str]):
        self.qualified_name = qualified_name
        self.constructors = tuple(constructors)
        if len(set(self.constructors)) != len(self.constructors):
            raise VerifyError(
                f"enum {qualified_name} has duplicate constructors"
            )

    @property
    def base_name(self) -> str:
        return self.qualified_name.split(".", 1)[-1]

    def has_constructor(self, name: str) -> bool:
        return name in self.constructors

    def __repr__(self) -> str:
        return f"<EnumBinding {self.qualified_name}>"


class DialectBinding:
    """A namespace of operation, type, attribute, and enum definitions."""

    def __init__(self, name: str):
        self.name = name
        self.operations: dict[str, OpDefBinding] = {}
        self.types: dict[str, AttrDefBinding] = {}
        self.attributes: dict[str, AttrDefBinding] = {}
        self.enums: dict[str, EnumBinding] = {}

    def register_op(self, op_def: OpDefBinding) -> OpDefBinding:
        self._check_namespace(op_def.qualified_name)
        self.operations[op_def.base_name] = op_def
        return op_def

    def register_type(self, type_def: AttrDefBinding) -> AttrDefBinding:
        self._check_namespace(type_def.qualified_name)
        if not type_def.is_type:
            raise VerifyError(
                f"{type_def.qualified_name} is an attribute, not a type"
            )
        self.types[type_def.base_name] = type_def
        return type_def

    def register_attr(self, attr_def: AttrDefBinding) -> AttrDefBinding:
        self._check_namespace(attr_def.qualified_name)
        if attr_def.is_type:
            raise VerifyError(
                f"{attr_def.qualified_name} is a type, not an attribute"
            )
        self.attributes[attr_def.base_name] = attr_def
        return attr_def

    def register_enum(self, enum: EnumBinding) -> EnumBinding:
        self._check_namespace(enum.qualified_name)
        self.enums[enum.base_name] = enum
        return enum

    def _check_namespace(self, qualified_name: str) -> None:
        dialect = qualified_name.split(".", 1)[0]
        if dialect != self.name:
            raise VerifyError(
                f"cannot register {qualified_name!r} in dialect {self.name!r}"
            )

    def __repr__(self) -> str:
        return (
            f"<DialectBinding {self.name}: {len(self.operations)} ops, "
            f"{len(self.types)} types, {len(self.attributes)} attrs>"
        )
