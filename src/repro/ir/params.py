"""Parameter values carried by parametrized types and attributes.

In MLIR, type and attribute parameters are arbitrary C++ values.  Our
reproduction mirrors the inventory the paper reports in Figure 8: types
and attributes are parametrized by *other* types and attributes, integers,
floats, strings, enums, arrays, source locations, type ids, and — rarely —
domain-specific values that require the IRDL-Py escape hatch
(:class:`OpaqueParam`).

Every parameter value is immutable and hashable so that parametrized
types compare and hash structurally, exactly as MLIR's uniqued types do.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from typing import Union

from repro.utils.quoting import quote

# An attribute (including a type) may itself be used as a parameter, so the
# full parameter domain is ``Attribute | ParamValue``.  We import lazily to
# avoid a cycle with repro.ir.attributes.
ParamLike = Union["ParamValue", "object"]

#: Integer widths accepted by the builtin fixed-width integer parameters,
#: matching IRDL's ``int8_t`` … ``uint64_t`` constraint constructors.
INTEGER_PARAM_WIDTHS = (8, 16, 32, 64)


class ParamValue:
    """Base class for non-attribute parameter values."""

    __slots__ = ()

    #: A short kind tag used by the analysis tooling (Figure 8).
    kind = "param"


@dataclass(frozen=True)
class IntegerParam(ParamValue):
    """A fixed-width integer parameter (``int8_t`` … ``uint64_t``).

    The value is stored as ``operator.index(value)``: a ``bool`` becomes
    the ``int`` it equals, so equal parameters print alike, and a value
    that is not an integer raises ``TypeError``.
    """

    value: int
    bitwidth: int = 32
    signed: bool = True

    kind = "integer"

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", operator.index(self.value))
        if self.bitwidth not in INTEGER_PARAM_WIDTHS:
            raise ValueError(f"unsupported integer parameter width {self.bitwidth}")
        low, high = self.value_range(self.bitwidth, self.signed)
        if not low <= self.value <= high:
            raise ValueError(
                f"value {self.value} does not fit in "
                f"{'' if self.signed else 'u'}int{self.bitwidth}_t"
            )

    @staticmethod
    def value_range(bitwidth: int, signed: bool) -> tuple[int, int]:
        if signed:
            return -(1 << (bitwidth - 1)), (1 << (bitwidth - 1)) - 1
        return 0, (1 << bitwidth) - 1

    @property
    def type_name(self) -> str:
        return f"{'' if self.signed else 'u'}int{self.bitwidth}_t"

    def __str__(self) -> str:
        return f"{self.value} : {self.type_name}"


@dataclass(frozen=True, eq=False)
class FloatParam(ParamValue):
    """A floating-point parameter value.

    Equality and hashing are over the IEEE-754 *bit pattern*, not the
    numeric value: ``NaN`` payloads compare equal to themselves and
    ``-0.0`` stays distinct from ``0.0``, so interning and serialization
    round-trips are bit-exact.  Values whose decimal ``repr`` is lossy
    or unparseable (``inf``, ``nan``) print in the bit-exact hex form
    ``0x<16 hex digits>`` that the textual parser accepts back.
    """

    value: float
    bitwidth: int = 64

    kind = "float"

    def bits(self) -> int:
        """The raw IEEE-754 double bit pattern of the value."""
        return struct.unpack("<Q", struct.pack("<d", self.value))[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FloatParam):
            return NotImplemented
        return self.bitwidth == other.bitwidth and self.bits() == other.bits()

    def __hash__(self) -> int:
        return hash((FloatParam, self.bits(), self.bitwidth))

    def __str__(self) -> str:
        if math.isfinite(self.value):
            return f"{self.value!r} : f{self.bitwidth}"
        return f"0x{self.bits():016X} : f{self.bitwidth}"


@dataclass(frozen=True)
class StringParam(ParamValue):
    """A string parameter value."""

    value: str

    kind = "string"

    def __str__(self) -> str:
        return quote(self.value)


@dataclass(frozen=True)
class EnumParam(ParamValue):
    """A constructor of an enum declared with IRDL's ``Enum`` directive.

    ``enum_name`` is the fully qualified enum name (``cmath.signedness``)
    and ``constructor`` one of its declared constructors (``Signed``).
    """

    enum_name: str
    constructor: str

    kind = "enum"

    def __str__(self) -> str:
        short = self.enum_name.rsplit(".", 1)[-1]
        return f"{short}.{self.constructor}"


@dataclass(frozen=True)
class ArrayParam(ParamValue):
    """An array of parameter values (attributes or other params)."""

    elements: tuple[ParamLike, ...]

    kind = "array"

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __str__(self) -> str:
        return "[" + ", ".join(str(e) for e in self.elements) + "]"


@dataclass(frozen=True)
class LocationParam(ParamValue):
    """A source-location parameter, one of MLIR's builtin parameter kinds."""

    filename: str
    line: int
    column: int

    kind = "location"

    def __str__(self) -> str:
        return f"loc({quote(self.filename)}:{self.line}:{self.column})"


@dataclass(frozen=True)
class TypeIdParam(ParamValue):
    """A type-id parameter uniquely identifying a host-language class.

    MLIR uses ``TypeID`` values to identify C++ classes; we carry the
    qualified Python class name instead.
    """

    qualified_name: str

    kind = "type id"

    def __str__(self) -> str:
        return f"typeid<{self.qualified_name}>"


@dataclass(frozen=True)
class OpaqueParam(ParamValue):
    """A domain-specific parameter wrapped via IRDL-Py's ``TypeOrAttrParam``.

    ``class_name`` names the host-language class (the paper's
    ``CppClassName``); ``value`` holds an immutable Python surrogate.
    """

    class_name: str
    value: object

    kind = "opaque"

    def __str__(self) -> str:
        return f"opaque<{quote(self.class_name)}, {quote(str(self.value))}>"


def param_kind(value: object) -> str:
    """Classify a parameter value for the Figure 8 analysis.

    Attributes and types classify as ``"attr/type"``; every
    :class:`ParamValue` reports its own ``kind`` tag.
    """
    if isinstance(value, ParamValue):
        return value.kind
    return "attr/type"
