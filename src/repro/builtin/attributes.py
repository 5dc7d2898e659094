"""Builtin attributes: compile-time constants attached to operations."""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.ir.attributes import Attribute, Data, ParametrizedAttribute, TypeAttribute
from repro.ir.exceptions import VerifyError
from repro.builtin.types import FloatType, IndexType, IntegerType, f32, f64, i64
from repro.utils.quoting import quote


class StringAttr(Data):
    """A string attribute, printed as ``"text"``."""

    name = "builtin.string"

    def verify(self) -> None:
        if not isinstance(self.data, str):
            raise VerifyError(f"string attribute holds {type(self.data).__name__}")

    def __str__(self) -> str:
        return quote(self.data)


class IntegerAttr(ParametrizedAttribute):
    """An integer constant together with its type: ``42 : i32``."""

    name = "builtin.integer_attr"
    parameter_names = ("value", "type")

    def __init__(self, value: int, value_type: Attribute | None = None):
        from repro.ir.params import IntegerParam

        if value_type is None:
            value_type = i64
        super().__init__((IntegerParam(value, 64, True), value_type))

    @property
    def value(self) -> int:
        return self.parameters[0].value

    @property
    def type(self) -> Attribute:
        return self.parameters[1]

    def verify(self) -> None:
        value, value_type = self.parameters
        if isinstance(value_type, IntegerType):
            value_type.verify()  # a width of 0 has no range to fit
            if not _fits(value.value, value_type):
                raise VerifyError(
                    f"value {value.value} does not fit in {value_type}"
                )
        elif not isinstance(value_type, IndexType):
            raise VerifyError(
                f"integer attribute type must be integer or index, got {value_type}"
            )

    def __str__(self) -> str:
        return f"{self.value} : {self.type}"


def _fits(value: int, value_type: IntegerType) -> bool:
    """Whether ``value`` lies in the range MLIR gives ``value_type``:
    ``iN`` takes ``[-2^(N-1), 2^N - 1]`` (its bits read as signed or
    unsigned), ``siN`` ``[-2^(N-1), 2^(N-1) - 1]`` and ``uiN``
    ``[0, 2^N - 1]``."""
    width_param, signedness = value_type.parameters
    # Values are 64-bit, and a type of 64 bits or more holds one exactly
    # when a 64-bit type of its signedness does: no shift needs more.
    width = min(width_param.value, 64)
    kind = signedness.constructor
    if kind == "Unsigned":
        return 0 <= value < 1 << width
    half = 1 << (width - 1)
    return -half <= value < (half if kind == "Signed" else half << 1)


class FloatAttr(ParametrizedAttribute):
    """A floating-point constant together with its type: ``1.0 : f32``."""

    name = "builtin.float_attr"
    parameter_names = ("value", "type")

    def __init__(self, value: float, value_type: Attribute | None = None):
        from repro.ir.params import FloatParam

        if value_type is None:
            value_type = f64
        super().__init__((FloatParam(float(value), 64), value_type))

    @property
    def value(self) -> float:
        return self.parameters[0].value

    @property
    def type(self) -> Attribute:
        return self.parameters[1]

    def verify(self) -> None:
        if not isinstance(self.type, FloatType):
            raise VerifyError(
                f"float attribute type must be a float type, got {self.type}"
            )

    def __str__(self) -> str:
        import math

        if math.isfinite(self.value):
            return f"{self.value} : {self.type}"
        # Decimal repr cannot express this value; print the bit-exact
        # hex form the parser accepts back.
        return f"0x{self.parameters[0].bits():016X} : {self.type}"


class UnitAttr(ParametrizedAttribute):
    """A presence-only attribute (its existence is the information)."""

    name = "builtin.unit"

    def __init__(self) -> None:
        super().__init__(())

    def __str__(self) -> str:
        return "unit"


class TypeAttr(ParametrizedAttribute):
    """An attribute wrapping a type, e.g. a function's signature."""

    name = "builtin.type_attr"
    parameter_names = ("type",)

    def __init__(self, wrapped: Attribute):
        super().__init__((wrapped,))

    @property
    def type(self) -> Attribute:
        return self.parameters[0]

    def verify(self) -> None:
        if not isinstance(self.type, TypeAttribute):
            raise VerifyError(f"type attribute wraps non-type {self.type!r}")

    def __str__(self) -> str:
        return str(self.type)


class ArrayAttr(ParametrizedAttribute):
    """An ordered array of attributes: ``[1 : i64, "a"]``."""

    name = "builtin.array"

    def __init__(self, elements: Iterable[Attribute]):
        super().__init__(tuple(elements))

    @property
    def elements(self) -> tuple[Attribute, ...]:
        return self.parameters

    def __len__(self) -> int:
        return len(self.parameters)

    def __iter__(self):
        return iter(self.parameters)

    def verify(self) -> None:
        for element in self.parameters:
            if not isinstance(element, Attribute):
                raise VerifyError(f"array element {element!r} is not an attribute")
            element.verify()

    def __str__(self) -> str:
        return "[" + ", ".join(str(e) for e in self.parameters) + "]"


class DictionaryAttr(ParametrizedAttribute):
    """A sorted name→attribute dictionary: ``{key = value}``."""

    name = "builtin.dictionary"

    def __init__(self, entries: Mapping[str, Attribute]):
        items = tuple(sorted(entries.items()))
        super().__init__(items)

    @property
    def entries(self) -> dict[str, Attribute]:
        return dict(self.parameters)

    def get(self, key: str) -> Attribute | None:
        return self.entries.get(key)

    def verify(self) -> None:
        for key, value in self.parameters:
            if not isinstance(key, str) or not isinstance(value, Attribute):
                raise VerifyError("dictionary attribute entries must map str→Attribute")
            value.verify()

    def __str__(self) -> str:
        inner = ", ".join(f"{k} = {v}" for k, v in self.parameters)
        return "{" + inner + "}"


class SymbolRefAttr(Data):
    """A reference to a symbol by name: ``@conorm``."""

    name = "builtin.symbol_ref"

    def verify(self) -> None:
        if not isinstance(self.data, str) or not self.data:
            raise VerifyError("symbol reference must be a non-empty string")

    def __str__(self) -> str:
        return f"@{self.data}"


def f32_attr(value: float) -> FloatAttr:
    """The paper's ``#f32_attr``: a single-precision float constant."""
    return FloatAttr.get(value, f32)  # type: ignore[return-value]
