"""Printer for the MLIR-like textual IR syntax.

Operations print in the *generic* form by default::

    %0 = "cmath.norm"(%p) : (!cmath.complex<f32>) -> f32

Operations whose definition declares a custom assembly format (IRDL's
``Format`` directive, §4.7) print in their declarative form instead::

    %0 = cmath.norm %p : f32
"""

from __future__ import annotations

import io
from typing import Any, Collection, Iterable

from repro.ir.attributes import (
    Attribute,
    DynamicParametrizedAttribute,
    TypeAttribute,
    attribute_name,
)
from repro.ir.block import Block
from repro.ir.exceptions import InvalidIRStructureError, VerifyError
from repro.ir.operation import Operation
from repro.ir.params import ParamValue
from repro.ir.region import MAX_NESTING, Region
from repro.ir.value import SSAValue
from repro.textir.parser import SPELLING_CACHE_LIMIT
from repro.utils.quoting import quote


class Printer:
    """Stateful printer tracking value and block names."""

    def __init__(self, stream: io.TextIOBase | None = None, indent_width: int = 2,
                 print_locations: bool = False):
        self.stream = stream if stream is not None else io.StringIO()
        self.indent_width = indent_width
        #: When set, every operation prints a trailing ``loc(...)``
        #: attachment (the parser accepts it back, so provenance
        #: round-trips through text).
        self.print_locations = print_locations
        self._indent = 0
        # Regions open around the op being printed.
        self._depth = 0
        self._value_names: dict[SSAValue, str] = {}
        self._used_names: set[str] = set()
        self._block_names: dict[Block, str] = {}
        self._next_value = 0
        self._next_block = 0
        # Spellings rendered once per printer, each cache up to
        # SPELLING_CACHE_LIMIT entries; later shapes print uncached.
        # Keys compare structurally (float parameters bit-exact, integer
        # ones as ints), so equal keys always print alike.
        self._type_spellings: dict[Attribute, str] = {}
        # A one-line op's quoted name and "(", by op name.
        self._heads: dict[str, str] = {}
        # A one-line op's text after its operands: ")", the attribute
        # dictionary and the signature, by operand types, result types
        # and attribute items.
        self._tails: dict[tuple, str] = {}

    # ------------------------------------------------------------------
    # Low-level emission
    # ------------------------------------------------------------------

    def write(self, text: str) -> None:
        self.stream.write(text)

    def newline(self) -> None:
        self.write("\n" + " " * (self._indent * self.indent_width))

    def getvalue(self) -> str:
        assert isinstance(self.stream, io.StringIO)
        return self.stream.getvalue()

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------

    def name_of(self, value: SSAValue) -> str:
        existing = self._value_names.get(value)
        if existing is not None:
            return existing
        if value.name_hint and value.name_hint not in self._used_names:
            name = value.name_hint
        else:
            name = str(self._next_value)
            self._next_value += 1
            while name in self._used_names:
                name = str(self._next_value)
                self._next_value += 1
        self._value_names[value] = name
        self._used_names.add(name)
        return name

    def block_name(self, block: Block) -> str:
        existing = self._block_names.get(block)
        if existing is not None:
            return existing
        name = f"bb{self._next_block}"
        self._next_block += 1
        self._block_names[block] = name
        return name

    # ------------------------------------------------------------------
    # Values, types, attributes
    # ------------------------------------------------------------------

    def print_operand(self, value: SSAValue) -> None:
        self.write(f"%{self.name_of(value)}")

    def print_type(self, type_attr: Attribute) -> None:
        self.write(self._type_spelling(type_attr))

    def _type_spelling(self, type_attr: Attribute) -> str:
        """The text ``print_type`` writes for ``type_attr``."""
        spelling = self._type_spellings.get(type_attr)
        if spelling is None:
            if isinstance(type_attr, DynamicParametrizedAttribute):
                stream, self.stream = self.stream, io.StringIO()
                try:
                    self.write(f"!{type_attr.attr_name}")
                    self._print_dynamic_params(type_attr)
                    spelling = self.stream.getvalue()
                finally:
                    self.stream = stream
            else:
                spelling = str(type_attr)
            if len(self._type_spellings) < SPELLING_CACHE_LIMIT:
                self._type_spellings[type_attr] = spelling
        return spelling

    def _attribute_spelling(self, attr: Attribute) -> str:
        """The text ``print_attribute`` writes for ``attr``."""
        if isinstance(attr, DynamicParametrizedAttribute):
            stream, self.stream = self.stream, io.StringIO()
            try:
                self.print_attribute(attr)
                return self.stream.getvalue()
            finally:
                self.stream = stream
        if isinstance(attr, TypeAttribute):
            return self._type_spelling(attr)
        return str(attr)

    def _print_dynamic_params(self, attr: DynamicParametrizedAttribute) -> None:
        if not attr.parameters:
            return
        self.write("<")
        program = getattr(attr.definition, "param_format", None)
        if program is not None:
            program.print(attr.parameters, self)
        else:
            self.print_list(attr.parameters, self.print_param)
        self.write(">")

    def print_param(self, param: Any) -> None:
        """Print one type/attribute parameter value."""
        if isinstance(param, Attribute):
            if isinstance(param, TypeAttribute):
                self.print_type(param)
            else:
                self.print_attribute(param)
            return
        if isinstance(param, ParamValue):
            self.write(str(param))
            return
        self.write(repr(param))

    def print_attribute(self, attr: Attribute) -> None:
        if isinstance(attr, DynamicParametrizedAttribute):
            self.write(f"#{attr.attr_name}")
            self._print_dynamic_params(attr)
            return
        if isinstance(attr, TypeAttribute):
            self.print_type(attr)
            return
        self.write(str(attr))

    def print_list(self, items: Iterable[Any], printer_fn, separator: str = ", ") -> None:
        for index, item in enumerate(items):
            if index:
                self.write(separator)
            printer_fn(item)

    # ------------------------------------------------------------------
    # Operations, blocks, regions
    # ------------------------------------------------------------------

    def print_op(self, op: Operation) -> None:
        self._print_op(op, "")

    def _print_op(self, op: Operation, prefix: str) -> None:
        """Write ``prefix``, then ``op``; an op printed on one line, with
        ``prefix``, in one write."""
        definition = op.definition
        if definition is not None and definition.has_custom_format():
            try:
                # Constraint-variable bindings are recovered before any
                # text is emitted, so invalid IR falls back cleanly.
                bindings = definition.prepare_custom(op)
            except VerifyError:
                pass
            else:
                self.write(prefix + self._defined(op) + op.name)
                definition.print_custom(op, self, bindings)
                self._print_location_suffix(op)
                return
        if op.regions or op.successors:
            self.write(prefix + self._defined(op))
            self._print_generic(op)
            self._print_location_suffix(op)
        else:
            self.write(prefix + self._op_line(op))

    def _op_line(self, op: Operation) -> str:
        """The line of ``op`` in the generic form, with its ``loc(...)``
        when locations print; ``op`` has no regions and no successors.

        The quoted name and the text after the operands come from the
        per-printer caches; only the value names are spelled per op.
        """
        defined = self._defined(op)
        name = op.name
        head = self._heads.get(name)
        if head is None:
            head = quote(name) + "("
            if len(self._heads) < SPELLING_CACHE_LIMIT:
                self._heads[name] = head
        operands = op.operands
        attributes = op.attributes
        key = (tuple([v.type for v in operands]),
               tuple([r.type for r in op.results]),
               tuple(attributes.items()) if attributes else ())
        tail = self._tails.get(key)
        if tail is None:
            tail = ")" + self._attributes_and_signature(*key)
            if len(self._tails) < SPELLING_CACHE_LIMIT:
                self._tails[key] = tail
        name_of = self.name_of
        line = (defined + head
                + ", ".join(["%" + name_of(v) for v in operands]) + tail)
        if self.print_locations:
            return f"{line} loc({op.location})"
        return line

    def _defined(self, op: Operation) -> str:
        """``%a, %b = `` for the results of ``op``; naming them here, before
        its operands, numbers a result ahead of a later-defined operand."""
        if not op.results:
            return ""
        name_of = self.name_of
        return ", ".join(["%" + name_of(r) for r in op.results]) + " = "

    def _print_location_suffix(self, op: Operation) -> None:
        if self.print_locations:
            self.write(f" loc({op.location})")

    def _print_generic(self, op: Operation) -> None:
        """Print ``op``, which has regions or successors, in the generic
        form."""
        name_of = self.name_of
        operands = op.operands
        self.write(quote(op.name) + "("
                   + ", ".join(["%" + name_of(v) for v in operands]) + ")")
        if op.successors:
            self.write("[")
            self.print_list(
                op.successors, lambda b: self.write(f"^{self.block_name(b)}")
            )
            self.write("]")
        if op.regions:
            self.write(" (")
            self.print_list(op.regions, self.print_region)
            self.write(")")
        self.write(self._attributes_and_signature(
            [v.type for v in operands], [r.type for r in op.results],
            op.attributes.items(),
        ))

    def _attributes_and_signature(
        self,
        operand_types: Iterable[Attribute],
        result_types: Iterable[Attribute],
        attributes: Collection[tuple[str, Attribute]],
    ) -> str:
        """`` {key = value, ...} : (...) -> (...)``: the sorted attribute
        dictionary, when there is one, and the signature."""
        spell = self._type_spelling
        signature = (" : (" + ", ".join(map(spell, operand_types)) + ") -> ("
                     + ", ".join(map(spell, result_types)) + ")")
        if not attributes:
            return signature
        attribute = self._attribute_spelling
        return (" {" + ", ".join([f"{key} = {attribute(value)}"
                                  for key, value in sorted(attributes)])
                + "}" + signature)

    def print_region(self, region: Region) -> None:
        """Print ``region``; past ``MAX_NESTING`` open regions, raise
        :class:`InvalidIRStructureError`, as the IRBC encoders do,
        before printing recurses deeper."""
        if self._depth == MAX_NESTING:
            raise InvalidIRStructureError(
                f"regions nest deeper than the limit of {MAX_NESTING}"
            )
        self._depth += 1
        self.write("{")
        self._indent += 1
        multi_block = len(region.blocks) > 1
        for index, block in enumerate(region.blocks):
            if index or block.args or multi_block:
                self.newline()
                self.write(f"^{self.block_name(block)}")
                if block.args:
                    self.write("(")
                    self.print_list(block.args, self._print_block_arg)
                    self.write(")")
                self.write(":")
                self._indent += 1
                self._print_block_body(block)
                self._indent -= 1
            else:
                self._print_block_body(block)
        self._indent -= 1
        self._depth -= 1
        self.newline()
        self.write("}")

    def _print_block_arg(self, arg) -> None:
        self.print_operand(arg)
        self.write(": ")
        self.print_type(arg.type)

    def _print_block_body(self, block: Block) -> None:
        indent = "\n" + " " * (self._indent * self.indent_width)
        print_op = self._print_op
        for op in block.ops:
            print_op(op, indent)

    # ------------------------------------------------------------------

    def print_module(self, op: Operation) -> str:
        """Print a top-level operation and return the text."""
        self.print_op(op)
        self.write("\n")
        return self.getvalue() if isinstance(self.stream, io.StringIO) else ""


def print_op(op: Operation, print_locations: bool = False) -> str:
    """Convenience helper: print one operation tree to a string."""
    printer = Printer(print_locations=print_locations)
    printer.print_op(op)
    return printer.getvalue()


def print_type(type_attr: Attribute) -> str:
    printer = Printer()
    printer.print_type(type_attr)
    return printer.getvalue()


def print_attribute(attr: Attribute) -> str:
    printer = Printer()
    printer.print_attribute(attr)
    return printer.getvalue()
