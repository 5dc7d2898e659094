"""Parser for the MLIR-like textual IR syntax.

Supports the *generic* operation form, which works for any registered or
unregistered operation::

    %0 = "cmath.norm"(%p) : (!cmath.complex<f32>) -> (f32)

and *custom* assembly formats declared via IRDL's ``Format`` directive
(§4.7), dispatched through the operation's registered definition::

    %0 = cmath.norm %p : f32

The parser resolves SSA use-def chains (including forward references to
values defined later in another block), block successors, dialect types
and attributes (through the context registry, so IRDL-instantiated
dialects parse with no extra code), and nested regions.
"""

from __future__ import annotations

import re
import struct
import sys
from typing import Any, Callable

from repro.builtin import attributes as battrs
from repro.builtin import types as btypes
from repro.ir.attributes import Attribute, TypeAttribute
from repro.ir.block import Block
from repro.ir.context import Context
from repro.ir.exceptions import UnregisteredConstructError, VerifyError
from repro.ir.location import UNKNOWN_LOC, FileLineColLoc, Location
from repro.ir.operation import Operation
from repro.ir.params import (
    ArrayParam,
    EnumParam,
    FloatParam,
    IntegerParam,
    LocationParam,
    OpaqueParam,
    StringParam,
    TypeIdParam,
)
from repro.ir.region import MAX_NESTING, Region
from repro.ir.uniquer import intern as intern_attr
from repro.ir.value import SSAValue
from repro.obs.instrument import OBS, observed
from repro.textir.lexer import Token, TokenCursor, TokenKind
from repro.utils.collector import bulk_construction
from repro.utils.source import SourceFile

_INT_TYPE_RE = re.compile(r"^(i|si|ui)([0-9]+)$")
_FLOAT_TYPE_RE = re.compile(r"^f(16|32|64)$")
_PARAM_INT_RE = re.compile(r"^(u?)int(8|16|32|64)_t$")
# The continuation of a bit-exact hex float literal ``0x<bits>``.  The
# lexer splits it into INTEGER "0" followed by this BARE_IDENT (the same
# mechanism shaped types like ``tensor<4x?xf32>`` rely on).
_HEX_FLOAT_BITS_RE = re.compile(r"^x[0-9A-Fa-f]{1,16}$")
_NUMBER_KINDS = (TokenKind.INTEGER, TokenKind.FLOAT, TokenKind.MINUS)
# ``IntegerAttr`` stores its value as a signed 64-bit integer.
_INT64_MIN, _INT64_MAX = IntegerParam.value_range(64, True)

# A generic op on one line, in the form the printer writes:
#
#     %a, %b = "d.op"(%x, %y) {...} : (...) -> (...)
#
# matched at the offset of its first token (``IRParser._parse_ops``).
# Result names, operands and the attribute dictionary are optional, and
# spaces and tabs may separate the tokens.  The quoted op name holds no
# backslash, so its text between the quotes is its value.  The
# dictionary and the two type lists may not hold the bracket that closes
# them (so nothing nested closes them early), a quote (a string could
# hold that bracket), a ``/`` (so could a comment) or a newline.  So the
# token parse of the ``attrs`` or ``signature`` group, when it succeeds,
# ends exactly where the group ends.  Anything else (regions,
# successors, custom formats, escaped names, comments or line breaks
# inside the op, the bare ``-> f32`` result form) does not match and is
# parsed token by token; so is a trailing ``loc(...)``.
_GENERIC_OP_RE = re.compile(
    r'(?:(?P<results>%[\w$.]+(?:[ \t]*,[ \t]*%[\w$.]+)*)[ \t]*=[ \t]*)?'
    r'(?P<name>"[^"\\\n]*")[ \t]*'
    r'\([ \t]*(?P<operands>%[\w$.]+(?:[ \t]*,[ \t]*%[\w$.]+)*)?[ \t]*\)'
    r'(?:[ \t]*(?P<attrs>\{[^{}"/\n]*\}))?'
    r'[ \t]*(?P<signature>:[ \t]*\([^()"/\n]*\)[ \t]*->[ \t]*\([^()"/\n]*\))'
)
# One SSA name in the ``results`` or ``operands`` group; group 1 is the
# name without its ``%``.
_VALUE_NAME_RE = re.compile(r"%([\w$.]+)")
# What the lexer skips between two tokens (spaces, tabs, ``\r``,
# newlines and ``//`` comments), so the next op of a run is matched
# where its first token starts.  It may skip nothing that the lexer's
# ``trivia`` does not, or text the token path rejects would parse.
_TRIVIA_RE = re.compile(r"(?:[ \t\r\n]+|//[^\n]*)*")

#: Entries each per-parse spelling cache takes; later spellings still
#: parse, uncached.  The size of ``codegen.shared_code``.
SPELLING_CACHE_LIMIT = 1024


class _PlaceholderValue(SSAValue):
    """A forward-referenced SSA value, replaced once its definition parses."""

    __slots__ = ("ref_name",)

    def __init__(self, value_type: Attribute, ref_name: str):
        super().__init__(value_type)
        self.ref_name = ref_name


class IRParser(TokenCursor):
    """Recursive-descent parser over the token stream."""

    def __init__(self, context: Context, source: SourceFile | str,
                 name: str = "<input>"):
        if isinstance(source, str):
            source = SourceFile(source, name)
        super().__init__(source)
        self.context = context
        # SSA name scopes: one per nested region, innermost last.  Uses may
        # forward-reference values defined later in the same region (CFG
        # back-edges); placeholders live in the scope they were created in.
        self._value_scopes: list[dict[str, SSAValue]] = [{}]
        self._pending_scopes: list[dict[str, list[_PlaceholderValue]]] = [{}]
        # Block scope stack, one entry per region being parsed.
        self._block_scopes: list[dict[str, Block]] = []
        # Builtin types by spelling (``i32``, ``f64``, ``index``), parsed
        # once per parse.  Shaped types read further tokens, so they are
        # never memoized.
        self._builtin_types: dict[str, Attribute] = {}
        # Generic ops' signatures and attribute dictionaries by spelling,
        # converted once per parse (``_convert``).
        self._signatures: dict[
            str, tuple[tuple[Attribute, ...], tuple[Attribute, ...]]
        ] = {}
        self._attr_dicts: dict[str, Attribute] = {}
        # Attribute, type and parameter values open around the one being
        # parsed (``_nested``).
        self._nesting = 0
        # Regions the op tree has around the ops being parsed at the top
        # level (``parse_module``), and the deepest level reached so far.
        self._outer_levels = 0
        self._deepest = 0
        #: Operations created so far, for the ``ops_parsed`` counter.
        self.ops_parsed = 0

    # ------------------------------------------------------------------
    # SSA value scope
    # ------------------------------------------------------------------

    def resolve_value(self, name: str, value_type: Attribute,
                      token: Token | None = None) -> SSAValue:
        """Resolve an operand reference, creating a placeholder if needed."""
        value = self._resolve(name, value_type)
        if value.type != value_type:
            raise self.error(self._mismatch(name, value, value_type), token)
        return value

    def _resolve(self, name: str, value_type: Attribute) -> SSAValue:
        """The value ``name`` refers to, whatever its type, or a new
        placeholder of ``value_type``."""
        for scope in reversed(self._value_scopes):
            existing = scope.get(name)
            if existing is not None:
                return existing
        placeholder = _PlaceholderValue(value_type, name)
        self._pending_scopes[-1].setdefault(name, []).append(placeholder)
        return placeholder

    # The diagnostics both ways of reading a generic op report.

    @staticmethod
    def _mismatch(name: str, value: SSAValue, value_type: Attribute) -> str:
        return (f"operand %{name} has type {value.type} but is used with "
                f"type {value_type}")

    @staticmethod
    def _operand_count(operands: int, types: int) -> str:
        return f"operation has {operands} operands but {types} operand types"

    @staticmethod
    def _result_count(op: Operation, names: int) -> str:
        return (f"operation {op.name} produced {len(op.results)} results "
                f"but {names} names were bound")

    def define_value(self, name: str, value: SSAValue,
                     token: Token | None = None) -> None:
        problem = self._bind(name, value)
        if problem is not None:
            raise self.error(problem, token)

    def _bind(self, name: str, value: SSAValue) -> str | None:
        """Define ``name`` as ``value``; the diagnostic if it cannot be."""
        scope = self._value_scopes[-1]
        if name in scope:
            return f"SSA value %{name} is defined twice"
        value.name_hint = name
        scope[name] = value
        pending = self._pending_scopes[-1]
        if pending:
            for placeholder in pending.pop(name, ()):
                if placeholder.type != value.type:
                    return (f"%{name} was forward-referenced with type "
                            f"{placeholder.type} but is defined with type "
                            f"{value.type}")
                placeholder.replace_all_uses_with(value)
        return None

    def _push_value_scope(self) -> None:
        self._value_scopes.append({})
        self._pending_scopes.append({})

    def _pop_value_scope(self) -> None:
        self._value_scopes.pop()
        pending = self._pending_scopes.pop()
        if pending:
            names = ", ".join(f"%{n}" for n in sorted(pending))
            raise self.error(f"use of undefined SSA value(s): {names}")

    def _check_no_pending(self) -> None:
        if self._pending_scopes[-1]:
            names = ", ".join(f"%{n}" for n in sorted(self._pending_scopes[-1]))
            raise self.error(f"use of undefined SSA value(s): {names}")

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------

    def parse_type(self) -> Attribute:
        return self._nested(self._type)

    def _type(self) -> Attribute:
        token = self.peek()
        if token.kind is TokenKind.BANG_IDENT:
            return self._parse_dialect_type(self.next())
        if token.kind is TokenKind.LPAREN:
            return self._parse_function_type()
        if token.kind is TokenKind.BARE_IDENT:
            return self._parse_builtin_type(self.next())
        raise self.error(f"expected a type, found {token.text!r}", token)

    def _nested(self, parse: Callable[[], Any]) -> Any:
        """``parse()`` of a value one level deeper in the attributes and
        types around it, reported at the current token (the opening
        bracket of an array, dictionary, function or shaped type) when
        that passes ``MAX_NESTING``.

        Levels count the values the IRBC decoder counts, so text within
        the limit decodes within it: a number takes two levels, since it
        holds a type; a type or attribute parsed in parameter position,
        or a type in attribute position, takes its own level only.
        """
        token = self.peek()
        depth = self._nesting
        levels = depth + 1 + (
            token.kind in _NUMBER_KINDS
            or (token.kind is TokenKind.BARE_IDENT
                and token.text in ("true", "false"))
        )
        if levels > MAX_NESTING:
            raise self.error(
                "attributes and types nest deeper than the limit of "
                f"{MAX_NESTING}",
                token,
            )
        self._nesting = levels
        try:
            return parse()
        finally:
            self._nesting = depth

    def try_parse_type(self) -> Attribute | None:
        token = self.peek()
        if token.kind is TokenKind.BANG_IDENT or token.kind is TokenKind.LPAREN:
            return self.parse_type()
        if token.kind is TokenKind.BARE_IDENT and self._is_builtin_type_name(token.text):
            return self.parse_type()
        return None

    @staticmethod
    def _is_builtin_type_name(name: str) -> bool:
        return bool(
            _INT_TYPE_RE.match(name)
            or _FLOAT_TYPE_RE.match(name)
            or name in ("index", "tensor", "vector", "memref", "none")
        )

    def _parse_builtin_type(self, token: Token) -> Attribute:
        name = token.text
        parsed = self._builtin_types.get(name)
        if parsed is None:
            if name in ("tensor", "vector", "memref"):
                return self._parse_shaped_type(name, token)
            parsed = self._builtin_types[name] = self._scalar_type(token)
        return parsed

    def _scalar_type(self, token: Token) -> Attribute:
        name = token.text
        match = _INT_TYPE_RE.match(name)
        if match:
            prefix, width = match.groups()
            signedness = {
                "i": btypes.Signedness.SIGNLESS,
                "si": btypes.Signedness.SIGNED,
                "ui": btypes.Signedness.UNSIGNED,
            }[prefix]
            return btypes.IntegerType.get(self._int_of(token, width),
                                          signedness)
        match = _FLOAT_TYPE_RE.match(name)
        if match:
            return btypes.FloatType.get(self._int_of(token, match.group(1)))
        if name == "index":
            return btypes.index
        raise self.error(f"unknown builtin type {name!r}", token)

    def _parse_shaped_type(self, kind: str, token: Token) -> Attribute:
        """Parse ``tensor<4x?xf32>``-style shaped types."""
        shape, element = self._nested(self._parse_shape)
        cls = {"tensor": btypes.TensorType, "vector": btypes.VectorType,
               "memref": btypes.MemRefType}[kind]
        return cls.get(shape, element)

    def _parse_shape(self) -> tuple[list[int], Attribute]:
        """A shaped type's ``<4x?xf32>``: its dimensions and element type.

        The lexer fuses dimension lists with the following identifier
        (``4x?xf32`` lexes as INTEGER "4" then BARE "x?xf32"), so dimension
        words are re-split on ``x`` here.
        """
        self.expect(TokenKind.LESS, "'<'")
        shape: list[int] = []
        element: Attribute | None = None
        while element is None:
            tok = self.peek()
            if tok.kind is TokenKind.QUESTION:
                self.next()
                shape.append(btypes.DYNAMIC)
            elif tok.kind is TokenKind.INTEGER:
                self.next()
                shape.append(self._int_of(tok))
            elif tok.kind is TokenKind.BARE_IDENT:
                self.next()
                element = self._scan_shape_word(tok, shape)
            elif tok.kind in (TokenKind.BANG_IDENT, TokenKind.LPAREN):
                element = self._type()
            else:
                raise self.error(
                    f"expected a dimension or element type, found {tok.text!r}",
                    tok,
                )
        self.expect(TokenKind.GREATER, "'>'")
        return shape, element

    def _scan_shape_word(self, token: Token, shape: list[int]) -> Attribute | None:
        """Consume a word like ``x4x?xf32``: dimensions and maybe the element.

        Returns the element type if the word contains one, else ``None``
        (the word ended on a dimension separator, e.g. before ``!`` types).
        """
        text = token.text
        if not text.startswith("x") and self._is_builtin_type_name(text):
            return self._parse_builtin_type(token)
        parts = text.split("x")
        if parts[0]:
            raise self.error(f"invalid shape element {text!r}", token)
        for index, part in enumerate(parts[1:], start=1):
            if part == "":
                continue  # consecutive separators, e.g. trailing 'x'
            if part == "?":
                shape.append(btypes.DYNAMIC)
            elif part.isdigit():
                shape.append(self._int_of(token, part))
            else:
                element_text = "x".join(parts[index:])
                if element_text in ("tensor", "vector", "memref"):
                    # The element is itself shaped; its '<...>' parameters
                    # are still in the main token stream.
                    return self._parse_shaped_type(element_text, token)
                if self._is_builtin_type_name(element_text):
                    sub = IRParser(self.context, element_text, "<shape-element>")
                    return sub.parse_type()
                raise self.error(
                    f"unknown element type {element_text!r}", token
                )
        return None

    def _parse_function_type(self) -> Attribute:
        self.expect(TokenKind.LPAREN, "'('")
        inputs: list[Attribute] = []
        if self.peek().kind is not TokenKind.RPAREN:
            inputs.append(self.parse_type())
            while self.accept(TokenKind.COMMA):
                inputs.append(self.parse_type())
        self.expect(TokenKind.RPAREN, "')'")
        self.expect(TokenKind.ARROW, "'->'")
        results = self._parse_type_or_type_list()
        return btypes.FunctionType.get(inputs, results)

    def _parse_type_or_type_list(self) -> list[Attribute]:
        if self.peek().kind is TokenKind.LPAREN:
            self.expect(TokenKind.LPAREN, "'('")
            results: list[Attribute] = []
            if self.peek().kind is not TokenKind.RPAREN:
                results.append(self.parse_type())
                while self.accept(TokenKind.COMMA):
                    results.append(self.parse_type())
            self.expect(TokenKind.RPAREN, "')'")
            return results
        return [self.parse_type()]

    def _parse_dialect_type(self, token: Token) -> Attribute:
        qualified = token.value
        if "." not in qualified:
            # Unqualified references default to the builtin namespace (§4.2).
            qualified = f"builtin.{qualified}"
        type_def = self.context.get_type_def(qualified)
        if type_def is None:
            raise self.error(f"unknown type '!{token.value}'", token)
        params = self._parse_dialect_params(type_def)
        try:
            return type_def.instantiate(params)
        except VerifyError as err:
            raise self.error(str(err), token) from err

    def _parse_dialect_params(self, definition) -> list[Any]:
        """The ``<...>`` parameter list, honouring custom formats (§4.7)."""
        params: list[Any] = []
        if self.accept(TokenKind.LESS):
            program = getattr(definition, "param_format", None)
            if program is not None:
                params = program.parse(self)
            elif self.peek().kind is not TokenKind.GREATER:
                params.append(self.parse_param())
                while self.accept(TokenKind.COMMA):
                    params.append(self.parse_param())
                read_literals = getattr(definition, "read_literals", None)
                if read_literals is not None:
                    params = read_literals(params)
            self.expect(TokenKind.GREATER, "'>'")
        return params

    # ------------------------------------------------------------------
    # Type/attribute parameters
    # ------------------------------------------------------------------

    def parse_param(self) -> Any:
        """Parse one parameter of a parametrized type or attribute."""
        return self._nested(self._param)

    def _param(self) -> Any:
        token = self.peek()
        if token.kind in (TokenKind.INTEGER, TokenKind.FLOAT, TokenKind.MINUS):
            return self._parse_numeric_param()
        if token.kind is TokenKind.STRING:
            return StringParam(self.next().value)
        if token.kind is TokenKind.LBRACKET:
            self.next()
            elements: list[Any] = []
            if self.peek().kind is not TokenKind.RBRACKET:
                elements.append(self.parse_param())
                while self.accept(TokenKind.COMMA):
                    elements.append(self.parse_param())
            self.expect(TokenKind.RBRACKET, "']'")
            return ArrayParam(tuple(elements))
        if token.kind in (TokenKind.HASH_IDENT, TokenKind.AT_IDENT, TokenKind.LBRACE):
            # Only attributes are spelled this way.
            return self._attribute()
        if token.kind is TokenKind.BARE_IDENT:
            if token.text == "loc":
                return self._parse_location_param()
            if token.text == "typeid":
                return self._parse_typeid_param()
            if token.text == "opaque":
                return self._parse_opaque_param()
            if self.peek(1).kind is TokenKind.DOT:
                return self._parse_enum_param()
            if self._is_builtin_type_name(token.text):
                return self._type()
            if token.text == "unit":
                return self._attribute()
            raise self.error(f"unknown parameter {token.text!r}", token)
        if token.kind in (TokenKind.BANG_IDENT, TokenKind.LPAREN):
            return self._type()
        raise self.error(f"expected a parameter, found {token.text!r}", token)

    def _accept_hex_float(self, int_token: Token, negative: bool) -> float | None:
        """The value of a bit-exact ``0x<bits>`` float literal, if present.

        ``int_token`` is an already-consumed INTEGER token; the hex
        digits arrive as a following BARE_IDENT starting with ``x``.
        Returns ``None`` when the upcoming tokens are not a hex float.
        """
        if int_token.text != "0":
            return None
        follow = self.peek()
        if (
            follow.kind is not TokenKind.BARE_IDENT
            or not _HEX_FLOAT_BITS_RE.match(follow.text)
        ):
            return None
        if negative:
            raise self.error(
                "hex float literals carry their sign in the bit pattern; "
                "remove the leading '-'",
                follow,
            )
        self.next()
        bits = self._int_of(follow, follow.text[1:], 16)
        return struct.unpack("<d", struct.pack("<Q", bits))[0]

    def _parse_numeric_param(self) -> Any:
        negative = bool(self.accept(TokenKind.MINUS))
        token = self.peek()
        if token.kind is TokenKind.FLOAT:
            value = float(self.next().text)
            value = -value if negative else value
            width = 64
            if self.accept(TokenKind.COLON):
                suffix = self.expect(TokenKind.BARE_IDENT, "float width")
                match = _FLOAT_TYPE_RE.match(suffix.text)
                if not match:
                    raise self.error(f"invalid float suffix {suffix.text!r}", suffix)
                width = self._int_of(suffix, match.group(1))
            return FloatParam(value, width)
        token = self.expect(TokenKind.INTEGER, "integer literal")
        hex_value = self._accept_hex_float(token, negative)
        if hex_value is not None:
            width = 64
            if self.peek().kind is TokenKind.COLON:
                suffix = self.peek(1)
                if suffix.kind is TokenKind.BARE_IDENT and _FLOAT_TYPE_RE.match(
                    suffix.text
                ):
                    self.next()
                    self.next()
                    width = self._int_of(suffix, suffix.text[1:])
            return FloatParam(hex_value, width)
        value = self._int_of(token)
        value = -value if negative else value
        bitwidth, signed = 32, True
        if self.peek().kind is TokenKind.COLON:
            suffix = self.peek(1)
            if suffix.kind is TokenKind.BARE_IDENT and _PARAM_INT_RE.match(suffix.text):
                self.next()  # ':'
                self.next()  # suffix
                match = _PARAM_INT_RE.match(suffix.text)
                assert match is not None
                signed = match.group(1) != "u"
                bitwidth = self._int_of(suffix, match.group(2))
            elif suffix.kind is TokenKind.BARE_IDENT and _FLOAT_TYPE_RE.match(suffix.text):
                self.next()
                self.next()
                return FloatParam(self._float_of(value, token),
                                  self._int_of(suffix, suffix.text[1:]))
            elif suffix.kind is TokenKind.BARE_IDENT and self._is_builtin_type_name(
                suffix.text
            ):
                # ``42 : i64``: a typed integer attribute, printed as such
                # when it is an element of an attribute-array parameter.
                self.next()  # ':'
                return self._integer_attr(value, self._type(), token)
        try:
            return IntegerParam(value, bitwidth, signed)
        except ValueError as err:
            raise self.error(str(err), token) from err

    def _parse_enum_param(self) -> EnumParam:
        enum_token = self.expect(TokenKind.BARE_IDENT, "enum name")
        self.expect(TokenKind.DOT, "'.'")
        ctor_token = self.expect(TokenKind.BARE_IDENT, "enum constructor")
        enum = self._resolve_enum(enum_token.text, enum_token)
        if not enum.has_constructor(ctor_token.text):
            raise self.error(
                f"enum {enum.qualified_name} has no constructor "
                f"{ctor_token.text!r}",
                ctor_token,
            )
        return EnumParam(enum.qualified_name, ctor_token.text)

    def _resolve_enum(self, name: str, token: Token):
        if "." in name:
            enum = self.context.get_enum(name)
            if enum is not None:
                return enum
            raise self.error(f"unknown enum {name!r}", token)
        matches = [
            dialect.enums[name]
            for dialect in self.context.dialects.values()
            if name in dialect.enums
        ]
        if not matches:
            raise self.error(f"unknown enum {name!r}", token)
        if len(matches) > 1:
            options = ", ".join(e.qualified_name for e in matches)
            raise self.error(
                f"ambiguous enum {name!r}; candidates: {options}", token
            )
        return matches[0]

    def _parse_location_param(self) -> LocationParam:
        self.expect(TokenKind.BARE_IDENT, "'loc'")
        self.expect(TokenKind.LPAREN, "'('")
        filename = self.expect(TokenKind.STRING, "filename string").value
        self.expect(TokenKind.COLON, "':'")
        line = self._int_of(self.expect(TokenKind.INTEGER, "line number"))
        self.expect(TokenKind.COLON, "':'")
        column = self._int_of(
            self.expect(TokenKind.INTEGER, "column number")
        )
        self.expect(TokenKind.RPAREN, "')'")
        return LocationParam(filename, line, column)

    def _parse_typeid_param(self) -> TypeIdParam:
        self.expect(TokenKind.BARE_IDENT, "'typeid'")
        self.expect(TokenKind.LESS, "'<'")
        parts = [self.expect(TokenKind.BARE_IDENT, "class name").text]
        while self.accept(TokenKind.DOT):
            parts.append(self.expect(TokenKind.BARE_IDENT, "class name").text)
        self.expect(TokenKind.GREATER, "'>'")
        return TypeIdParam(".".join(parts))

    def _parse_opaque_param(self) -> OpaqueParam:
        self.expect(TokenKind.BARE_IDENT, "'opaque'")
        self.expect(TokenKind.LESS, "'<'")
        class_name = self.expect(TokenKind.STRING, "class name string").value
        self.expect(TokenKind.COMMA, "','")
        value = self.expect(TokenKind.STRING, "value string").value
        self.expect(TokenKind.GREATER, "'>'")
        return OpaqueParam(class_name, value)

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------

    def parse_attribute(self) -> Attribute:
        return self._nested(self._attribute)

    def _attribute(self) -> Attribute:
        token = self.peek()
        if token.kind is TokenKind.STRING:
            return battrs.StringAttr.get(self.next().value)
        if token.kind in (TokenKind.INTEGER, TokenKind.FLOAT, TokenKind.MINUS):
            return self._parse_numeric_attribute()
        if token.kind is TokenKind.LBRACKET:
            self.next()
            elements: list[Attribute] = []
            if self.peek().kind is not TokenKind.RBRACKET:
                elements.append(self.parse_attribute())
                while self.accept(TokenKind.COMMA):
                    elements.append(self.parse_attribute())
            self.expect(TokenKind.RBRACKET, "']'")
            return battrs.ArrayAttr.get(elements)
        if token.kind is TokenKind.LBRACE:
            return self._parse_dictionary_attribute()
        if token.kind is TokenKind.AT_IDENT:
            return battrs.SymbolRefAttr.get(self.next().value)
        if token.kind is TokenKind.HASH_IDENT:
            return self._parse_dialect_attribute(self.next())
        if token.kind is TokenKind.BARE_IDENT:
            if token.text == "unit":
                self.next()
                return battrs.UnitAttr.get()
            if token.text == "true":
                self.next()
                return battrs.IntegerAttr.get(1, btypes.i1)
            if token.text == "false":
                self.next()
                return battrs.IntegerAttr.get(0, btypes.i1)
            if self._is_builtin_type_name(token.text):
                # Types are attributes; a bare type in attribute position
                # denotes itself.
                return self._type()
        if token.kind in (TokenKind.BANG_IDENT, TokenKind.LPAREN):
            return self._type()
        raise self.error(f"expected an attribute, found {token.text!r}", token)

    def _parse_numeric_attribute(self) -> Attribute:
        negative = bool(self.accept(TokenKind.MINUS))
        token = self.next()
        if token.kind is TokenKind.FLOAT:
            value = -float(token.text) if negative else float(token.text)
            attr_type: Attribute = btypes.f64
            if self.accept(TokenKind.COLON):
                attr_type = self._type()
            return battrs.FloatAttr.get(value, attr_type)
        if token.kind is not TokenKind.INTEGER:
            raise self.error("expected a number", token)
        hex_value = self._accept_hex_float(token, negative)
        if hex_value is not None:
            attr_type = btypes.f64
            if self.accept(TokenKind.COLON):
                attr_type = self._type()
            return battrs.FloatAttr.get(hex_value, attr_type)
        int_value = self._int_of(token)
        int_value = -int_value if negative else int_value
        if self.accept(TokenKind.COLON):
            attr_type = self._type()
            if isinstance(attr_type, btypes.FloatType):
                return battrs.FloatAttr.get(self._float_of(int_value, token),
                                            attr_type)
            return self._integer_attr(int_value, attr_type, token)
        return self._integer_attr(int_value, None, token)

    def _int_of(self, token: Token, text: str | None = None,
                base: int = 10) -> int:
        """``int(text, base)``, ``text`` being the digits of ``token``
        (all of its text by default); a literal past Python's limit on
        integer string conversion is an error at ``token``."""
        if text is None:
            text = token.text
        try:
            return int(text, base)
        except ValueError:
            raise self.error(
                f"integer literal of {len(text)} digits exceeds the limit "
                f"of {sys.get_int_max_str_digits()} digits",
                token,
            ) from None

    def _float_of(self, value: int, token: Token) -> float:
        """``float(value)``; an integer literal past the largest double
        is an error at its ``token``."""
        try:
            return float(value)
        except OverflowError:
            raise self.error(
                f"integer literal {value} is too large for a floating-point "
                "value",
                token,
            ) from None

    def _integer_attr(self, value: int, value_type: Attribute | None,
                      token: Token) -> Attribute:
        """``IntegerAttr.get(value, value_type)``; a literal past the
        int64 storage is an error at its ``token``."""
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise self.error(
                f"integer literal {value} is outside the signed 64-bit "
                "range integer attributes store",
                token,
            )
        return battrs.IntegerAttr.get(value, value_type)

    def _parse_dictionary_attribute(self) -> Attribute:
        self.expect(TokenKind.LBRACE, "'{'")
        entries: dict[str, Attribute] = {}
        while self.peek().kind is not TokenKind.RBRACE:
            key = self.expect(TokenKind.BARE_IDENT, "attribute name").text
            if self.accept(TokenKind.EQUAL):
                entries[key] = self.parse_attribute()
            else:
                entries[key] = battrs.UnitAttr.get()
            if not self.accept(TokenKind.COMMA):
                break
        self.expect(TokenKind.RBRACE, "'}'")
        return intern_attr(battrs.DictionaryAttr(entries))

    def _parse_dialect_attribute(self, token: Token) -> Attribute:
        qualified = token.value
        if "." not in qualified:
            qualified = f"builtin.{qualified}"
        attr_def = self.context.get_attr_def(qualified)
        if attr_def is None:
            raise self.error(f"unknown attribute '#{token.value}'", token)
        params = self._parse_dialect_params(attr_def)
        try:
            return attr_def.instantiate(params)
        except VerifyError as err:
            raise self.error(str(err), token) from err

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _parse_ops(self, add: Callable[[Operation], Any]) -> None:
        """Parse the op at the current token and pass it to ``add``; if
        ``_GENERIC_OP_RE`` matches there, parse the whole run of ops it
        matches from there on.

        A run is read from the text alone: after each op ``_TRIVIA_RE``
        skips what the lexer would skip and the pattern is tried again,
        so a matched op needs no token.  The run ends where the pattern
        fails, and one ``seek`` hands that offset to the cursor: a
        trailing ``loc(...)`` there is the last op's, and everything
        after it goes to the token path.
        """
        token = self._token
        text = self.source.contents
        match = None
        if (
            (token.kind is TokenKind.PERCENT_IDENT
             or token.kind is TokenKind.STRING)
            and self._ahead is None
        ):
            match = _GENERIC_OP_RE.match(text, token.start)
        if match is None:
            add(self.parse_operation())
            return
        filename = self.source.name
        # The current op's line and the offset that line starts at,
        # carried along the run (a match spans one line), so each op's
        # location is the one ``position_of`` gives its name.
        line = self.source.position_of(token.start).line
        line_start = text.rfind("\n", 0, token.start) + 1
        while True:
            column = match.start("name") - line_start + 1
            op = self._parse_matched_operation(
                match, FileLineColLoc(filename, line, column)
            )
            add(op)
            end = match.end()
            start = _TRIVIA_RE.match(text, end).end()
            match = _GENERIC_OP_RE.match(text, start)
            if match is None:
                break
            newlines = text.count("\n", end, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", end, start) + 1
        self.seek(end)
        explicit = self._parse_optional_location()
        if explicit is not None:
            op.location = explicit

    def parse_operation(self) -> Operation:
        """Parse one op token by token, with its trailing ``loc(...)``.

        Blocks and the top level read their ops through ``_parse_ops``,
        which reads one-line generic ops without tokens.
        """
        result_tokens: list[Token] = []
        if self.peek().kind is TokenKind.PERCENT_IDENT:
            result_tokens.append(self.next())
            while self.accept(TokenKind.COMMA):
                result_tokens.append(
                    self.expect(TokenKind.PERCENT_IDENT, "result name")
                )
            self.expect(TokenKind.EQUAL, "'='")
        token = self.peek()
        if token.kind is TokenKind.STRING:
            op = self._parse_generic_operation()
        elif token.kind is TokenKind.BARE_IDENT:
            op = self._parse_custom_operation()
        else:
            raise self.error(
                f"expected an operation, found {token.text!r}", token
            )
        if len(result_tokens) != len(op.results):
            raise self.error(self._result_count(op, len(result_tokens)),
                             token)
        self.ops_parsed += 1
        for name_token, result in zip(result_tokens, op.results):
            self.define_value(name_token.value, result, name_token)
        self._locate(op, token.start)
        return op

    def _parse_matched_operation(self, match: re.Match,
                                 location: Location) -> Operation:
        """The generic op ``_GENERIC_OP_RE`` matched, at ``location``.

        Runs the token path's steps in its order, with its diagnostics;
        a ``Token`` is built only to report one.
        """
        results, name, operands, attrs, signature = match.groups()
        attributes = None
        if attrs is not None:
            attr_dict = self._attr_dicts.get(attrs)
            if attr_dict is None:
                attr_dict = self._convert(match, "attrs", self._attr_dicts,
                                          self._parse_dictionary_attribute)
            attributes = attr_dict.entries  # type: ignore[union-attr]
        types = self._signatures.get(signature)
        if types is None:
            types = self._convert(match, "signature", self._signatures,
                                  self._parse_op_signature)
        operand_types, result_types = types
        operand_names = _VALUE_NAME_RE.findall(operands) if operands else ()
        if len(operand_names) != len(operand_types):
            raise self.error(
                self._operand_count(len(operand_names), len(operand_types)),
                self._token_of(match, "name"),
            )
        resolve = self._resolve
        values = []
        for index, value_name in enumerate(operand_names):
            value_type = operand_types[index]
            value = resolve(value_name, value_type)
            if value.type is not value_type and value.type != value_type:
                raise self.error(
                    self._mismatch(value_name, value, value_type),
                    self._token_of(match, "operands", index),
                )
            values.append(value)
        try:
            op = self.context.create_operation(
                name[1:-1],
                operands=values,
                result_types=result_types,
                attributes=attributes,
                location=location,
            )
        except UnregisteredConstructError as err:
            raise self.error(str(err), self._token_of(match, "name")) from err
        result_names = _VALUE_NAME_RE.findall(results) if results else ()
        op_results = op.results
        if len(result_names) != len(op_results):
            raise self.error(self._result_count(op, len(result_names)),
                             self._token_of(match, "name"))
        self.ops_parsed += 1
        bind = self._bind
        for index, result_name in enumerate(result_names):
            problem = bind(result_name, op_results[index])
            if problem is not None:
                raise self.error(problem,
                                 self._token_of(match, "results", index))
        return op

    def _convert(self, match: re.Match, group: str, cache: dict,
                 convert: Callable):
        """``convert()`` of the spelling ``group`` of ``match``, read
        token by token from its offset, raising exactly what the token
        path raises; stored in ``cache`` while it has room."""
        self.seek(match.start(group))
        value = convert()
        if len(cache) < SPELLING_CACHE_LIMIT:
            cache[match.group(group)] = value
        return value

    def _token_of(self, match: re.Match, group: str,
                  index: int = 0) -> Token:
        """The token the token path reports a diagnostic at: the op name
        or the ``index``-th SSA name of ``group``."""
        if group == "name":
            start, end = match.span(group)
            kind = TokenKind.STRING
        else:
            start, end = list(_VALUE_NAME_RE.finditer(
                self.source.contents, *match.span(group)
            ))[index].span()
            kind = TokenKind.PERCENT_IDENT
        return Token(kind, self.source.contents[start:end], start, end,
                     self.source)

    def _locate(self, op: Operation, name_start: int) -> None:
        """Set ``op``'s location after its text.

        Provenance: an explicit trailing ``loc(...)`` wins (so printed IR
        round-trips); otherwise the op is attributed to the position of
        its name in this source file.
        """
        explicit = self._parse_optional_location()
        if explicit is not None:
            op.location = explicit
        elif op.location.is_unknown:
            position = self.source.position_of(name_start)
            op.location = FileLineColLoc(self.source.name, position.line,
                                         position.column)

    def _parse_optional_location(self) -> Location | None:
        """A trailing ``loc(...)`` attachment, if present.

        Operation names always contain a dot, so a bare ``loc(`` after
        an operation is unambiguous.
        """
        token = self.peek()
        if (
            token.kind is not TokenKind.BARE_IDENT
            or token.text != "loc"
            or self.peek(1).kind is not TokenKind.LPAREN
        ):
            return None
        self.next()
        self.next()
        location = self._parse_location_value()
        self.expect(TokenKind.RPAREN, "')'")
        return location

    def _parse_location_value(self) -> Location:
        token = self.peek()
        if token.kind is TokenKind.BARE_IDENT and token.text == "unknown":
            self.next()
            return UNKNOWN_LOC
        if token.kind is TokenKind.BARE_IDENT and token.text == "fused":
            self.next()
            self.expect(TokenKind.LBRACKET, "'['")
            parts = [self._parse_location_value()]
            while self.accept(TokenKind.COMMA):
                parts.append(self._parse_location_value())
            self.expect(TokenKind.RBRACKET, "']'")
            return Location.fuse(parts)
        if token.kind is TokenKind.STRING:
            filename = self.next().value
            self.expect(TokenKind.COLON, "':'")
            line = self._int_of(
                self.expect(TokenKind.INTEGER, "line number")
            )
            self.expect(TokenKind.COLON, "':'")
            col = self._int_of(
                self.expect(TokenKind.INTEGER, "column number")
            )
            return FileLineColLoc(filename, line, col)
        raise self.error(
            f"expected a location, found {token.text!r}", token
        )

    def _parse_generic_operation(self) -> Operation:
        name_token = self.expect(TokenKind.STRING, "operation name")
        op_name = name_token.value
        operand_tokens = self._parse_operand_name_list()
        successors = self._parse_successor_list()
        regions: list[Region] = []
        if self.peek().kind is TokenKind.LPAREN:
            self.next()
            regions.append(self.parse_region())
            while self.accept(TokenKind.COMMA):
                regions.append(self.parse_region())
            self.expect(TokenKind.RPAREN, "')'")
        attributes: dict[str, Attribute] = {}
        if self.peek().kind is TokenKind.LBRACE:
            attr_dict = self._parse_dictionary_attribute()
            attributes = attr_dict.entries  # type: ignore[union-attr]
        operand_types, result_types = self._parse_op_signature()
        if len(operand_tokens) != len(operand_types):
            raise self.error(
                self._operand_count(len(operand_tokens), len(operand_types)),
                name_token,
            )
        operands = [
            self.resolve_value(tok.value, ty, tok)
            for tok, ty in zip(operand_tokens, operand_types)
        ]
        try:
            return self.context.create_operation(
                op_name,
                operands=operands,
                result_types=result_types,
                attributes=attributes,
                successors=successors,
                regions=regions,
            )
        except UnregisteredConstructError as err:
            raise self.error(str(err), name_token) from err

    def _parse_op_signature(
        self,
    ) -> tuple[tuple[Attribute, ...], tuple[Attribute, ...]]:
        """A generic op's ``: (operand types) -> result types``."""
        self.expect(TokenKind.COLON, "':' before the operation type")
        self.expect(TokenKind.LPAREN, "'('")
        operand_types: list[Attribute] = []
        if self.peek().kind is not TokenKind.RPAREN:
            operand_types.append(self.parse_type())
            while self.accept(TokenKind.COMMA):
                operand_types.append(self.parse_type())
        self.expect(TokenKind.RPAREN, "')'")
        self.expect(TokenKind.ARROW, "'->'")
        return tuple(operand_types), tuple(self._parse_type_or_type_list())

    def _parse_custom_operation(self) -> Operation:
        parts = [self.expect(TokenKind.BARE_IDENT, "operation name").text]
        start_token = self.peek()
        while self.peek().kind is TokenKind.DOT:
            self.next()
            parts.append(self.expect(TokenKind.BARE_IDENT, "operation name").text)
        op_name = ".".join(parts)
        definition = self.context.get_op_def(op_name)
        if definition is None:
            raise self.error(f"unknown operation {op_name!r}", start_token)
        if not definition.has_custom_format():
            raise self.error(
                f"operation {op_name!r} has no custom assembly format; "
                "use the generic form",
                start_token,
            )
        return definition.parse_custom(self)

    def _parse_operand_name_list(self) -> list[Token]:
        self.expect(TokenKind.LPAREN, "'('")
        tokens: list[Token] = []
        if self.peek().kind is not TokenKind.RPAREN:
            tokens.append(self.expect(TokenKind.PERCENT_IDENT, "operand"))
            while self.accept(TokenKind.COMMA):
                tokens.append(self.expect(TokenKind.PERCENT_IDENT, "operand"))
        self.expect(TokenKind.RPAREN, "')'")
        return tokens

    def _parse_successor_list(self) -> list[Block]:
        successors: list[Block] = []
        if self.peek().kind is TokenKind.LBRACKET:
            self.next()
            successors.append(self._successor_block())
            while self.accept(TokenKind.COMMA):
                successors.append(self._successor_block())
            self.expect(TokenKind.RBRACKET, "']'")
        return successors

    def _successor_block(self) -> Block:
        token = self.expect(TokenKind.CARET_IDENT, "successor block")
        if not self._block_scopes:
            raise self.error("successor reference outside a region", token)
        scope = self._block_scopes[-1]
        block = scope.get(token.value)
        if block is None:
            block = Block()
            scope[token.value] = block
        return block

    # ------------------------------------------------------------------
    # Regions and blocks
    # ------------------------------------------------------------------

    def parse_region(self) -> Region:
        brace = self.expect(TokenKind.LBRACE, "'{'")
        depth = len(self._block_scopes) + self._outer_levels + 1
        if depth > MAX_NESTING:
            raise self.error(
                f"regions nest deeper than the limit of {MAX_NESTING}", brace
            )
        self._deepest = max(self._deepest, depth)
        region = Region()
        scope: dict[str, Block] = {}
        self._block_scopes.append(scope)
        self._push_value_scope()
        defined: list[str] = []
        try:
            # Anonymous entry block (no leading label).
            if self.peek().kind not in (TokenKind.CARET_IDENT, TokenKind.RBRACE):
                entry = Block()
                region.add_block(entry)
                self._parse_block_body(entry)
            while self.peek().kind is TokenKind.CARET_IDENT:
                label = self.next()
                block = scope.get(label.value)
                if block is None:
                    block = Block()
                    scope[label.value] = block
                elif label.value in defined:
                    raise self.error(
                        f"block ^{label.value} is defined twice", label
                    )
                defined.append(label.value)
                if self.accept(TokenKind.LPAREN):
                    while self.peek().kind is TokenKind.PERCENT_IDENT:
                        arg_token = self.next()
                        self.expect(TokenKind.COLON, "':'")
                        arg_type = self.parse_type()
                        arg = block.insert_arg(arg_type)
                        self.define_value(arg_token.value, arg, arg_token)
                        if not self.accept(TokenKind.COMMA):
                            break
                    self.expect(TokenKind.RPAREN, "')'")
                self.expect(TokenKind.COLON, "':'")
                region.add_block(block)
                self._parse_block_body(block)
            self.expect(TokenKind.RBRACE, "'}'")
            undefined = [name for name in scope if name not in defined]
            if undefined:
                names = ", ".join(f"^{n}" for n in sorted(undefined))
                raise self.error(f"use of undefined block(s): {names}")
            self._pop_value_scope()
        finally:
            self._block_scopes.pop()
        return region

    def _parse_block_body(self, block: Block) -> None:
        while self.peek().kind not in (
            TokenKind.CARET_IDENT,
            TokenKind.RBRACE,
            TokenKind.EOF,
        ):
            self._parse_ops(block.add_op)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def parse_module(self) -> Operation:
        """Parse a whole file: one op, or several wrapped in builtin.module."""
        ops: list[Operation] = []
        # Count the region of the module that wraps the top-level ops,
        # unless the file is one builtin.module op, so the tree built
        # never nests deeper than MAX_NESTING.
        token = self.peek()
        self._outer_levels = int(
            token.kind is not TokenKind.STRING
            or token.value != "builtin.module"
        )
        while not self.at_end():
            if ops and not self._outer_levels:
                # More ops follow a leading builtin.module: it is wrapped
                # too, one level deeper than counted.
                if self._deepest >= MAX_NESTING:
                    raise self.error(
                        "regions nest deeper than the limit of "
                        f"{MAX_NESTING} once the top-level operations are "
                        "wrapped in a module"
                    )
                self._outer_levels = 1
            self._parse_ops(ops.append)
        self._check_no_pending()
        if len(ops) == 1 and ops[0].name == "builtin.module":
            return ops[0]
        region = Region([Block(ops=ops)])
        self.ops_parsed += 1
        return self.context.create_operation(
            "builtin.module",
            regions=[region],
            # The synthesized wrapper is attributed to the whole file.
            location=FileLineColLoc(self.source.name, 1, 1),
        )


@bulk_construction
@observed(lambda context, text, name="<input>": ("textir.parse", {"file": name}),
          "textir.parser.parse_time", "textir")
def parse_module(context: Context, text: str, name: str = "<input>") -> Operation:
    """Parse textual IR into a ``builtin.module`` operation."""
    parser = IRParser(context, text, name)
    module = parser.parse_module()
    metrics = OBS.metrics
    if metrics.enabled:
        scope = metrics.scope("textir")
        scope.counter("lexer.tokens").inc(parser.lexer.tokens_lexed)
        scope.counter("parser.ops_parsed").inc(parser.ops_parsed)
        scope.histogram("parser.module_ops").observe(parser.ops_parsed)
    return module
