"""Declarative assembly formats (§4.7).

An operation may declare a ``Format`` string such as::

    Format "$lhs, $rhs : $T.elementType"

from which IRDL derives both a parser and a printer.  ``$name``
directives refer to the operation's operands, attributes, or constraint
variables; ``$var.param`` refers to a named parameter of the type bound
to a constraint variable.  Everything else is literal text: the
punctuation ``( ) [ ] < > , : = ->`` or a bare keyword.  Any other
character is a :class:`FormatError` at registration.

Types never written in the custom syntax are *reconstructed* from
constraint-variable bindings: parsing ``f32`` as ``$T.elementType`` in
``cmath.mul`` rebuilds ``T = !cmath.complex<f32>`` and assigns it to both
operands and the result.  At registration time the format is validated:
every operand and result type must be inferable from the directives, so
malformed formats are rejected before any IR is parsed.

The parser and printer interpret the validated directive list
directly, one loop per operation or parameter list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.ir.attributes import Attribute
from repro.ir.exceptions import VerifyError
from repro.irdl.constraints import (
    CannotInfer,
    Constraint,
    ConstraintContext,
    ParametricConstraint,
)
from repro.irdl.defs import OpDef
from repro.utils.diagnostics import Diagnostic, DiagnosticError

if TYPE_CHECKING:
    from repro.ir.operation import Operation
    from repro.textir.lexer import Token
    from repro.textir.parser import IRParser
    from repro.textir.printer import Printer
    from repro.utils.source import Span


class FormatError(DiagnosticError):
    """A format string is malformed or cannot infer all types.

    Registration re-raises it at the declaration that owns the format.
    """

    def __init__(self, message: str, span: "Span | None" = None):
        self.message = message
        super().__init__(Diagnostic(message, span))


# ---------------------------------------------------------------------------
# Directives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiteralDirective:
    text: str


@dataclass(frozen=True)
class OperandDirective:
    name: str
    index: int


@dataclass(frozen=True)
class AttributeDirective:
    name: str


@dataclass(frozen=True)
class VarTypeDirective:
    var: str


@dataclass(frozen=True)
class VarParamDirective:
    var: str
    param: str
    param_index: int


Directive = (
    LiteralDirective
    | OperandDirective
    | AttributeDirective
    | VarTypeDirective
    | VarParamDirective
)

_TOKEN_RE = re.compile(
    r"\$[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?"  # $name(.param)?
    r"|->|[(),:<>\[\]=]"                                       # punctuation
    r"|[A-Za-z_][A-Za-z0-9_]*"                                 # keywords
    r"|(?P<unsupported>\S)"                                    # anything else
)

#: Literal punctuation that attaches to the preceding directive when
#: printing (no space before).
_TIGHT_LITERALS = {",", ")", "]", ">"}


def _format_tokens(owner: str, text: str) -> Iterator[str]:
    """The directives and literals of a format string, in string order.

    Raises :class:`FormatError` at the first character outside the
    directive grammar.  Callers resolve each directive as it arrives, so
    every problem is reported in the order it appears in the string.
    """
    for match in _TOKEN_RE.finditer(text):
        if match.lastgroup == "unsupported":
            raise FormatError(
                f"{owner}: format {text!r} has an unsupported character "
                f"{match.group()!r} at offset {match.start()}"
            )
        yield match.group()


# ---------------------------------------------------------------------------
# Operation formats
# ---------------------------------------------------------------------------

class FormatProgram:
    """A validated assembly format: the directive list it interprets."""

    def __init__(self, op_def: OpDef, directives: list[Directive]):
        self.op_def = op_def
        self.directives = directives

    @classmethod
    def compile(cls, op_def: OpDef) -> "FormatProgram":
        """Scan and validate ``op_def.format``."""
        assert op_def.format is not None
        program = cls(op_def, _scan_directives(op_def))
        program._validate()
        return program

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        op_def = self.op_def
        if any(a.is_variadic for a in (*op_def.operands, *op_def.results)):
            raise FormatError(
                f"{op_def.qualified_name}: declarative formats support only "
                "non-variadic operands and results"
            )
        if op_def.regions or op_def.successors:
            raise FormatError(
                f"{op_def.qualified_name}: operations with regions or "
                "successors must use the generic syntax"
            )
        mentioned = {
            d.name for d in self.directives if isinstance(d, OperandDirective)
        }
        missing = [o.name for o in op_def.operands if o.name not in mentioned]
        if missing:
            raise FormatError(
                f"{op_def.qualified_name}: format does not mention "
                f"operand(s) {', '.join(missing)}"
            )
        # Simulate parsing: which constraint variables become bound?
        cctx = ConstraintContext()
        param_bindings: dict[str, dict[int, bool]] = {}
        for directive in self.directives:
            if isinstance(directive, VarTypeDirective):
                cctx.bindings[directive.var] = _FAKE
            elif isinstance(directive, VarParamDirective):
                param_bindings.setdefault(directive.var, {})[
                    directive.param_index
                ] = True
        for var, bound_params in param_bindings.items():
            if self._can_reconstruct(var, bound_params, cctx):
                cctx.bindings[var] = _FAKE
        for arg in (*op_def.operands, *op_def.results):
            if not _inferable(arg.constraint, cctx):
                raise FormatError(
                    f"{op_def.qualified_name}: the type of "
                    f"{arg.name!r} cannot be inferred from the format"
                )

    def _can_reconstruct(
        self, var: str, bound_params: dict[int, bool], cctx: ConstraintContext
    ) -> bool:
        var_constraint = self.op_def.constraint_vars.get(var)
        if var_constraint is None:
            return False
        base = var_constraint.base
        if not isinstance(base, ParametricConstraint):
            return False
        for index, param_constraint in enumerate(base.param_constraints):
            if bound_params.get(index):
                continue
            if not _inferable(param_constraint, cctx):
                return False
        return True

    # -- parsing ---------------------------------------------------------

    def parse(self, parser: "IRParser") -> "Operation":
        """Parse the custom syntax following the operation name."""
        from repro.textir.lexer import TokenKind

        op_def = self.op_def
        operand_tokens: list["Token | None"] = [None] * len(op_def.operands)
        attributes: dict[str, Attribute] = {}
        var_types: dict[str, Attribute] = {}
        var_params: dict[str, dict[int, Any]] = {}

        for directive in self.directives:
            if isinstance(directive, LiteralDirective):
                _parse_literal(parser, directive.text)
            elif isinstance(directive, OperandDirective):
                operand_tokens[directive.index] = parser.expect(
                    TokenKind.PERCENT_IDENT, f"operand ${directive.name}"
                )
            elif isinstance(directive, AttributeDirective):
                attributes[directive.name] = parser.parse_attribute()
            elif isinstance(directive, VarTypeDirective):
                var_types[directive.var] = parser.parse_type()
            else:
                var_params.setdefault(directive.var, {})[
                    directive.param_index
                ] = parser.parse_param()

        cctx = ConstraintContext()
        for var, var_type in var_types.items():
            op_def.constraint_vars[var].verify(var_type, cctx)
        for var, params in var_params.items():
            value = self._reconstruct(var, params, cctx)
            op_def.constraint_vars[var].verify(value, cctx)

        operand_types = [
            _infer_type(arg.constraint, cctx, arg.name, op_def)
            for arg in op_def.operands
        ]
        result_types = [
            _infer_type(arg.constraint, cctx, arg.name, op_def)
            for arg in op_def.results
        ]
        operands = [
            parser.resolve_value(token.value, ty, token)
            for token, ty in zip(operand_tokens, operand_types)
        ]
        return parser.context.create_operation(
            op_def.qualified_name,
            operands=operands,
            result_types=result_types,
            attributes=attributes,
        )

    def _reconstruct(
        self, var: str, params: dict[int, Any], cctx: ConstraintContext
    ) -> Attribute:
        var_constraint = self.op_def.constraint_vars[var]
        base = var_constraint.base
        if not isinstance(base, ParametricConstraint):
            raise VerifyError(
                f"cannot reconstruct constraint variable {var}: its base "
                "constraint is not parametric"
            )
        values = []
        for index, param_constraint in enumerate(base.param_constraints):
            if index in params:
                values.append(params[index])
            else:
                values.append(param_constraint.infer(cctx))
        return base.definition.instantiate(values)

    # -- printing --------------------------------------------------------

    def print(self, op: "Operation", printer: "Printer",
              bindings: dict[str, Attribute]) -> None:
        """Print the custom syntax following the operation name, with the
        constraint-variable ``bindings`` that :meth:`_bindings_for`
        recovered from ``op``."""
        for directive in self.directives:
            if isinstance(directive, LiteralDirective):
                if directive.text in _TIGHT_LITERALS:
                    printer.write(directive.text)
                else:
                    printer.write(f" {directive.text}")
                continue
            printer.write(" ")
            if isinstance(directive, OperandDirective):
                printer.print_operand(op.operands[directive.index])
            elif isinstance(directive, AttributeDirective):
                printer.print_attribute(op.attributes[directive.name])
            elif isinstance(directive, VarTypeDirective):
                printer.print_type(bindings[directive.var])
            else:
                bound = bindings[directive.var]
                printer.print_param(bound.parameters[directive.param_index])

    def _bindings_for(self, op: "Operation") -> ConstraintContext:
        """Recover constraint-variable bindings from a concrete operation."""
        cctx = ConstraintContext()
        for arg, value in zip(self.op_def.operands, op.operands):
            arg.constraint.verify(value.type, cctx)
        for arg, result in zip(self.op_def.results, op.results):
            arg.constraint.verify(result.type, cctx)
        return cctx


# ---------------------------------------------------------------------------
# Type and attribute parameter formats
# ---------------------------------------------------------------------------

class TypeFormatProgram:
    """A declarative parameter format for a type or attribute (§4.7).

    The format string describes the text *between the angle brackets* of
    the usual ``!dialect.name<...>`` syntax: parameter directives
    (``$paramName``) interleaved with literals, e.g.
    ``Format "$bitwidth x $lanes"``.  Every parameter must be mentioned
    exactly once.
    """

    def __init__(self, qualified_name: str, parameter_names: tuple[str, ...],
                 format_string: str):
        self.qualified_name = qualified_name
        self.parameter_names = parameter_names
        self.directives: list[LiteralDirective | VarParamDirective] = []
        mentioned: list[str] = []
        for text in _format_tokens(qualified_name, format_string):
            if not text.startswith("$"):
                self.directives.append(LiteralDirective(text))
                continue
            name = text[1:]
            if name not in parameter_names:
                raise FormatError(
                    f"{qualified_name}: format refers to unknown parameter "
                    f"${name}"
                )
            mentioned.append(name)
            self.directives.append(
                VarParamDirective(name, name, parameter_names.index(name))
            )
        if sorted(mentioned) != sorted(parameter_names):
            raise FormatError(
                f"{qualified_name}: format must mention every parameter "
                f"exactly once"
            )

    def parse(self, parser: "IRParser") -> list[Any]:
        """Parse the parameter list (without the angle brackets)."""
        values: list[Any] = [None] * len(self.parameter_names)
        for directive in self.directives:
            if isinstance(directive, LiteralDirective):
                _parse_literal(parser, directive.text)
            else:
                values[directive.param_index] = parser.parse_param()
        return values

    def print(self, parameters, printer: "Printer") -> None:
        """Print the parameter list (without the angle brackets)."""
        first = True
        for directive in self.directives:
            if isinstance(directive, LiteralDirective):
                if directive.text in _TIGHT_LITERALS or first:
                    printer.write(directive.text)
                else:
                    printer.write(f" {directive.text}")
            else:
                if not first:
                    printer.write(" ")
                printer.print_param(parameters[directive.param_index])
            first = False

    def render(self, parameters) -> str:
        from repro.textir.printer import Printer

        printer = Printer()
        self.print(parameters, printer)
        return printer.getvalue()


class _Fake:
    def __repr__(self) -> str:
        return "<inferred>"


_FAKE = _Fake()


def _inferable(constraint: Constraint, cctx: ConstraintContext) -> bool:
    try:
        constraint.infer(cctx)
        return True
    except CannotInfer:
        return False
    except Exception:
        # Inference over fake bindings may fail downstream (e.g. trying to
        # instantiate with a fake parameter); reaching instantiation means
        # the shape was inferable.
        return True


def _infer_type(
    constraint: Constraint, cctx: ConstraintContext, name: str, op_def: OpDef
) -> Attribute:
    try:
        return constraint.infer(cctx)
    except CannotInfer as err:
        raise VerifyError(
            f"{op_def.qualified_name}: cannot infer the type of {name!r} "
            f"from the custom format: {err}"
        ) from err


def _parse_literal(parser: "IRParser", text: str) -> None:
    from repro.textir.lexer import PUNCTUATION, TokenKind

    if text == "->":
        parser.expect(TokenKind.ARROW, "'->'")
        return
    kind = PUNCTUATION.get(text)
    if kind is not None:
        parser.expect(kind, f"{text!r}")
        return
    token = parser.expect(TokenKind.BARE_IDENT, f"keyword {text!r}")
    if token.text != text:
        raise parser.error(f"expected keyword {text!r}, found {token.text!r}", token)


def _scan_directives(op_def: OpDef) -> list[Directive]:
    assert op_def.format is not None
    directives: list[Directive] = []
    operand_index = {a.name: i for i, a in enumerate(op_def.operands)}
    attr_names = {a.name for a in op_def.attributes}
    for text in _format_tokens(op_def.qualified_name, op_def.format):
        if not text.startswith("$"):
            directives.append(LiteralDirective(text))
            continue
        body = text[1:]
        if "." in body:
            var, param = body.split(".", 1)
            directives.append(
                VarParamDirective(var, param, _param_index(op_def, var, param))
            )
            continue
        if body in operand_index:
            directives.append(OperandDirective(body, operand_index[body]))
        elif body in attr_names:
            directives.append(AttributeDirective(body))
        elif body in op_def.constraint_vars:
            directives.append(VarTypeDirective(body))
        else:
            raise FormatError(
                f"{op_def.qualified_name}: format refers to unknown name "
                f"${body}"
            )
    return directives


#: Directives that parse an *open-ended* value: numeric attributes and
#: parameters greedily consume an optional ``: type`` suffix, and
#: arrays/dictionaries consume arbitrarily nested elements, so the
#: parser cannot always tell where the value ends and the next format
#: element begins.
_OPEN_ENDED = (AttributeDirective, VarParamDirective)


def find_format_ambiguities(
    directives: list[Directive],
) -> list[tuple[int, str]]:
    """Positions where a format's parse is not uniquely determined.

    Returns ``(directive_index, reason)`` pairs for two provable
    ambiguity patterns:

    * an open-ended directive (attribute or ``$var.param``) immediately
      followed by a ``:`` literal — numeric values greedily consume an
      optional ``: type`` suffix, so ``42 : i32`` can bind either way;
    * two adjacent open-ended directives with no separating literal —
      nothing marks where the first value stops.
    """
    problems: list[tuple[int, str]] = []
    for index in range(len(directives) - 1):
        directive = directives[index]
        if not isinstance(directive, _OPEN_ENDED):
            continue
        successor = directives[index + 1]
        if isinstance(successor, LiteralDirective):
            if successor.text == ":":
                problems.append((
                    index,
                    "an open-ended value followed by ':' is ambiguous — "
                    "numeric values greedily parse a ': type' suffix",
                ))
        elif isinstance(successor, _OPEN_ENDED):
            problems.append((
                index,
                "two adjacent open-ended values have no separating "
                "literal, so the boundary between them is ambiguous",
            ))
    return problems


def _param_index(op_def: OpDef, var: str, param: str) -> int:
    var_constraint = op_def.constraint_vars.get(var)
    if var_constraint is None:
        raise FormatError(
            f"{op_def.qualified_name}: format refers to unknown constraint "
            f"variable ${var}"
        )
    base = var_constraint.base
    if not isinstance(base, ParametricConstraint):
        raise FormatError(
            f"{op_def.qualified_name}: ${var}.{param} requires {var} to be "
            "constrained to a parametric type"
        )
    names = base.definition.parameter_names
    if param not in names:
        raise FormatError(
            f"{op_def.qualified_name}: {base.definition.qualified_name} has "
            f"no parameter named {param!r}"
        )
    return names.index(param)
