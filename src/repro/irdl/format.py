"""Declarative assembly formats (§4.7).

An operation may declare a ``Format`` string such as::

    Format "$lhs, $rhs : $T.elementType"

from which IRDL derives both a parser and a printer.  ``$name``
directives refer to the operation's operands, attributes, or constraint
variables; ``$var.param`` refers to a named parameter of the type bound
to a constraint variable.  Everything else is literal text.

Types never written in the custom syntax are *reconstructed* from
constraint-variable bindings: parsing ``f32`` as ``$T.elementType`` in
``cmath.mul`` rebuilds ``T = !cmath.complex<f32>`` and assigns it to both
operands and the result.  At registration time the format is validated:
every operand and result type must be inferable from the directives, so
malformed formats are rejected before any IR is parsed.

Since the codegen PR, validation is also when the directive list is
*precompiled* into flat programs (:mod:`repro.irdl.codegen` gates this):
literal token kinds are resolved against the lexer once, operand
directives get fixed token slots, literal runs (including the
inter-directive spacing rules) are merged into single ``write`` strings,
and the constraint-variable inference order is frozen — so ``parse`` and
``print`` execute straight-line opcode loops instead of re-matching
directive classes per operation.  The directive interpreters remain the
reference implementation and run whenever codegen is disabled
(``REPRO_NO_CODEGEN=1`` / ``irdl-opt --no-codegen``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.ir.attributes import Attribute
from repro.ir.exceptions import VerifyError
from repro.irdl.ast import Variadicity
from repro.irdl.constraints import (
    CannotInfer,
    Constraint,
    ConstraintContext,
    ParametricConstraint,
    VarConstraint,
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
)

#: Literal punctuation that attaches to the preceding directive when
#: printing (no space before).
_TIGHT_LITERALS = {",", ")", "]", ">"}


# ---------------------------------------------------------------------------
# Format compilation
# ---------------------------------------------------------------------------

# Parse-program opcodes (first element of each instruction tuple).
_P_PUNCT = 0      # (op, token_kind, description)
_P_KEYWORD = 1    # (op, text, description)
_P_OPERAND = 2    # (op, slot_index, description)
_P_ATTR = 3       # (op, attr_name)
_P_VARTYPE = 4    # (op, var_name)
_P_VARPARAM = 5   # (op, var_name, param_index)

# Print-program opcodes.
_W_TEXT = 0       # (op, merged_literal_text)
_W_OPERAND = 1    # (op, operand_index)
_W_ATTR = 2       # (op, attr_name)
_W_VARTYPE = 3    # (op, var_name)
_W_VARPARAM = 4   # (op, var_name, param_index)


def _literal_parse_instr(text: str) -> tuple:
    """Resolve one literal's token kind once, at registration time."""
    from repro.textir.lexer import PUNCTUATION, TokenKind

    if text == "->":
        return (_P_PUNCT, TokenKind.ARROW, "'->'")
    kind = PUNCTUATION.get(text)
    if kind is not None:
        return (_P_PUNCT, kind, f"{text!r}")
    return (_P_KEYWORD, text, f"keyword {text!r}")


class FormatProgram:
    """A compiled assembly format: a directive list plus inference plans."""

    def __init__(self, op_def: OpDef, directives: list[Directive]):
        self.op_def = op_def
        self.directives = directives
        #: Precompiled opcode programs (built after validation when
        #: definition-time codegen is enabled; ``None`` → interpretive).
        self._parse_ops: tuple[tuple, ...] | None = None
        self._print_ops: tuple[tuple, ...] | None = None
        self._var_order: tuple[str, ...] = ()
        self._var_param_order: tuple[str, ...] = ()
        self._operand_infer: tuple[tuple[str, Constraint], ...] = ()
        self._result_infer: tuple[tuple[str, Constraint], ...] = ()

    @classmethod
    def compile(cls, op_def: OpDef) -> "FormatProgram":
        """Compile and validate ``op_def.format``."""
        from repro.irdl import codegen

        assert op_def.format is not None
        directives = _scan_directives(op_def)
        program = cls(op_def, directives)
        program._validate()
        if codegen.enabled():
            program._precompile()
            codegen.note_format_compiled()
        return program

    def _precompile(self) -> None:
        """Lower the directive list into flat parse/print programs.

        Everything re-derived per operation by the interpretive loops is
        resolved here once: literal token kinds, operand token slots,
        print spacing (merged into literal runs), and the order in which
        constraint variables are verified and types inferred.
        """
        op_def = self.op_def
        parse_ops: list[tuple] = []
        print_ops: list[tuple] = []
        pending: list[str] = []
        var_order: list[str] = []
        var_param_order: list[str] = []

        def flush_text() -> None:
            if pending:
                print_ops.append((_W_TEXT, "".join(pending)))
                pending.clear()

        for directive in self.directives:
            if isinstance(directive, LiteralDirective):
                text = directive.text
                parse_ops.append(_literal_parse_instr(text))
                pending.append(
                    text if text in _TIGHT_LITERALS else f" {text}"
                )
                continue
            pending.append(" ")
            flush_text()
            if isinstance(directive, OperandDirective):
                parse_ops.append(
                    (_P_OPERAND, directive.index, f"operand ${directive.name}")
                )
                print_ops.append((_W_OPERAND, directive.index))
            elif isinstance(directive, AttributeDirective):
                parse_ops.append((_P_ATTR, directive.name))
                print_ops.append((_W_ATTR, directive.name))
            elif isinstance(directive, VarTypeDirective):
                parse_ops.append((_P_VARTYPE, directive.var))
                print_ops.append((_W_VARTYPE, directive.var))
                if directive.var not in var_order:
                    var_order.append(directive.var)
            else:
                parse_ops.append(
                    (_P_VARPARAM, directive.var, directive.param_index)
                )
                print_ops.append(
                    (_W_VARPARAM, directive.var, directive.param_index)
                )
                if directive.var not in var_param_order:
                    var_param_order.append(directive.var)
        flush_text()

        self._parse_ops = tuple(parse_ops)
        self._print_ops = tuple(print_ops)
        self._var_order = tuple(var_order)
        self._var_param_order = tuple(var_param_order)
        self._operand_infer = tuple(
            (a.name, a.constraint) for a in op_def.operands
        )
        self._result_infer = tuple(
            (a.name, a.constraint) for a in op_def.results
        )

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

    def parse(self, parser: "IRParser", definition: Any) -> "Operation":
        """Parse the custom syntax following the operation name."""
        if self._parse_ops is None:
            return self._parse_interp(parser, definition)
        from repro.textir.lexer import TokenKind

        op_def = self.op_def
        tokens: list["Token" | None] = [None] * len(op_def.operands)
        attributes: dict[str, Attribute] = {}
        var_types: dict[str, Attribute] = {}
        var_params: dict[str, dict[int, Any]] = {}

        for instr in self._parse_ops:
            code = instr[0]
            if code == _P_PUNCT:
                parser.expect(instr[1], instr[2])
            elif code == _P_KEYWORD:
                token = parser.expect(TokenKind.BARE_IDENT, instr[2])
                if token.text != instr[1]:
                    raise parser.error(
                        f"expected keyword {instr[1]!r}, found "
                        f"{token.text!r}",
                        token,
                    )
            elif code == _P_OPERAND:
                tokens[instr[1]] = parser.expect(
                    TokenKind.PERCENT_IDENT, instr[2]
                )
            elif code == _P_ATTR:
                attributes[instr[1]] = parser.parse_attribute()
            elif code == _P_VARTYPE:
                var_types[instr[1]] = parser.parse_type()
            else:
                var_params.setdefault(instr[1], {})[
                    instr[2]
                ] = parser.parse_param()

        cctx = ConstraintContext()
        constraint_vars = op_def.constraint_vars
        for var in self._var_order:
            constraint_vars[var].verify(var_types[var], cctx)
        for var in self._var_param_order:
            value = self._reconstruct(var, var_params[var], cctx)
            constraint_vars[var].verify(value, cctx)

        operand_types = [
            _infer_type(constraint, cctx, name, op_def)
            for name, constraint in self._operand_infer
        ]
        result_types = [
            _infer_type(constraint, cctx, name, op_def)
            for name, constraint in self._result_infer
        ]
        operands = [
            parser.resolve_value(token.value, ty, token)
            for token, ty in zip(tokens, operand_types)
        ]
        return parser.context.create_operation(
            op_def.qualified_name,
            operands=operands,
            result_types=result_types,
            attributes=attributes,
        )

    def _parse_interp(self, parser: "IRParser", definition: Any) -> "Operation":
        """Reference directive interpreter (``--no-codegen`` path)."""
        from repro.textir.lexer import TokenKind

        op_def = self.op_def
        operand_tokens: dict[str, "Token"] = {}
        attributes: dict[str, Attribute] = {}
        var_types: dict[str, Attribute] = {}
        var_params: dict[str, dict[int, Any]] = {}

        for directive in self.directives:
            if isinstance(directive, LiteralDirective):
                _parse_literal(parser, directive.text)
            elif isinstance(directive, OperandDirective):
                operand_tokens[directive.name] = parser.expect(
                    TokenKind.PERCENT_IDENT, f"operand ${directive.name}"
                )
            elif isinstance(directive, AttributeDirective):
                attributes[directive.name] = parser.parse_attribute()
            elif isinstance(directive, VarTypeDirective):
                var_types[directive.var] = parser.parse_type()
            elif isinstance(directive, VarParamDirective):
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
            parser.resolve_value(
                operand_tokens[arg.name].value, ty, operand_tokens[arg.name]
            )
            for arg, ty in zip(op_def.operands, operand_types)
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

    def print(self, op: "Operation", printer: "Printer") -> None:
        """Print the custom syntax following the operation name."""
        if self._print_ops is None:
            self._print_interp(op, printer)
            return
        cctx = self._bindings_for(op)
        bindings = cctx.bindings
        operands = op.operands
        for instr in self._print_ops:
            code = instr[0]
            if code == _W_TEXT:
                printer.write(instr[1])
            elif code == _W_OPERAND:
                printer.print_operand(operands[instr[1]])
            elif code == _W_ATTR:
                printer.print_attribute(op.attributes[instr[1]])
            elif code == _W_VARTYPE:
                printer.print_type(bindings[instr[1]])
            else:
                printer.print_param(bindings[instr[1]].parameters[instr[2]])

    def _print_interp(self, op: "Operation", printer: "Printer") -> None:
        """Reference directive interpreter (``--no-codegen`` path)."""
        cctx = self._bindings_for(op)
        operand_index = {a.name: i for i, a in enumerate(self.op_def.operands)}
        for directive in self.directives:
            if isinstance(directive, LiteralDirective):
                if directive.text in _TIGHT_LITERALS:
                    printer.write(directive.text)
                else:
                    printer.write(f" {directive.text}")
                continue
            printer.write(" ")
            if isinstance(directive, OperandDirective):
                printer.print_operand(op.operands[operand_index[directive.name]])
            elif isinstance(directive, AttributeDirective):
                printer.print_attribute(op.attributes[directive.name])
            elif isinstance(directive, VarTypeDirective):
                printer.print_type(cctx.bindings[directive.var])
            elif isinstance(directive, VarParamDirective):
                bound = cctx.bindings[directive.var]
                printer.print_param(bound.parameters[directive.param_index])

    def _bindings_for(self, op: "Operation") -> ConstraintContext:
        """Recover constraint-variable bindings from a concrete operation."""
        cctx = ConstraintContext()
        for arg, value in zip(self.op_def.operands, op.operands):
            arg.constraint.verify(value.type, cctx)
        for arg, result in zip(self.op_def.results, op.results):
            arg.constraint.verify(result.type, cctx)
        return cctx


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
        for match in _TOKEN_RE.finditer(format_string):
            text = match.group(0)
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
        self._parse_ops: tuple[tuple, ...] | None = None
        self._print_ops: tuple[tuple, ...] | None = None
        from repro.irdl import codegen

        if codegen.enabled():
            self._precompile()
            codegen.note_format_compiled()

    def _precompile(self) -> None:
        """Lower the parameter format into flat parse/print programs."""
        parse_ops: list[tuple] = []
        print_ops: list[tuple] = []
        pending: list[str] = []
        first = True
        for directive in self.directives:
            if isinstance(directive, LiteralDirective):
                text = directive.text
                parse_ops.append(_literal_parse_instr(text))
                pending.append(
                    text
                    if text in _TIGHT_LITERALS or first
                    else f" {text}"
                )
            else:
                parse_ops.append((_P_VARPARAM, directive.param_index))
                if not first:
                    pending.append(" ")
                if pending:
                    print_ops.append((_W_TEXT, "".join(pending)))
                    pending.clear()
                print_ops.append((_W_VARPARAM, directive.param_index))
            first = False
        if pending:
            print_ops.append((_W_TEXT, "".join(pending)))
        self._parse_ops = tuple(parse_ops)
        self._print_ops = tuple(print_ops)

    def parse(self, parser: "IRParser") -> list[Any]:
        """Parse the parameter list (without the angle brackets)."""
        if self._parse_ops is None:
            return self._parse_interp(parser)
        from repro.textir.lexer import TokenKind

        values: list[Any] = [None] * len(self.parameter_names)
        for instr in self._parse_ops:
            code = instr[0]
            if code == _P_PUNCT:
                parser.expect(instr[1], instr[2])
            elif code == _P_KEYWORD:
                token = parser.expect(TokenKind.BARE_IDENT, instr[2])
                if token.text != instr[1]:
                    raise parser.error(
                        f"expected keyword {instr[1]!r}, found "
                        f"{token.text!r}",
                        token,
                    )
            else:
                values[instr[1]] = parser.parse_param()
        return values

    def _parse_interp(self, parser: "IRParser") -> list[Any]:
        """Reference directive interpreter (``--no-codegen`` path)."""
        values: dict[int, Any] = {}
        for directive in self.directives:
            if isinstance(directive, LiteralDirective):
                _parse_literal(parser, directive.text)
            else:
                values[directive.param_index] = parser.parse_param()
        return [values[i] for i in range(len(self.parameter_names))]

    def print(self, parameters, printer: "Printer") -> None:
        """Print the parameter list (without the angle brackets)."""
        if self._print_ops is None:
            self._print_interp(parameters, printer)
            return
        for instr in self._print_ops:
            if instr[0] == _W_TEXT:
                printer.write(instr[1])
            else:
                printer.print_param(parameters[instr[1]])

    def _print_interp(self, parameters, printer: "Printer") -> None:
        """Reference directive interpreter (``--no-codegen`` path)."""
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
    for match in _TOKEN_RE.finditer(op_def.format):
        text = match.group(0)
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
