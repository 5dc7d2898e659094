"""Name resolution: from IRDL syntax trees to resolved definitions.

Implements the namespace rules of §4.2: references resolve inside the
current dialect first, then in the implicit namespaces (``builtin`` and
``std``); references into other dialects must be fully qualified.
Aliases (§4.5) — including parametric aliases — expand at resolution
time by substituting their arguments into the alias body.

Resolution happens against an :class:`~repro.ir.context.Context` so that
cross-dialect type references find previously registered dialects, both
native and IRDL-instantiated.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.ir.context import Context
from repro.ir.dialect import AttrDefBinding, DialectBinding, EnumBinding
from repro.ir.location import UNKNOWN_LOC, Location
from repro.irdl import ast
from repro.irdl import constraints as C
from repro.irdl.defs import (
    AliasDef,
    ArgDef,
    ConstraintDef,
    DialectDef,
    EnumDef,
    OpDef,
    ParamDef,
    ParamWrapperDef,
    RegionDef,
    TypeDef,
)
from repro.irdl.irdl_py import compile_op_predicate, compile_predicate
from repro.utils.diagnostics import DiagnosticError

#: Dialects whose members may be referenced without a prefix (§4.2).
IMPLICIT_NAMESPACES = ("builtin", "std")

_INT_PARAM_RE = re.compile(r"^(u?)int(8|16|32|64)_t$")
_FLOAT_PARAM_RE = re.compile(r"^float(32|64)_t$")


class ResolutionError(DiagnosticError):
    """A name or constraint failed to resolve."""


def _error(message: str, expr: ast.ConstraintExpr | None = None) -> ResolutionError:
    span = getattr(expr, "span", None)
    return ResolutionError.at(message, span)


def compile_py(decl, compiler: Callable[[str], Any], codes: Sequence[str]) -> list:
    """Compile a declaration's IRDL-Py code (§5.1) with ``compiler``;
    code that does not compile is reported at the declaration."""
    compiled = []
    for code in codes:
        try:
            compiled.append(compiler(code))
        except (SyntaxError, ValueError) as err:  # ValueError: NUL bytes
            reason = getattr(err, "msg", err)
            raise _error(
                f"PyConstraint {code!r} does not compile: {reason}", decl
            ) from None
    return compiled


class Scope:
    """Everything visible while resolving one dialect's definitions."""

    def __init__(self, context: Context, decl: ast.DialectDecl):
        self.context = context
        self.decl = decl
        self.dialect_name = decl.name
        self.aliases = {a.name: a for a in decl.aliases}
        self.constraint_decls = {c.name: c for c in decl.constraints}
        self.param_wrappers = {w.name: w for w in decl.param_wrappers}
        #: Resolved named constraints, filled in declaration order.
        self.resolved_constraints: dict[str, C.Constraint] = {}
        self.resolved_wrappers: dict[str, ParamWrapperDef] = {}
        #: Constraint variables of the operation currently being resolved.
        self.constraint_vars: dict[str, C.VarConstraint] = {}
        #: Substitution environment during parametric alias expansion:
        #: alias parameter name → constraint resolved in the caller's scope.
        self.alias_env: dict[str, C.Constraint] = {}
        #: Aliases currently being expanded (cycle detection).
        self._expanding: set[str] = set()
        #: Spelling (:func:`_spelling`) → resolved constraint, so equal
        #: spellings in this dialect share one immutable constraint.
        self.memo: dict[tuple, C.Constraint] = {}

    # ------------------------------------------------------------------
    # Lookups honouring §4.2's namespace rules
    # ------------------------------------------------------------------

    def _candidate_names(self, name: str) -> list[str]:
        if "." in name:
            return [name]
        candidates = [f"{self.dialect_name}.{name}"]
        candidates += [f"{ns}.{name}" for ns in IMPLICIT_NAMESPACES]
        return candidates

    def lookup_type(self, name: str) -> AttrDefBinding | None:
        for candidate in self._candidate_names(name):
            binding = self.context.get_type_def(candidate)
            if binding is not None:
                return binding
        return None

    def lookup_attr(self, name: str) -> AttrDefBinding | None:
        for candidate in self._candidate_names(name):
            binding = self.context.get_attr_def(candidate)
            if binding is not None:
                return binding
        return None

    def lookup_enum(self, name: str) -> EnumBinding | None:
        for candidate in self._candidate_names(name):
            binding = self.context.get_enum(candidate)
            if binding is not None:
                return binding
        return None

    def lookup_foreign_alias(
        self, name: str
    ) -> tuple[ast.AliasDecl, "Scope"] | None:
        """Find an alias declared by another (IRDL-registered) dialect.

        Returns the alias and a scope rooted in its home dialect, so its
        body resolves against that dialect's own namespace (§4.2).
        """
        for candidate in self._candidate_names(name):
            dialect_name, _, base = candidate.rpartition(".")
            if dialect_name == self.dialect_name:
                continue  # own aliases are handled directly
            binding = self.context.get_dialect(dialect_name)
            home_ast = getattr(binding, "irdl_ast", None)
            if home_ast is None:
                continue
            for alias in home_ast.aliases:
                if alias.name == base:
                    return alias, Scope(self.context, home_ast)
        return None


# ---------------------------------------------------------------------------
# Constraint resolution
# ---------------------------------------------------------------------------

def resolve_constraint(expr: ast.ConstraintExpr, scope: Scope) -> C.Constraint:
    """Resolve one constraint expression to a runtime constraint.

    Equal spellings in one scope resolve once and share the result, except
    while constraint variables or alias parameters are in scope: those
    mean something else per operation or per expansion.  Failures are not
    memoized, so each occurrence raises at its own span.
    """
    if scope.constraint_vars or scope.alias_env:
        return _resolve(expr, scope)
    key = _spelling(expr)
    constraint = scope.memo.get(key)
    if constraint is None:
        constraint = scope.memo[key] = _resolve(expr, scope)
    return constraint


def _spelling(expr: ast.ConstraintExpr) -> tuple:
    """An expression's class and fields, without spans: the memo key."""
    if isinstance(expr, ast.RefExpr):
        params = expr.params
        return (ast.RefExpr, expr.sigil, expr.name,
                None if params is None else tuple(map(_spelling, params)))
    if isinstance(expr, ast.IntLiteralExpr):
        return (ast.IntLiteralExpr, expr.value, expr.type_name)
    if isinstance(expr, ast.StringLiteralExpr):
        return (ast.StringLiteralExpr, expr.value)
    if isinstance(expr, ast.ListExpr):
        return (ast.ListExpr, tuple(map(_spelling, expr.elements)))
    raise _error(f"unsupported constraint expression {expr!r}", expr)


def _resolve(expr: ast.ConstraintExpr, scope: Scope) -> C.Constraint:
    if isinstance(expr, ast.IntLiteralExpr):
        return _resolve_int_literal(expr)
    if isinstance(expr, ast.StringLiteralExpr):
        return C.StringLiteralConstraint(expr.value)
    if isinstance(expr, ast.ListExpr):
        return C.ArrayExactConstraint(
            [resolve_constraint(e, scope) for e in expr.elements]
        )
    if isinstance(expr, ast.RefExpr):
        return _resolve_ref(expr, scope)
    raise _error(f"unsupported constraint expression {expr!r}", expr)


def _resolve_int_literal(expr: ast.IntLiteralExpr) -> C.Constraint:
    bitwidth, signed = 32, True
    if expr.type_name is not None:
        match = _INT_PARAM_RE.match(expr.type_name)
        if match is None:
            raise _error(f"invalid integer type {expr.type_name!r}", expr)
        signed = match.group(1) != "u"
        bitwidth = int(match.group(2))
    return C.IntLiteralConstraint(expr.value, bitwidth, signed)


def _resolve_ref(expr: ast.RefExpr, scope: Scope) -> C.Constraint:
    name = expr.name

    # Alias-parameter substitution (parametric aliases, §4.5).  Arguments
    # were pre-resolved in the caller's scope at expansion time.
    if name in scope.alias_env and expr.sigil is None and "." not in name:
        if expr.params is not None:
            raise _error(
                f"alias parameter {name!r} cannot take parameters", expr
            )
        return scope.alias_env[name]

    # Constraint variables (§4.6).
    if "." not in name and name in scope.constraint_vars:
        if expr.params is not None:
            raise _error(
                f"constraint variable {name!r} cannot take parameters", expr
            )
        return scope.constraint_vars[name]

    # Generic constructors (Fig. 2c) and builtin parameter constraints.
    builtin = _resolve_builtin_ref(expr, scope)
    if builtin is not None:
        return builtin

    # Aliases — current dialect first, then implicit namespaces (§4.2).
    base = name.rsplit(".", 1)[-1] if name.startswith(f"{scope.dialect_name}.") else name
    if "." not in base and base in scope.aliases:
        return _expand_alias(scope.aliases[base], expr, scope, scope)
    foreign = scope.lookup_foreign_alias(name)
    if foreign is not None:
        alias, home_scope = foreign
        # Arguments resolve in the caller's namespace, the alias body in
        # its home namespace.
        return _expand_alias(alias, expr, scope, home_scope)

    # Named IRDL-Py constraints and parameter wrappers (§5).
    if "." not in base and base in scope.constraint_decls:
        _require_no_params(expr)
        resolved = scope.resolved_constraints.get(base)
        if resolved is None:
            raise _error(
                f"constraint {base!r} is used before its declaration", expr
            )
        return resolved
    if "." not in base and base in scope.param_wrappers:
        _require_no_params(expr)
        wrapper = scope.param_wrappers[base]
        return C.ParamWrapperConstraint(wrapper.name, wrapper.py_class_name)

    # Enum constructors: ``signedness.Signed`` / ``cmath.signedness.Signed``.
    if "." in name and expr.sigil is None:
        enum_name, _, ctor = name.rpartition(".")
        enum = scope.lookup_enum(enum_name)
        if enum is not None:
            _require_no_params(expr)
            if not enum.has_constructor(ctor):
                raise _error(
                    f"enum {enum.qualified_name} has no constructor {ctor!r}",
                    expr,
                )
            return C.EnumConstructorConstraint(enum, ctor)

    # Enums by name.
    enum = scope.lookup_enum(name) if expr.sigil is None else None
    if enum is not None:
        _require_no_params(expr)
        return C.EnumConstraint(enum)

    # Types and attributes.  The sigil selects the namespace; without a
    # sigil, try types first, then attributes (the paper omits sigils
    # freely, e.g. Listing 10).
    if expr.sigil != "#":
        binding = scope.lookup_type(name)
        if binding is not None:
            return _type_or_attr_constraint(binding, expr, scope)
    if expr.sigil != "!":
        binding = scope.lookup_attr(name)
        if binding is not None:
            return _type_or_attr_constraint(binding, expr, scope)

    sigil = expr.sigil or ""
    raise _error(f"unknown name '{sigil}{name}'", expr)


def _require_no_params(expr: ast.RefExpr) -> None:
    if expr.params is not None:
        raise _error(f"{expr.name!r} does not take parameters", expr)


def _resolve_builtin_ref(expr: ast.RefExpr, scope: Scope) -> C.Constraint | None:
    name = expr.name
    if name == "AnyType":
        _require_no_params(expr)
        return C.AnyTypeConstraint()
    if name == "AnyAttr":
        _require_no_params(expr)
        return C.AnyAttrConstraint()
    if name == "AnyParam":
        _require_no_params(expr)
        return C.AnyParamConstraint()
    if name == "AnyOf":
        if not expr.params:
            raise _error("AnyOf requires at least one alternative", expr)
        return C.AnyOfConstraint(
            [resolve_constraint(p, scope) for p in expr.params]
        )
    if name == "And":
        if not expr.params:
            raise _error("And requires at least one conjunct", expr)
        return C.AndConstraint(
            [resolve_constraint(p, scope) for p in expr.params]
        )
    if name == "Not":
        if not expr.params or len(expr.params) != 1:
            raise _error("Not requires exactly one operand", expr)
        return C.NotConstraint(resolve_constraint(expr.params[0], scope))
    match = re.match(r"^f(16|32|64)_attr$", name)
    if match is not None:
        _require_no_params(expr)
        return C.FloatAttrConstraint(int(match.group(1)))
    match = re.match(r"^i(1|8|16|32|64)_attr$", name)
    if match is not None:
        _require_no_params(expr)
        return C.IntegerAttrConstraint(int(match.group(1)))
    if name == "index_attr":
        _require_no_params(expr)
        return C.IntegerAttrConstraint(None)
    match = _INT_PARAM_RE.match(name)
    if match is not None:
        _require_no_params(expr)
        return C.IntTypeConstraint(int(match.group(2)), match.group(1) != "u")
    match = _FLOAT_PARAM_RE.match(name)
    if match is not None:
        _require_no_params(expr)
        return C.AnyFloatConstraint(int(match.group(1)))
    if name == "string":
        _require_no_params(expr)
        return C.AnyStringConstraint()
    if name == "location":
        _require_no_params(expr)
        return C.LocationConstraint()
    if name == "type_id":
        _require_no_params(expr)
        return C.TypeIdConstraint()
    if name == "array":
        if expr.params is None:
            return C.ArrayAnyConstraint(C.AnyParamConstraint())
        if len(expr.params) != 1:
            raise _error("array<> takes exactly one element constraint", expr)
        return C.ArrayAnyConstraint(resolve_constraint(expr.params[0], scope))
    return None


def _expand_alias(
    alias: ast.AliasDecl,
    expr: ast.RefExpr,
    caller_scope: Scope,
    home_scope: Scope,
) -> C.Constraint:
    if alias.name in home_scope._expanding:
        raise _error(f"alias {alias.name!r} is recursively defined", expr)
    args = expr.params or []
    if len(args) != len(alias.type_params):
        raise _error(
            f"alias {alias.name!r} expects {len(alias.type_params)} "
            f"arguments, got {len(args)}",
            expr,
        )
    resolved_args = [resolve_constraint(arg, caller_scope) for arg in args]
    saved_env = home_scope.alias_env
    home_scope.alias_env = dict(saved_env)
    home_scope.alias_env.update(zip(alias.type_params, resolved_args))
    home_scope._expanding.add(alias.name)
    try:
        return resolve_constraint(alias.body, home_scope)
    finally:
        home_scope._expanding.discard(alias.name)
        home_scope.alias_env = saved_env


def _type_or_attr_constraint(
    binding: AttrDefBinding, expr: ast.RefExpr, scope: Scope
) -> C.Constraint:
    if expr.params is not None:
        param_constraints = [resolve_constraint(p, scope) for p in expr.params]
        if binding.parameter_names and len(param_constraints) != len(
            binding.parameter_names
        ):
            raise _error(
                f"{binding.qualified_name} has "
                f"{len(binding.parameter_names)} parameters, "
                f"{len(param_constraints)} constraints given",
                expr,
            )
        return C.ParametricConstraint(binding, param_constraints)
    if not binding.parameter_names:
        # Zero-parameter definitions coerce to equality with their unique
        # instance: ``!f32`` only matches the f32 type (§4.3).
        return C.EqConstraint(binding.instantiate(()))
    return C.BaseConstraint(binding)


# ---------------------------------------------------------------------------
# Constraint classification helpers
# ---------------------------------------------------------------------------

def constraint_uses_py(constraint: C.Constraint) -> bool:
    """Whether a resolved constraint needs IRDL-Py anywhere inside."""
    if isinstance(constraint, (C.PyConstraint, C.ParamWrapperConstraint)):
        return True
    for child in _children(constraint):
        if constraint_uses_py(child):
            return True
    return False


def constraint_uses_wrapper(constraint: C.Constraint) -> bool:
    """Whether a constraint involves a ``TypeOrAttrParam`` wrapper.

    This is the Figure 9a/10a criterion: a parameter *kind* outside
    IRDL's builtins.  (A ``PyConstraint`` refinement over a builtin
    parameter kind does not count — the parameter itself is still an
    IRDL parameter; the refinement shows up as a verifier instead.)
    """
    if isinstance(constraint, C.ParamWrapperConstraint):
        return True
    for child in _children(constraint):
        if constraint_uses_wrapper(child):
            return True
    return False


def _children(constraint: C.Constraint) -> list[C.Constraint]:
    return list(constraint.children())


def classify_param_kind(constraint: C.Constraint, dialect_name: str) -> str:
    """Classify a parameter constraint for the Figure 8 analysis."""
    if isinstance(constraint, C.ParamWrapperConstraint):
        # Host-language parameter: tag with the owning namespace of the
        # wrapped class (``affine.AffineMap`` → "affine"); primitive
        # buffers classify as strings, like MLIR's raw byte storage.
        if "." in constraint.class_name:
            return constraint.class_name.split(".", 1)[0]
        if constraint.class_name in ("str", "bytes", "char*"):
            return "string"
        return dialect_name
    if isinstance(constraint, (C.IntTypeConstraint, C.IntLiteralConstraint)):
        return "integer"
    if isinstance(constraint, (C.AnyStringConstraint, C.StringLiteralConstraint)):
        return "string"
    if isinstance(constraint, (C.EnumConstraint, C.EnumConstructorConstraint)):
        return "enum"
    if isinstance(constraint, C.AnyFloatConstraint):
        return "float"
    if isinstance(constraint, C.LocationConstraint):
        return "location"
    if isinstance(constraint, C.TypeIdConstraint):
        return "type id"
    if isinstance(constraint, (C.ArrayAnyConstraint, C.ArrayExactConstraint)):
        children = _children(constraint)
        if children:
            return classify_param_kind(children[0], dialect_name)
        return "attr/type"
    if isinstance(constraint, (C.AnyOfConstraint, C.AndConstraint, C.VarConstraint)):
        children = _children(constraint)
        if children:
            return classify_param_kind(children[0], dialect_name)
    if isinstance(constraint, C.PyConstraint):
        return classify_param_kind(constraint.base, dialect_name)
    if isinstance(constraint, C.EqConstraint):
        from repro.ir.params import param_kind

        return param_kind(constraint.expected)
    return "attr/type"


# ---------------------------------------------------------------------------
# Definition resolution
# ---------------------------------------------------------------------------

def resolve_dialect_body(decl: ast.DialectDecl, scope: Scope) -> DialectDef:
    """Resolve every declaration of a dialect into a :class:`DialectDef`.

    The dialect's own type/attribute/enum bindings must already be
    registered in ``scope.context`` (the instantiation layer does this)
    so that self-references resolve.
    """
    dialect = DialectDef(decl.name, suppressions=list(decl.suppressions))

    for enum_decl in decl.enums:
        dialect.enums.append(
            EnumDef(decl.name, enum_decl.name, list(enum_decl.constructors))
        )

    for wrapper_decl in decl.param_wrappers:
        wrapper = ParamWrapperDef(
            decl.name,
            wrapper_decl.name,
            summary=wrapper_decl.summary,
            py_class_name=wrapper_decl.py_class_name,
            py_parser=wrapper_decl.py_parser,
            py_printer=wrapper_decl.py_printer,
        )
        dialect.param_wrappers.append(wrapper)
        scope.resolved_wrappers[wrapper.name] = wrapper

    for constraint_decl in decl.constraints:
        base = resolve_constraint(constraint_decl.base, scope)
        if constraint_decl.py_constraint is not None:
            compile_py(constraint_decl, compile_predicate,
                       [constraint_decl.py_constraint])
            resolved: C.Constraint = C.PyConstraint(
                constraint_decl.name, base, constraint_decl.py_constraint
            )
        else:
            resolved = base
        scope.resolved_constraints[constraint_decl.name] = resolved
        dialect.constraints.append(
            ConstraintDef(
                decl.name,
                constraint_decl.name,
                resolved,
                summary=constraint_decl.summary,
                py_constraint=constraint_decl.py_constraint,
            )
        )

    for alias_decl in decl.aliases:
        constraint = None
        if not alias_decl.type_params:
            constraint = resolve_constraint(alias_decl.body, scope)
        dialect.aliases.append(
            AliasDef(
                decl.name,
                alias_decl.name,
                alias_decl.sigil,
                list(alias_decl.type_params),
                constraint,
            )
        )

    for type_decl in decl.types:
        dialect.types.append(_resolve_type_decl(type_decl, scope))
    for attr_decl in decl.attributes:
        dialect.attributes.append(_resolve_type_decl(attr_decl, scope))
    for op_decl in decl.operations:
        dialect.operations.append(_resolve_op_decl(op_decl, scope))
    return dialect


def _resolve_type_decl(decl: ast.TypeDecl, scope: Scope) -> TypeDef:
    params = []
    for param_decl in decl.parameters:
        constraint = resolve_constraint(param_decl.constraint, scope)
        params.append(
            ParamDef(
                param_decl.name,
                constraint,
                uses_py_wrapper=constraint_uses_wrapper(constraint),
                kind=classify_param_kind(constraint, scope.dialect_name),
            )
        )
    return TypeDef(
        scope.dialect_name,
        decl.name,
        is_type=decl.is_type,
        parameters=params,
        summary=decl.summary,
        py_constraints=list(decl.py_constraints),
        suppressions=list(decl.suppressions),
        location=_decl_location(decl),
    )


def _decl_location(decl) -> "Location":
    """The source location of a declaration's span, when it has one."""
    span = getattr(decl, "span", None)
    if span is None:
        return UNKNOWN_LOC
    return Location.from_span(span)


def _resolve_op_decl(decl: ast.OperationDecl, scope: Scope) -> OpDef:
    compile_py(decl, compile_op_predicate, decl.py_constraints)
    scope.constraint_vars = {}
    for var_decl in decl.constraint_vars:
        if var_decl.name in scope.constraint_vars:
            raise _error(
                f"constraint variable {var_decl.name!r} is declared twice",
                var_decl,
            )
        base = resolve_constraint(var_decl.constraint, scope)
        scope.constraint_vars[var_decl.name] = C.VarConstraint(
            var_decl.name, base
        )
    try:
        op_def = OpDef(
            scope.dialect_name,
            decl.name,
            constraint_vars=dict(scope.constraint_vars),
            operands=[_resolve_arg(a, scope) for a in decl.operands],
            results=[_resolve_arg(a, scope) for a in decl.results],
            attributes=[_resolve_arg(a, scope) for a in decl.attributes],
            regions=[_resolve_region(r, scope) for r in decl.regions],
            successors=list(decl.successors) if decl.successors is not None else None,
            format=decl.format,
            summary=decl.summary,
            py_constraints=list(decl.py_constraints),
            suppressions=list(decl.suppressions),
            location=_decl_location(decl),
        )
    finally:
        scope.constraint_vars = {}
    return op_def


def _resolve_arg(decl: ast.ArgDecl, scope: Scope) -> ArgDef:
    constraint = resolve_constraint(decl.constraint, scope)
    return ArgDef(
        decl.name,
        constraint,
        decl.variadicity,
        uses_py_constraint=constraint_uses_py(constraint),
    )


def _resolve_region(decl: ast.RegionDecl, scope: Scope) -> RegionDef:
    terminator = decl.terminator
    if terminator is not None and "." not in terminator:
        terminator = f"{scope.dialect_name}.{terminator}"
    return RegionDef(
        decl.name,
        arguments=[_resolve_arg(a, scope) for a in decl.arguments],
        terminator=terminator,
    )
