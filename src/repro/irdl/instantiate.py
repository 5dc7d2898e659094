"""Dynamic dialect instantiation (§3).

Registering an IRDL file with a context replaces the traditional
"write, compile, and link several complex C++ or TableGen files" loop:
all data structures are instantiated at runtime and the compiler is
immediately prepared to build, parse, print, and verify IR of the new
dialect.

From one :class:`~repro.irdl.defs.DialectDef` this module derives the
three artefacts §3 lists:

1. parsers and printers — generic syntax for free, plus declarative
   ``Format`` programs where declared;
2. data structures — :class:`DynamicTypeAttribute` /
   :class:`DynamicParametrizedAttribute` instances with named parameter
   accessors;
3. verifiers — generated from the declared constraints, each lowered
   the first time it verifies an operation.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.builtin.attributes import ArrayAttr, FloatAttr, StringAttr
from repro.builtin.types import FloatType
from repro.ir.attributes import (
    Attribute,
    DynamicParametrizedAttribute,
    DynamicTypeAttribute,
)
from repro.ir.context import Context
from repro.ir.dialect import (
    AttrDefBinding,
    DialectBinding,
    EnumBinding,
    OpDefBinding,
)
from repro.ir.exceptions import VerifyError
from repro.ir.params import ArrayParam, FloatParam, StringParam
from repro.ir.uniquer import intern as uniquer_intern
from repro.irdl import ast, codegen
from repro.irdl.constraints import (
    AnyAttrConstraint,
    ArrayAnyConstraint,
    FloatAttrConstraint,
)
from repro.irdl.defs import DialectDef, OpDef, TypeDef
from repro.irdl.format import FormatError, FormatProgram
from repro.irdl.irdl_py import AttrProxy, compile_predicate
from repro.irdl.parser import parse_irdl
from repro.irdl.resolver import (
    ResolutionError,
    Scope,
    compile_py,
    resolve_dialect_body,
)
from repro.irdl.verifier import LazyOpVerifier
from repro.obs.instrument import OBS, observed
from repro.utils.collector import bulk_construction


class DynamicAttrDef(AttrDefBinding):
    """A type/attribute binding generated from an IRDL definition."""

    def __init__(self, type_def_ast: ast.TypeDecl, dialect_name: str):
        super().__init__(
            f"{dialect_name}.{type_def_ast.name}",
            is_type=type_def_ast.is_type,
            parameter_names=[p.name for p in type_def_ast.parameters],
            summary=type_def_ast.summary,
        )
        #: Filled in once the dialect body is resolved.
        self.type_def: TypeDef | None = None
        #: Generated parameter verifier (definition-time codegen); the
        #: emitted source is kept for ``irdl-opt --dump-generated``.
        self._compiled_params = None
        self.generated_param_source: str | None = None
        codes = type_def_ast.py_constraints
        compiled = compile_py(type_def_ast, compile_predicate, codes)
        self._py_predicates = list(zip(codes, compiled))
        #: Declarative parameter format (§4.7), when declared.
        self.param_format = None
        if type_def_ast.format is not None:
            from repro.irdl.format import TypeFormatProgram

            try:
                self.param_format = TypeFormatProgram(
                    self.qualified_name, self.parameter_names,
                    type_def_ast.format,
                )
            except FormatError as err:
                raise FormatError(err.message, type_def_ast.span) from None

    def attach_type_def(self, type_def: TypeDef) -> None:
        """Install the resolved definition and its generated parameter
        verifier."""
        self.type_def = type_def
        self._compiled_params, self.generated_param_source = (
            codegen.compile_param_verifier(type_def))

    def verify_parameters(self, parameters: tuple[Any, ...]) -> None:
        if self._compiled_params is None:
            # Still registering: the constraints are not resolved yet.
            if len(parameters) != len(self.parameter_names):
                raise VerifyError(
                    f"{self.qualified_name} expects "
                    f"{len(self.parameter_names)} parameters, got "
                    f"{len(parameters)}"
                )
            return
        self._compiled_params(parameters)
        if self._py_predicates:
            self._run_py_predicates(parameters)

    def _run_py_predicates(self, parameters: Sequence[Any]) -> None:
        instance = self._construct(parameters)
        for code, predicate in self._py_predicates:
            if not predicate(instance):
                raise VerifyError(
                    f"{self.qualified_name}: PyConstraint violated: "
                    f"{code!r}"
                )

    def read_literals(self, parameters: list[Any]) -> list[Any]:
        """Textual parameters as this definition declares them.

        The parser reads attribute syntax in parameter position directly
        where the text is unambiguous (``42 : i64``, ``unit``, ``@sym``,
        ``{...}``, ``#dialect.attr<...>``).  Three literals print the
        same as a parameter and an attribute: ``"..."``, ``1.5 : f32``
        and ``[...]``.  They parse as parameters; where the parameter (or
        an array element of it) takes ``#AnyAttr`` they denote the string,
        float or array attribute instead, and a float literal denotes a
        float attribute where it takes ``#f<N>_attr``.  Under any other
        constraint (``AnyOf``, a base or an equality constraint) they stay
        parameters, and a ``TypeAttr`` prints as its bare type and reads
        back as the type.
        """
        if self.type_def is None:
            return parameters
        declared = [p.constraint for p in self.type_def.parameters]
        return [
            _read_literal(value, constraint)
            for value, constraint in zip(parameters, declared)
        ] + parameters[len(declared):]

    def _construct(self, parameters: Sequence[Any]) -> Attribute:
        cls = DynamicTypeAttribute if self.is_type else DynamicParametrizedAttribute
        return cls(self, parameters)

    def instantiate(self, parameters: Sequence[Any] = ()) -> Attribute:
        params = tuple(parameters)
        self.verify_parameters(params)
        # Dynamic attributes are uniqued per definition: the structural
        # key includes the definition's identity, so two dialects with a
        # same-named type never share instances.
        return uniquer_intern(self._construct(params))


def _read_literal(value: Any, constraint: Any) -> Any:
    if isinstance(value, FloatParam) and isinstance(
        constraint, (AnyAttrConstraint, FloatAttrConstraint)
    ):
        return FloatAttr.get(value.value, FloatType.get(value.bitwidth))
    if isinstance(constraint, AnyAttrConstraint):
        if isinstance(value, StringParam):
            return StringAttr.get(value.value)
        if isinstance(value, ArrayParam):
            elements = [
                _read_literal(element, constraint) for element in value.elements
            ]
            if all(isinstance(element, Attribute) for element in elements):
                return ArrayAttr.get(elements)
    elif isinstance(value, ArrayParam) and isinstance(
        constraint, ArrayAnyConstraint
    ):
        return ArrayParam(tuple(
            _read_literal(element, constraint.element)
            for element in value.elements
        ))
    return value


class DynamicOpDef(OpDefBinding):
    """An operation binding generated from an IRDL definition."""

    def __init__(self, op_def: OpDef):
        super().__init__(
            op_def.qualified_name,
            summary=op_def.summary,
            is_terminator=op_def.is_terminator,
        )
        self.op_def = op_def
        #: Lowered to a generated verifier on first use, which then
        #: replaces it here (:class:`~repro.irdl.verifier.LazyOpVerifier`).
        self._verifier = LazyOpVerifier(self)
        self.location = op_def.location
        self.format_program: FormatProgram | None = None
        if op_def.format is not None:
            self.format_program = FormatProgram.compile(op_def)

    def has_custom_format(self) -> bool:
        return self.format_program is not None

    def prepare_custom(self, op) -> dict:
        assert self.format_program is not None
        return self.format_program._bindings_for(op).bindings

    def print_custom(self, op, printer, bindings) -> None:
        assert self.format_program is not None
        self.format_program.print(op, printer, bindings)

    def parse_custom(self, parser):
        assert self.format_program is not None
        return self.format_program.parse(parser)


@bulk_construction
@observed(lambda context, decl: (f"irdl.register:{decl.name}", {}),
          "irdl.instantiate.register_time", "irdl")
def register_dialect(context: Context, decl: ast.DialectDecl) -> DialectDef:
    """Register one parsed IRDL dialect into a context.

    Returns the resolved :class:`DialectDef` (also stored on the binding
    as ``binding.irdl_def`` for introspection and analysis tooling).
    """
    if context.get_dialect(decl.name) is not None:
        raise ResolutionError.at(
            f"dialect {decl.name!r} is already registered", decl.span
        )
    binding = DialectBinding(decl.name)

    for enum_decl in decl.enums:
        binding.register_enum(
            EnumBinding(f"{decl.name}.{enum_decl.name}", enum_decl.constructors)
        )

    attr_bindings: dict[str, DynamicAttrDef] = {}
    for type_decl in decl.types:
        dynamic = DynamicAttrDef(type_decl, decl.name)
        binding.register_type(dynamic)
        attr_bindings[type_decl.name] = dynamic
    for attr_decl in decl.attributes:
        dynamic = DynamicAttrDef(attr_decl, decl.name)
        binding.register_attr(dynamic)
        attr_bindings[attr_decl.name] = dynamic

    context.register_dialect(binding)
    try:
        dialect_def = resolve_dialect_body(decl, Scope(context, decl))
        for type_def in (*dialect_def.types, *dialect_def.attributes):
            attr_bindings[type_def.name].attach_type_def(type_def)
        for op_decl, op_def in zip(decl.operations, dialect_def.operations):
            try:
                binding.register_op(DynamicOpDef(op_def))
            except FormatError as err:
                raise FormatError(err.message, op_decl.span) from None
    except BaseException:
        # Roll back the partly registered dialect, so the context stays
        # consistent and a corrected retry can register it.
        del context.dialects[decl.name]
        raise

    # Expose the resolved definition and syntax tree for introspection
    # (§6's analyses run over these records; cross-dialect alias lookup
    # uses the syntax tree).
    binding.irdl_def = dialect_def  # type: ignore[attr-defined]
    binding.irdl_ast = decl  # type: ignore[attr-defined]
    metrics = OBS.metrics
    if metrics.enabled:
        scope = metrics.scope("irdl.instantiate")
        scope.counter("dialects_loaded").inc()
        scope.counter("ops_instantiated").inc(len(dialect_def.operations))
        scope.counter("types_instantiated").inc(
            len(dialect_def.types) + len(dialect_def.attributes)
        )
    return dialect_def


def register_dialects(
    context: Context, decls: Sequence[ast.DialectDecl]
) -> list[DialectDef]:
    """Register parsed IRDL dialects all or none.

    When one fails, the dialects registered before it are removed again,
    so the context is left as it was and a corrected retry succeeds.
    """
    defs: list[DialectDef] = []
    try:
        for decl in decls:
            defs.append(register_dialect(context, decl))
    except BaseException:
        for decl in decls[: len(defs)]:
            del context.dialects[decl.name]
        raise
    return defs


def register_irdl(context: Context, text: str, name: str = "<irdl>") -> list[DialectDef]:
    """Parse IRDL source text and register every dialect it defines,
    all or none (:func:`register_dialects`)."""
    return register_dialects(context, parse_irdl(text, name))


def read_dialects(data: bytes, name: str = "<irdl>") -> list[ast.DialectDecl]:
    """The dialect declarations of a raw IRDL payload.

    The payload may hold IRDL source text or a compiled dialects
    artifact (``irdl-opt --compile-irdl``); the bytecode magic number
    decides, so callers never need to know which form they were handed.
    """
    from repro.bytecode import decode_dialects, is_bytecode

    if is_bytecode(data):
        return decode_dialects(data, name=name)
    return parse_irdl(data.decode("utf-8"), name)


def load_irdl_file(context: Context, path: str) -> list[DialectDef]:
    """Load and register the dialects of one ``.irdl`` file, text or
    bytecode (:func:`read_dialects`)."""
    with open(path, "rb") as handle:
        data = handle.read()
    return register_dialects(context, read_dialects(data, path))
