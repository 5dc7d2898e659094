"""Pretty-printer for IRDL syntax trees.

Prints :class:`~repro.irdl.ast.DialectDecl` trees back to IRDL source in
the paper's style, enabling spec round-tripping (``parse ∘ print = id``)
and programmatic generation of dialect definitions (the corpus
generator emits ASTs and prints them through this module).
"""

from __future__ import annotations

import io

from repro.irdl import ast
from repro.utils.quoting import quote


class IRDLPrinter:
    """Stateful printer with two-space indentation."""

    def __init__(self) -> None:
        self.stream = io.StringIO()
        self._indent = 0

    def _line(self, text: str = "") -> None:
        if text:
            self.stream.write("  " * self._indent + text + "\n")
        else:
            self.stream.write("\n")

    def getvalue(self) -> str:
        return self.stream.getvalue()

    # ------------------------------------------------------------------

    def print_dialect(self, decl: ast.DialectDecl) -> None:
        self._line(f"Dialect {decl.name} {{")
        self._indent += 1
        for code in decl.suppressions:
            self._line(f"Suppress {quote(code)}")
        for enum in decl.enums:
            self.print_enum(enum)
        for alias in decl.aliases:
            self.print_alias(alias)
        for wrapper in decl.param_wrappers:
            self.print_param_wrapper(wrapper)
        for constraint in decl.constraints:
            self.print_constraint_decl(constraint)
        for type_decl in decl.types:
            self.print_type_decl(type_decl)
        for attr_decl in decl.attributes:
            self.print_type_decl(attr_decl)
        for op in decl.operations:
            self.print_operation(op)
        self._indent -= 1
        self._line("}")

    def print_enum(self, decl: ast.EnumDecl) -> None:
        ctors = ", ".join(decl.constructors)
        self._line(f"Enum {decl.name} {{ {ctors} }}")

    def print_alias(self, decl: ast.AliasDecl) -> None:
        sigil = decl.sigil or ""
        params = f"<{', '.join(decl.type_params)}>" if decl.type_params else ""
        body = self.constraint_text(decl.body)
        self._line(f"Alias {sigil}{decl.name}{params} = {body}")

    def print_param_wrapper(self, decl: ast.ParamWrapperDecl) -> None:
        self._line(f"TypeOrAttrParam {decl.name} {{")
        self._indent += 1
        if decl.summary:
            self._line(f"Summary {quote(decl.summary)}")
        if decl.py_class_name:
            self._line(f"PyClassName {quote(decl.py_class_name)}")
        if decl.py_parser:
            self._line(f"PyParser {quote(decl.py_parser)}")
        if decl.py_printer:
            self._line(f"PyPrinter {quote(decl.py_printer)}")
        self._indent -= 1
        self._line("}")

    def print_constraint_decl(self, decl: ast.ConstraintDecl) -> None:
        base = self.constraint_text(decl.base)
        self._line(f"Constraint {decl.name} : {base} {{")
        self._indent += 1
        if decl.summary:
            self._line(f"Summary {quote(decl.summary)}")
        if decl.py_constraint is not None:
            self._line(f"PyConstraint {quote(decl.py_constraint)}")
        self._indent -= 1
        self._line("}")

    def print_type_decl(self, decl: ast.TypeDecl) -> None:
        keyword = "Type" if decl.is_type else "Attribute"
        self._line(f"{keyword} {decl.name} {{")
        self._indent += 1
        if decl.parameters:
            inner = ", ".join(
                f"{p.name}: {self.constraint_text(p.constraint)}"
                for p in decl.parameters
            )
            self._line(f"Parameters ({inner})")
        if decl.format is not None:
            self._line(f"Format {quote(decl.format)}")
        if decl.summary:
            self._line(f"Summary {quote(decl.summary)}")
        for code in decl.py_constraints:
            self._line(f"PyConstraint {quote(code)}")
        for code in decl.suppressions:
            self._line(f"Suppress {quote(code)}")
        self._indent -= 1
        self._line("}")

    def print_operation(self, decl: ast.OperationDecl) -> None:
        self._line(f"Operation {decl.name} {{")
        self._indent += 1
        if decl.constraint_vars:
            inner = ", ".join(
                f"{v.sigil or ''}{v.name}: {self.constraint_text(v.constraint)}"
                for v in decl.constraint_vars
            )
            self._line(f"ConstraintVars ({inner})")
        for field_name, args in (
            ("Operands", decl.operands),
            ("Results", decl.results),
            ("Attributes", decl.attributes),
        ):
            if args:
                inner = ", ".join(self._arg_text(a) for a in args)
                self._line(f"{field_name} ({inner})")
        for region in decl.regions:
            self._print_region(region)
        if decl.successors is not None:
            self._line(f"Successors ({', '.join(decl.successors)})")
        if decl.format is not None:
            self._line(f"Format {quote(decl.format)}")
        if decl.summary:
            self._line(f"Summary {quote(decl.summary)}")
        for code in decl.py_constraints:
            self._line(f"PyConstraint {quote(code)}")
        for code in decl.suppressions:
            self._line(f"Suppress {quote(code)}")
        self._indent -= 1
        self._line("}")

    def _print_region(self, decl: ast.RegionDecl) -> None:
        self._line(f"Region {decl.name} {{")
        self._indent += 1
        if decl.arguments:
            inner = ", ".join(self._arg_text(a) for a in decl.arguments)
            self._line(f"Arguments ({inner})")
        if decl.terminator is not None:
            self._line(f"Terminator {decl.terminator}")
        self._indent -= 1
        self._line("}")

    def _arg_text(self, arg: ast.ArgDecl) -> str:
        constraint = self.constraint_text(arg.constraint)
        if arg.variadicity is ast.Variadicity.VARIADIC:
            constraint = f"Variadic<{constraint}>"
        elif arg.variadicity is ast.Variadicity.OPTIONAL:
            constraint = f"Optional<{constraint}>"
        return f"{arg.name}: {constraint}"

    # ------------------------------------------------------------------

    def constraint_text(self, expr: ast.ConstraintExpr) -> str:
        if isinstance(expr, ast.IntLiteralExpr):
            if expr.type_name is not None:
                return f"{expr.value} : {expr.type_name}"
            return str(expr.value)
        if isinstance(expr, ast.StringLiteralExpr):
            return quote(expr.value)
        if isinstance(expr, ast.ListExpr):
            inner = ", ".join(self.constraint_text(e) for e in expr.elements)
            return f"[{inner}]"
        if isinstance(expr, ast.RefExpr):
            text = f"{expr.sigil or ''}{expr.name}"
            if expr.params is not None:
                inner = ", ".join(self.constraint_text(p) for p in expr.params)
                text += f"<{inner}>"
            return text
        raise TypeError(f"unknown constraint expression {expr!r}")


def print_dialect(decl: ast.DialectDecl) -> str:
    """Print one dialect declaration to IRDL source text."""
    printer = IRDLPrinter()
    printer.print_dialect(decl)
    return printer.getvalue()


def print_dialects(decls: list[ast.DialectDecl]) -> str:
    printer = IRDLPrinter()
    for index, decl in enumerate(decls):
        if index:
            printer._line()
        printer.print_dialect(decl)
    return printer.getvalue()
