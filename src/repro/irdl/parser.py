"""Parser for the IRDL definition language (§4, Listings 3–11).

The surface syntax is the one used throughout the paper::

    Dialect cmath {
      Alias !FloatType = !AnyOf<!f32, !f64>
      Type complex {
        Parameters (elementType: !FloatType)
        Summary "A complex number"
      }
      Operation mul {
        ConstraintVar (!T: !complex<FloatType>)
        Operands (lhs: !T, rhs: !T)
        Results (res: !T)
        Format "$lhs, $rhs : $T.elementType"
      }
    }

Both the paper's ``Cpp*`` directive spellings (``CppConstraint``,
``CppClassName``, …) and this reproduction's ``Py*`` spellings are
accepted; the embedded code is Python either way (IRDL-Py, see DESIGN.md).
"""

from __future__ import annotations

from repro.irdl import ast
from repro.textir.lexer import Token, TokenCursor, TokenKind
from repro.utils.source import SourceFile

#: Directive spellings accepted for embedded-code fields.  The key is the
#: canonical name used in the AST.
_CODE_DIRECTIVES = {
    "PyConstraint": ("PyConstraint", "CppConstraint"),
    "PyClassName": ("PyClassName", "CppClassName"),
    "PyParser": ("PyParser", "CppParser"),
    "PyPrinter": ("PyPrinter", "CppPrinter"),
}

_CODE_SPELLINGS = {
    spelling: canonical
    for canonical, spellings in _CODE_DIRECTIVES.items()
    for spelling in spellings
}


class IRDLParser(TokenCursor):
    """Recursive-descent parser producing :class:`~repro.irdl.ast` nodes."""

    def __init__(self, source: SourceFile | str, name: str = "<irdl>"):
        if isinstance(source, str):
            source = SourceFile(source, name)
        super().__init__(source)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def parse_file(self) -> list[ast.DialectDecl]:
        dialects = []
        while not self.at_end():
            dialects.append(self.parse_dialect())
        return dialects

    def parse_dialect(self) -> ast.DialectDecl:
        start = self.expect_keyword("Dialect")
        name = self.expect(TokenKind.BARE_IDENT, "dialect name")
        decl = ast.DialectDecl(name.text, span=start.span)
        self.expect(TokenKind.LBRACE, "'{'")
        while not self.accept(TokenKind.RBRACE):
            token = self.peek()
            if token.kind is not TokenKind.BARE_IDENT:
                raise self.error(
                    f"expected a declaration, found {token.text!r}", token
                )
            if token.text == "Type":
                decl.types.append(self._parse_type_decl(is_type=True))
            elif token.text == "Attribute":
                decl.attributes.append(self._parse_type_decl(is_type=False))
            elif token.text == "Operation":
                decl.operations.append(self._parse_operation_decl())
            elif token.text == "Alias":
                decl.aliases.append(self._parse_alias_decl())
            elif token.text == "Enum":
                decl.enums.append(self._parse_enum_decl())
            elif token.text == "Constraint":
                decl.constraints.append(self._parse_constraint_decl())
            elif token.text == "TypeOrAttrParam":
                decl.param_wrappers.append(self._parse_param_wrapper_decl())
            elif token.text == "Suppress":
                self.next()
                decl.suppressions.append(
                    self.expect(TokenKind.STRING, "lint code string").value
                )
            else:
                raise self.error(
                    f"unknown declaration kind {token.text!r}", token
                )
        return decl

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _parse_type_decl(self, is_type: bool) -> ast.TypeDecl:
        start = self.next()  # 'Type' | 'Attribute'
        name = self.expect(TokenKind.BARE_IDENT, "definition name")
        decl = ast.TypeDecl(name.text, is_type=is_type, span=start.span)
        self.expect(TokenKind.LBRACE, "'{'")
        while not self.accept(TokenKind.RBRACE):
            field = self.expect(TokenKind.BARE_IDENT, "a field directive")
            if field.text == "Parameters":
                if decl.parameters:
                    raise self.error("duplicate Parameters directive", field)
                decl.parameters = self._parse_param_decl_list()
            elif field.text == "Summary":
                decl.summary = self.expect(TokenKind.STRING, "summary string").value
            elif field.text == "Format":
                decl.format = self.expect(TokenKind.STRING, "format string").value
            elif field.text == "Suppress":
                decl.suppressions.append(
                    self.expect(TokenKind.STRING, "lint code string").value
                )
            elif _CODE_SPELLINGS.get(field.text) == "PyConstraint":
                decl.py_constraints.append(
                    self.expect(TokenKind.STRING, "constraint code string").value
                )
            else:
                raise self.error(
                    f"unknown directive {field.text!r} in "
                    f"{'Type' if is_type else 'Attribute'} definition",
                    field,
                )
        return decl

    def _parse_operation_decl(self) -> ast.OperationDecl:
        start = self.expect_keyword("Operation")
        name = self.expect(TokenKind.BARE_IDENT, "operation name")
        decl = ast.OperationDecl(name.text, span=start.span)
        self.expect(TokenKind.LBRACE, "'{'")
        while not self.accept(TokenKind.RBRACE):
            field = self.expect(TokenKind.BARE_IDENT, "a field directive")
            if field.text in ("ConstraintVar", "ConstraintVars"):
                decl.constraint_vars.extend(self._parse_constraint_var_list())
            elif field.text == "Operands":
                decl.operands = self._parse_arg_decl_list(allow_variadic=True)
            elif field.text == "Results":
                decl.results = self._parse_arg_decl_list(allow_variadic=True)
            elif field.text == "Attributes":
                decl.attributes = self._parse_arg_decl_list(allow_variadic=False)
            elif field.text == "Region":
                decl.regions.append(self._parse_region_decl(field))
            elif field.text == "Successors":
                decl.successors = self._parse_successor_list()
            elif field.text == "Format":
                decl.format = self.expect(TokenKind.STRING, "format string").value
            elif field.text == "Summary":
                decl.summary = self.expect(TokenKind.STRING, "summary string").value
            elif field.text == "Suppress":
                decl.suppressions.append(
                    self.expect(TokenKind.STRING, "lint code string").value
                )
            elif _CODE_SPELLINGS.get(field.text) == "PyConstraint":
                decl.py_constraints.append(
                    self.expect(TokenKind.STRING, "constraint code string").value
                )
            else:
                raise self.error(
                    f"unknown directive {field.text!r} in Operation definition",
                    field,
                )
        return decl

    def _parse_alias_decl(self) -> ast.AliasDecl:
        start = self.expect_keyword("Alias")
        sigil, name_token = self._parse_sigiled_name("alias name")
        type_params: list[str] = []
        if self.accept(TokenKind.LESS):
            type_params.append(self.expect(TokenKind.BARE_IDENT, "parameter name").text)
            while self.accept(TokenKind.COMMA):
                type_params.append(
                    self.expect(TokenKind.BARE_IDENT, "parameter name").text
                )
            self.expect(TokenKind.GREATER, "'>'")
        self.expect(TokenKind.EQUAL, "'='")
        body = self.parse_constraint_expr()
        return ast.AliasDecl(
            name_token.value if sigil else name_token.text,
            sigil,
            type_params,
            body,
            span=start.span,
        )

    def _parse_enum_decl(self) -> ast.EnumDecl:
        start = self.expect_keyword("Enum")
        name = self.expect(TokenKind.BARE_IDENT, "enum name")
        self.expect(TokenKind.LBRACE, "'{'")
        constructors: list[str] = []
        if self.peek().kind is not TokenKind.RBRACE:
            constructors.append(
                self.expect(TokenKind.BARE_IDENT, "enum constructor").text
            )
            while self.accept(TokenKind.COMMA):
                constructors.append(
                    self.expect(TokenKind.BARE_IDENT, "enum constructor").text
                )
        self.expect(TokenKind.RBRACE, "'}'")
        return ast.EnumDecl(name.text, constructors, span=start.span)

    def _parse_constraint_decl(self) -> ast.ConstraintDecl:
        start = self.expect_keyword("Constraint")
        name = self.expect(TokenKind.BARE_IDENT, "constraint name")
        self.expect(TokenKind.COLON, "':'")
        base = self.parse_constraint_expr()
        decl = ast.ConstraintDecl(name.text, base, span=start.span)
        self.expect(TokenKind.LBRACE, "'{'")
        while not self.accept(TokenKind.RBRACE):
            field = self.expect(TokenKind.BARE_IDENT, "a field directive")
            if field.text == "Summary":
                decl.summary = self.expect(TokenKind.STRING, "summary string").value
            elif _CODE_SPELLINGS.get(field.text) == "PyConstraint":
                decl.py_constraint = self.expect(
                    TokenKind.STRING, "constraint code string"
                ).value
            else:
                raise self.error(
                    f"unknown directive {field.text!r} in Constraint definition",
                    field,
                )
        return decl

    def _parse_param_wrapper_decl(self) -> ast.ParamWrapperDecl:
        start = self.expect_keyword("TypeOrAttrParam")
        name = self.expect(TokenKind.BARE_IDENT, "parameter wrapper name")
        decl = ast.ParamWrapperDecl(name.text, span=start.span)
        self.expect(TokenKind.LBRACE, "'{'")
        while not self.accept(TokenKind.RBRACE):
            field = self.expect(TokenKind.BARE_IDENT, "a field directive")
            canonical = _CODE_SPELLINGS.get(field.text)
            if field.text == "Summary":
                decl.summary = self.expect(TokenKind.STRING, "summary string").value
            elif canonical == "PyClassName":
                decl.py_class_name = self.expect(TokenKind.STRING, "class name").value
            elif canonical == "PyParser":
                decl.py_parser = self.expect(TokenKind.STRING, "parser code").value
            elif canonical == "PyPrinter":
                decl.py_printer = self.expect(TokenKind.STRING, "printer code").value
            else:
                raise self.error(
                    f"unknown directive {field.text!r} in TypeOrAttrParam",
                    field,
                )
        return decl

    # ------------------------------------------------------------------
    # Declaration components
    # ------------------------------------------------------------------

    def _parse_sigiled_name(self, what: str) -> tuple[str | None, Token]:
        token = self.peek()
        if token.kind is TokenKind.BANG_IDENT:
            return "!", self.next()
        if token.kind is TokenKind.HASH_IDENT:
            return "#", self.next()
        return None, self.expect(TokenKind.BARE_IDENT, what)

    def _parse_param_decl_list(self) -> list[ast.ParamDecl]:
        self.expect(TokenKind.LPAREN, "'('")
        params: list[ast.ParamDecl] = []
        if self.peek().kind is not TokenKind.RPAREN:
            params.append(self._parse_param_decl())
            while self.accept(TokenKind.COMMA):
                params.append(self._parse_param_decl())
        self.expect(TokenKind.RPAREN, "')'")
        return params

    def _parse_param_decl(self) -> ast.ParamDecl:
        name = self.expect(TokenKind.BARE_IDENT, "parameter name")
        self.expect(TokenKind.COLON, "':'")
        constraint = self.parse_constraint_expr()
        return ast.ParamDecl(name.text, constraint, span=name.span)

    def _parse_arg_decl_list(self, allow_variadic: bool) -> list[ast.ArgDecl]:
        self.expect(TokenKind.LPAREN, "'('")
        args: list[ast.ArgDecl] = []
        if self.peek().kind is not TokenKind.RPAREN:
            args.append(self._parse_arg_decl(allow_variadic))
            while self.accept(TokenKind.COMMA):
                args.append(self._parse_arg_decl(allow_variadic))
        self.expect(TokenKind.RPAREN, "')'")
        return args

    def _parse_arg_decl(self, allow_variadic: bool) -> ast.ArgDecl:
        name = self.expect(TokenKind.BARE_IDENT, "argument name")
        self.expect(TokenKind.COLON, "':'")
        variadicity = ast.Variadicity.SINGLE
        token = self.peek()
        if (
            token.kind is TokenKind.BARE_IDENT
            and token.text in ("Variadic", "Optional")
            and self.peek(1).kind is TokenKind.LESS
        ):
            if not allow_variadic:
                raise self.error(
                    f"{token.text} is only allowed on operands, results, "
                    "and region arguments",
                    token,
                )
            variadicity = (
                ast.Variadicity.VARIADIC
                if token.text == "Variadic"
                else ast.Variadicity.OPTIONAL
            )
            self.next()
            self.expect(TokenKind.LESS, "'<'")
            constraint = self.parse_constraint_expr()
            self.expect(TokenKind.GREATER, "'>'")
        else:
            constraint = self.parse_constraint_expr()
        return ast.ArgDecl(name.text, constraint, variadicity, span=name.span)

    def _parse_constraint_var_list(self) -> list[ast.ConstraintVarDecl]:
        self.expect(TokenKind.LPAREN, "'('")
        decls: list[ast.ConstraintVarDecl] = []
        if self.peek().kind is not TokenKind.RPAREN:
            decls.append(self._parse_constraint_var())
            while self.accept(TokenKind.COMMA):
                decls.append(self._parse_constraint_var())
        self.expect(TokenKind.RPAREN, "')'")
        return decls

    def _parse_constraint_var(self) -> ast.ConstraintVarDecl:
        sigil, name_token = self._parse_sigiled_name("constraint variable")
        name = name_token.value if sigil else name_token.text
        self.expect(TokenKind.COLON, "':'")
        constraint = self.parse_constraint_expr()
        return ast.ConstraintVarDecl(name, sigil, constraint, span=name_token.span)

    def _parse_region_decl(self, start: Token) -> ast.RegionDecl:
        name = self.expect(TokenKind.BARE_IDENT, "region name")
        decl = ast.RegionDecl(name.text, span=start.span)
        self.expect(TokenKind.LBRACE, "'{'")
        while not self.accept(TokenKind.RBRACE):
            field = self.expect(TokenKind.BARE_IDENT, "a field directive")
            if field.text == "Arguments":
                decl.arguments = self._parse_arg_decl_list(allow_variadic=True)
            elif field.text == "Terminator":
                terminator = self.expect(TokenKind.BARE_IDENT, "operation name")
                parts = [terminator.text]
                while self.accept(TokenKind.DOT):
                    parts.append(self.expect(TokenKind.BARE_IDENT, "name").text)
                decl.terminator = ".".join(parts)
            else:
                raise self.error(
                    f"unknown directive {field.text!r} in Region definition",
                    field,
                )
        return decl

    def _parse_successor_list(self) -> list[str]:
        self.expect(TokenKind.LPAREN, "'('")
        names: list[str] = []
        if self.peek().kind is not TokenKind.RPAREN:
            names.append(self.expect(TokenKind.BARE_IDENT, "successor name").text)
            while self.accept(TokenKind.COMMA):
                names.append(
                    self.expect(TokenKind.BARE_IDENT, "successor name").text
                )
        self.expect(TokenKind.RPAREN, "')'")
        return names

    # ------------------------------------------------------------------
    # Constraint expressions
    # ------------------------------------------------------------------

    def parse_constraint_expr(self) -> ast.ConstraintExpr:
        token = self.peek()
        if token.kind is TokenKind.MINUS or token.kind is TokenKind.INTEGER:
            return self._parse_int_literal()
        if token.kind is TokenKind.STRING:
            self.next()
            return ast.StringLiteralExpr(token.value, span=token.span)
        if token.kind is TokenKind.LBRACKET:
            return self._parse_list_expr()
        if token.kind in (
            TokenKind.BANG_IDENT,
            TokenKind.HASH_IDENT,
            TokenKind.BARE_IDENT,
        ):
            return self._parse_ref_expr()
        raise self.error(
            f"expected a constraint, found {token.text!r}", token
        )

    def _parse_int_literal(self) -> ast.IntLiteralExpr:
        negative = bool(self.accept(TokenKind.MINUS))
        token = self.expect(TokenKind.INTEGER, "integer literal")
        value = -int(token.text) if negative else int(token.text)
        type_name: str | None = None
        if self.peek().kind is TokenKind.COLON:
            self.next()
            type_name = self.expect(TokenKind.BARE_IDENT, "integer type").text
        return ast.IntLiteralExpr(value, type_name, span=token.span)

    def _parse_list_expr(self) -> ast.ListExpr:
        start = self.expect(TokenKind.LBRACKET, "'['")
        elements: list[ast.ConstraintExpr] = []
        if self.peek().kind is not TokenKind.RBRACKET:
            elements.append(self.parse_constraint_expr())
            while self.accept(TokenKind.COMMA):
                elements.append(self.parse_constraint_expr())
        self.expect(TokenKind.RBRACKET, "']'")
        return ast.ListExpr(elements, span=start.span)

    def _parse_ref_expr(self) -> ast.RefExpr:
        token = self.next()
        if token.kind is TokenKind.BANG_IDENT:
            sigil: str | None = "!"
            name = token.value
        elif token.kind is TokenKind.HASH_IDENT:
            sigil = "#"
            name = token.value
        else:
            sigil = None
            name = token.text
            # Dotted bare references: enum constructors and namespaced names.
            while self.peek().kind is TokenKind.DOT:
                self.next()
                name += "." + self.expect(TokenKind.BARE_IDENT, "name").text
        params: list[ast.ConstraintExpr] | None = None
        if self.peek().kind is TokenKind.LESS:
            self.next()
            params = []
            if self.peek().kind is not TokenKind.GREATER:
                params.append(self.parse_constraint_expr())
                while self.accept(TokenKind.COMMA):
                    params.append(self.parse_constraint_expr())
            self.expect(TokenKind.GREATER, "'>'")
        return ast.RefExpr(sigil, name, params, span=token.span)


def parse_irdl(text: str, name: str = "<irdl>") -> list[ast.DialectDecl]:
    """Parse IRDL source text into dialect declarations."""
    return IRDLParser(text, name).parse_file()
