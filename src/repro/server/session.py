"""The shared pipeline object behind ``irdl-opt`` and the dialect server.

A :class:`Session` bundles what used to live inline in
``repro.tools.irdl_opt``: a :class:`~repro.ir.context.Context`, the
dialects registered into it, and the parse → verify → rewrite → emit
pipeline over that context.  The CLI builds one Session per invocation;
the server keeps one per tenant for the life of the connection pool —
both run exactly this code path, so a behavior observed through one
surface reproduces through the other.

Every input entry point autodetects textual versus bytecode payloads by
the IRBC magic number, mirroring the CLI's file handling, so callers
hand over raw bytes and never branch on the format themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.builtin import default_context
from repro.ir.context import Context
from repro.ir.exceptions import UnregisteredConstructError
from repro.textir.parser import parse_module
from repro.textir.printer import print_op

if TYPE_CHECKING:
    from repro.ir.dialect import DialectBinding
    from repro.ir.operation import Operation
    from repro.irdl.defs import DialectDef
    from repro.rewriting import PassManager
    from repro.rewriting.pattern import RewritePattern


class Session:
    """One context plus the standard pipeline over it.

    The context defaults to a fresh :func:`default_context` (builtin,
    func, arith, math, cf pre-registered).  Each server tenant owns a
    private Session, so per-tenant dialect registrations never leak
    across tenants — the context *object identity* is the isolation
    boundary the server's tests assert on.
    """

    def __init__(self, ctx: Context | None = None):
        self.ctx = ctx if ctx is not None else default_context()
        #: Resolved definitions of every dialect registered through this
        #: session, in registration order (introspection and --generate).
        self.dialects: list["DialectDef"] = []

    # ------------------------------------------------------------------
    # Dialect registration
    # ------------------------------------------------------------------

    def register_dialect_data(self, data: bytes, name: str = "<irdl>") -> list["DialectDef"]:
        """Register the dialects of a raw IRDL payload (text or bytecode).

        The IRBC magic number decides the format, exactly like the
        CLI's ``--irdl`` file handling.  A payload registers all of its
        dialects or none: when one fails, the ones registered before it
        are removed again, so a corrected retry of the payload succeeds.
        """
        from repro.irdl.instantiate import read_dialects, register_dialects

        defs = register_dialects(self.ctx, read_dialects(data, name))
        self.dialects.extend(defs)
        return defs

    def register_dialect_path(self, path: str) -> list["DialectDef"]:
        """Register the dialects of one ``.irdl`` file (text or bytecode)."""
        with open(path, "rb") as handle:
            return self.register_dialect_data(handle.read(), path)

    def install_binding(self, binding: "DialectBinding",
                        dialect_def: "DialectDef",
                        replace: bool = False) -> None:
        """Adopt an already-compiled dialect binding (cache hit path).

        The binding was compiled once — resolve, parameter verifiers,
        format programs — in the :class:`~repro.server.cache.DialectCache`'s
        scratch context and is shared by every session that adopts it.
        Its op verifiers are lowered on their first use in any of those
        sessions, once for all of them.
        With ``replace=True`` an existing same-named dialect is swapped
        out (hot reload); other sessions holding the old binding are
        untouched because each session owns its context's dialect map.
        """
        if not replace and binding.name in self.ctx.dialects:
            raise UnregisteredConstructError(
                f"dialect {binding.name!r} is already registered"
            )
        if replace and binding.name in self.ctx.dialects:
            old = self.ctx.dialects[binding.name]
            self.dialects = [
                d for d in self.dialects
                if getattr(old, "irdl_def", None) is not d
            ]
        self.ctx.dialects[binding.name] = binding
        self.dialects.append(dialect_def)

    # ------------------------------------------------------------------
    # IR input / output
    # ------------------------------------------------------------------

    def load_module(self, data: bytes | str, name: str = "<input>") -> "Operation":
        """Parse or decode an IR payload into a module operation."""
        from repro.bytecode import decode_module, is_bytecode

        if isinstance(data, str):
            return parse_module(self.ctx, data, name)
        if is_bytecode(data):
            return decode_module(self.ctx, data, name=name)
        return parse_module(self.ctx, data.decode("utf-8"), name)

    def emit(self, module: "Operation", emit: str = "text",
             print_locations: bool = False) -> str | bytes:
        """Render a module as text or IRBC bytecode."""
        if emit == "bytecode":
            from repro.bytecode import encode_module

            return encode_module(module)
        return print_op(module, print_locations=print_locations)

    def roundtrip(self, module: "Operation") -> dict:
        """Module → bytecode → module → text, checked against direct text.

        Returns the printed text, the bytecode, and whether the
        round-tripped module prints identically (``stable``) — the
        quick serialization-fidelity probe the server's ``roundtrip``
        request exposes.
        """
        from repro.bytecode import decode_module, encode_module

        text = print_op(module)
        data = encode_module(module)
        reloaded = decode_module(self.ctx, data, name="<roundtrip>")
        reloaded_text = print_op(reloaded)
        return {
            "text": text,
            "bytecode": data,
            "stable": reloaded_text == text,
        }

    # ------------------------------------------------------------------
    # Verification / rewriting / linting
    # ------------------------------------------------------------------

    def verify(self, module: "Operation") -> None:
        """Run structural + dialect verification (raises VerifyError)."""
        module.verify()

    def parse_pattern_text(self, text: str,
                           name: str = "<patterns>") -> list["RewritePattern"]:
        from repro.rewriting import parse_patterns

        return list(parse_patterns(self.ctx, text, name))

    def build_pipeline(self, patterns: Sequence["RewritePattern"] = (),
                       passes: Sequence[str] | None = None,
                       verify_each: bool = False,
                       validate_rewrites: bool = False) -> "PassManager":
        """Compose a named pass pipeline (the server's ``rewrite``).

        ``passes`` names a sequence from ``canonicalize`` (the supplied
        pattern set applied greedily), ``dce``, ``cse``, and ``verify``;
        the default, matching the CLI's ``--patterns`` flow, is
        ``["canonicalize", "dce"]``.  ``validate_rewrites`` makes the
        greedy driver re-check dominance, def-use integrity, and the
        verifier around every pattern application (the CLI's
        ``--validate-rewrites``).
        """
        from repro.rewriting import (
            Canonicalizer,
            CommonSubexpressionElimination,
            DeadCodeElimination,
            PassManager,
            VerifyPass,
        )

        if passes is None:
            passes = ["canonicalize", "dce"]
        manager = PassManager(verify_each=verify_each)
        for name in passes:
            if name == "canonicalize":
                manager.add(Canonicalizer(self.ctx, list(patterns),
                                          validate_rewrites=validate_rewrites))
            elif name == "dce":
                manager.add(DeadCodeElimination())
            elif name == "cse":
                manager.add(CommonSubexpressionElimination())
            elif name == "verify":
                manager.add(VerifyPass())
            else:
                raise ValueError(f"unknown pass {name!r} (known: "
                                 "canonicalize, dce, cse, verify)")
        return manager

    def run_patterns(self, module: "Operation",
                     patterns: Sequence["RewritePattern"],
                     passes: Sequence[str] | None = None,
                     verify_each: bool = False,
                     validate_rewrites: bool = False) -> "PassManager":
        """Run the pattern pipeline; returns the manager for its records."""
        manager = self.build_pipeline(patterns, passes, verify_each,
                                      validate_rewrites)
        manager.run(module)
        return manager

    def lint_sources(self, sources: Sequence[tuple[str, str]],
                     pattern_sources: Sequence[tuple[str, str]] = ()):
        """Lint IRDL (and pattern) sources given as ``(text, name)`` pairs.

        Runs in a scratch context cloned from this session's, so lint
        registration never mutates live session state.  A source that
        redefines an already-registered dialect (the corpus's
        ``builtin.irdl``, or a tenant re-linting a dialect it serves)
        evicts the old binding from the scratch clone first — the live
        context is untouched.
        """
        from repro.analysis.sat import SatEngine
        from repro.irdl.instantiate import register_dialect
        from repro.irdl.parser import parse_irdl
        from repro.tools.lint import lint_dialect, lint_patterns

        engine = SatEngine()
        findings = []
        parsed = [parse_irdl(text, name) for text, name in sources]
        ctx = self.ctx.clone()
        for decls in parsed:
            for decl in decls:
                ctx.dialects.pop(decl.name, None)
        for decls in parsed:
            for decl in decls:
                dialect = register_dialect(ctx, decl)
                findings.extend(lint_dialect(dialect, decl, engine=engine))
        for text, name in pattern_sources:
            findings.extend(lint_patterns(ctx, text, name, engine=engine))
        return findings

    def __repr__(self) -> str:
        return (f"<Session ctx=0x{id(self.ctx):x} "
                f"dialects={sorted(self.ctx.dialects)}>")
