"""``irdl-opt``: a command-line driver in the style of ``mlir-opt``.

Registers dialects from IRDL files at runtime (§3: no recompilation),
then parses, verifies, optionally round-trips, and prints textual IR::

    irdl-opt --irdl cmath.irdl input.mlir
    irdl-opt --irdl cmath.irdl --verify-diagnostics bad.mlir
    irdl-opt --dump-dialect cmath.irdl          # introspect a definition
    irdl-opt --corpus-stats                     # §6 analyses on the corpus

The observability flags mirror MLIR's (``-mlir-timing``, pass
statistics)::

    irdl-opt --irdl cmath.irdl --patterns p.pattern --timing \\
             --pass-statistics --trace-out trace.json input.mlir

``--timing`` and ``--pass-statistics`` print reports to stderr so stdout
stays valid IR; ``--trace-out`` writes Chrome trace-event JSON viewable
in ``chrome://tracing`` or Perfetto.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator

from repro.builtin import default_context
from repro.ir.exceptions import VerifyError
from repro.irdl.instantiate import load_irdl_file, read_dialects
from repro.textir.printer import print_op
from repro.utils.diagnostics import DiagnosticError


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irdl-opt",
        description="Parse, verify, and print IR with runtime-loaded "
        "IRDL dialects.",
    )
    parser.add_argument(
        "input",
        nargs="?",
        help="IR input file — textual or bytecode, autodetected by "
        "the magic number; '-' reads stdin",
    )
    parser.add_argument(
        "--irdl",
        action="append",
        default=[],
        metavar="FILE",
        help="register the dialects of an IRDL file — source text or a "
        "compiled --compile-irdl artifact, autodetected (repeatable); "
        "'-' reads stdin",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write output to FILE instead of stdout",
    )
    parser.add_argument(
        "--emit",
        choices=("text", "bytecode"),
        default="text",
        help="output format for the processed module (default: text)",
    )
    parser.add_argument(
        "--compile-irdl",
        metavar="FILE",
        help="compile an IRDL file to a dialects bytecode artifact "
        "(written to -o or stdout) and exit",
    )
    parser.add_argument(
        "--verify-diagnostics",
        action="store_true",
        help="expect verification to fail; exit 0 when it does",
    )
    parser.add_argument(
        "--dump-dialect",
        metavar="FILE",
        help="print a summary of the dialects in an IRDL file and exit",
    )
    parser.add_argument(
        "--corpus-stats",
        action="store_true",
        help="load the 28-dialect corpus and print the §6 analyses",
    )
    parser.add_argument(
        "--doc",
        metavar="FILE",
        help="render Markdown documentation for the dialects of an IRDL "
        "file and exit",
    )
    parser.add_argument(
        "--generate",
        metavar="N",
        type=int,
        help="generate N random, valid operations using the registered "
        "--irdl dialects and print the module",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for --generate"
    )
    parser.add_argument(
        "--complete",
        metavar="PREFIX",
        help="list operations matching a name prefix (needs --irdl)",
    )
    parser.add_argument(
        "--recover-native",
        metavar="DIALECT",
        help="recover an IRDL definition from a natively implemented "
        "dialect (arith, func, math, cf) by probing its verifiers (§6.1)",
    )
    parser.add_argument(
        "--lint",
        action="append",
        default=[],
        metavar="FILE",
        help="lint the dialect definitions of an IRDL file and exit "
        "(repeatable; with --patterns the pattern files are linted too). "
        "Exit code: 0 clean, 1 warnings only, 2 any error",
    )
    parser.add_argument(
        "--lint-format",
        choices=("text", "json"),
        default="text",
        help="findings output format for --lint: human-readable text "
        "(default) or a stable JSON array with "
        "code/severity/subject/message/loc",
    )
    parser.add_argument(
        "--patterns",
        action="append",
        default=[],
        metavar="FILE",
        help="apply the declarative rewrite patterns of FILE (repeatable); "
        "dead pure ops are cleaned up afterwards",
    )
    parser.add_argument(
        "--validate-rewrites",
        action="store_true",
        help="re-check SSA dominance, def-use integrity, and the "
        "registered verifiers on the touched region after every "
        "--patterns application; a violation aborts with a diagnostic "
        "naming the offending pattern (exit code 1)",
    )
    parser.add_argument(
        "--analyze",
        action="append",
        default=[],
        metavar="NAME",
        choices=("constant-prop", "int-range"),
        help="run a sparse forward dataflow analysis over the input "
        "module and print its per-value report (repeatable; "
        "constant-prop or int-range). Runs after --patterns, so the "
        "report reflects the rewritten module",
    )
    parser.add_argument(
        "--emit-cfg",
        action="store_true",
        help="emit Graphviz DOT for the CFG of each region-bearing "
        "top-level op instead of textual IR",
    )
    parser.add_argument(
        "--no-verify", action="store_true", help="skip verification"
    )
    parser.add_argument(
        "--dump-generated",
        metavar="OP",
        help="print the generated Python verifier source for a "
        "registered operation (or type/attribute) and exit (needs "
        "--irdl)",
    )
    parser.add_argument(
        "--verify-each",
        action="store_true",
        help="verify the IR after each pass of the --patterns pipeline "
        "(the cost shows up as 'verify' rows under --timing)",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="print an MLIR-style execution time report (per phase and "
        "per pass, with IR op-count deltas) to stderr",
    )
    parser.add_argument(
        "--pass-statistics",
        action="store_true",
        help="print pass statistics (pattern match attempts, rewrites, "
        "rounds to fixpoint) to stderr",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Chrome trace-event JSON file of the run (open in "
        "chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the full metric catalog collected during the run to "
        "stderr",
    )
    parser.add_argument(
        "--remarks-out",
        metavar="FILE",
        help="write the optimization-remark stream (applied/missed "
        "patterns, per-pass summaries, verifier failures, lint findings) "
        "to FILE",
    )
    parser.add_argument(
        "--remark-filter",
        metavar="REGEX",
        help="only record remarks whose 'kind:origin/name' key matches "
        "REGEX (dropped remarks are tallied at the end of the stream)",
    )
    parser.add_argument(
        "--remark-format",
        choices=("text", "jsonl"),
        help="format of --remarks-out: human-readable text or JSON Lines "
        "(default: jsonl when FILE ends in .jsonl/.json, else text)",
    )
    parser.add_argument(
        "--print-locations",
        action="store_true",
        help="print a loc(...) suffix after every operation (file "
        "positions from the parser, fused locations from rewrites)",
    )
    return parser


class _Observation:
    """Per-invocation observability session driving the new flags."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.enabled = bool(
            args.timing or args.pass_statistics or args.trace_out
            or args.metrics or args.remarks_out
        )
        self.registry = None
        self.tracer = None
        self.remarks = None
        self.records: list = []
        self.manager = None
        if self.enabled:
            from repro.obs import (
                RemarkEngine,
                Tracer,
                enable_metrics,
                install_remarks,
                install_tracer,
            )

            self.registry = enable_metrics()
            if args.trace_out:
                self.tracer = install_tracer(Tracer(process_name="irdl-opt"))
            if args.remarks_out:
                self.remarks = install_remarks(
                    RemarkEngine(args.remark_filter)
                )

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a pipeline phase and record it as a report row."""
        if not self.enabled:
            yield
            return
        from repro.obs import OBS, PassRunRecord, timing

        start = timing.now()
        with OBS.tracer.span(f"phase:{name}", category="irdl-opt"):
            yield
        self.records.append(PassRunRecord(name, timing.now() - start))

    def adopt_pass_records(self, manager) -> None:
        """Splice a PassManager's per-pass rows into the phase timeline."""
        self.manager = manager
        self.records.extend(manager.records)

    def finish(self) -> bool:
        """Emit the requested reports and tear down the global state.

        Returns False when a requested artifact (the trace file) could
        not be written, so the driver can fail the invocation.
        """
        if not self.enabled:
            return True
        from repro.obs import render_metrics, render_timing_report, reset

        ok = True
        try:
            if self.remarks is not None and self.tracer is not None:
                # Final per-kind tallies as one instant marker, so the
                # trace shows the remark totals next to the timeline.
                self.tracer.instant(
                    "remark-counts", category="remark",
                    **dict(self.remarks.counts),
                )
            if self.tracer is not None and self.args.trace_out:
                try:
                    self.tracer.write(self.args.trace_out)
                except OSError as err:
                    print(f"error: cannot write trace file: {err}",
                          file=sys.stderr)
                    ok = False
            if self.remarks is not None and self.args.remarks_out:
                fmt = self.args.remark_format
                if fmt is None:
                    fmt = (
                        "jsonl"
                        if self.args.remarks_out.endswith((".jsonl", ".json"))
                        else "text"
                    )
                try:
                    self.remarks.write(self.args.remarks_out, fmt)
                except OSError as err:
                    print(f"error: cannot write remarks file: {err}",
                          file=sys.stderr)
                    ok = False
            if self.args.timing and self.records:
                print(render_timing_report(self.records), file=sys.stderr)
            if self.args.pass_statistics and self.manager is not None:
                print(self.manager.statistics_report(), file=sys.stderr)
            if self.args.metrics and self.registry is not None:
                print(render_metrics(self.registry), file=sys.stderr)
        finally:
            reset()
        return ok


class _StdinOnce:
    """Reads stdin at most once per invocation.

    Both the IR input and ``--irdl`` accept ``-``; the bytes can only
    serve one of them, so a second read is a usage error rather than a
    silent empty payload.
    """

    def __init__(self) -> None:
        self._used_by: str | None = None

    def read(self, purpose: str) -> bytes:
        if self._used_by is not None:
            raise ValueError(
                f"'-' (stdin) already consumed by {self._used_by}; "
                f"it cannot also supply {purpose}"
            )
        self._used_by = purpose
        return sys.stdin.buffer.read()


def _write_output(data: str | bytes, output: str | None) -> None:
    """Write text or bytes to ``output``, defaulting to stdout."""
    if isinstance(data, bytes):
        if output is None:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        else:
            with open(output, "wb") as handle:
                handle.write(data)
    else:
        if output is None:
            print(data)
        else:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(data)
                if not data.endswith("\n"):
                    handle.write("\n")


def _emit_module(module, args: argparse.Namespace,
                 observation: "_Observation") -> int:
    """Print the module in the requested --emit format."""
    if args.emit == "bytecode":
        from repro.bytecode import encode_module

        with observation.phase("encode"):
            data = encode_module(module)
        _write_output(data, args.output)
        return 0
    with observation.phase("print"):
        text_out = print_op(module, print_locations=args.print_locations)
    _write_output(text_out, args.output)
    return 0


def compile_irdl(path: str, output: str | None) -> int:
    """Compile an IRDL file (text or bytecode) to a dialects artifact."""
    from repro.bytecode import encode_dialects

    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        # An artifact is decoded and re-encoded, which validates it and
        # upgrades it to the current format version.
        data = encode_dialects(read_dialects(raw, path))
    except (DiagnosticError, UnicodeDecodeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _write_output(data, output)
    return 0


def dump_dialect(path: str) -> int:
    from repro.ir.context import Context

    ctx = default_context()
    try:
        defs = load_irdl_file(ctx, path)
    except DiagnosticError as err:
        print(err, file=sys.stderr)
        return 1
    for dialect in defs:
        print(f"Dialect {dialect.name}:")
        for type_def in dialect.types:
            params = ", ".join(p.name for p in type_def.parameters)
            print(f"  Type {type_def.name}({params})")
        for attr_def in dialect.attributes:
            params = ", ".join(p.name for p in attr_def.parameters)
            print(f"  Attribute {attr_def.name}({params})")
        for op in dialect.operations:
            parts = [
                f"{len(op.operands)} operands",
                f"{len(op.results)} results",
            ]
            if op.attributes:
                parts.append(f"{len(op.attributes)} attributes")
            if op.regions:
                parts.append(f"{len(op.regions)} regions")
            if op.is_terminator:
                parts.append("terminator")
            print(f"  Operation {op.name}: {', '.join(parts)}")
    return 0


def corpus_stats() -> int:
    from repro.analysis import CorpusStats, analyze_expressiveness
    from repro.analysis.history import MLIR_HISTORY
    from repro.analysis.report import (
        render_fig3,
        render_fig4,
        render_fig5,
        render_fig6,
        render_fig7,
        render_fig8,
        render_fig9_10,
        render_fig11,
        render_fig12,
        render_table1,
    )
    from repro.corpus import load_corpus, paper_data

    _, defs = load_corpus()
    stats = CorpusStats.of(defs)
    report = analyze_expressiveness(defs)
    print(render_table1(sorted(paper_data.TABLE1.items())))
    print(render_fig3(MLIR_HISTORY))
    print(render_fig4(stats))
    print(render_fig5(stats))
    print(render_fig6(stats))
    print(render_fig7(stats))
    print(render_fig8(report))
    print(render_fig9_10(report))
    print(render_fig11(report))
    print(render_fig12(report))
    return 0


def render_docs(path: str) -> int:
    from repro.analysis.docgen import render_dialect_doc

    ctx = default_context()
    try:
        defs = load_irdl_file(ctx, path)
    except DiagnosticError as err:
        print(err, file=sys.stderr)
        return 1
    for dialect in defs:
        print(render_dialect_doc(dialect))
    return 0


def lint_files(
    paths: list[str],
    pattern_paths: list[str] | None = None,
    output_format: str = "text",
) -> int:
    """Lint IRDL files (and optionally pattern files) and report.

    Exit code: 0 when clean (at most notes), 1 when the worst finding
    is a warning, 2 when any error is found (including files that
    cannot be read, or fail to parse or register).
    """
    from repro.server.session import Session
    from repro.tools.lint import exit_code, findings_to_json, render_findings

    def read(path: str) -> tuple[str, str] | None:
        try:
            with open(path, encoding="utf-8") as handle:
                return handle.read(), path
        except (OSError, UnicodeDecodeError) as err:
            print(f"error: cannot read {path}: {err}", file=sys.stderr)
            return None

    sources = [read(path) for path in paths]
    pattern_sources = [read(path) for path in pattern_paths or []]
    if None in sources or None in pattern_sources:
        return 2
    try:
        # The daemon's lint request runs the same call, so both lint
        # with one context policy (Session.lint_sources).
        findings = Session().lint_sources(sources, pattern_sources)
    except DiagnosticError as err:
        print(err, file=sys.stderr)
        return 2
    from repro.obs import OBS

    remarks = OBS.remarks
    if remarks.enabled:
        for finding in findings:
            remarks.emit(
                "lint",
                origin="lint",
                name=finding.code,
                op=finding.subject,
                location=_lint_location(finding.loc),
                message=finding.message,
                severity=finding.severity,
            )
    if output_format == "json":
        print(findings_to_json(findings), end="")
    else:
        print(render_findings(findings), end="")
    return exit_code(findings)


def _lint_location(loc: str):
    """Parse a lint finding's ``file:line:col`` string into a Location."""
    from repro.ir.location import UNKNOWN_LOC, FileLineColLoc

    if not loc:
        return UNKNOWN_LOC
    filename, _, rest = loc.rpartition(":")
    filename, _, line = filename.rpartition(":")
    if not filename or not line.isdigit() or not rest.isdigit():
        return UNKNOWN_LOC
    return FileLineColLoc(filename, int(line), int(rest))


def dump_generated(ctx, name: str) -> int:
    """Print the generated verifier source for one definition."""
    binding = ctx.get_op_def(name)
    if binding is not None:
        verifier = getattr(binding, "_verifier", None)
        source = getattr(verifier, "generated_source", None)
        if source is None:
            print(f"error: no generated verifier for {name!r} "
                  "(not defined in IRDL)", file=sys.stderr)
            return 1
        print(source, end="")
        return 0
    attr_binding = ctx.get_type_or_attr_def(name)
    if attr_binding is not None:
        source = getattr(attr_binding, "generated_param_source", None)
        if source is None:
            print(f"error: no generated parameter verifier for {name!r} "
                  "(not defined in IRDL)", file=sys.stderr)
            return 1
        print(source, end="")
        return 0
    print(f"error: unknown operation or type {name!r}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.compile_irdl:
        return compile_irdl(args.compile_irdl, args.output)
    if args.dump_dialect:
        return dump_dialect(args.dump_dialect)
    if args.doc:
        return render_docs(args.doc)
    if args.recover_native:
        from repro.irdl.recover import recover_dialect_source

        try:
            print(recover_dialect_source(default_context(),
                                         args.recover_native))
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        return 0

    observation = _Observation(args)
    try:
        if args.lint:
            # Inside the observation scope so --lint composes with
            # --remarks-out (findings stream as "lint" remarks).
            exit_code = lint_files(args.lint, args.patterns,
                                   args.lint_format)
        elif args.corpus_stats:
            exit_code = corpus_stats()
        else:
            exit_code = _run_pipeline(args, observation)
    except DiagnosticError as err:
        # An uncaught diagnostic: dump the flight recorder so the
        # events leading up to the failure are not lost.
        from repro.obs import dump_recent_events

        dump_recent_events(sys.stderr)
        print(err, file=sys.stderr)
        exit_code = 1
    finally:
        finished = observation.finish()
    return exit_code if finished else 1


def _run_pipeline(args: argparse.Namespace, observation: _Observation) -> int:
    # The CLI and the dialect server share the Session pipeline object,
    # so an invocation here exercises exactly the code path a server
    # request does (see repro.server.session).
    from repro.server.session import Session

    session = Session()
    ctx = session.ctx
    stdin = _StdinOnce()
    with observation.phase("register-dialects"):
        for irdl_path in args.irdl:
            try:
                if irdl_path == "-":
                    payload = stdin.read("--irdl")
                    session.register_dialect_data(payload, "<stdin>")
                else:
                    with open(irdl_path, "rb") as handle:
                        payload = handle.read()
                    session.register_dialect_data(payload, irdl_path)
            except DiagnosticError as err:
                print(err, file=sys.stderr)
                return 1
            except OSError as err:
                print(f"error: cannot read {irdl_path}: {err}",
                      file=sys.stderr)
                return 1
            except ValueError as err:
                print(f"error: {err}", file=sys.stderr)
                return 1
    registered = session.dialects

    if args.dump_generated is not None:
        return dump_generated(ctx, args.dump_generated)

    if args.complete is not None:
        from repro.tools.completion import complete_op_name

        for item in complete_op_name(ctx, args.complete):
            detail = f"  — {item.detail}" if item.detail else ""
            print(f"{item.text}{detail}")
        return 0

    if args.generate is not None:
        from repro.irdl.instantiate import register_irdl
        from repro.irdl.irgen import IRGenerator, seed_values_dialect

        registered.extend(register_irdl(ctx, seed_values_dialect()))
        generator = IRGenerator(ctx, registered, seed=args.seed)
        module = generator.generate_module(args.generate)
        module.verify()
        return _emit_module(module, args, observation)

    if args.input is None:
        print("error: no input file", file=sys.stderr)
        return 1

    from repro.bytecode import is_bytecode

    input_name = "<stdin>" if args.input == "-" else args.input
    try:
        if args.input == "-":
            raw = stdin.read("the IR input")
        else:
            with open(args.input, "rb") as handle:
                raw = handle.read()
    except OSError as err:
        print(f"error: cannot read {args.input}: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        with observation.phase("decode" if is_bytecode(raw) else "parse"):
            module = session.load_module(raw, input_name)
    except DiagnosticError as err:
        print(err, file=sys.stderr)
        return 1
    except VerifyError as err:
        # Declarative formats may instantiate types while parsing; a
        # parameter-constraint failure there surfaces as a VerifyError.
        print(f"error: {err}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as err:
        print(f"error: {input_name} is neither bytecode nor UTF-8 text: "
              f"{err}", file=sys.stderr)
        return 1

    if not args.no_verify:
        try:
            with observation.phase("verify"):
                session.verify(module)
        except VerifyError as err:
            if args.verify_diagnostics:
                print(f"verification failed as expected: {err}")
                return 0
            print(f"error: verification failed: {err}", file=sys.stderr)
            return 1
        if args.verify_diagnostics:
            print("error: expected verification to fail", file=sys.stderr)
            return 1

    if args.patterns:
        all_patterns = []
        for patterns_path in args.patterns:
            with open(patterns_path, encoding="utf-8") as handle:
                try:
                    all_patterns.extend(
                        session.parse_pattern_text(
                            handle.read(), patterns_path
                        )
                    )
                except DiagnosticError as err:
                    print(err, file=sys.stderr)
                    return 1
        try:
            manager = session.run_patterns(
                module, all_patterns, verify_each=args.verify_each,
                validate_rewrites=args.validate_rewrites,
            )
        except VerifyError as err:
            # --validate-rewrites (or --verify-each) caught a rewrite
            # breaking an SSA invariant mid-pipeline.
            print(f"error: {err}", file=sys.stderr)
            return 1
        observation.adopt_pass_records(manager)
        if not args.no_verify:
            with observation.phase("verify-output"):
                try:
                    session.verify(module)
                except VerifyError as err:
                    print(f"error: verification failed after rewriting: "
                          f"{err}", file=sys.stderr)
                    return 1

    if args.analyze:
        from repro.analysis.dataflow import (
            ANALYSES,
            render_dataflow_report,
            run_sparse_forward,
        )

        for analysis_name in args.analyze:
            with observation.phase(f"analyze-{analysis_name}"):
                result = run_sparse_forward(ANALYSES[analysis_name](), module)
            print(render_dataflow_report(result))
        return 0

    if args.emit_cfg:
        from repro.analysis.dot import cfg_to_dot

        for op in module.walk():
            if op is module or not op.regions:
                continue
            label = op.attributes.get("sym_name")
            name = getattr(label, "data", op.name)
            for index, region in enumerate(op.regions):
                print(cfg_to_dot(region, f"{name}.{index}"))
        return 0

    return _emit_module(module, args, observation)


if __name__ == "__main__":
    sys.exit(main())
