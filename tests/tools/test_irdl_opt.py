"""The irdl-opt command-line driver."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus import cmath_source, dialect_source_path
from repro.tools.irdl_opt import build_arg_parser, main

README = Path(__file__).resolve().parents[2] / "README.md"
SRC = Path(__file__).resolve().parents[2] / "src"

GOOD_IR = """
"func.func"() ({
^bb0(%p: !cmath.complex<f32>):
  %n = cmath.norm %p : f32
  "func.return"(%n) : (f32) -> ()
}) {sym_name = "n", function_type = (!cmath.complex<f32>) -> f32} : () -> ()
"""

BAD_IR = """
"func.func"() ({
^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f64>):
  %m = "cmath.mul"(%p, %q) : (!cmath.complex<f32>, !cmath.complex<f64>)
       -> (!cmath.complex<f32>)
  "func.return"() : () -> ()
}) {sym_name = "bad",
    function_type = (!cmath.complex<f32>, !cmath.complex<f64>) -> ()}
   : () -> ()
"""


@pytest.fixture
def cmath_irdl(tmp_path):
    path = tmp_path / "cmath.irdl"
    path.write_text(cmath_source())
    return str(path)


def write_ir(tmp_path, text):
    path = tmp_path / "input.mlir"
    path.write_text(text)
    return str(path)


class TestDriver:
    def test_parse_verify_print(self, tmp_path, cmath_irdl, capsys):
        exit_code = main(["--irdl", cmath_irdl, write_ir(tmp_path, GOOD_IR)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "cmath.norm %p : f32" in out

    def test_verification_failure_is_an_error(self, tmp_path, cmath_irdl, capsys):
        exit_code = main(["--irdl", cmath_irdl, write_ir(tmp_path, BAD_IR)])
        assert exit_code == 1
        assert "verification failed" in capsys.readouterr().err

    def test_parse_time_constraint_failure_is_an_error(self, tmp_path,
                                                       cmath_irdl, capsys):
        # Declarative-format parsing instantiates types; a parameter
        # constraint violation must be a clean `error:`, not a traceback.
        ir = """
        "func.func"() ({
        ^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f64>):
          %m = cmath.mul %p, %q : !cmath.complex<f32>
        }) {sym_name = "m",
            function_type = (!cmath.complex<f32>, !cmath.complex<f64>)
            -> !cmath.complex<f32>} : () -> ()
        """
        exit_code = main(["--irdl", cmath_irdl, write_ir(tmp_path, ir)])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "parameter 'elementType'" in err

    def test_verify_diagnostics_mode(self, tmp_path, cmath_irdl, capsys):
        exit_code = main([
            "--irdl", cmath_irdl, "--verify-diagnostics",
            write_ir(tmp_path, BAD_IR),
        ])
        assert exit_code == 0
        assert "as expected" in capsys.readouterr().out

    def test_verify_diagnostics_rejects_valid_ir(self, tmp_path, cmath_irdl):
        exit_code = main([
            "--irdl", cmath_irdl, "--verify-diagnostics",
            write_ir(tmp_path, GOOD_IR),
        ])
        assert exit_code == 1

    def test_no_verify_skips_checks(self, tmp_path, cmath_irdl):
        exit_code = main([
            "--irdl", cmath_irdl, "--no-verify", write_ir(tmp_path, BAD_IR)
        ])
        assert exit_code == 0

    def test_parse_error_reported(self, tmp_path, cmath_irdl, capsys):
        exit_code = main([
            "--irdl", cmath_irdl, write_ir(tmp_path, '"cmath.nope"() :')
        ])
        assert exit_code == 1

    def test_bad_irdl_file_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.irdl"
        bad.write_text("Dialect { }")
        exit_code = main([str(bad), "--irdl", str(bad)])
        assert exit_code == 1

    def test_missing_input(self, capsys):
        assert main([]) == 1

    def test_dump_dialect(self, cmath_irdl, capsys):
        exit_code = main(["--dump-dialect", cmath_irdl])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Dialect cmath:" in out
        assert "Type complex(elementType)" in out
        assert "Operation mul: 2 operands, 1 results" in out

    def test_dump_corpus_dialect(self, capsys):
        exit_code = main(["--dump-dialect", dialect_source_path("scf")])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Operation yield" in out and "terminator" in out

    def test_doc_rendering(self, cmath_irdl, capsys):
        exit_code = main(["--doc", cmath_irdl])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "# Dialect `cmath`" in out and "### `cmath.mul`" in out

    def test_complete(self, cmath_irdl, capsys):
        exit_code = main(["--irdl", cmath_irdl, "--complete", "cmath.n"])
        assert exit_code == 0
        assert "cmath.norm" in capsys.readouterr().out

    def test_generate(self, cmath_irdl, capsys):
        exit_code = main(["--irdl", cmath_irdl, "--generate", "8",
                          "--seed", "2"])
        assert exit_code == 0
        assert "builtin.module" in capsys.readouterr().out


CONORM = """
"func.func"() ({
^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>):
  %np = cmath.norm %p : f32
  %nq = cmath.norm %q : f32
  %pq = "arith.mulf"(%np, %nq) : (f32, f32) -> (f32)
  "func.return"(%pq) : (f32) -> ()
}) {sym_name = "conorm",
    function_type = (!cmath.complex<f32>, !cmath.complex<f32>) -> f32}
   : () -> ()
"""

PATTERN = """
Pattern norm_of_product {
  Match {
    %na = cmath.norm(%a)
    %nb = cmath.norm(%b)
    %r = arith.mulf(%na, %nb)
  }
  Rewrite {
    %m = cmath.mul(%a, %b)
    %r = cmath.norm(%m)
  }
}
"""


class TestCorpusStats:
    def test_corpus_stats_prints_every_figure(self, capsys):
        exit_code = main(["--corpus-stats"])
        assert exit_code == 0
        out = capsys.readouterr().out
        for marker in ("Table 1", "Figure 3", "Figure 4", "Figure 5a",
                       "Figure 6a", "Figure 7a", "Figure 8a", "Figure 9",
                       "Figure 11", "Figure 12"):
            assert marker in out, marker
        assert "total 942" in out


class TestCfgEmission:
    def test_emit_cfg(self, tmp_path, cmath_irdl, capsys):
        exit_code = main([
            "--irdl", cmath_irdl, "--emit-cfg", write_ir(tmp_path, GOOD_IR)
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "n.0"')
        assert "cmath.norm" in out


class TestPatternApplication:
    def test_patterns_applied_and_cleaned(self, tmp_path, cmath_irdl, capsys):
        pattern_file = tmp_path / "conorm.pattern"
        pattern_file.write_text(PATTERN)
        exit_code = main([
            "--irdl", cmath_irdl, "--patterns", str(pattern_file),
            write_ir(tmp_path, CONORM),
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "cmath.mul" in out
        assert out.count("cmath.norm") == 1

    def test_bad_pattern_file_reported(self, tmp_path, cmath_irdl, capsys):
        pattern_file = tmp_path / "bad.pattern"
        pattern_file.write_text("Pattern broken { Match { } Rewrite { } }")
        exit_code = main([
            "--irdl", cmath_irdl, "--patterns", str(pattern_file),
            write_ir(tmp_path, CONORM),
        ])
        assert exit_code == 1

    def test_shipped_example_pattern_file(self, tmp_path, cmath_irdl, capsys):
        import os

        shipped = os.path.join(
            os.path.dirname(__file__), "..", "..", "examples", "patterns",
            "conorm.pattern",
        )
        exit_code = main([
            "--irdl", cmath_irdl, "--patterns", shipped,
            write_ir(tmp_path, CONORM),
        ])
        assert exit_code == 0
        assert "cmath.mul" in capsys.readouterr().out


class TestObservabilityFlags:
    def write_pattern(self, tmp_path):
        pattern_file = tmp_path / "conorm.pattern"
        pattern_file.write_text(PATTERN)
        return str(pattern_file)

    def test_timing_report_on_stderr(self, tmp_path, cmath_irdl, capsys):
        exit_code = main([
            "--irdl", cmath_irdl, "--patterns", self.write_pattern(tmp_path),
            "--timing", write_ir(tmp_path, CONORM),
        ])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "cmath.mul" in captured.out          # stdout is still IR
        assert "Execution time report" in captured.err
        for row in ("register-dialects", "parse", "verify",
                    "canonicalize", "dce", "Total"):
            assert row in captured.err
        # Op-count deltas come from the observability layer.
        assert "(ops: " in captured.err

    def test_pass_statistics_report(self, tmp_path, cmath_irdl, capsys):
        exit_code = main([
            "--irdl", cmath_irdl, "--patterns", self.write_pattern(tmp_path),
            "--pass-statistics", write_ir(tmp_path, CONORM),
        ])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "Pass statistics report" in err
        assert "(S)" in err
        assert "norm_of_product.rewrites" in err

    def test_trace_out_writes_chrome_trace_json(self, tmp_path, cmath_irdl):
        import json

        trace_path = tmp_path / "trace.json"
        exit_code = main([
            "--irdl", cmath_irdl, "--patterns", self.write_pattern(tmp_path),
            "--trace-out", str(trace_path), write_ir(tmp_path, CONORM),
        ])
        assert exit_code == 0
        payload = json.loads(trace_path.read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert "textir.parse" in names
        assert "pass:canonicalize" in names
        assert "phase:parse" in names

    def test_metrics_catalog(self, tmp_path, cmath_irdl, capsys):
        exit_code = main([
            "--irdl", cmath_irdl, "--metrics", write_ir(tmp_path, GOOD_IR),
        ])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "Metrics report" in err
        assert "textir.parser.ops_parsed" in err
        assert "irdl.instantiate.dialects_loaded" in err

    def test_metrics_catalog_lists_codegen_instruments(self, tmp_path,
                                                       cmath_irdl, capsys):
        exit_code = main([
            "--irdl", cmath_irdl, "--metrics", write_ir(tmp_path, GOOD_IR),
        ])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "irdl.codegen.definitions_compiled" in err
        assert "irdl.codegen.source_bytes" in err
        assert "irdl.codegen.code_reused" in err

    def test_verify_each_adds_verify_rows_to_timing(self, tmp_path, cmath_irdl,
                                                    capsys):
        exit_code = main([
            "--irdl", cmath_irdl, "--patterns", self.write_pattern(tmp_path),
            "--verify-each", "--timing", write_ir(tmp_path, CONORM),
        ])
        assert exit_code == 0
        err = capsys.readouterr().err
        # canonicalize + dce each followed by an inter-pass verify row.
        timing_rows = [line for line in err.splitlines()
                       if line.lstrip().startswith("0.") or "%)" in line]
        verify_rows = [row for row in timing_rows if " verify (" in row]
        assert len(verify_rows) == 2

    def test_unwritable_trace_path_is_a_clean_error(self, tmp_path,
                                                    cmath_irdl, capsys):
        exit_code = main([
            "--irdl", cmath_irdl,
            "--trace-out", str(tmp_path / "no-such-dir" / "t.json"),
            write_ir(tmp_path, GOOD_IR),
        ])
        assert exit_code == 1
        assert "error: cannot write trace file" in capsys.readouterr().err

    def test_observability_state_reset_after_run(self, tmp_path, cmath_irdl):
        from repro.obs import OBS

        main([
            "--irdl", cmath_irdl, "--timing", write_ir(tmp_path, GOOD_IR),
        ])
        assert not OBS.active

    def test_flags_off_leave_observability_disabled(self, tmp_path, cmath_irdl):
        from repro.obs import OBS

        main(["--irdl", cmath_irdl, write_ir(tmp_path, GOOD_IR)])
        assert not OBS.active


class TestCodegenFlags:
    def test_dump_generated_op(self, tmp_path, cmath_irdl, capsys):
        exit_code = main([
            "--irdl", cmath_irdl, "--dump-generated", "cmath.mul",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "generated from IRDL definition cmath.mul" in out
        assert "def __irdl_verify(op):" in out

    def test_dump_generated_type(self, tmp_path, cmath_irdl, capsys):
        exit_code = main([
            "--irdl", cmath_irdl, "--dump-generated", "cmath.complex",
        ])
        assert exit_code == 0
        assert "def __irdl_verify_params(parameters):" in (
            capsys.readouterr().out
        )

    def test_dump_generated_unknown_name(self, tmp_path, cmath_irdl, capsys):
        exit_code = main([
            "--irdl", cmath_irdl, "--dump-generated", "cmath.nope",
        ])
        assert exit_code == 1
        assert "unknown operation or type" in capsys.readouterr().err

    def test_dump_generated_native_op_reports_absence(
            self, tmp_path, cmath_irdl, capsys):
        exit_code = main([
            "--irdl", cmath_irdl, "--dump-generated", "arith.addi",
        ])
        assert exit_code == 1
        assert "no generated verifier" in capsys.readouterr().err


class TestBytecodeEmission:
    def test_text_to_bytecode_to_text_identical(self, tmp_path, cmath_irdl,
                                                capsys):
        """The canonical diff check: text -> bytecode -> text is a no-op."""
        source = write_ir(tmp_path, GOOD_IR)
        artifact = tmp_path / "module.irbc"

        exit_code = main(["--irdl", cmath_irdl, "--emit", "bytecode",
                          "-o", str(artifact), source])
        assert exit_code == 0
        data = artifact.read_bytes()
        from repro.bytecode import is_bytecode

        assert is_bytecode(data)

        # First pass: canonical text straight from the source.
        assert main(["--irdl", cmath_irdl, source]) == 0
        canonical = capsys.readouterr().out

        # Second pass: the bytecode artifact, autodetected by magic.
        assert main(["--irdl", cmath_irdl, str(artifact)]) == 0
        assert capsys.readouterr().out == canonical

    def test_emit_text_to_file(self, tmp_path, cmath_irdl):
        out = tmp_path / "out.mlir"
        exit_code = main(["--irdl", cmath_irdl, "-o", str(out),
                          write_ir(tmp_path, GOOD_IR)])
        assert exit_code == 0
        assert "cmath.norm" in out.read_text()

    def test_bytecode_input_is_verified(self, tmp_path, cmath_irdl, capsys):
        """Decoded modules go through the same verify phase as parsed ones."""
        artifact = tmp_path / "bad.irbc"
        exit_code = main(["--irdl", cmath_irdl, "--no-verify",
                          "--emit", "bytecode", "-o", str(artifact),
                          write_ir(tmp_path, BAD_IR)])
        assert exit_code == 0
        exit_code = main(["--irdl", cmath_irdl, str(artifact)])
        assert exit_code == 1
        assert "verification failed" in capsys.readouterr().err

    def test_corrupt_bytecode_is_a_diagnostic(self, tmp_path, cmath_irdl,
                                              capsys):
        artifact = tmp_path / "corrupt.irbc"
        exit_code = main(["--irdl", cmath_irdl, "--emit", "bytecode",
                          "-o", str(artifact), write_ir(tmp_path, GOOD_IR)])
        assert exit_code == 0
        data = bytearray(artifact.read_bytes())
        data[len(data) // 2] ^= 0xFF
        artifact.write_bytes(bytes(data[: len(data) - 4]))
        exit_code = main(["--irdl", cmath_irdl, str(artifact)])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_input_file_reported(self, cmath_irdl, capsys):
        exit_code = main(["--irdl", cmath_irdl, "/nonexistent/input.mlir"])
        assert exit_code == 1
        assert "cannot read" in capsys.readouterr().err


class TestLintCli:
    """``--lint`` exit codes: 0 clean, 1 warnings only, 2 any error."""

    def write_irdl(self, tmp_path, text, name="d.irdl"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_clean_file_exits_zero(self, tmp_path, cmath_irdl, capsys):
        exit_code = main(["--lint", cmath_irdl])
        assert exit_code == 0
        assert "no findings" in capsys.readouterr().out

    def test_warnings_only_exit_one(self, tmp_path, capsys):
        path = self.write_irdl(
            tmp_path, "Dialect d { Operation quiet {} }"
        )
        exit_code = main(["--lint", path])
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "warning[missing-summary]" in out

    def test_errors_exit_two(self, tmp_path, capsys):
        path = self.write_irdl(tmp_path, """
        Dialect d {
          Operation op {
            Operands (a: And<!f32, !f64>)
            Summary "doc"
          }
        }
        """)
        exit_code = main(["--lint", path])
        assert exit_code == 2
        assert "error[unsatisfiable-constraint]" in capsys.readouterr().out

    def test_notes_only_still_clean(self, tmp_path):
        path = self.write_irdl(tmp_path, """
        Dialect d {
          Operation op {
            Operands (xs: Variadic<!f32>, ys: Variadic<!f32>)
            Summary "doc"
          }
        }
        """)
        assert main(["--lint", path]) == 0

    def test_json_output(self, tmp_path, capsys):
        import json

        path = self.write_irdl(
            tmp_path, "Dialect d { Operation quiet {} }"
        )
        exit_code = main(["--lint", path, "--lint-format=json"])
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        finding = payload[0]
        assert set(finding) == {
            "code", "severity", "subject", "message", "loc",
        }
        assert finding["code"] == "missing-summary"
        assert finding["subject"] == "d.quiet"

    def test_json_output_clean_is_empty_list(self, tmp_path, cmath_irdl,
                                             capsys):
        import json

        exit_code = main(["--lint", cmath_irdl, "--lint-format=json"])
        assert exit_code == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_multiple_files_worst_exit_wins(self, tmp_path, cmath_irdl,
                                            capsys):
        warn = self.write_irdl(
            tmp_path, "Dialect w { Operation quiet {} }", "w.irdl"
        )
        exit_code = main(["--lint", cmath_irdl, "--lint", warn])
        assert exit_code == 1

    def test_lint_with_patterns(self, tmp_path, cmath_irdl, capsys):
        pattern_file = tmp_path / "dead.pattern"
        pattern_file.write_text("""
        Pattern p {
          Match { %r = nosuch.op(%a) }
          Rewrite { %r = nosuch.op(%a) }
        }
        """)
        exit_code = main([
            "--lint", cmath_irdl, "--patterns", str(pattern_file),
        ])
        assert exit_code == 2
        assert "dead-rewrite-pattern" in capsys.readouterr().out

    def test_native_dialect_name_lints_like_the_daemon(self, tmp_path,
                                                       capsys):
        # The daemon's lint request evicts only the redefined ``func``
        # from a clone of the default context, so builtin types still
        # resolve; the CLI lints through the same Session call.
        path = self.write_irdl(
            tmp_path, "Dialect func { Operation ret { Operands (x: !i32) } }"
        )
        exit_code = main(["--lint", path])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "warning[missing-summary] func.ret" in captured.out
        assert captured.err == ""

    def test_unparsable_file_exits_two(self, tmp_path, capsys):
        path = self.write_irdl(tmp_path, "Dialect { }")
        exit_code = main(["--lint", path])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("contents", [None, b"\xff\xfe"],
                             ids=["missing", "not UTF-8"])
    def test_unreadable_file_exits_two(self, tmp_path, contents):
        path = tmp_path / "d.irdl"
        if contents is not None:
            path.write_bytes(contents)
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.irdl_opt", "--lint",
             str(path)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: cannot read {path}: ")
        assert "Traceback" not in result.stderr

    def test_suppressed_findings_drop_out(self, tmp_path, capsys):
        path = self.write_irdl(tmp_path, """
        Dialect d {
          Operation quiet {
            Suppress "missing-summary"
          }
        }
        """)
        exit_code = main(["--lint", path])
        assert exit_code == 0
        assert "no findings" in capsys.readouterr().out


class TestCompileIrdl:
    def test_compile_and_load(self, tmp_path, cmath_irdl, capsys):
        compiled = tmp_path / "cmath.irbc"
        exit_code = main(["--compile-irdl", cmath_irdl,
                          "-o", str(compiled)])
        assert exit_code == 0
        from repro.bytecode import is_bytecode

        assert is_bytecode(compiled.read_bytes())

        # The compiled artifact drives the driver exactly like the source.
        exit_code = main(["--irdl", str(compiled),
                          write_ir(tmp_path, GOOD_IR)])
        assert exit_code == 0
        assert "cmath.norm %p : f32" in capsys.readouterr().out

    def test_compile_reencodes_existing_artifact(self, tmp_path, cmath_irdl):
        first = tmp_path / "a.irbc"
        second = tmp_path / "b.irbc"
        assert main(["--compile-irdl", cmath_irdl, "-o", str(first)]) == 0
        assert main(["--compile-irdl", str(first), "-o", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()

    def test_compile_bad_source_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.irdl"
        bad.write_text("Dialect { }")
        out = tmp_path / "bad.irbc"
        exit_code = main(["--compile-irdl", str(bad), "-o", str(out)])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_compile_missing_file_reported(self, tmp_path, capsys):
        out = tmp_path / "x.irbc"
        exit_code = main(["--compile-irdl", "/nonexistent.irdl",
                          "-o", str(out)])
        assert exit_code == 1


class FakeStdin:
    """A ``sys.stdin`` stand-in exposing a binary ``buffer``."""

    def __init__(self, data: bytes):
        import io

        self.buffer = io.BytesIO(data)


class TestStdin:
    """``-`` reads stdin, for the IR input and for ``--irdl``."""

    def test_ir_from_stdin(self, cmath_irdl, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", FakeStdin(GOOD_IR.encode()))
        exit_code = main(["--irdl", cmath_irdl, "-"])
        assert exit_code == 0
        assert "cmath.norm %p : f32" in capsys.readouterr().out

    def test_irdl_from_stdin(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            FakeStdin(cmath_source().encode()))
        exit_code = main(["--irdl", "-", write_ir(tmp_path, GOOD_IR)])
        assert exit_code == 0
        assert "cmath.norm %p : f32" in capsys.readouterr().out

    def test_bytecode_ir_on_stdin_autodetects(self, tmp_path, cmath_irdl,
                                              capsys, monkeypatch):
        # Render the module to IRBC first, then feed the blob to stdin.
        out_path = tmp_path / "module.irbc"
        exit_code = main([
            "--irdl", cmath_irdl, "--emit", "bytecode",
            "-o", str(out_path), write_ir(tmp_path, GOOD_IR),
        ])
        assert exit_code == 0
        monkeypatch.setattr("sys.stdin", FakeStdin(out_path.read_bytes()))
        exit_code = main(["--irdl", cmath_irdl, "-"])
        assert exit_code == 0
        assert "cmath.norm %p : f32" in capsys.readouterr().out

    def test_bytecode_irdl_on_stdin_autodetects(self, tmp_path, cmath_irdl,
                                                capsys, monkeypatch):
        artifact = tmp_path / "cmath.irbc"
        exit_code = main([
            "--compile-irdl", cmath_irdl, "-o", str(artifact),
        ])
        assert exit_code == 0
        monkeypatch.setattr("sys.stdin", FakeStdin(artifact.read_bytes()))
        exit_code = main(["--irdl", "-", write_ir(tmp_path, GOOD_IR)])
        assert exit_code == 0
        assert "cmath.norm %p : f32" in capsys.readouterr().out

    def test_stdin_cannot_serve_both_inputs(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            FakeStdin(cmath_source().encode()))
        exit_code = main(["--irdl", "-", "-"])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "already consumed by --irdl" in err
        assert "the IR input" in err


ARITH_IR = """
"builtin.module"() ({
  %a = "arith.constant"() {value = 2 : i32} : () -> i32
  %b = "arith.constant"() {value = 3 : i32} : () -> i32
  %s = "arith.addi"(%a, %b) : (i32, i32) -> i32
  %p = "arith.muli"(%s, %b) : (i32, i32) -> i32
}) : () -> ()
"""

WIDEN_NORM = """
Pattern widen_norm {
  Match { %r = cmath.norm(%c) }
  Rewrite { %r = cmath.mul(%c, %c) }
}
"""


class TestAnalyzeFlag:
    def test_constant_prop_report(self, tmp_path, capsys):
        exit_code = main([
            "--analyze", "constant-prop", write_ir(tmp_path, ARITH_IR),
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "=== constant-prop ===" in out
        assert "arith.addi: 5 : i32" in out
        assert "arith.muli: 15 : i32" in out

    def test_multiple_analyses(self, tmp_path, capsys):
        exit_code = main([
            "--analyze", "constant-prop", "--analyze", "int-range",
            write_ir(tmp_path, ARITH_IR),
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "=== constant-prop ===" in out
        assert "=== int-range ===" in out
        assert "arith.muli: 15\n" in out

    def test_analyze_composes_with_patterns(self, tmp_path, cmath_irdl,
                                            capsys):
        # Analyses run on the *rewritten* module.
        pattern_file = tmp_path / "conorm.pattern"
        pattern_file.write_text(PATTERN)
        exit_code = main([
            "--irdl", cmath_irdl, "--patterns", str(pattern_file),
            "--analyze", "constant-prop", write_ir(tmp_path, CONORM),
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "=== constant-prop ===" in out
        assert "cmath.mul" in out


class TestValidateRewritesFlag:
    def test_sound_pattern_passes(self, tmp_path, cmath_irdl, capsys):
        pattern_file = tmp_path / "conorm.pattern"
        pattern_file.write_text(PATTERN)
        exit_code = main([
            "--irdl", cmath_irdl, "--patterns", str(pattern_file),
            "--validate-rewrites", write_ir(tmp_path, CONORM),
        ])
        assert exit_code == 0
        assert "cmath.mul" in capsys.readouterr().out

    def test_unsound_pattern_aborts(self, tmp_path, cmath_irdl, capsys):
        pattern_file = tmp_path / "widen.pattern"
        pattern_file.write_text(WIDEN_NORM)
        exit_code = main([
            "--irdl", cmath_irdl, "--patterns", str(pattern_file),
            "--validate-rewrites", write_ir(tmp_path, GOOD_IR),
        ])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "widen_norm" in err
        assert "broke IR invariants" in err

    def test_unsound_pattern_unnoticed_without_flag(self, tmp_path,
                                                    cmath_irdl, capsys):
        # Without validation the verify step after printing still
        # catches this particular mutant — but only at the very end,
        # with no pattern attribution.
        pattern_file = tmp_path / "widen.pattern"
        pattern_file.write_text(WIDEN_NORM)
        exit_code = main([
            "--irdl", cmath_irdl, "--patterns", str(pattern_file),
            write_ir(tmp_path, GOOD_IR),
        ])
        assert exit_code == 1
        assert "widen_norm" not in capsys.readouterr().err

    def test_validation_stats_reported(self, tmp_path, cmath_irdl, capsys):
        pattern_file = tmp_path / "conorm.pattern"
        pattern_file.write_text(PATTERN)
        exit_code = main([
            "--irdl", cmath_irdl, "--patterns", str(pattern_file),
            "--validate-rewrites", "--pass-statistics",
            write_ir(tmp_path, CONORM),
        ])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "rewrite-validations" in err


class TestSoundnessLintCli:
    def test_unsound_pattern_file_exits_two(self, tmp_path, cmath_irdl,
                                            capsys):
        pattern_file = tmp_path / "widen.pattern"
        pattern_file.write_text(WIDEN_NORM)
        exit_code = main([
            "--lint", cmath_irdl, "--patterns", str(pattern_file),
        ])
        assert exit_code == 2
        assert "error[unsound-rewrite-replacement]" \
            in capsys.readouterr().out

    def test_shipped_pattern_file_is_clean(self, cmath_irdl, capsys):
        shipped = os.path.join(
            os.path.dirname(__file__), "..", "..", "examples", "patterns",
            "conorm.pattern",
        )
        exit_code = main(["--lint", cmath_irdl, "--patterns", shipped])
        assert exit_code == 0
        assert "no findings" in capsys.readouterr().out


class TestReadmeReference:
    """README's ``## CLI reference`` block is ``irdl-opt --help``."""

    def test_block_names_exactly_the_parser_options(self):
        # Sets of option strings, not argparse's wrapped layout, which
        # differs between Python versions.
        section = README.read_text(encoding="utf-8").split(
            "## CLI reference", 1)[1]
        block = section.split("```", 2)[1]
        named = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", block))
        defined = {
            option
            for action in build_arg_parser()._actions
            for option in action.option_strings
        }
        assert named == defined
