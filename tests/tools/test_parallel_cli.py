"""The --parallel verification flag of irdl-opt and the repro-irgen CLI."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.builtin import default_context
from repro.builtin.types import FloatType
from repro.bytecode import encode_module
from repro.corpus.synth import BENCH_DIALECT_SOURCE, synthesize_module
from repro.tools.irdl_opt import main as opt_main
from repro.tools.irgen_cli import main as irgen_main


@pytest.fixture
def bench_irdl(tmp_path):
    path = tmp_path / "bench.irdl"
    path.write_text(BENCH_DIALECT_SOURCE)
    return str(path)


def write_module(tmp_path, n_ops=60, *, bad=False, index=True,
                 name="mod.irbc"):
    context = default_context()
    module = synthesize_module(n_ops, seed=3, context=context)
    if bad:
        f32 = context.intern(FloatType(32))
        src = context.create_operation("bench.source", result_types=[f32])
        block = module.regions[0].blocks[0]
        block.insert_op(src, 10)
    path = tmp_path / name
    path.write_bytes(encode_module(module, index=index))
    return str(path)


class TestOptParallel:
    def test_parallel_verify_succeeds(self, tmp_path, bench_irdl, capsys):
        path = write_module(tmp_path)
        exit_code = opt_main(["--irdl", bench_irdl, "--parallel=2", path,
                              "-o", str(tmp_path / "out.mlir")])
        assert exit_code == 0
        assert "note: --parallel" not in capsys.readouterr().err

    def test_parallel_reports_all_diagnostics(self, tmp_path, bench_irdl,
                                              capsys):
        path = write_module(tmp_path, bad=True)
        exit_code = opt_main(["--irdl", bench_irdl, "--parallel=2", path])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "verification failed" in err
        assert "op #10 (bench.source)" in err

    def test_parallel_verify_diagnostics_mode(self, tmp_path, bench_irdl,
                                              capsys):
        path = write_module(tmp_path, bad=True)
        exit_code = opt_main(["--irdl", bench_irdl, "--parallel=2",
                              "--verify-diagnostics", path])
        assert exit_code == 0
        assert "as expected" in capsys.readouterr().out

    def test_stdin_falls_back_with_note(self, bench_irdl, tmp_path,
                                        capsys, monkeypatch):
        import io
        import sys

        context = default_context()
        data = encode_module(synthesize_module(20, seed=1, context=context))
        monkeypatch.setattr(
            sys, "stdin",
            type("S", (), {"buffer": io.BytesIO(data)})(),
        )
        exit_code = opt_main(["--irdl", bench_irdl, "--parallel=2", "-",
                              "-o", str(tmp_path / "out.mlir")])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "note: --parallel" in err
        assert "stdin" in err

    def test_unindexed_input_falls_back_with_note(self, tmp_path,
                                                  bench_irdl, capsys):
        path = write_module(tmp_path, index=False)
        exit_code = opt_main(["--irdl", bench_irdl, "--parallel=2", path,
                              "-o", str(tmp_path / "out.mlir")])
        assert exit_code == 0
        assert "no op-index" in capsys.readouterr().err

    def test_textual_input_falls_back_with_note(self, tmp_path, bench_irdl,
                                                capsys):
        src = tmp_path / "in.mlir"
        src.write_text('%x = "bench.source"() : () -> (i32)\n')
        exit_code = opt_main(["--irdl", bench_irdl, "--parallel=2",
                              str(src), "-o", str(tmp_path / "out.mlir")])
        assert exit_code == 0
        assert "textual IR" in capsys.readouterr().err

    def test_fallback_emits_missed_remark(self, tmp_path, bench_irdl):
        import json

        path = write_module(tmp_path, index=False)
        remarks = tmp_path / "remarks.jsonl"
        exit_code = opt_main(["--irdl", bench_irdl, "--parallel=2", path,
                              "-o", str(tmp_path / "out.mlir"),
                              "--remarks-out", str(remarks)])
        assert exit_code == 0
        records = [json.loads(line)
                   for line in remarks.read_text().splitlines() if line]
        fallbacks = [r for r in records
                     if r.get("name") == "lazy-fallback"]
        assert fallbacks and fallbacks[0]["kind"] == "missed"


class TestIrgenCli:
    def test_deterministic_bytecode(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.irbc"), str(tmp_path / "b.irbc")
        assert irgen_main(["--ops", "200", "--seed", "6", "-o", a]) == 0
        assert irgen_main(["--ops", "200", "--seed", "6", "-o", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_op_count_and_lazy_open(self, tmp_path):
        from repro.bytecode import LazyModuleReader
        from repro.corpus.synth import register_bench_dialect

        path = str(tmp_path / "mod.irbc")
        assert irgen_main(["--ops", "150", "-o", path]) == 0
        context = default_context()
        register_bench_dialect(context)
        with LazyModuleReader.open(context, path) as reader:
            assert reader.lazy
            assert len(reader.handles) == 150

    def test_text_emit(self, tmp_path):
        path = tmp_path / "mod.mlir"
        assert irgen_main(["--ops", "5", "--emit", "text",
                           "-o", str(path)]) == 0
        assert "bench.source" in path.read_text()

    def test_negative_ops_rejected(self, capsys):
        assert irgen_main(["--ops", "-3"]) == 2
        assert "non-negative" in capsys.readouterr().err
