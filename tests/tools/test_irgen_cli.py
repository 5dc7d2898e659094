"""The repro-irgen CLI: deterministic synthetic modules as indexed
bytecode or text."""

from __future__ import annotations

from pathlib import Path

from repro.builtin import default_context
from repro.tools.irgen_cli import main as irgen_main


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
