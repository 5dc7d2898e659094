"""The shared Session pipeline object (CLI and server code path)."""

import pytest

from repro.ir.exceptions import VerifyError
from repro.utils.diagnostics import DiagnosticError
from repro.server.session import Session
from tests.server.conftest import BAD_IR, GOOD_IR, TOY_DIALECT


@pytest.fixture
def session(cmath_text):
    s = Session()
    s.register_dialect_data(cmath_text.encode(), "cmath.irdl")
    return s


class TestRegistration:
    def test_register_text(self, cmath_text):
        session = Session()
        defs = session.register_dialect_data(cmath_text.encode())
        assert [d.name for d in defs] == ["cmath"]
        assert "cmath" in session.ctx.dialects
        assert session.dialects == defs

    def test_register_bytecode_autodetect(self, cmath_bytecode):
        session = Session()
        defs = session.register_dialect_data(cmath_bytecode)
        assert [d.name for d in defs] == ["cmath"]

    def test_register_path(self, tmp_path, cmath_text):
        path = tmp_path / "cmath.irdl"
        path.write_text(cmath_text)
        session = Session()
        assert session.register_dialect_path(str(path))

    def test_sessions_have_private_contexts(self):
        a, b = Session(), Session()
        assert a.ctx is not b.ctx
        a.register_dialect_data(TOY_DIALECT.encode())
        assert "toy" in a.ctx.dialects
        assert "toy" not in b.ctx.dialects


#: A payload whose second dialect collides with the builtin ``arith``.
FRESH = """
Dialect fresh {
  Operation op {
    Results(out: !i32)
  }
}
"""
FRESH_THEN_ARITH = FRESH + """
Dialect arith {
  Operation other {}
}
"""


class TestAllOrNoneRegistration:
    @pytest.mark.parametrize("encoding", ["text", "bytecode"])
    def test_a_failing_dialect_unregisters_the_payloads_earlier_ones(
        self, encoding
    ):
        from repro.bytecode import encode_dialects
        from repro.irdl.parser import parse_irdl

        payload = FRESH_THEN_ARITH.encode()
        if encoding == "bytecode":
            payload = encode_dialects(parse_irdl(FRESH_THEN_ARITH))
        session = Session()
        arith = session.ctx.dialects["arith"]
        with pytest.raises(DiagnosticError,
                           match="dialect 'arith' is already registered"):
            session.register_dialect_data(payload, "fresh.irdl")
        assert "fresh" not in session.ctx.dialects
        assert session.ctx.dialects["arith"] is arith
        assert session.dialects == []

        defs = session.register_dialect_data(FRESH.encode(), "fresh.irdl")
        assert [d.name for d in defs] == ["fresh"]
        assert session.dialects == defs
        assert session.ctx.get_op_def("fresh.op") is not None


class TestPipeline:
    def test_load_verify_emit_text(self, session):
        module = session.load_module(GOOD_IR)
        session.verify(module)
        text = session.emit(module)
        assert "cmath.norm" in text

    def test_load_bytecode_autodetect(self, session):
        module = session.load_module(GOOD_IR)
        data = session.emit(module, emit="bytecode")
        assert isinstance(data, bytes)
        again = session.load_module(data)
        assert session.emit(again) == session.emit(module)

    def test_verify_failure_raises(self, session):
        module = session.load_module(BAD_IR)
        with pytest.raises(VerifyError):
            session.verify(module)

    def test_roundtrip_stable(self, session):
        result = session.roundtrip(session.load_module(GOOD_IR))
        assert result["stable"] is True
        assert "cmath.norm" in result["text"]
        assert isinstance(result["bytecode"], bytes)

    def test_named_pipeline_passes(self, session):
        module = session.load_module(GOOD_IR)
        manager = session.run_patterns(
            module, (), passes=["dce", "cse", "verify"]
        )
        assert [name for name, _ in manager.history] == [
            "dce", "cse", "verify",
        ]

    def test_unknown_pass_rejected(self, session):
        with pytest.raises(ValueError, match="unknown pass"):
            session.build_pipeline((), passes=["optimize-everything"])

    def test_default_pipeline_matches_cli(self, session):
        manager = session.build_pipeline(())
        assert [p.name for p in manager.passes] == ["canonicalize", "dce"]


class TestLint:
    def test_lint_clean_source(self, session, cmath_text):
        findings = session.lint_sources([(cmath_text, "cmath.irdl")])
        assert findings == []

    def test_lint_does_not_mutate_session(self, session, cmath_text):
        before = dict(session.ctx.dialects)
        session.lint_sources([(TOY_DIALECT, "<toy>")])
        assert session.ctx.dialects == before

    def test_lint_redefining_registered_dialect(self, session, cmath_text):
        # The tenant already serves cmath; linting a new revision of it
        # must work (scratch clone evicts the old binding) and find the
        # same issues a fresh context would.
        findings = session.lint_sources([(cmath_text, "cmath.irdl")])
        assert findings == []
        assert "cmath" in session.ctx.dialects

    def test_lint_finds_problems(self, session):
        source = """
Dialect sick {
  Operation bad {
    Operands (x: And<!f32, !f64>)
  }
}
"""
        findings = session.lint_sources([(source, "<sick>")])
        assert findings
        assert any(f.severity in ("error", "warning") for f in findings)
