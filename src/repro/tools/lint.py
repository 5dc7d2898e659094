"""An IRDL linter: definition-level diagnostics for dialect authors.

This module is the stable CLI-facing surface; the checks themselves
live in :mod:`repro.analysis.lints`, built on the symbolic constraint
engine (:mod:`repro.analysis.sat`).  Satisfiability is decided
symbolically; the random sampler is consulted only when the engine
answers ``UNKNOWN``, and a missing witness is then reported as
``possibly-unsatisfiable`` — never as a definite error.  See
``docs/linting.md`` for the full lint-code catalog.
"""

from __future__ import annotations

from repro.analysis.lints import (
    LINT_CODES,
    LintFinding,
    exit_code,
    findings_to_json,
    lint_dialect,
    lint_pattern_set,
    lint_patterns,
    render_findings,
)

__all__ = [
    "LINT_CODES",
    "LintFinding",
    "exit_code",
    "findings_to_json",
    "lint_dialect",
    "lint_pattern_set",
    "lint_patterns",
    "render_findings",
]
