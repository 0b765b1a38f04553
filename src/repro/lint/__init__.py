"""raincheck — AST-based determinism & protocol-invariant linter.

The determinism contract of this reproduction (all randomness from a seeded
``EventLoop.rng``, no wall clock outside a short allowlist, replay-identical
``(time, seq)`` ordering) and the session protocol's structural
invariants (exhaustive message dispatch, scheduling primitives contained in
``repro.net``/``repro.runtime``, hot-path allocation hygiene) are enforced
*statically*, before any test runs — a lightweight take on the session-type
idea of Kouzapas et al.

Entry points
------------
* ``python -m repro lint [--strict] [--json] [paths...]`` — the CLI gate;
* :func:`repro.lint.engine.build_project` + :func:`repro.lint.engine.run` —
  the programmatic API used by the tests;
* :mod:`repro.lint.rules` — the rule registry (RC1xx determinism, RC2xx
  protocol, RC3xx hot-path hygiene, RC0xx pragma hygiene).

The full contract, rule catalogue, and suppression-pragma grammar are
documented in docs/DETERMINISM.md.
"""

from __future__ import annotations

from repro.lint.engine import (
    DEFAULT_EXCLUDES,
    LintReport,
    Violation,
    build_project,
    format_human,
    format_json,
    run,
)
from repro.lint.rules import RULES, Rule

__all__ = [
    "DEFAULT_EXCLUDES",
    "LintReport",
    "RULES",
    "Rule",
    "Violation",
    "build_project",
    "format_human",
    "format_json",
    "run",
]
