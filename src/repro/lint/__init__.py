"""repro.lint: simulator-specific static analysis.

The reproduction's credibility rests on properties ordinary linters do not
check: bit-identical determinism (no wall clocks, no unseeded randomness,
no hash/set-ordering leaks into ordered state), float safety on the hot
paths that accumulate simulated time, allocation hygiene (``slots`` on
hot-path dataclasses) and the cluster-isolation contract (a replica's
AttentionStore may only be touched by foreign code through the migration
API).  This package turns those implicit contracts into machine-checked
ones: an AST pass over ``src/repro`` with rules catalogued in
:mod:`repro.lint.rules`, driven by :func:`lint_paths`.

On top of the per-file rules, :mod:`repro.lint.flow` runs whole-program
passes over a project symbol table and call graph — transitive
determinism taint, epoch-guard verification for continuations, and the
store's exactly-one-copy protocol typestate — behind ``--flow``.  Any
finding fails; there is no baseline.

Run it as ``python -m repro.cli lint src/repro`` (or ``python -m
repro.lint src/repro``); add ``--flow`` for the whole-program analyzer
and ``--unused-suppressions`` for the dead-suppression audit.
Configuration lives in ``[tool.repro-lint]`` in ``pyproject.toml``.
Suppressions are inline and must carry a justification:
``# repro-lint: allow=<rule> (<why this is safe>)``.
"""

from __future__ import annotations

from .checker import (
    lint_paths,
    lint_source,
    unused_suppression_report,
)
from .config import FlowOptions, LintConfig, load_config
from .diagnostics import Diagnostic
from .rules import ALL_RULE_NAMES, FLOW_RULE_CODES, RULES, Rule

__all__ = [
    "ALL_RULE_NAMES",
    "Diagnostic",
    "FLOW_RULE_CODES",
    "FlowOptions",
    "LintConfig",
    "RULES",
    "Rule",
    "lint_paths",
    "lint_source",
    "load_config",
    "unused_suppression_report",
]
