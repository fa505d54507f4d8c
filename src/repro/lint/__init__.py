"""repro.lint: simulator-specific static analysis.

The reproduction's credibility rests on properties ordinary linters do not
check: bit-identical determinism (no wall clocks, no unseeded randomness,
no hash/set-ordering leaks into ordered state), float safety on the hot
paths that accumulate simulated time, allocation hygiene (``slots`` on
hot-path dataclasses) and the cluster-isolation contract (a replica's
AttentionStore may only be touched by foreign code through the migration
API).  This package turns those implicit contracts into machine-checked
ones: a per-file AST pass over ``src/repro`` with rules catalogued in
:mod:`repro.lint.rules`, driven by :func:`lint_paths`.

The properties a per-file pass cannot see are checked at run time
instead (DESIGN.md §9): SimSan's exactly-one-copy and store invariants,
crash-in-flight tests for the epoch-guarded continuations, and golden
replays that must not move under perturbed hash seeds, host clocks,
global RNGs, GC thresholds and same-timestamp tie order.

Run it as ``python -m repro.cli lint src/repro`` (or ``python -m
repro.lint src/repro``); ``--format json|sarif`` for machine output and
``--unused-suppressions`` for the dead-suppression audit.
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
from .config import LintConfig, load_config
from .diagnostics import Diagnostic
from .rules import ALL_RULE_NAMES, RULES, Rule

__all__ = [
    "ALL_RULE_NAMES",
    "Diagnostic",
    "LintConfig",
    "RULES",
    "Rule",
    "lint_paths",
    "lint_source",
    "load_config",
    "unused_suppression_report",
]
