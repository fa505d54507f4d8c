"""Whole-program (interprocedural) analysis for the simulator tree.

Three passes over a project-wide symbol table and call graph, sharing
the per-file linter's diagnostics/config/suppression machinery:

* transitive determinism taint (``flow-wall-clock`` /
  ``flow-unseeded-random`` / ``flow-order``),
* epoch-guard verification for continuation classes (``epoch-guard``),
* store-protocol typestate for the exactly-one-copy lifecycle
  (``store-protocol``).

There is no baseline: any finding fails the run, and a reviewed exception
is accepted inline with ``# repro-lint: allow=<rule> (<why>)``.
Same-timestamp tie order is not checked statically; a test replays the
canonical traces with ties shuffled instead (DESIGN.md §12).

Entry points: ``repro lint --flow`` / ``python -m repro.lint --flow``.
"""

from .analyzer import FlowResult, analyze_paths, run_flow
from .findings import FlowFinding
from .project import ProjectIndex, load_project, summarize_module

__all__ = [
    "FlowFinding",
    "FlowResult",
    "ProjectIndex",
    "analyze_paths",
    "load_project",
    "run_flow",
    "summarize_module",
]
