"""The finding record every flow pass emits."""

from __future__ import annotations

from dataclasses import dataclass

from ..diagnostics import Diagnostic


@dataclass(frozen=True, slots=True)
class FlowFinding:
    """One whole-program finding.

    ``scope`` and ``key`` identify it without a line number, so a finding
    keeps its identity when unrelated edits move it; the golden fixture
    test pins them.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    #: Qualified name of the enclosing function or class.
    scope: str
    #: Rule-specific stable detail (callee id for taint, mutation target
    #: for epoch guards, automaton event for protocol).
    key: str

    def to_diagnostic(self) -> Diagnostic:
        return Diagnostic(self.path, self.line, self.col, self.rule, self.message)

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)
