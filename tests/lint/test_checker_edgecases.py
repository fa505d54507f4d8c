"""Checker edge cases: odd files, spans, suppressions, the unused audit."""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths, lint_source
from repro.lint.checker import (
    Suppressions,
    lint_module,
    read_python_source,
    statement_spans,
    unused_suppression_report,
)


class TestOddFiles:
    def test_empty_file_is_clean(self) -> None:
        assert lint_source("", path="empty.py", module="repro.x") == []

    def test_whitespace_only_file_is_clean(self) -> None:
        assert lint_source("\n\n   \n", path="w.py", module="repro.x") == []

    def test_syntax_error_is_a_diagnostic_not_a_crash(self) -> None:
        diags = lint_source("def broken(:\n", path="bad.py", module="repro.x")
        assert len(diags) == 1
        assert diags[0].rule == "syntax-error"
        assert diags[0].path == "bad.py"

    def test_syntax_error_returns_no_suppression_state(self) -> None:
        _, suppressions = lint_module("def broken(:\n", path="bad.py")
        assert suppressions is None

    def test_bom_file_parses(self, tmp_path: Path) -> None:
        target = tmp_path / "bom.py"
        target.write_bytes(b"\xef\xbb\xbfx = 1\n")
        assert read_python_source(target) == "x = 1\n"
        assert lint_paths([target]) == []

    def test_coding_declaration_parses(self, tmp_path: Path) -> None:
        target = tmp_path / "enc.py"
        target.write_text("# -*- coding: utf-8 -*-\nname = 'é'\n")
        assert lint_paths([target]) == []


class TestStatementSpans:
    def test_multiline_statement_spans_all_lines(self) -> None:
        import ast

        src = "value = (\n    1\n    + 2\n)\n"
        spans = statement_spans(ast.parse(src))
        assert spans[1] == (1, 4)
        assert spans[4] == (1, 4)

    def test_decorated_def_header_includes_decorators(self) -> None:
        import ast

        src = (
            "@decorator(\n    arg=1,\n)\ndef fn() -> None:\n    body = 1\n"
        )
        spans = statement_spans(ast.parse(src))
        # Decorator lines and the def line share one span...
        assert spans[1] == spans[4]
        # ...which stops before the body.
        assert spans[5] == (5, 5)


class TestSuppressionsOnCompoundStatements:
    def test_allow_on_decorator_line_covers_the_def(self) -> None:
        src = (
            "import time\n"
            "from typing import Any, Callable\n"
            "\n"
            "\n"
            "def deco(fn: Callable[[], float]) -> Callable[[], float]:\n"
            "    return fn\n"
            "\n"
            "\n"
            "@deco  # repro-lint: allow=wall-clock (fixture: profiling decorator)\n"
            "def stamped() -> float:\n"
            "    return 1.0\n"
        )
        # The finding anchors on the def/decorator header span; an allow
        # anywhere on that span must match.
        sup = Suppressions("f.py", src, __import__("ast").parse(src))
        assert sup.allows(10, "wall-clock")

    def test_allow_on_continuation_line_of_multiline_call(self) -> None:
        src = (
            "import time\n"
            "\n"
            "deadline = time.time() + max(\n"
            "    1.0,\n"
            "    2.0,  # repro-lint: allow=wall-clock (fixture: wall deadline)\n"
            ")\n"
        )
        diags = lint_source(src, path="f.py", module="repro.sim.x")
        assert diags == []

    def test_unjustified_allow_is_bare_allow_finding(self) -> None:
        src = "import time\nt = time.time()  # repro-lint: allow=wall-clock\n"
        diags = lint_source(src, path="f.py", module="repro.sim.x")
        rules = sorted(d.rule for d in diags)
        assert rules == ["bare-allow", "wall-clock"]

    def test_unknown_rule_name_in_allow_reported(self) -> None:
        src = "x = 1  # repro-lint: allow=no-such-rule (why)\n"
        diags = lint_source(src, path="f.py", module="repro.x")
        assert [d.rule for d in diags] == ["bare-allow"]
        assert "no-such-rule" in diags[0].message


class TestUnusedSuppressionAudit:
    def test_dead_allow_reported(self) -> None:
        src = "x = 1  # repro-lint: allow=wall-clock (stale justification)\n"
        import ast

        sup = Suppressions("f.py", src, ast.parse(src))
        report = unused_suppression_report({"f.py": sup})
        assert [d.rule for d in report] == ["unused-suppression"]
        assert "wall-clock" in report[0].message

    def test_live_allow_not_reported(self) -> None:
        src = (
            "import time\n"
            "t = time.time()  # repro-lint: allow=wall-clock (fixture)\n"
        )
        diags, sup = lint_module(src, path="f.py", module="repro.sim.x")
        assert diags == [] and sup is not None
        assert unused_suppression_report({"f.py": sup}) == []
