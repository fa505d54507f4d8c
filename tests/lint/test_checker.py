"""Suppressions, module-name inference, report plumbing."""

import json
from pathlib import Path

from repro.lint import LintConfig, lint_paths, lint_source
from repro.lint.checker import module_name_for
from repro.lint.diagnostics import format_report
from repro.lint.output import findings_json, findings_sarif


class TestSuppressions:
    def test_allow_with_justification_suppresses(self):
        source = (
            "import time\n"
            "t = time.time()  # repro-lint: allow=wall-clock (host-side metric only)\n"
        )
        assert lint_source(source, module="repro.sim.x") == []

    def test_allow_without_justification_does_not_suppress(self):
        source = (
            "import time\n"
            "t = time.time()  # repro-lint: allow=wall-clock\n"
        )
        diags = lint_source(source, module="repro.sim.x")
        # An unjustified allow is itself a finding AND fails to suppress.
        assert sorted(d.rule for d in diags) == ["bare-allow", "wall-clock"]

    def test_allow_only_covers_its_own_line(self):
        source = (
            "import time\n"
            "a = time.time()  # repro-lint: allow=wall-clock (timing the host)\n"
            "b = time.time()\n"
        )
        diags = lint_source(source, module="repro.sim.x")
        assert [d.rule for d in diags] == ["wall-clock"]
        assert diags[0].line == 3

    def test_allow_only_covers_named_rules(self):
        source = (
            "import time\n"
            "t = time.time() == 0.0  # repro-lint: allow=wall-clock (host metric)\n"
        )
        diags = lint_source(source, module="repro.engine.x")
        assert [d.rule for d in diags] == ["float-eq"]

    def test_allow_unknown_rule_is_a_finding(self):
        # Rules of the retired whole-program analyzer are unknown too.
        for rule in ("made-up-rule", "batch-race", "epoch-guard", "store-protocol"):
            source = f"x = 1  # repro-lint: allow={rule} (because)\n"
            diags = lint_source(source, module="repro.sim.x")
            assert [d.rule for d in diags] == ["bare-allow"]
            assert rule in diags[0].message

    def test_multi_rule_allow(self):
        source = (
            "import time\n"
            "t = time.time() == 0.0"
            "  # repro-lint: allow=wall-clock,float-eq (fixture covers both)\n"
        )
        assert lint_source(source, module="repro.engine.x") == []


class TestModuleNames:
    def test_src_layout(self):
        path = Path("src/repro/store/attention_store.py")
        assert module_name_for(path) == "repro.store.attention_store"

    def test_package_init(self):
        assert module_name_for(Path("src/repro/sim/__init__.py")) == "repro.sim"

    def test_outside_repro(self):
        assert module_name_for(Path("scripts/helper.py")) == "helper"


class TestLintPaths:
    def test_walks_tree_and_reports_sorted(self, tmp_path):
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "b.py").write_text("import time\nt = time.time()\n")
        (pkg / "a.py").write_text("import time\nt = time.time()\n")
        diags = lint_paths([tmp_path], config=LintConfig())
        assert [d.rule for d in diags] == ["wall-clock", "wall-clock"]
        assert diags[0].path < diags[1].path

    def test_syntax_error_is_reported_not_raised(self):
        diags = lint_source("def broken(:\n", module="repro.sim.x")
        assert [d.rule for d in diags] == ["syntax-error"]


class TestReport:
    def test_clean_report(self):
        assert format_report([]) == "repro-lint: clean"

    def test_report_has_locations_and_tally(self):
        source = "import time\nt = time.time()\n"
        diags = lint_source(source, path="mod.py", module="repro.sim.x")
        report = format_report(diags)
        assert "mod.py:2:" in report
        assert "[wall-clock]" in report
        assert "1 finding(s)" in report


class TestOutputFormats:
    DIRTY = "import time\nt = time.time()\nu = time.time()\n"

    def test_json_format(self):
        diags = lint_source(self.DIRTY, path="mod.py", module="repro.sim.x")
        payload = json.loads(findings_json(diags))
        assert payload["tool"] == "repro-lint"
        assert [(f["line"], f["rule"]) for f in payload["findings"]] == [
            (2, "wall-clock"),
            (3, "wall-clock"),
        ]

    def test_sarif_format(self):
        diags = lint_source(self.DIRTY, path="mod.py", module="repro.sim.x")
        sarif = json.loads(findings_sarif(diags))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert [r["level"] for r in run["results"]] == ["error"] * len(diags)
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "wall-clock" in rule_ids
        assert "epoch-guard" not in rule_ids
