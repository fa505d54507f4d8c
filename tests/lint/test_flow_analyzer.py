"""End-to-end analyzer: golden fixtures, a clean tree, cache, CLI."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from repro.lint.config import FlowOptions, LintConfig, load_config
from repro.lint.flow import analyze_paths
from repro.lint.flow.cache import SummaryCache

FIXTURES = Path(__file__).parent / "fixtures" / "flow"
REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"


def _fixture_findings() -> list:
    result = analyze_paths([FIXTURES], LintConfig(), use_cache=False, root=FIXTURES)
    return result.findings


class TestGoldenFixtures:
    def test_every_seeded_bug_flagged_exactly_as_pinned(self) -> None:
        golden = json.loads((FIXTURES / "golden.json").read_text())
        actual = [
            {
                "file": Path(f.path).name,
                "line": f.line,
                "rule": f.rule,
                "scope": f.scope,
                "key": f.key,
            }
            for f in _fixture_findings()
        ]
        assert actual == golden["findings"]

    def test_good_variants_stay_silent(self) -> None:
        flagged_files = {Path(f.path).name for f in _fixture_findings()}
        for good in sorted(FIXTURES.glob("*good*.py")):
            assert good.name not in flagged_files
        assert "taint_suppressed_source.py" not in flagged_files
        assert "guarded_continuation.py" not in flagged_files

    def test_scope_and_key_are_line_free(self) -> None:
        # Shifting a file by a blank line moves the finding, not its
        # identity.
        src = (FIXTURES / "extract_leak.py").read_text()
        shifted = "\n" + src
        from flow_helpers import analyze_sources

        base = analyze_sources({"extract_leak": src})
        moved = analyze_sources({"extract_leak": shifted})
        assert [
            (f.rule, f.scope, f.key) for f in base
        ] == [(f.rule, f.scope, f.key) for f in moved]
        assert [f.line for f in base] != [f.line for f in moved]


class TestTreeIsClean:
    def test_src_has_zero_findings(self) -> None:
        result = analyze_paths(
            [SRC], load_config(SRC), use_cache=False, root=REPO
        )
        assert result.findings == [], [
            f.to_diagnostic().format() for f in result.findings
        ]

    def test_seeded_bug_in_src_would_fail(self, tmp_path: Path) -> None:
        # The acceptance demo: copy src, introduce a fixture bug, and the
        # run must go red.
        work = tmp_path / "src" / "repro"
        shutil.copytree(SRC, work)
        shutil.copy(REPO / "pyproject.toml", tmp_path / "pyproject.toml")
        bad = FIXTURES / "unguarded_continuation.py"
        (work / "engine" / "bad_continuation.py").write_text(bad.read_text())
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint",
                str(work),
                "--flow",
                "--no-cache",
            ],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "epoch-guard" in proc.stdout


class TestCache:
    def test_cache_hit_after_cold_run(self, tmp_path: Path) -> None:
        cfg = LintConfig(
            flow=FlowOptions(cache=str(tmp_path / "flow.json"))
        )
        first = analyze_paths([FIXTURES], cfg, use_cache=True, root=tmp_path)
        assert first.limits["cache_misses"] > 0
        second = analyze_paths([FIXTURES], cfg, use_cache=True, root=tmp_path)
        assert second.limits["cache_misses"] == 0
        assert second.limits["cache_hits"] == first.limits["cache_misses"]
        assert [
            (f.rule, f.path, f.line, f.key) for f in second.findings
        ] == [(f.rule, f.path, f.line, f.key) for f in first.findings]

    def test_content_change_invalidates(self, tmp_path: Path) -> None:
        mod = tmp_path / "mod.py"
        mod.write_text(
            "def safe() -> int:\n    return 1\n"
        )
        cache_file = tmp_path / "cache" / "flow.json"
        cfg = LintConfig(flow=FlowOptions(cache=str(cache_file)))
        res = analyze_paths([mod], cfg, use_cache=True, root=tmp_path)
        assert res.findings == []
        mod.write_text(
            "import time\n\n\ndef unsafe() -> float:\n"
            "    return time.time()\n\n\ndef caller() -> float:\n"
            "    return unsafe()\n"
        )
        res2 = analyze_paths([mod], cfg, use_cache=True, root=tmp_path)
        assert [f.rule for f in res2.findings] == ["flow-wall-clock"]

    def test_corrupt_cache_ignored(self, tmp_path: Path) -> None:
        cache_file = tmp_path / "flow.json"
        cache_file.write_text("{not json")
        cfg = LintConfig(flow=FlowOptions(cache=str(cache_file)))
        cache = SummaryCache(cache_file, cfg)
        assert cache.files == {}


class TestOutputFormats:
    def test_json_format(self) -> None:
        from repro.lint.flow.output import findings_json

        diags = [f.to_diagnostic() for f in _fixture_findings()]
        payload = json.loads(findings_json(diags, limits={"x": 1}))
        assert len(payload["findings"]) == len(diags)
        assert payload["limits"] == {"x": 1}

    def test_sarif_format(self) -> None:
        from repro.lint.flow.output import findings_sarif

        diags = [f.to_diagnostic() for f in _fixture_findings()]
        sarif = json.loads(findings_sarif(diags))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert [r["level"] for r in run["results"]] == ["error"] * len(diags)
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"epoch-guard", "store-protocol"} <= rule_ids


class TestCli:
    def _run(self, *argv: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *argv],
            capture_output=True,
            text=True,
            cwd=cwd if cwd is not None else REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_flow_over_src_is_green(self) -> None:
        proc = self._run(str(SRC), "--flow", "--no-cache")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "flow: 0 findings" in proc.stdout

    def test_flow_fixtures_red_with_sarif(self) -> None:
        proc = self._run(
            str(FIXTURES), "--flow", "--no-cache", "--format", "sarif"
        )
        assert proc.returncode == 1
        sarif = json.loads(proc.stdout)
        assert sarif["runs"][0]["results"]

    def test_repro_cli_lint_flow_passthrough(self) -> None:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "lint",
                str(SRC),
                "--flow",
                "--no-cache",
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
