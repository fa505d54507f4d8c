"""The repo's own source tree must satisfy its own linter."""

import os
import subprocess
import sys
from pathlib import Path

from repro.lint import lint_paths
from repro.lint.diagnostics import format_report

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def _env_with_src() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def test_src_repro_lints_clean():
    diags = lint_paths([SRC])
    assert diags == [], "\n" + format_report(diags)


def test_cli_lint_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", str(SRC)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=_env_with_src(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_lint_nonzero_on_findings(tmp_path):
    bad = tmp_path / "repro" / "sim"
    bad.mkdir(parents=True)
    (bad / "dirty.py").write_text("import time\nt = time.time()\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=_env_with_src(),
    )
    assert proc.returncode == 1
    assert "wall-clock" in proc.stdout


def test_cli_lint_rejects_flow_flag():
    """The whole-program analyzer is gone; ``--flow`` is an unknown argument."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", str(SRC), "--flow"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=_env_with_src(),
    )
    assert proc.returncode == 2
    assert "unrecognized arguments: --flow" in proc.stderr
