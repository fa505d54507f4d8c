"""mypy --strict gate.

mypy is not a runtime dependency and may be absent from minimal
environments; the test skips in that case and runs in the CI mypy job.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None, reason="mypy not installed"
)


def test_mypy_strict_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
