"""CI wall-clock bound for the whole-program flow analyzer.

Times a **cold** (cache-disabled) ``repro.lint.flow`` run over the whole
``src/repro`` tree — summary extraction, call-graph construction, and
all three passes (transitive taint, epoch-guard, store-protocol
typestate) — and holds it to the ``bound_wall_s`` recorded
in the ``lint_flow`` section of ``BENCH_sim.json``.  The analyzer runs
on every CI push, so its cost has to stay bounded as the tree grows;
the bound is set far above the measured baseline (sub-second on the
baseline host) to absorb shared-runner noise while still catching an
accidental exponential (e.g. path enumeration escaping its budget).

A second check asserts the warm (cached) run does strictly less parsing
work than the cold run — the mtime/hash summary cache must actually
short-circuit.

Run directly (``python benchmarks/bench_lint_flow.py``) to re-measure
and print the numbers that belong in ``BENCH_sim.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.lint.config import FlowOptions, LintConfig, load_config
from repro.lint.flow import analyze_paths

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_sim.json"
)
SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


def measure(tmp_cache: str | None = None) -> dict:
    cfg = load_config(Path(SRC))
    start = time.perf_counter()
    cold = analyze_paths([SRC], cfg, use_cache=False)
    cold_wall = time.perf_counter() - start

    warm_wall = None
    if tmp_cache is not None:
        warm_cfg = LintConfig(
            disable=cfg.disable,
            hot_path_packages=cfg.hot_path_packages,
            store_migration_api=cfg.store_migration_api,
            rule_options=cfg.rule_options,
            flow=FlowOptions(cache=tmp_cache),
        )
        analyze_paths([SRC], warm_cfg, use_cache=True)  # populate
        start = time.perf_counter()
        warm = analyze_paths([SRC], warm_cfg, use_cache=True)
        warm_wall = time.perf_counter() - start
        assert warm.limits["cache_misses"] == 0, warm.limits

    return {
        "cold_wall_s": round(cold_wall, 4),
        "warm_wall_s": round(warm_wall, 4) if warm_wall is not None else None,
        "files": len(cold.index.summaries),
        "findings": len(cold.findings),
        "unresolved_calls": cold.limits["unresolved_calls"],
        "ambiguous_calls": cold.limits["ambiguous_calls"],
        "path_budget_exceeded": cold.limits["path_budget_exceeded"],
    }


def test_flow_analyzer_under_wall_bound(tmp_path) -> None:
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)
    assert "lint_flow" in baseline, (
        "BENCH_sim.json has no 'lint_flow' section; regenerate it with: "
        "python benchmarks/bench_lint_flow.py"
    )
    bound = baseline["lint_flow"]["bound_wall_s"]
    stats = measure(tmp_cache=str(tmp_path / "flow.json"))
    assert stats["cold_wall_s"] < bound, stats
    # The path-enumeration budget must not be silently eating functions
    # on the real tree — a skipped function is an unanalyzed function.
    assert stats["path_budget_exceeded"] == 0, stats
    # The summary cache must make the warm run cheaper than the cold one.
    assert stats["warm_wall_s"] < stats["cold_wall_s"], stats


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = measure(tmp_cache=os.path.join(tmp, "flow.json"))
    print(json.dumps(result, indent=2))
