"""Orchestration for the whole-program analyzer (``repro lint --flow``)."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from ..checker import SpanAllows
from ..config import LintConfig, find_pyproject
from ..diagnostics import format_report
from .cache import SummaryCache
from .callgraph import build_call_graph
from .epoch import run_epoch_pass
from .findings import FlowFinding
from .project import ProjectIndex, load_project
from .protocol import run_protocol_pass
from .taint import run_taint_pass


@dataclass(slots=True)
class FlowResult:
    """Everything one analyzer run produced."""

    findings: list[FlowFinding] = field(default_factory=list)
    suppressions: Mapping[str, SpanAllows] = field(default_factory=dict)
    limits: dict[str, int] = field(default_factory=dict)
    index: ProjectIndex | None = None


def project_root(paths: Iterable[Path]) -> Path:
    """The pyproject root anchoring the cache's relative paths."""
    for path in paths:
        pyproject = find_pyproject(path)
        if pyproject is not None:
            return pyproject.parent
    pyproject = find_pyproject(Path.cwd())
    return pyproject.parent if pyproject is not None else Path.cwd()


def analyze_paths(
    paths: Iterable[Path],
    config: LintConfig,
    use_cache: bool = True,
    root: Path | None = None,
) -> FlowResult:
    """Run the three flow passes; suppressions already applied."""
    path_list = [Path(p) for p in paths]
    anchor = root if root is not None else project_root(path_list)
    cache: SummaryCache | None = None
    if use_cache and config.flow.cache is not None:
        cache = SummaryCache(anchor / config.flow.cache, config)
    index = load_project(
        path_list,
        config,
        cache_lookup=cache.lookup if cache is not None else None,
    )
    if cache is not None:
        cache.save(index)
    graph = build_call_graph(index)

    findings: list[FlowFinding] = []
    disabled = config.disable
    if "flow-wall-clock" not in disabled or "flow-order" not in disabled:
        findings.extend(
            f
            for f in run_taint_pass(index, graph)
            if f.rule not in disabled
        )
    if "epoch-guard" not in disabled:
        findings.extend(run_epoch_pass(index))
    skipped = 0
    if "store-protocol" not in disabled:
        proto_findings, skipped = run_protocol_pass(
            index, config.flow.max_paths
        )
        findings.extend(proto_findings)
    findings.sort(key=FlowFinding.sort_key)

    limits = dict(index.limits)
    limits["unresolved_calls"] = graph.unresolved
    limits["ambiguous_calls"] = graph.ambiguous
    limits["path_budget_exceeded"] = skipped
    if cache is not None:
        limits["cache_hits"] = cache.hits
        limits["cache_misses"] = cache.misses
    return FlowResult(
        findings=findings,
        suppressions=dict(index.suppressions),
        limits=limits,
        index=index,
    )


def _limits_line(limits: dict[str, int]) -> str:
    rendered = ", ".join(f"{key}={limits[key]}" for key in sorted(limits))
    return f"limits: {rendered}" if rendered else "limits: none"


def run_flow(
    paths: Iterable[Path],
    config: LintConfig,
    *,
    report_format: str = "text",
    use_cache: bool = True,
) -> int:
    """CLI driver: analyze, render, return exit code (1 on any finding)."""
    result = analyze_paths(paths, config, use_cache=use_cache)
    diags = [f.to_diagnostic() for f in result.findings]

    if report_format == "json":
        from .output import findings_json

        print(findings_json(diags, limits=result.limits))
    elif report_format == "sarif":
        from .output import findings_sarif

        print(findings_sarif(diags))
    else:
        if diags:
            print(format_report(diags))
        print(
            f"flow: {len(diags)} finding{'' if len(diags) == 1 else 's'}; "
            f"{_limits_line(result.limits)}"
        )
    return 1 if diags else 0
