"""Shared helpers for the flow-analyzer tests: analyze inline sources."""

from __future__ import annotations

from repro.lint.config import LintConfig
from repro.lint.flow.callgraph import CallGraph, build_call_graph
from repro.lint.flow.epoch import run_epoch_pass
from repro.lint.flow.findings import FlowFinding
from repro.lint.flow.project import ProjectIndex, build_index, summarize_module
from repro.lint.flow.protocol import run_protocol_pass
from repro.lint.flow.taint import run_taint_pass


def index_of(
    sources: dict[str, str], config: LintConfig | None = None
) -> tuple[ProjectIndex, CallGraph]:
    cfg = config if config is not None else LintConfig()
    summaries = {
        name: summarize_module(
            text, f"{name.replace('.', '/')}.py", name, False, cfg
        )
        for name, text in sources.items()
    }
    index = build_index(summaries)
    return index, build_call_graph(index)


def analyze_sources(
    sources: dict[str, str],
    config: LintConfig | None = None,
    max_paths: int = 256,
) -> list[FlowFinding]:
    """All three passes over in-memory modules keyed by dotted name."""
    index, graph = index_of(sources, config)
    findings = [
        *run_taint_pass(index, graph),
        *run_epoch_pass(index),
        *run_protocol_pass(index, max_paths)[0],
    ]
    findings.sort(key=FlowFinding.sort_key)
    return findings
