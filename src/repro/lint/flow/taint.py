"""Transitive determinism taint (flow-wall-clock / flow-unseeded-random /
flow-order).

Direct hits of the per-file determinism rules seed the taint; taint then
propagates backwards over the call graph, so ``def _now(): return
time.time()`` flags every transitive caller at its call site.  Silence
propagates the same way the taint does:

* a justified ``allow`` on the *source* line removes the seed entirely —
  the helper is vouched for, so no caller is flagged;
* a justified ``allow`` on a *call site* suppresses that site's finding
  and stops the taint from flowing through that edge (the caller may
  still be tainted via a different callee).
"""

from __future__ import annotations

from dataclasses import dataclass

from .findings import FlowFinding
from .callgraph import CallGraph
from .project import ProjectIndex


@dataclass(frozen=True, slots=True)
class Taint:
    """Taint state of one function for one flow rule."""

    rule: str
    #: Where the underlying direct finding lives.
    origin_path: str
    origin_line: int
    detail: str
    #: Call chain from this function down to the direct source.
    chain: tuple[str, ...]


def _short(fid: str) -> str:
    module, _, suffix = fid.partition(":")
    tail = module.rsplit(".", 1)[-1]
    return f"{tail}.{suffix}" if suffix != "<module>" else tail


def seed_taints(index: ProjectIndex) -> dict[str, dict[str, Taint]]:
    """Per-function taint seeds from unsuppressed direct findings."""
    seeds: dict[str, dict[str, Taint]] = {}
    for module in sorted(index.summaries):
        summary = index.summaries[module]
        if summary["error"] is not None:
            continue
        for suffix in sorted(summary["functions"]):
            fn = summary["functions"][suffix]
            fid = f"{module}:{suffix}"
            for taint in fn["taints"]:
                if taint["suppressed"]:
                    continue
                rule = str(taint["rule"])
                if rule in seeds.get(fid, {}):
                    continue
                seeds.setdefault(fid, {})[rule] = Taint(
                    rule=rule,
                    origin_path=str(summary["path"]),
                    origin_line=int(taint["line"]),
                    detail=str(taint["detail"]),
                    chain=(fid,),
                )
    return seeds


def run_taint_pass(
    index: ProjectIndex, graph: CallGraph
) -> list[FlowFinding]:
    """Propagate seeds over reverse call edges; emit per-call-site findings."""
    state: dict[str, dict[str, Taint]] = {
        fid: dict(taints) for fid, taints in seed_taints(index).items()
    }
    queue: list[tuple[str, str]] = sorted(
        (fid, rule) for fid, taints in state.items() for rule in taints
    )
    findings: list[FlowFinding] = []
    emitted: set[tuple[str, int, int, str, str]] = set()

    while queue:
        callee, rule = queue.pop(0)
        taint = state[callee][rule]
        for edge in sorted(
            graph.callers_of(callee), key=lambda e: (e.caller, e.line, e.col)
        ):
            matcher = index.matcher_for(edge.caller)
            if matcher is not None and matcher.allows(edge.line, rule):
                continue  # justified at the call site: silence propagates
            caller_fn = index.function(edge.caller)
            if caller_fn is None:
                continue
            dedup = (edge.caller, edge.line, edge.col, rule, callee)
            if dedup not in emitted:
                emitted.add(dedup)
                chain = " -> ".join(_short(f) for f in (edge.caller, *taint.chain))
                findings.append(
                    FlowFinding(
                        path=index.path_of(edge.caller),
                        line=edge.line,
                        col=edge.col,
                        rule=rule,
                        message=(
                            f"call to {_short(callee)}() transitively reaches "
                            f"{taint.detail} "
                            f"({taint.origin_path}:{taint.origin_line}) "
                            f"via {chain}"
                        ),
                        scope=edge.caller,
                        key=f"{callee}|{taint.detail}",
                    )
                )
            if rule not in state.setdefault(edge.caller, {}):
                state[edge.caller][rule] = Taint(
                    rule=rule,
                    origin_path=taint.origin_path,
                    origin_line=taint.origin_line,
                    detail=taint.detail,
                    chain=(edge.caller, *taint.chain),
                )
                queue.append((edge.caller, rule))
    findings.sort(key=FlowFinding.sort_key)
    return findings
