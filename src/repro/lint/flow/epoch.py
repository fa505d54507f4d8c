"""Epoch-guard verification over the continuation classes.

The per-class analysis itself happens at summary time
(:class:`repro.lint.flow.project._EpochChecker`); this pass collects the
verdicts, applies suppressions, and renders findings.  The contract is
strict by design: among classes that both define ``__call__`` and store
an ``epoch`` slot, *every* engine/store mutation — and every call
through a non-builtin helper, which could launder one — must be
dominated by a comparison of ``self.epoch`` against the engine's live
``_epoch``.  Continuations without an ``epoch`` slot are out of scope
(they are the deliberately epoch-exempt arrival/timer events).
"""

from __future__ import annotations

from .findings import FlowFinding
from .project import ProjectIndex

EPOCH_RULE = "epoch-guard"


def run_epoch_pass(index: ProjectIndex) -> list[FlowFinding]:
    findings: list[FlowFinding] = []
    for cls_key in sorted(index.classes):
        module, summary = index.classes[cls_key]
        verdict = summary["epoch"]
        if verdict is None:
            continue
        matcher = index.matcher_for(module)
        path = str(index.summaries[module]["path"])
        cls_name = cls_key.rsplit(".", 1)[-1]
        for violation in verdict["violations"]:
            line = int(violation["line"])
            if matcher is not None and matcher.allows(line, EPOCH_RULE):
                continue
            what = str(violation["what"])
            hint = (
                "add one"
                if not verdict["guard_seen"]
                else "move the mutation under the guard"
            )
            findings.append(
                FlowFinding(
                    path=path,
                    line=line,
                    col=int(violation["col"]),
                    rule=EPOCH_RULE,
                    message=(
                        f"continuation '{cls_name}' touches {what} in "
                        "__call__ without first comparing self.epoch to "
                        f"the engine's live epoch; {hint} "
                        "(`if engine._epoch == self.epoch:`)"
                    ),
                    scope=cls_key,
                    key=what,
                )
            )
    findings.sort(key=FlowFinding.sort_key)
    return findings
