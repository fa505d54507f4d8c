"""Store-protocol typestate checking (exactly-one-copy lifecycle).

Each function containing protocol calls was lowered to a compact IR at
summary time; this pass enumerates its acyclic paths (loops unrolled
once, path count capped by ``flow.max_paths``) and interprets the
lifecycle automaton along each:

* ``extract`` hands the caller the only copy — extracting the same
  session again before the first copy is accounted is use-after-extract;
* ``admit_migrated`` must be able to match an extracted copy on the same
  path (by session argument or by the variable holding the item);
* ``record_migration_loss`` / ``discard_stale`` account copies the
  lossy/stale way;
* ``wipe_volatile`` and ``decommission`` are terminal for their store —
  any later protocol op on the same receiver is use-after-terminal
  (``restore_offline`` legitimately revives a wiped store); the
  shared-prefix ops (``register_shared``/``acquire_shared``/
  ``release_shared``) participate only in this terminal check —
  their refcount discipline is the store's own business, enforced by
  ``check_invariants`` and SimSan, not by callers;
* a copy that reaches a normal exit unaccounted — not admitted,
  discarded, loss-recorded, returned, or escaped into another call — is
  a leak of the one copy.

Functions on classes that *implement* the protocol (three or more of
the lifecycle methods, i.e. the store itself) are exempt: the automaton
constrains callers, not the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .findings import FlowFinding
from .project import ProjectIndex

PROTOCOL_RULE = "store-protocol"

#: Ops that account for a previously extracted copy.
_ACCOUNTING = frozenset({"admit_migrated", "discard_stale", "record_migration_loss"})


@dataclass(slots=True)
class _Copy:
    """One live extracted copy on the current path."""

    recv: str
    session: str
    var: str | None
    line: int
    col: int
    accounted: bool = False
    absent: bool = False  # the None-returning branch of the extract
    escaped: bool = False  # the copy was handed to other code


@dataclass(slots=True)
class _State:
    copies: list[_Copy] = field(default_factory=list)
    #: receiver -> terminal op name ("wipe_volatile"/"decommission")
    terminal: dict[str, str] = field(default_factory=dict)

    def clone(self) -> "_State":
        return _State(
            copies=[
                _Copy(
                    c.recv,
                    c.session,
                    c.var,
                    c.line,
                    c.col,
                    c.accounted,
                    c.absent,
                    c.escaped,
                )
                for c in self.copies
            ],
            terminal=dict(self.terminal),
        )


def _compatible(a: str | None, b: str | None) -> bool:
    if a is None or b is None:
        return False
    return a == b or a == "?" or b == "?"


class _PathBudget(Exception):
    pass


class _Interp:
    """Interpret one function's IR over all paths."""

    def __init__(self, max_paths: int) -> None:
        self.max_paths = max_paths
        self.paths = 0
        #: (kind, line, col, detail, stable-key)
        self.findings: set[tuple[str, int, int, str, str]] = set()

    def _finalize(self, state: _State, abnormal: bool) -> None:
        self.paths += 1
        if self.paths > self.max_paths:
            raise _PathBudget()
        if abnormal:
            return
        for copy in state.copies:
            if not (copy.accounted or copy.absent or copy.escaped):
                detail = f"{copy.recv}.extract({copy.session})"
                self.findings.add(
                    ("unaccounted", copy.line, copy.col, detail, detail)
                )

    def _op(self, state: _State, node: list[Any]) -> None:
        method = str(node[1])
        recv = str(node[2])
        session = node[3] if node[3] is None else str(node[3])
        line, col = int(node[4]), int(node[5])
        var = node[6] if node[6] is None else str(node[6])

        terminal_op = state.terminal.get(recv)
        if terminal_op is not None and method != "restore_offline":
            detail = f"{recv}.{method} after {recv}.{terminal_op}"
            self.findings.add(("after-terminal", line, col, detail, detail))
        if method == "extract":
            for copy in state.copies:
                if (
                    not copy.accounted
                    and not copy.absent
                    and not copy.escaped
                    and copy.recv == recv
                    and _compatible(copy.session, session)
                ):
                    self.findings.add(
                        (
                            "use-after-extract",
                            line,
                            col,
                            f"{recv}.extract({session}) while the copy from "
                            f"line {copy.line} is still unaccounted",
                            f"{recv}.extract({session})",
                        )
                    )
            state.copies.append(
                _Copy(recv, session if session is not None else "?", var, line, col)
            )
        elif method == "admit_migrated":
            matched = False
            for copy in state.copies:
                if copy.accounted or copy.absent:
                    continue
                if _compatible(copy.session, session) or (
                    copy.var is not None and copy.var == session
                ):
                    copy.accounted = True
                    matched = True
                    break
            if not matched:
                self.findings.add(
                    (
                        "admit-without-extract",
                        line,
                        col,
                        f"admit_migrated({session}) with no unaccounted "
                        "extract on this path",
                        f"admit_migrated({session})",
                    )
                )
        elif method == "discard_stale":
            for copy in state.copies:
                if not copy.accounted and _compatible(copy.session, session):
                    copy.accounted = True
        elif method == "record_migration_loss":
            for copy in state.copies:
                copy.accounted = True
        elif method == "decommission":
            state.terminal[recv] = method
            for copy in state.copies:
                if copy.recv == recv:
                    copy.accounted = True
        elif method == "wipe_volatile":
            state.terminal[recv] = method
        elif method == "restore_offline":
            state.terminal.pop(recv, None)

    def _use(self, state: _State, names: list[str]) -> None:
        # Passing the copy anywhere (logging aside, we cannot tell)
        # excuses the leak check — the copy may have left this
        # function's custody — but it stays matchable for a later
        # admit on the same path.
        for copy in state.copies:
            if copy.var is not None and copy.var in names:
                copy.escaped = True

    def run(self, ir: list[Any], state: _State) -> None:
        i = 0
        while i < len(ir):
            node = ir[i]
            kind = str(node[0])
            if kind == "op":
                self._op(state, node)
            elif kind == "use":
                self._use(state, [str(n) for n in node[1]])
            elif kind == "return":
                self._use(state, [str(n) for n in node[1]])
                self._finalize(state, abnormal=False)
                return
            elif kind == "exit":
                self._finalize(state, abnormal=True)
                return
            elif kind == "branch":
                cond = node[1]
                then_state = state.clone()
                else_state = state
                if cond[0] == "isnone":
                    for copy in then_state.copies:
                        if copy.var == cond[1]:
                            copy.absent = True
                elif cond[0] == "notnone":
                    for copy in else_state.copies:
                        if copy.var == cond[1]:
                            copy.absent = True
                self.run([*node[2], *ir[i + 1 :]], then_state)
                self.run([*node[3], *ir[i + 1 :]], else_state)
                return
            elif kind == "loop":
                skip_state = state.clone()
                self.run([*node[1], *ir[i + 1 :]], state)
                self.run(ir[i + 1 :], skip_state)
                return
            i += 1
        self._finalize(state, abnormal=False)


_MESSAGES = {
    "use-after-extract": "use-after-extract: {detail}",
    "admit-without-extract": "{detail}",
    "after-terminal": "protocol op on a decommissioned/wiped store: {detail}",
    "unaccounted": (
        "extracted copy may leak: {detail} is neither admitted, discarded, "
        "loss-recorded nor handed off on some path"
    ),
}


def run_protocol_pass(
    index: ProjectIndex, max_paths: int
) -> tuple[list[FlowFinding], int]:
    """Check every protocol-using function; returns (findings, skipped)."""
    findings: list[FlowFinding] = []
    skipped = 0
    for module in sorted(index.summaries):
        summary = index.summaries[module]
        if summary["error"] is not None:
            continue
        matcher = index.matcher_for(module)
        for suffix in sorted(summary["functions"]):
            fn = summary["functions"][suffix]
            if fn["proto"] is None:
                continue
            cls = fn["cls"]
            if cls is not None:
                cls_summary = summary["classes"].get(cls)
                if cls_summary is not None and cls_summary["defines_protocol"]:
                    continue  # the store's own implementation
            interp = _Interp(max_paths)
            try:
                interp.run(fn["proto"], _State())
            except _PathBudget:
                skipped += 1
                continue
            for kind, line, col, detail, stable in sorted(interp.findings):
                if matcher is not None and matcher.allows(line, PROTOCOL_RULE):
                    continue
                findings.append(
                    FlowFinding(
                        path=str(summary["path"]),
                        line=line,
                        col=col,
                        rule=PROTOCOL_RULE,
                        message=_MESSAGES[kind].format(detail=detail),
                        scope=f"{module}:{suffix}",
                        key=f"{kind}|{stable}",
                    )
                )
    findings.sort(key=FlowFinding.sort_key)
    return findings, skipped
