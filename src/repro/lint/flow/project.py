"""Project-wide indexing for the flow analyzer.

One :class:`ProjectIndex` holds a *summary* of every module in the
analyzed tree.  Summaries are plain JSON-serialisable dicts extracted in
a single AST walk per file, so they can be cached keyed by content hash
(:mod:`repro.lint.flow.cache`) and the whole-program passes never need
the ASTs again.  Each summary records, per function:

* **calls** — call sites with enough symbolic structure to resolve them
  against the project symbol table (dotted imports, ``self`` methods,
  member calls like ``self.engine.m()``, bare names);
* **taints** — direct determinism-rule hits (wall clock, unseeded RNG,
  hash/set order) with their suppression status, the seeds of the
  transitive-taint pass;
* **proto** — a compact control-flow IR of the store-protocol call
  sites (extract/admit/decommission/...) for the typestate pass;

and, per class: ``__slots__``, bases, methods, and the epoch-guard
verdict for continuation classes that store an ``epoch`` slot.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..checker import (
    SpanAllows,
    Suppressions,
    iter_python_files,
    module_name_for,
    read_python_source,
    statement_spans,
)
from ..config import LintConfig
from ..rules import (
    HashOrderRule,
    SetOrderRule,
    UnseededRandomRule,
    WallClockRule,
)

#: Bump when the summary schema or extraction logic changes; invalidates
#: every cache entry.
SUMMARY_VERSION = 5

#: The store's exactly-one-copy lifecycle methods (paper §3.3 plus the
#: failure domain of DESIGN.md §11).  The shared-prefix ops participate
#: only in the terminal check: touching shared blocks on a wiped or
#: decommissioned store is as much a lifecycle violation as extracting
#: from one.  Per-session items keep exactly-one-copy; shared blocks are
#: exactly one *owning* copy per content hash per store (DESIGN.md §15).
PROTOCOL_OPS = frozenset(
    {
        "extract",
        "admit_migrated",
        "decommission",
        "wipe_volatile",
        "restore_offline",
        "discard_stale",
        "record_migration_loss",
        "register_shared",
        "acquire_shared",
        "release_shared",
    }
)

#: Protocol ops that take a session id as their first argument.
SESSION_OPS = frozenset({"extract", "admit_migrated", "discard_stale"})

#: Builtin callables considered benign inside an unguarded continuation
#: prologue (pure computation, no engine/store mutation).
BENIGN_BUILTINS = frozenset(
    {
        "abs",
        "bool",
        "dict",
        "enumerate",
        "float",
        "frozenset",
        "getattr",
        "hasattr",
        "int",
        "isinstance",
        "len",
        "list",
        "max",
        "min",
        "range",
        "repr",
        "round",
        "set",
        "sorted",
        "str",
        "tuple",
        "zip",
    }
)

_TAINT_RULES = (
    WallClockRule(),
    UnseededRandomRule(),
    HashOrderRule(),
    SetOrderRule(),
)

#: Per-file rule name -> flow rule name for transitive findings.
TAINT_FLOW_RULE = {
    "wall-clock": "flow-wall-clock",
    "unseeded-random": "flow-unseeded-random",
    "hash-order": "flow-order",
    "set-order": "flow-order",
}


def collect_aliases(tree: ast.Module, module: str, is_package: bool) -> dict[str, str]:
    """Map local names to dotted targets, resolving relative imports.

    Unlike :func:`repro.lint.rules.collect_import_aliases`, this resolves
    ``from ..store import x`` against the importing module's package so
    intra-project edges can be built.
    """
    package = module if is_package else module.rsplit(".", 1)[0] if "." in module else ""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level > 0:
                anchor_parts = package.split(".") if package else []
                drop = node.level - 1
                if drop:
                    anchor_parts = anchor_parts[: len(anchor_parts) - drop]
                anchor = ".".join(anchor_parts)
                base = f"{anchor}.{base}" if base else anchor
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}"
    return aliases


def _attr_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ["a", "b", "c"]; None when the root is not a Name."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    parts.reverse()
    return parts


def _describe_call(node: ast.Call, aliases: dict[str, str]) -> dict[str, Any] | None:
    """Symbolic call-site record, or None for unresolvable shapes."""
    func = node.func
    if isinstance(func, ast.Name):
        name = func.id
        if name in aliases:
            return {
                "kind": "dotted",
                "target": aliases[name],
                "line": node.lineno,
                "col": node.col_offset,
            }
        if name in BENIGN_BUILTINS:
            return None
        return {
            "kind": "name",
            "target": name,
            "line": node.lineno,
            "col": node.col_offset,
        }
    chain = _attr_chain(func) if isinstance(func, ast.Attribute) else None
    if chain is None:
        return None
    root = chain[0]
    if root in aliases:
        return {
            "kind": "dotted",
            "target": ".".join([aliases[root], *chain[1:]]),
            "line": node.lineno,
            "col": node.col_offset,
        }
    if root == "self":
        if len(chain) == 2:
            return {
                "kind": "self",
                "target": chain[1],
                "line": node.lineno,
                "col": node.col_offset,
            }
        return {
            "kind": "member",
            "recv": ".".join(chain[1:-1]),
            "target": chain[-1],
            "line": node.lineno,
            "col": node.col_offset,
        }
    return {
        "kind": "attr",
        "recv": ".".join(chain[:-1]),
        "target": chain[-1],
        "line": node.lineno,
        "col": node.col_offset,
    }


# ---------------------------------------------------------------------------
# Store-protocol IR
# ---------------------------------------------------------------------------


def _protocol_call(node: ast.Call) -> tuple[str, str, str | None] | None:
    """(method, receiver, session) when the call is a protocol op."""
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in PROTOCOL_OPS:
        return None
    chain = _attr_chain(func.value)
    recv = ".".join(chain) if chain is not None else "?"
    session: str | None = None
    if func.attr in SESSION_OPS:
        if node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Name):
                session = arg.id
            elif isinstance(arg, ast.Constant):
                session = repr(arg.value)
            else:
                session = "?"
        else:
            session = "?"
    return func.attr, recv, session


def _loads_in(node: ast.AST, names: frozenset[str]) -> list[str]:
    """Names from ``names`` read (Load context) anywhere under ``node``."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Name)
            and isinstance(sub.ctx, ast.Load)
            and sub.id in names
        ):
            found.add(sub.id)
    return sorted(found)


class _IRBuilder:
    """Build the compact protocol IR for one function body."""

    def __init__(self, extract_vars: frozenset[str]) -> None:
        self.extract_vars = extract_vars

    def _flush_stmt(self, stmt: ast.stmt, out: list[Any]) -> None:
        """Emit protocol ops and extract-var uses from a generic statement."""
        assigned: str | None = None
        assigned_call: ast.Call | None = None
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
        ):
            assigned = stmt.targets[0].id
            assigned_call = stmt.value
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            proto = _protocol_call(node)
            if proto is None:
                continue
            method, recv, session = proto
            var = assigned if node is assigned_call else None
            out.append(
                ["op", method, recv, session, node.lineno, node.col_offset, var]
            )
        uses = _loads_in(stmt, self.extract_vars)
        if uses:
            out.append(["use", uses, stmt.lineno])

    def _cond(self, test: ast.expr) -> list[Any]:
        if (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id in self.extract_vars
            and len(test.ops) == 1
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            if isinstance(test.ops[0], ast.Is):
                return ["isnone", test.left.id]
            if isinstance(test.ops[0], ast.IsNot):
                return ["notnone", test.left.id]
        return ["opaque"]

    def _expr_ops(
        self,
        expr: ast.expr | None,
        out: list[Any],
        skip_uses: frozenset[str] = frozenset(),
    ) -> None:
        if expr is None:
            return
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                proto = _protocol_call(node)
                if proto is not None:
                    method, recv, session = proto
                    out.append(
                        ["op", method, recv, session, node.lineno, node.col_offset, None]
                    )
        uses = [
            name
            for name in _loads_in(expr, self.extract_vars)
            if name not in skip_uses
        ]
        if uses:
            out.append(["use", uses, getattr(expr, "lineno", 0)])

    def build(self, stmts: list[ast.stmt]) -> list[Any]:
        ir: list[Any] = []
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, ast.Return):
                vars_used = (
                    _loads_in(stmt.value, self.extract_vars)
                    if stmt.value is not None
                    else []
                )
                ir.append(["return", vars_used])
            elif isinstance(stmt, (ast.Break, ast.Continue)):
                ir.append(["exit"])
            elif isinstance(stmt, ast.Raise):
                self._flush_stmt(stmt, ir)
                ir.append(["exit"])
            elif isinstance(stmt, ast.If):
                cond = self._cond(stmt.test)
                # A None-check reads the var but does not let the copy
                # escape — do not count it as accounting for the extract.
                skip = (
                    frozenset({str(cond[1])})
                    if cond[0] in ("isnone", "notnone")
                    else frozenset()
                )
                self._expr_ops(stmt.test, ir, skip)
                ir.append(
                    [
                        "branch",
                        cond,
                        self.build(stmt.body),
                        self.build(stmt.orelse),
                    ]
                )
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._expr_ops(stmt.iter, ir)
                ir.append(["loop", self.build([*stmt.body, *stmt.orelse])])
            elif isinstance(stmt, ast.While):
                self._expr_ops(stmt.test, ir)
                ir.append(["loop", self.build([*stmt.body, *stmt.orelse])])
            elif isinstance(stmt, ast.Try):
                branch: list[Any] = self.build(stmt.body)
                for handler in stmt.handlers:
                    branch = [
                        ["branch", ["opaque"], branch, self.build(handler.body)]
                    ]
                ir.extend(branch)
                ir.extend(self.build(stmt.finalbody))
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._expr_ops(item.context_expr, ir)
                ir.extend(self.build(stmt.body))
            else:
                self._flush_stmt(stmt, ir)
        return ir


def _build_protocol_ir(body: list[ast.stmt]) -> list[Any] | None:
    """The protocol IR for a function body, or None without protocol ops."""
    has_op = False
    extract_vars: set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                proto = _protocol_call(node)
                if proto is not None:
                    has_op = True
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
        ):
            proto = _protocol_call(stmt.value)
            if proto is not None and proto[0] == "extract":
                extract_vars.add(stmt.targets[0].id)
    # Nested assigns (inside ifs/loops) also bind extract vars.
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                proto = _protocol_call(node.value)
                if proto is not None and proto[0] == "extract":
                    extract_vars.add(node.targets[0].id)
    if not has_op:
        return None
    return _IRBuilder(frozenset(extract_vars)).build(body)


# ---------------------------------------------------------------------------
# Epoch-guard analysis
# ---------------------------------------------------------------------------


def _class_slots(node: ast.ClassDef) -> list[str]:
    for stmt in node.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "__slots__"
            and isinstance(stmt.value, (ast.Tuple, ast.List))
        ):
            return [
                el.value
                for el in stmt.value.elts
                if isinstance(el, ast.Constant) and isinstance(el.value, str)
            ]
    return []


class _EpochChecker:
    """Verify one continuation ``__call__`` guards on its stored epoch.

    The contract (DESIGN.md §13): a continuation that stores the crash
    epoch it was scheduled under must compare it against the engine's
    live epoch before any engine/store mutation in its fire path, either
    as an enclosing ``if <engine>._epoch == self.epoch:`` or an early
    ``if <engine>._epoch != self.epoch: return``.
    """

    def __init__(self, fn: ast.FunctionDef, benign_calls: frozenset[str]) -> None:
        self.fn = fn
        self.benign_calls = BENIGN_BUILTINS | benign_calls
        #: Local aliases of guarded members: name -> "engine"/"store"/"epoch".
        self.aliases: dict[str, str] = {}
        self.violations: list[dict[str, Any]] = []
        self.guard_seen = False

    def _member_role(self, node: ast.expr) -> str | None:
        """'engine'/'store' when the expression denotes that member."""
        chain = _attr_chain(node)
        if chain is None:
            return None
        root = chain[0]
        if root == "self" and len(chain) >= 2 and chain[1] in ("engine", "store"):
            return chain[1]
        if root in self.aliases and self.aliases[root] in ("engine", "store"):
            return self.aliases[root]
        return None

    def _is_my_epoch(self, node: ast.expr) -> bool:
        chain = _attr_chain(node)
        if chain == ["self", "epoch"]:
            return True
        return (
            isinstance(node, ast.Name) and self.aliases.get(node.id) == "epoch"
        )

    def _is_engine_epoch(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Attribute) or node.attr not in (
            "_epoch",
            "epoch",
        ):
            return False
        return self._member_role(node.value) is not None

    def _guard_kind(self, test: ast.expr) -> str | None:
        """'eq' / 'neq' when the test compares stored vs live epoch."""
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and len(test.comparators) == 1
        ):
            return None
        left, right = test.left, test.comparators[0]
        pair = (
            (self._is_my_epoch(left) and self._is_engine_epoch(right))
            or (self._is_my_epoch(right) and self._is_engine_epoch(left))
        )
        if not pair:
            return None
        if isinstance(test.ops[0], ast.Eq):
            return "eq"
        if isinstance(test.ops[0], ast.NotEq):
            return "neq"
        return None

    def _mutations_in(self, node: ast.AST) -> list[tuple[int, int, str]]:
        """Engine/store mutations inside an expression or statement."""
        hits: list[tuple[int, int, str]] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                if isinstance(func, ast.Attribute):
                    role = self._member_role(func.value)
                    if role is not None:
                        hits.append(
                            (sub.lineno, sub.col_offset, f"{role}.{func.attr}()")
                        )
                    continue
                if isinstance(func, ast.Name):
                    if func.id in self.benign_calls:
                        continue
                    # A call through any non-benign name is treated as a
                    # mutation: helpers can launder engine access.
                    hits.append((sub.lineno, sub.col_offset, f"{func.id}()"))
            elif isinstance(sub, ast.Attribute) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                role = self._member_role(sub.value)
                if role is not None:
                    hits.append((sub.lineno, sub.col_offset, f"{role}.{sub.attr}"))
        return hits

    def _terminates(self, body: list[ast.stmt]) -> bool:
        return bool(body) and isinstance(body[-1], (ast.Return, ast.Raise))

    def _record(self, hits: list[tuple[int, int, str]]) -> None:
        for line, col, what in hits:
            self.violations.append(
                {
                    "line": line,
                    "col": col,
                    "what": what,
                }
            )

    def _walk(self, stmts: list[ast.stmt], guarded: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                if (
                    len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                ):
                    chain = _attr_chain(stmt.value)
                    if chain is not None and chain[0] == "self" and len(chain) == 2:
                        if chain[1] in ("engine", "store", "epoch"):
                            self.aliases[stmt.targets[0].id] = chain[1]
                            continue
                if not guarded:
                    self._record(self._mutations_in(stmt))
                continue
            if isinstance(stmt, ast.Assert):
                continue
            if isinstance(stmt, ast.If):
                kind = self._guard_kind(stmt.test)
                if kind == "eq":
                    self.guard_seen = True
                    self._walk(stmt.body, True)
                    self._walk(stmt.orelse, guarded)
                    continue
                if kind == "neq" and self._terminates(stmt.body):
                    self.guard_seen = True
                    self._walk(stmt.body, guarded)
                    self._walk(stmt.orelse, True)
                    guarded = True
                    continue
                if not guarded:
                    self._record(self._mutations_in(stmt.test))
                self._walk(stmt.body, guarded)
                self._walk(stmt.orelse, guarded)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                if not guarded:
                    iter_expr = (
                        stmt.iter
                        if isinstance(stmt, (ast.For, ast.AsyncFor))
                        else stmt.test
                    )
                    self._record(self._mutations_in(iter_expr))
                self._walk([*stmt.body, *stmt.orelse], guarded)
                continue
            if isinstance(stmt, ast.Try):
                self._walk(stmt.body, guarded)
                for handler in stmt.handlers:
                    self._walk(handler.body, guarded)
                self._walk([*stmt.orelse, *stmt.finalbody], guarded)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._walk(stmt.body, guarded)
                continue
            if not guarded:
                self._record(self._mutations_in(stmt))

    def check(self) -> dict[str, Any]:
        self._walk(self.fn.body, False)
        return {
            "guard_seen": self.guard_seen,
            "violations": self.violations,
        }


# ---------------------------------------------------------------------------
# Module summary
# ---------------------------------------------------------------------------


def _function_spans(
    tree: ast.Module,
) -> list[tuple[int, int, str]]:
    """(start, end, qual-suffix) for every def, innermost resolvable last."""
    spans: list[tuple[int, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                end = child.end_lineno if child.end_lineno is not None else child.lineno
                spans.append((child.lineno, end, qual))
                visit(child, f"{qual}.<locals>.")

    visit(tree, "")
    # Sort outermost-first so later (inner) entries win lookups.
    spans.sort(key=lambda s: (s[0], -s[1]))
    return spans


def _owner_of(line: int, spans: list[tuple[int, int, str]]) -> str:
    owner = "<module>"
    for start, end, qual in spans:
        if start <= line <= end:
            owner = qual
    return owner


def summarize_module(
    source: str, path: str, module: str, is_package: bool, config: LintConfig
) -> dict[str, Any]:
    """Extract the flow summary for one module (pure; cacheable)."""
    summary: dict[str, Any] = {
        "module": module,
        "path": path,
        "error": None,
        "functions": {},
        "classes": {},
        "allow": [],
        "spans": [],
        "limits": {"unresolved_calls": 0},
    }
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        summary["error"] = {
            "line": exc.lineno if exc.lineno is not None else 1,
            "col": exc.offset if exc.offset is not None else 0,
            "msg": str(exc.msg),
        }
        return summary

    suppressions = Suppressions(path, source, tree)
    summary["allow"] = [
        [line, sorted(rules)]
        for line, rules in sorted(suppressions.by_line.items())
    ]
    summary["spans"] = [
        [line, span[0], span[1]]
        for line, span in sorted(statement_spans(tree).items())
    ]

    aliases = collect_aliases(tree, module, is_package)
    fn_spans = _function_spans(tree)

    benign_raw = config.options_for("epoch-guard").get("benign-calls", [])
    benign_calls = frozenset(
        str(v) for v in benign_raw if isinstance(v, str)
    )

    functions: dict[str, dict[str, Any]] = {}

    def add_function(
        qual: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef | None,
        body: list[ast.stmt],
        cls: str | None,
        line: int,
        col: int,
    ) -> None:
        calls: list[dict[str, Any]] = []
        own_nodes: list[ast.stmt] = body
        for stmt in own_nodes:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    described = _describe_call(sub, aliases)
                    if described is not None:
                        calls.append(described)
        functions[qual] = {
            "name": qual.rsplit(".", 1)[-1],
            "cls": cls,
            "line": line,
            "col": col,
            "calls": calls,
            "taints": [],
            "proto": _build_protocol_ir(own_nodes),
        }

    # Module-level code (everything not inside a def/class def body).
    module_level: list[ast.stmt] = [
        stmt
        for stmt in tree.body
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    add_function("<module>", None, module_level, None, 1, 0)

    def visit_defs(node: ast.AST, prefix: str, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit_defs(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                own_body = [
                    stmt
                    for stmt in child.body
                ]
                add_function(
                    qual, child, own_body, cls, child.lineno, child.col_offset
                )
                visit_defs(child, f"{qual}.<locals>.", None)
                # Closure creation approximates a call edge to the inner
                # function (it typically escapes to be invoked later).
                for sub in child.body:
                    for inner in ast.walk(sub):
                        if (
                            isinstance(
                                inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                            )
                            and inner is not child
                        ):
                            functions[qual]["calls"].append(
                                {
                                    "kind": "local",
                                    "target": f"{qual}.<locals>.{inner.name}",
                                    "line": inner.lineno,
                                    "col": inner.col_offset,
                                }
                            )
                            break

    visit_defs(tree, "", None)

    # Direct taint sources, attributed to their enclosing function.  A
    # function's own body excludes nested defs, but the span attribution
    # assigns each finding to the innermost def containing its line,
    # which is exactly the function whose call sites should be flagged.
    for rule in _TAINT_RULES:
        for finding in rule.check(tree, module, config):
            owner = _owner_of(finding.line, fn_spans)
            entry = functions.get(owner)
            if entry is None:
                continue
            entry["taints"].append(
                {
                    "rule": TAINT_FLOW_RULE[rule.name],
                    "src_rule": rule.name,
                    "line": finding.line,
                    "col": finding.col,
                    "detail": finding.message.split(";")[0],
                    "suppressed": suppressions.allows(finding.line, rule.name),
                }
            )

    summary["functions"] = functions

    # Classes: slots, bases, epoch-guard verdicts.
    classes: dict[str, dict[str, Any]] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = sorted(
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        slots = _class_slots(node)
        bases: list[str] = []
        for base in node.bases:
            chain = _attr_chain(base)
            if chain is not None:
                root = chain[0]
                if root in aliases:
                    bases.append(".".join([aliases[root], *chain[1:]]))
                else:
                    bases.append(".".join(chain))
        call_def = next(
            (
                stmt
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__call__"
            ),
            None,
        )
        epoch: dict[str, Any] | None = None
        stores_epoch = "epoch" in slots
        if call_def is not None and stores_epoch:
            epoch = _EpochChecker(call_def, benign_calls).check()
        classes[node.name] = {
            "line": node.lineno,
            "col": node.col_offset,
            "bases": bases,
            "methods": methods,
            "slots": slots,
            "stores_epoch": stores_epoch,
            "defines_protocol": len(PROTOCOL_OPS & set(methods)) >= 3,
            "epoch": epoch,
        }
    summary["classes"] = classes
    return summary


# ---------------------------------------------------------------------------
# Project index
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ProjectIndex:
    """All module summaries plus the derived project symbol tables."""

    summaries: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: dotted symbol -> function id "module:qual-suffix"
    symbols: dict[str, str] = field(default_factory=dict)
    #: method name -> sorted list of function ids defining it (CHA fallback)
    methods_by_name: dict[str, list[str]] = field(default_factory=dict)
    #: class dotted name -> (module, class summary)
    classes: dict[str, tuple[str, dict[str, Any]]] = field(default_factory=dict)
    #: per-path suppression matchers rebuilt from summaries
    suppressions: dict[str, SpanAllows] = field(default_factory=dict)
    limits: dict[str, int] = field(default_factory=dict)

    def function(self, fid: str) -> dict[str, Any] | None:
        module, _, suffix = fid.partition(":")
        summary = self.summaries.get(module)
        if summary is None:
            return None
        fn: dict[str, Any] | None = summary["functions"].get(suffix)
        return fn

    def path_of(self, fid: str) -> str:
        module, _, _ = fid.partition(":")
        path: str = self.summaries[module]["path"]
        return path

    def matcher_for(self, fid_or_module: str) -> SpanAllows | None:
        module = fid_or_module.partition(":")[0]
        summary = self.summaries.get(module)
        if summary is None:
            return None
        return self.suppressions.get(summary["path"])


def matcher_from_summary(summary: dict[str, Any]) -> SpanAllows:
    """Rebuild a suppression matcher from a (possibly cached) summary."""
    by_line = {
        int(line): frozenset(rules) for line, rules in summary["allow"]
    }
    spans = {
        int(line): (int(start), int(end))
        for line, start, end in summary["spans"]
    }
    return SpanAllows(by_line, spans)


def build_index(
    summaries: dict[str, dict[str, Any]]
) -> ProjectIndex:
    """Derive the project-wide symbol tables from per-module summaries."""
    index = ProjectIndex(summaries=summaries)
    limits: dict[str, int] = {"parse_errors": 0, "unresolved_calls": 0}
    for module in sorted(summaries):
        summary = summaries[module]
        if summary["error"] is not None:
            limits["parse_errors"] += 1
            continue
        index.suppressions[summary["path"]] = matcher_from_summary(summary)
        for suffix in sorted(summary["functions"]):
            fid = f"{module}:{suffix}"
            if "." not in suffix and suffix != "<module>":
                index.symbols[f"{module}.{suffix}"] = fid
            elif suffix.count(".") == 1 and "<locals>" not in suffix:
                cls, meth = suffix.split(".")
                index.symbols[f"{module}.{cls}.{meth}"] = fid
                index.methods_by_name.setdefault(meth, []).append(fid)
        for cls_name in sorted(summary["classes"]):
            index.classes[f"{module}.{cls_name}"] = (
                module,
                summary["classes"][cls_name],
            )
    # Re-exported names: repro.engine.ServingEngine.run etc. resolve via
    # the defining module only; package __init__ re-exports are resolved
    # by the alias collector at the import site.
    for name in index.methods_by_name:
        index.methods_by_name[name].sort()
    index.limits = limits
    return index


def load_project(
    paths: Iterable[Path],
    config: LintConfig,
    cached_summaries: dict[str, dict[str, Any]] | None = None,
    cache_lookup: Any | None = None,
) -> ProjectIndex:
    """Summarize every module under ``paths`` and build the index.

    ``cache_lookup`` is an optional callable ``(path, source) ->
    summary | None`` consulted before extraction (see
    :mod:`repro.lint.flow.cache`).
    """
    summaries: dict[str, dict[str, Any]] = (
        dict(cached_summaries) if cached_summaries else {}
    )
    for file_path in iter_python_files(paths):
        source = read_python_source(file_path)
        module = module_name_for(file_path)
        summary: dict[str, Any] | None = None
        if cache_lookup is not None:
            summary = cache_lookup(file_path, source)
        if summary is None:
            summary = summarize_module(
                source,
                str(file_path),
                module,
                is_package=file_path.name == "__init__.py",
                config=config,
            )
        summaries[module] = summary
    return build_index(summaries)
