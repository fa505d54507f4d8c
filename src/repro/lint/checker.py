"""File walking, suppression handling and the public lint entry points."""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .config import LintConfig, load_config
from .diagnostics import Diagnostic
from .rules import ALL_RULE_NAMES, RULES

#: Inline suppression: ``# repro-lint: allow=<rule>[,<rule>...] (<why>)``.
#: The parenthesised justification is mandatory — a suppression that cannot
#: say why it is safe is itself a finding (``bare-allow``).
_ALLOW_RE = re.compile(
    r"#\s*repro-lint:\s*allow=(?P<rules>[a-z0-9,-]+)"
    r"(?:\s*\((?P<why>[^)]*)\))?"
)

BARE_ALLOW = "bare-allow"
UNUSED_SUPPRESSION = "unused-suppression"


def statement_spans(tree: ast.Module) -> dict[int, tuple[int, int]]:
    """Map each source line to the line span of its enclosing statement.

    Simple statements span all their physical lines; compound statements
    (defs, classes, ifs, loops) contribute only their *header* lines —
    decorators through the line before the first body statement — so a
    suppression inside a function body never leaks onto the whole def.
    The map lets a suppression comment anywhere on a multi-line statement
    (or on a decorator line) cover findings anchored at the statement's
    first line, and vice versa.
    """
    spans: dict[int, tuple[int, int]] = {}

    def claim(start: int, end: int) -> None:
        if end < start:
            end = start
        for line in range(start, end + 1):
            spans[line] = (start, end)

    # Compound headers first; simple statements then override any overlap
    # (e.g. a same-line ``if x: y = 1`` body) with their tighter span.
    simple: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            start = min(start, *(d.lineno for d in decorators))
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            claim(start, max(start, body[0].lineno - 1))
        else:
            end = node.end_lineno if node.end_lineno is not None else start
            simple.append((start, end))
    for start, end in simple:
        claim(start, end)
    return spans


class Suppressions:
    """Per-file suppression comments: parse, validate, match.

    A comment anywhere on a statement's span covers findings anchored on
    that statement.  ``used`` records which comments matched so the
    ``--unused-suppressions`` audit can report the ones that never fire.
    """

    def __init__(
        self, path: str, source: str, tree: ast.Module | None = None
    ) -> None:
        self.path = path
        self.by_line: dict[int, frozenset[str]] = {}
        self.bare: list[Diagnostic] = []
        self.unknown: list[Diagnostic] = []
        self.used: set[tuple[int, str]] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _ALLOW_RE.search(text)
            if match is None:
                continue
            rules = frozenset(
                name for name in match.group("rules").split(",") if name
            )
            why = (match.group("why") or "").strip()
            if not why:
                self.bare.append(
                    Diagnostic(
                        path,
                        lineno,
                        match.start(),
                        BARE_ALLOW,
                        "suppression without a justification; write "
                        "`# repro-lint: allow=<rule> (<why this is safe>)`",
                    )
                )
                continue
            for name in sorted(rules):
                if name not in ALL_RULE_NAMES:
                    self.unknown.append(
                        Diagnostic(
                            path,
                            lineno,
                            match.start(),
                            BARE_ALLOW,
                            f"suppression names unknown rule '{name}'",
                        )
                    )
            self.by_line[lineno] = rules
        self.spans = statement_spans(tree) if tree is not None else {}

    def _candidates(self, line: int) -> Iterator[int]:
        span = self.spans.get(line)
        if span is None:
            yield line
            return
        yield from range(span[0], span[1] + 1)

    def allows(self, line: int, rule: str) -> bool:
        """Whether a finding of ``rule`` anchored at ``line`` is allowed."""
        for candidate in self._candidates(line):
            allowed = self.by_line.get(candidate)
            if allowed is not None and rule in allowed:
                self.used.add((candidate, rule))
                return True
        return False

    def unused(self) -> list[Diagnostic]:
        """Suppression comments whose rule never fired on their statement."""
        out: list[Diagnostic] = []
        for line, rules in sorted(self.by_line.items()):
            for rule in sorted(rules):
                if rule not in ALL_RULE_NAMES:
                    continue  # already reported as a bare-allow finding
                if (line, rule) not in self.used:
                    out.append(
                        Diagnostic(
                            self.path,
                            line,
                            0,
                            UNUSED_SUPPRESSION,
                            f"suppression for '{rule}' never fires on this "
                            "statement; remove the dead allow comment",
                        )
                    )
        return out


def lint_module(
    source: str,
    path: str = "<string>",
    module: str = "",
    config: LintConfig | None = None,
) -> tuple[list[Diagnostic], Suppressions | None]:
    """Lint one module; return (diagnostics, suppression state).

    The suppression state is ``None`` when the module failed to parse.
    """
    cfg = config if config is not None else LintConfig()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        line = exc.lineno if exc.lineno is not None else 1
        col = exc.offset if exc.offset is not None else 0
        return [Diagnostic(path, line, col, "syntax-error", str(exc.msg))], None
    suppressions = Suppressions(path, source, tree)
    diagnostics: list[Diagnostic] = [*suppressions.bare, *suppressions.unknown]
    for rule in RULES:
        if rule.name in cfg.disable:
            continue
        if not rule.applies_to(module, cfg):
            continue
        for finding in rule.check(tree, module, cfg):
            if suppressions.allows(finding.line, rule.name):
                continue
            diagnostics.append(
                Diagnostic(path, finding.line, finding.col, rule.name, finding.message)
            )
    diagnostics.sort(key=Diagnostic.sort_key)
    return diagnostics, suppressions


def lint_source(
    source: str,
    path: str = "<string>",
    module: str = "",
    config: LintConfig | None = None,
) -> list[Diagnostic]:
    """Lint one module given as text.

    ``module`` is the dotted module name used for scope decisions; tests
    pass it explicitly to pull fixture snippets into (or out of) the
    hot-path/cluster scopes.
    """
    diagnostics, _ = lint_module(source, path=path, module=module, config=config)
    return diagnostics


def module_name_for(path: Path) -> str:
    """Infer the dotted module name from a file path.

    Anchors on the last ``repro`` path component so both installed layouts
    and the in-repo ``src/repro`` tree resolve to ``repro.<...>`` names.
    """
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        mod_parts = parts[idx:]
    else:
        mod_parts = [parts[-1]]
    if mod_parts and mod_parts[-1] == "__init__":
        mod_parts = mod_parts[:-1]
    return ".".join(mod_parts) if mod_parts else path.stem


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield every .py file under ``paths`` in sorted order."""
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def read_python_source(path: Path) -> str:
    """Read a module's text, tolerating a UTF-8 byte-order mark.

    ``ast.parse`` rejects a leading U+FEFF in str input even though the
    file is a valid Python source; decoding as utf-8-sig strips it.
    """
    return path.read_text(encoding="utf-8-sig")


def lint_paths(
    paths: Iterable[Path],
    config: LintConfig | None = None,
    *,
    suppressions_out: dict[str, Suppressions] | None = None,
) -> list[Diagnostic]:
    """Lint files/trees; loads ``[tool.repro-lint]`` when no config given.

    ``suppressions_out``, when given, collects each file's suppression
    state (keyed by path) for the ``--unused-suppressions`` audit.
    """
    path_list = [Path(p) for p in paths]
    cfg = config
    if cfg is None:
        start = path_list[0] if path_list else Path.cwd()
        cfg = load_config(start)
    diagnostics: list[Diagnostic] = []
    for file_path in iter_python_files(path_list):
        source = read_python_source(file_path)
        file_diags, suppressions = lint_module(
            source,
            path=str(file_path),
            module=module_name_for(file_path),
            config=cfg,
        )
        diagnostics.extend(file_diags)
        if suppressions_out is not None and suppressions is not None:
            suppressions_out[str(file_path)] = suppressions
    diagnostics.sort(key=Diagnostic.sort_key)
    return diagnostics


def unused_suppression_report(
    suppressions: Mapping[str, Suppressions],
) -> list[Diagnostic]:
    """Every allow comment, across files, whose rule never fired."""
    out = [d for sup in suppressions.values() for d in sup.unused()]
    out.sort(key=Diagnostic.sort_key)
    return out


def run_lint(argv: list[str] | None = None) -> int:
    """CLI entry: lint the given paths, print a report, return exit status."""
    import argparse

    from .diagnostics import format_report

    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="simulator-specific static analysis over src/repro",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--unused-suppressions",
        action="store_true",
        help="audit mode: report `# repro-lint: allow=` comments whose "
        "rule never fires on their statement",
    )
    args = parser.parse_args(argv)
    paths = [Path(p) for p in args.paths]
    config = load_config(paths[0] if paths else Path.cwd())

    if args.unused_suppressions:
        per_file: dict[str, Suppressions] = {}
        lint_paths(paths, config, suppressions_out=per_file)
        dead = unused_suppression_report(per_file)
        print(format_report(dead))
        return 1 if dead else 0

    diagnostics = lint_paths(paths, config)
    if args.format == "json":
        from .output import findings_json

        print(findings_json(diagnostics))
    elif args.format == "sarif":
        from .output import findings_sarif

        print(findings_sarif(diagnostics))
    else:
        print(format_report(diagnostics))
    return 1 if diagnostics else 0
