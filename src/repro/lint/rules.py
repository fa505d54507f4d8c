"""The rule catalogue.

Each rule is an AST pass with a stable kebab-case name and a REPxxx code:

======  ==================  ====================================================
code    name                what it enforces
======  ==================  ====================================================
REP101  wall-clock          no wall-clock reads (``time.time`` & friends)
REP102  unseeded-random     no unseeded or global-state randomness
REP103  hash-order          no builtin ``hash()`` (salted per process)
REP104  set-order           no iteration over set displays/constructors
REP201  float-eq            no ``==``/``!=`` against floats on hot paths
REP301  slots-required      hot-path dataclasses must declare ``slots=True``
REP501  untyped-def         every def fully annotated (params + return)
REP401  cluster-isolation   cluster code uses only the store migration API
======  ==================  ====================================================

Rules are pure: they take a parsed module plus its dotted name and yield
``Finding`` tuples; file IO, suppression handling and reporting live in
:mod:`repro.lint.checker`.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from typing import ClassVar, Iterator, NamedTuple

from .config import LintConfig


class Finding(NamedTuple):
    """A raw rule hit before suppression filtering."""

    line: int
    col: int
    message: str


def _at(node: ast.AST, message: str) -> Finding:
    return Finding(node.lineno, node.col_offset, message)


def collect_import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted module/object paths they bind.

    ``import numpy as np`` binds ``np -> numpy``; ``from time import
    perf_counter as pc`` binds ``pc -> time.perf_counter``.  Function-level
    imports are included too — an alias map that is slightly over-broad is
    fine for ban-list rules.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def resolve_dotted(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Resolve an attribute chain to a dotted path, honouring imports.

    Returns e.g. ``"time.perf_counter"`` for ``pc()`` after ``from time
    import perf_counter as pc``, or None when the root is not an imported
    name (a local variable, a call result, ...).
    """
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    root = aliases.get(cur.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


class Rule(ABC):
    """Base class for lint rules."""

    name: ClassVar[str]
    code: ClassVar[str]
    summary: ClassVar[str]

    def applies_to(self, module: str, config: LintConfig) -> bool:
        """Whether this rule runs against ``module`` at all."""
        return True

    @abstractmethod
    def check(
        self, tree: ast.Module, module: str, config: LintConfig
    ) -> Iterator[Finding]:
        """Yield findings for one parsed module."""


# ---------------------------------------------------------------------------
# Determinism rules (REP1xx)
# ---------------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    """Simulated time comes from ``SimClock``; wall clocks leak host state
    into results and break replayability."""

    name = "wall-clock"
    code = "REP101"
    summary = "wall-clock read in simulator code"

    def check(
        self, tree: ast.Module, module: str, config: LintConfig
    ) -> Iterator[Finding]:
        aliases = collect_import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, aliases)
            if dotted in _WALL_CLOCK_CALLS:
                yield _at(
                    node,
                    f"wall-clock call {dotted}(); use the SimClock "
                    "(sim.now) so runs stay replayable",
                )


# Module-level functions drawing from (or reseeding) hidden global RNG state.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "paretovariate",
        "vonmisesvariate",
        "triangular",
        "getrandbits",
        "seed",
    }
)

_NUMPY_GLOBAL_RANDOM_FNS = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "lognormal",
        "exponential",
        "poisson",
        "seed",
    }
)

_ALWAYS_NONDETERMINISTIC_CALLS = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbelow",
        "secrets.choice",
    }
)

# Constructors that are fine *with* an explicit seed but entropy-seeded
# without one.
_SEEDABLE_CONSTRUCTORS = frozenset({"random.Random", "numpy.random.default_rng"})


class UnseededRandomRule(Rule):
    """All randomness must flow from an explicit seed: ``random.Random(seed)``
    or ``numpy.random.default_rng(seed)`` (see ``repro.runner.seeds``)."""

    name = "unseeded-random"
    code = "REP102"
    summary = "unseeded or global-state randomness"

    def check(
        self, tree: ast.Module, module: str, config: LintConfig
    ) -> Iterator[Finding]:
        aliases = collect_import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, aliases)
            if dotted is None:
                continue
            if dotted in _ALWAYS_NONDETERMINISTIC_CALLS:
                yield _at(
                    node,
                    f"{dotted}() is entropy-backed; derive values from the "
                    "run seed instead (repro.runner.seeds.seed_for)",
                )
            elif dotted in _SEEDABLE_CONSTRUCTORS and not node.args:
                seed_kw = any(k.arg in ("seed", "x") for k in node.keywords)
                if not seed_kw:
                    yield _at(
                        node,
                        f"{dotted}() without a seed is entropy-seeded; pass "
                        "an explicit seed",
                    )
            elif (
                dotted.startswith("random.")
                and dotted.removeprefix("random.") in _GLOBAL_RANDOM_FNS
            ):
                yield _at(
                    node,
                    f"{dotted}() draws from the process-global RNG; use a "
                    "seeded random.Random instance",
                )
            elif (
                dotted.startswith("numpy.random.")
                and dotted.removeprefix("numpy.random.")
                in _NUMPY_GLOBAL_RANDOM_FNS
            ):
                yield _at(
                    node,
                    f"{dotted}() uses numpy's global RNG; use a seeded "
                    "numpy.random.default_rng(seed) Generator",
                )


class HashOrderRule(Rule):
    """``hash()`` of str/bytes is salted per process (PYTHONHASHSEED), so any
    hash-derived value or ordering differs between runs."""

    name = "hash-order"
    code = "REP103"
    summary = "builtin hash() is salted per process"

    def check(
        self, tree: ast.Module, module: str, config: LintConfig
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield _at(
                    node,
                    "builtin hash() is salted per process; use a stable "
                    "digest (hashlib, cf. repro.runner.seeds.seed_for)",
                )
                continue
            if isinstance(node, ast.keyword) and node.arg == "key":
                if isinstance(node.value, ast.Name) and node.value.id == "hash":
                    yield _at(
                        node.value,
                        "sorting by builtin hash() is salted per process; "
                        "use a stable key",
                    )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        # set algebra: `a & b`, `a - b` — only a set hint when an operand
        # is itself syntactically a set.
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class SetOrderRule(Rule):
    """Iterating a set yields hash order, which is salted per process; any
    ordered state derived from it diverges between runs.  Wrap in
    ``sorted(...)`` or keep it as membership-only."""

    name = "set-order"
    code = "REP104"
    summary = "iteration over a set feeds ordered state"

    def check(
        self, tree: ast.Module, module: str, config: LintConfig
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple", "enumerate", "iter", "next")
                and node.args
            ):
                iters.append(node.args[0])
            for it in iters:
                if _is_set_expr(it):
                    yield _at(
                        it,
                        "iterating a set yields salted hash order; wrap in "
                        "sorted(...) before it feeds ordered state",
                    )


# ---------------------------------------------------------------------------
# Float safety (REP2xx)
# ---------------------------------------------------------------------------


def _is_float_operand(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_float_operand(node.operand)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        # True division always produces a float.
        return True
    return False


class FloatEqRule(Rule):
    """Simulated times/bytes-per-second accumulate rounding error; exact
    equality on floats encodes an assumption one refactor away from false.
    Compare with a tolerance or restructure around the zero/nonzero case."""

    name = "float-eq"
    code = "REP201"
    summary = "exact float equality on a hot path"

    def applies_to(self, module: str, config: LintConfig) -> bool:
        return config.in_scope(module, config.hot_path_packages)

    def check(
        self, tree: ast.Module, module: str, config: LintConfig
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for left, op, right in zip(
                operands[:-1], node.ops, operands[1:], strict=True
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_operand(left) or _is_float_operand(right):
                    yield _at(
                        node,
                        "exact ==/!= against a float; use math.isclose, an "
                        "explicit tolerance, or a </<= restructure",
                    )
                    break


# ---------------------------------------------------------------------------
# Hot-path hygiene (REP3xx)
# ---------------------------------------------------------------------------


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    """Return the @dataclass decorator expression, if present."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return dec
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return dec
    return None


class SlotsRule(Rule):
    """Hot-path dataclasses are allocated per event/turn; ``slots=True``
    removes the per-instance ``__dict__`` (smaller, faster attribute access)
    and turns attribute typos into hard errors."""

    name = "slots-required"
    code = "REP301"
    summary = "hot-path dataclass without slots=True"

    def applies_to(self, module: str, config: LintConfig) -> bool:
        return config.in_scope(module, config.slots_packages)

    def check(
        self, tree: ast.Module, module: str, config: LintConfig
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            dec = _dataclass_decorator(node)
            if dec is None:
                continue
            has_slots = isinstance(dec, ast.Call) and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in dec.keywords
            )
            if not has_slots:
                yield _at(
                    node,
                    f"dataclass {node.name} in a hot-path package must "
                    "declare slots=True",
                )


# ---------------------------------------------------------------------------
# Isolation (REP4xx)
# ---------------------------------------------------------------------------


class ClusterIsolationRule(Rule):
    """Cluster code coordinates replicas; it must not reach into a replica's
    AttentionStore internals.  The exactly-one-copy invariant (paper §3.3)
    is only auditable if every cross-replica KV movement goes through the
    migration API."""

    name = "cluster-isolation"
    code = "REP401"
    summary = "cluster code bypasses the store migration API"

    def applies_to(self, module: str, config: LintConfig) -> bool:
        return config.in_scope(module, config.cluster_packages)

    def check(
        self, tree: ast.Module, module: str, config: LintConfig
    ) -> Iterator[Finding]:
        allowed = config.store_migration_api
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            if isinstance(value, ast.Attribute) and value.attr == "store":
                if node.attr not in allowed:
                    api = ", ".join(sorted(allowed))
                    yield _at(
                        node,
                        f"cluster code touches .store.{node.attr}; a "
                        f"replica's store may only be reached via the "
                        f"migration API ({api})",
                    )


# ---------------------------------------------------------------------------
# Typing (REP5xx)
# ---------------------------------------------------------------------------


class UntypedDefRule(Rule):
    """Local, dependency-free stand-in for ``mypy --strict``'s
    ``disallow_untyped_defs``: every function must annotate its return type
    and every parameter (``self``/``cls`` excepted)."""

    name = "untyped-def"
    code = "REP501"
    summary = "function missing parameter or return annotations"

    def check(
        self, tree: ast.Module, module: str, config: LintConfig
    ) -> Iterator[Finding]:
        # Track which defs are methods (direct children of a class body) so
        # the first self/cls parameter can go unannotated.
        method_defs: set[ast.AST] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                method_defs.update(
                    stmt
                    for stmt in node.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            missing: list[str] = []
            if node.returns is None:
                missing.append("return")
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            skip_first = (
                node in method_defs
                and positional
                and positional[0].arg in ("self", "cls")
                and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list
                )
            )
            params = positional[1:] if skip_first else positional
            params = [*params, *args.kwonlyargs]
            if args.vararg is not None:
                params.append(args.vararg)
            if args.kwarg is not None:
                params.append(args.kwarg)
            missing.extend(
                f"parameter '{p.arg}'" for p in params if p.annotation is None
            )
            if missing:
                yield Finding(
                    node.lineno,
                    node.col_offset,
                    f"def {node.name} missing annotations: "
                    + ", ".join(missing),
                )


#: All rules, in reporting order.
RULES: tuple[Rule, ...] = (
    WallClockRule(),
    UnseededRandomRule(),
    HashOrderRule(),
    SetOrderRule(),
    FloatEqRule(),
    SlotsRule(),
    ClusterIsolationRule(),
    UntypedDefRule(),
)

#: Every rule name a config or suppression may legally reference.
ALL_RULE_NAMES: frozenset[str] = frozenset(rule.name for rule in RULES)
