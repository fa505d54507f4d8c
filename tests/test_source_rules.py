"""Source rules that no runtime check stands in for.

The golden replays catch wall clocks, global RNGs and salted ``hash()``
because those change a run between processes.  Two hazards do not: a set
of ints or of objects iterates in the same order in every process, and a
float compared with ``==`` may hold on every trace we replay until a
refactor rounds differently.  These tests forbid both in source, plus a
runtime check that hot-path dataclasses carry ``__slots__``.
"""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

#: Packages whose code runs once per simulated event or turn.
HOT_PATH_PACKAGES = ("sim", "engine", "store", "cluster", "hardware")
#: Packages whose dataclasses are allocated per event or turn.
SLOTS_PACKAGES = ("sim", "engine", "store", "cluster")


def _is_set(node):
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset")
    return isinstance(node, ast.BinOp) and (_is_set(node.left) or _is_set(node.right))


def set_iterations(tree):
    """Lines that iterate a set display, comprehension or constructor."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterated = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iterated = [gen.iter for gen in node.generators]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate", "iter", "next")
            and node.args
        ):
            iterated = node.args[:1]
        else:
            continue
        yield from (it.lineno for it in iterated if _is_set(it))


def _is_float(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_float(node.operand)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)


def float_equalities(tree):
    """Lines that compare a float literal, ``float()`` or a quotient
    with ``==`` or ``!=``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(
                isinstance(op, (ast.Eq, ast.NotEq)) and (_is_float(a) or _is_float(b))
                for op, a, b in zip(node.ops, operands, operands[1:])
            ):
                yield node.lineno


def findings(check, packages=None):
    roots = [SRC / p for p in packages] if packages else [SRC]
    return [
        f"{path.relative_to(SRC.parent)}:{line}"
        for root in roots
        for path in sorted(root.rglob("*.py"))
        for line in check(ast.parse(path.read_text(), str(path)))
    ]


@pytest.mark.parametrize(
    "check, bad, good",
    [
        (set_iterations, "for x in set(ids): pass", "for x in sorted(set(ids)): pass"),
        (set_iterations, "out = [x for x in {1, 2} | rest]", "ok = 1 in {1, 2}"),
        (float_equalities, "if t == 0.0: pass", "if t <= 0.0: pass"),
        (float_equalities, "same = a / b != c", "same = a // b != c"),
    ],
)
def test_checks_flag_the_pattern(check, bad, good):
    assert list(check(ast.parse(bad))) == [1]
    assert list(check(ast.parse(good))) == []


def test_no_set_iteration():
    """Iterating a set of ints or objects is deterministic, so no replay
    notices it, but its order is hash order: sort before it feeds state."""
    assert findings(set_iterations) == []


def test_no_float_equality_on_hot_paths():
    """Compare floats with a tolerance or restructure around ``<=``."""
    assert findings(float_equalities, HOT_PATH_PACKAGES) == []


def test_hot_path_dataclasses_have_slots():
    modules = []
    for package in SLOTS_PACKAGES:
        root = importlib.import_module(f"repro.{package}")
        modules.append(root)
        modules += [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(root.__path__, f"{root.__name__}.")
        ]
    classes = [
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
    ]
    assert classes
    assert [c.__qualname__ for c in classes if "__slots__" not in c.__dict__] == []
