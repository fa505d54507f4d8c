"""Configuration for repro-lint, read from ``[tool.repro-lint]``.

The scopes mirror the invariants being enforced: float-equality and
allocation hygiene only matter on the simulator hot paths, and the
isolation rule only constrains the cluster layer.  Determinism and typing
rules always apply to the whole tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

try:  # tomllib is 3.11+; on 3.10 we fall back to the built-in defaults.
    import tomllib
except ImportError:  # pragma: no cover - exercised only on Python 3.10
    tomllib = None  # type: ignore[assignment]

#: Packages whose code runs once per simulated event/turn ("hot path").
DEFAULT_HOT_PATH_PACKAGES = (
    "repro.sim",
    "repro.engine",
    "repro.store",
    "repro.cluster",
    "repro.hardware",
)

#: Packages whose dataclasses must declare ``slots=True``.
DEFAULT_SLOTS_PACKAGES = (
    "repro.sim",
    "repro.engine",
    "repro.store",
    "repro.cluster",
)

#: Packages subject to the cluster-isolation rule.
DEFAULT_CLUSTER_PACKAGES = ("repro.cluster",)

#: The only attributes cluster code may reach on a replica's store: the
#: migration API of AttentionStore (plus ``discard_stale`` /
#: ``record_migration_loss``, the bookkeeping half of the same contract,
#: and ``decommission``, the drain-time release of whatever remains).
#: ``has_shared``/``shared_ref_of``/``item_bytes`` are the read-only
#: shared-prefix half: the cluster consults them to size a migration's
#: wire transfer and skip prefix bytes the target already holds.
DEFAULT_STORE_MIGRATION_API = frozenset(
    {
        "extract",
        "admit_migrated",
        "discard_stale",
        "record_migration_loss",
        "decommission",
        "has_shared",
        "shared_ref_of",
        "item_bytes",
    }
)


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Effective rule configuration."""

    disable: frozenset[str] = frozenset()
    hot_path_packages: tuple[str, ...] = DEFAULT_HOT_PATH_PACKAGES
    slots_packages: tuple[str, ...] = DEFAULT_SLOTS_PACKAGES
    cluster_packages: tuple[str, ...] = DEFAULT_CLUSTER_PACKAGES
    store_migration_api: frozenset[str] = field(
        default_factory=lambda: DEFAULT_STORE_MIGRATION_API
    )

    def in_scope(self, module: str, packages: tuple[str, ...]) -> bool:
        """True when ``module`` lives inside any of ``packages``."""
        return any(
            module == pkg or module.startswith(pkg + ".") for pkg in packages
        )


def _as_str_tuple(value: Any, key: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"[tool.repro-lint] {key} must be a list of strings")
    return tuple(value)


def _validated_rule_names(value: Any, key: str) -> frozenset[str]:
    """Check every entry against the rule catalogue; name the offender.

    A silently-ignored typo in ``disable`` leaves the misspelled rule
    enforcing while the author believes it off — the config must reject
    it loudly instead.
    """
    from .rules import ALL_RULE_NAMES

    names = _as_str_tuple(value, key)
    for name in names:
        if name not in ALL_RULE_NAMES:
            raise KeyError(
                f"[tool.repro-lint] {key} names unknown rule '{name}'; "
                f"known rules: {', '.join(sorted(ALL_RULE_NAMES))}"
            )
    return frozenset(names)


def config_from_mapping(data: dict[str, Any]) -> LintConfig:
    """Build a :class:`LintConfig` from a parsed ``[tool.repro-lint]`` table."""
    cfg = LintConfig()
    known = {
        "disable",
        "hot-path-packages",
        "slots-packages",
        "cluster-packages",
        "store-migration-api",
    }
    unknown = set(data) - known
    if unknown:
        raise KeyError(
            f"unknown [tool.repro-lint] keys: {', '.join(sorted(unknown))}"
        )
    if "disable" in data:
        cfg = replace(cfg, disable=_validated_rule_names(data["disable"], "disable"))
    if "hot-path-packages" in data:
        cfg = replace(
            cfg,
            hot_path_packages=_as_str_tuple(
                data["hot-path-packages"], "hot-path-packages"
            ),
        )
    if "slots-packages" in data:
        cfg = replace(
            cfg, slots_packages=_as_str_tuple(data["slots-packages"], "slots-packages")
        )
    if "cluster-packages" in data:
        cfg = replace(
            cfg,
            cluster_packages=_as_str_tuple(
                data["cluster-packages"], "cluster-packages"
            ),
        )
    if "store-migration-api" in data:
        cfg = replace(
            cfg,
            store_migration_api=frozenset(
                _as_str_tuple(data["store-migration-api"], "store-migration-api")
            ),
        )
    return cfg


def find_pyproject(start: Path) -> Path | None:
    """Walk up from ``start`` looking for a pyproject.toml."""
    node = start.resolve()
    if node.is_file():
        node = node.parent
    for candidate in (node, *node.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(start: Path | None = None) -> LintConfig:
    """Load the lint config for the tree containing ``start``.

    Falls back to the built-in defaults when no pyproject.toml is found or
    when running on Python 3.10 (no ``tomllib``); the defaults are kept in
    sync with the checked-in ``[tool.repro-lint]`` table by a test.
    """
    if tomllib is None:
        return LintConfig()
    pyproject = find_pyproject(start if start is not None else Path.cwd())
    if pyproject is None:
        return LintConfig()
    with pyproject.open("rb") as fh:
        parsed = tomllib.load(fh)
    table = parsed.get("tool", {}).get("repro-lint", {})
    if not isinstance(table, dict):
        raise TypeError("[tool.repro-lint] must be a table")
    return config_from_mapping(table)
