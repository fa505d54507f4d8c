"""[tool.repro-lint] parsing and default synchronisation."""

from pathlib import Path

import pytest

from repro.lint import LintConfig
from repro.lint.config import config_from_mapping, find_pyproject, load_config

try:
    import tomllib
except ImportError:  # Python 3.10
    tomllib = None

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestMapping:
    def test_empty_mapping_is_defaults(self):
        assert config_from_mapping({}) == LintConfig()

    def test_overrides(self):
        cfg = config_from_mapping(
            {
                "disable": ["float-eq"],
                "hot-path-packages": ["repro.sim"],
                "store-migration-api": ["extract"],
            }
        )
        assert cfg.disable == frozenset({"float-eq"})
        assert cfg.hot_path_packages == ("repro.sim",)
        assert cfg.store_migration_api == frozenset({"extract"})

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError, match="typo-key"):
            config_from_mapping({"typo-key": []})

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            config_from_mapping({"disable": "float-eq"})

    def test_unknown_rule_in_disable_named_loudly(self):
        """A typo in ``disable`` must fail naming the offender, not leave
        the misspelled rule silently enforcing."""
        with pytest.raises(KeyError, match="flaot-eq"):
            config_from_mapping({"disable": ["float-eq", "flaot-eq"]})
        # A rule that no longer exists is as unknown as a typo.
        for gone in ("batch-race", "store-protocol", "epoch-guard"):
            with pytest.raises(KeyError, match=gone):
                config_from_mapping({"disable": [gone]})


class TestRuleOptions:
    def test_unknown_rule_name_rejected(self):
        # Only the removed whole-program rules declared options, so the
        # rule-options table is gone: a leftover one fails naming itself,
        # whichever rule it names.
        for rule in ("no-such-rule", "batch-race", "store-protocol"):
            with pytest.raises(KeyError, match="rule-options"):
                config_from_mapping(
                    {"rule-options": {rule: {"max-paths": 5}}}
                )


class TestFlowOptions:
    def test_unknown_flow_key_rejected(self):
        # The whole-program analyzer is gone with its [flow] table; any
        # leftover flow key fails naming the table, not pass silently.
        for flow in (
            {"cachepath": "x"},
            {"baseline": "lint-flow-baseline.json"},
            {"cache": "", "max-paths": 8},
        ):
            with pytest.raises(KeyError, match="flow"):
                config_from_mapping({"flow": flow})


class TestScope:
    def test_in_scope_exact_and_nested(self):
        cfg = LintConfig()
        assert cfg.in_scope("repro.sim", cfg.hot_path_packages)
        assert cfg.in_scope("repro.sim.loop", cfg.hot_path_packages)
        assert not cfg.in_scope("repro.simulate", cfg.hot_path_packages)
        assert not cfg.in_scope("repro.workload.trace", cfg.hot_path_packages)


@pytest.mark.skipif(tomllib is None, reason="tomllib requires Python 3.11+")
class TestPyproject:
    def test_find_pyproject_from_nested_path(self):
        found = find_pyproject(REPO_ROOT / "src" / "repro" / "sim")
        assert found == REPO_ROOT / "pyproject.toml"

    def test_checked_in_table_matches_builtin_defaults(self):
        """The pyproject table and the code defaults must agree, so 3.10
        (which cannot read pyproject) lints identically to 3.11+."""
        assert load_config(REPO_ROOT / "src") == LintConfig()

    def test_missing_pyproject_falls_back_to_defaults(self, tmp_path):
        assert load_config(tmp_path) == LintConfig()
