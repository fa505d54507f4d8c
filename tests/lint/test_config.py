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
        with pytest.raises(KeyError, match="batch-race"):
            config_from_mapping({"disable": ["batch-race"]})

    def test_flow_rule_names_are_disableable(self):
        cfg = config_from_mapping({"disable": ["store-protocol", "epoch-guard"]})
        assert cfg.disable == frozenset({"store-protocol", "epoch-guard"})


class TestRuleOptions:
    def test_valid_rule_options(self):
        cfg = config_from_mapping(
            {"rule-options": {"epoch-guard": {"benign-calls": ["log"]}}}
        )
        assert cfg.options_for("epoch-guard") == {"benign-calls": ["log"]}
        assert cfg.options_for("store-protocol") == {}

    def test_unknown_rule_name_rejected(self):
        for rule in ("no-such-rule", "batch-race"):
            with pytest.raises(KeyError, match=rule):
                config_from_mapping(
                    {"rule-options": {rule: {"ignore-attrs": ["engine.stats"]}}}
                )

    def test_unknown_option_key_rejected(self):
        with pytest.raises(KeyError, match="max-pahts"):
            config_from_mapping(
                {"rule-options": {"store-protocol": {"max-pahts": 5}}}
            )

    def test_rule_without_declared_options_accepts_none(self):
        with pytest.raises(KeyError, match="accepts no options"):
            config_from_mapping({"rule-options": {"wall-clock": {"x": 1}}})

    def test_option_table_must_be_table(self):
        with pytest.raises(TypeError):
            config_from_mapping({"rule-options": {"store-protocol": "nope"}})


class TestFlowOptions:
    def test_defaults(self):
        cfg = config_from_mapping({})
        assert cfg.flow.cache == ".repro-lint-cache/flow.json"
        assert cfg.flow.max_paths == 256

    def test_overrides(self):
        cfg = config_from_mapping({"flow": {"max-paths": 8, "cache": ""}})
        assert cfg.flow.max_paths == 8
        assert cfg.flow.cache is None

    def test_unknown_flow_key_rejected(self):
        with pytest.raises(KeyError, match="cachepath"):
            config_from_mapping({"flow": {"cachepath": "x"}})
        # The flow baseline is gone; a leftover key must not pass silently.
        with pytest.raises(KeyError, match="baseline"):
            config_from_mapping({"flow": {"baseline": "lint-flow-baseline.json"}})

    def test_max_paths_must_be_positive_int(self):
        with pytest.raises(TypeError):
            config_from_mapping({"flow": {"max-paths": 0}})
        with pytest.raises(TypeError):
            config_from_mapping({"flow": {"max-paths": True}})


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
