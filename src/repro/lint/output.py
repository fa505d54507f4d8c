"""JSON and SARIF 2.1.0 rendering for lint findings."""

from __future__ import annotations

import json
from typing import Any, Sequence

from .diagnostics import Diagnostic
from .rules import RULES

_TOOL_NAME = "repro-lint"
_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_catalogue() -> list[dict[str, Any]]:
    return [
        {
            "id": rule.name,
            "name": rule.code,
            "shortDescription": {"text": rule.name},
        }
        for rule in RULES
    ]


def _diag_payload(diag: Diagnostic) -> dict[str, Any]:
    return {
        "path": diag.path,
        "line": diag.line,
        "col": diag.col,
        "rule": diag.rule,
        "message": diag.message,
    }


def findings_json(diagnostics: Sequence[Diagnostic]) -> str:
    payload = {
        "tool": _TOOL_NAME,
        "findings": [_diag_payload(d) for d in diagnostics],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_result(diag: Diagnostic) -> dict[str, Any]:
    return {
        "ruleId": diag.rule,
        "level": "error",
        "message": {"text": diag.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": diag.path.replace("\\", "/")},
                    "region": {
                        "startLine": max(diag.line, 1),
                        "startColumn": diag.col + 1,
                    },
                }
            }
        ],
    }


def findings_sarif(diagnostics: Sequence[Diagnostic]) -> str:
    log = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "informationUri": "https://example.invalid/repro-lint",
                        "rules": _rule_catalogue(),
                    }
                },
                "results": [_sarif_result(d) for d in diagnostics],
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)
