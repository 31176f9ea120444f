"""Tests for the lint diagnostics engine (records, report, renderings)."""

import json

import pytest

from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    RULES,
    SARIF_SCHEMA_URI,
    Severity,
)


def _d(rule="SPEC101", sev=Severity.WARN, message="msg", where="workflow 'w'",
       **kw):
    return Diagnostic(rule=rule, severity=sev, message=message, where=where,
                      **kw)


class TestCatalogue:
    def test_every_rule_has_summary_and_rationale(self):
        assert RULES
        for rule, info in RULES.items():
            assert info.rule == rule
            assert info.summary
            assert info.rationale
            assert isinstance(info.severity, Severity)

    def test_rule_families_present(self):
        families = {rule[:4] for rule in RULES}
        assert families == {"SPEC", "PLAN", "DET0"}


class TestDiagnostic:
    def test_render_logical_location(self):
        text = _d().render()
        assert "WARN" in text and "SPEC101" in text
        assert "workflow 'w'" in text and "msg" in text

    def test_render_prefers_physical_location(self):
        d = _d(file="src/x.py", line=7, fix="do the thing")
        text = d.render()
        assert "src/x.py:7" in text
        assert "[fix: do the thing]" in text

    def test_to_dict_omits_empty_fields(self):
        plain = _d().to_dict()
        assert set(plain) == {"rule", "severity", "message", "where"}
        rich = _d(file="f.py", line=3, fix="hint").to_dict()
        assert rich["file"] == "f.py" and rich["line"] == 3
        assert rich["fix"] == "hint"


class TestReport:
    def test_sorted_most_severe_first(self):
        report = LintReport([
            _d(rule="SPEC102", sev=Severity.INFO),
            _d(rule="PLAN001", sev=Severity.ERROR),
            _d(rule="SPEC104", sev=Severity.WARN),
        ])
        assert [d.severity for d in report] == [
            Severity.ERROR, Severity.WARN, Severity.INFO,
        ]

    def test_exit_codes(self):
        assert LintReport([]).exit_code == 0
        assert LintReport([_d()]).exit_code == 0  # WARN alone passes
        assert LintReport(
            [_d(rule="PLAN001", sev=Severity.ERROR)]
        ).exit_code == 2

    def test_counts_and_text_tally(self):
        report = LintReport([
            _d(rule="PLAN001", sev=Severity.ERROR),
            _d(rule="SPEC104", sev=Severity.WARN),
            _d(rule="SPEC104", sev=Severity.WARN, message="other"),
        ])
        assert report.count(Severity.ERROR) == 1
        assert report.count(Severity.WARN) == 2
        assert "1 error, 2 warning, 0 info" in report.render_text()

    def test_json_envelope(self):
        report = LintReport([_d(rule="PLAN001", sev=Severity.ERROR)])
        data = json.loads(report.to_json())
        assert data["summary"] == {"total": 1, "error": 1, "warn": 0,
                                   "info": 0}
        assert data["findings"][0]["rule"] == "PLAN001"


#: Hand-written subset of the SARIF 2.1.0 schema covering everything the
#: report emits — required envelope keys, run/tool/rules shape, result
#: shape with legal levels.  The full OASIS schema needs a network fetch
#: unavailable in tests; this subset pins the same structural contract.
_SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["$schema", "version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name", "rules"],
                                "properties": {
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": [
                                                "id",
                                                "shortDescription",
                                            ],
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "ruleIndex", "level",
                                         "message", "locations"],
                            "properties": {
                                "level": {
                                    "enum": ["error", "warning", "note"],
                                },
                                "ruleIndex": {
                                    "type": "integer", "minimum": 0,
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarif:
    def _report(self):
        return LintReport([
            _d(rule="PLAN001", sev=Severity.ERROR, fix="regenerate"),
            _d(rule="SPEC104", sev=Severity.WARN,
               file="flows/order.json", line=12),
            _d(rule="SPEC102", sev=Severity.INFO),
        ])

    def test_schema_valid(self):
        jsonschema = pytest.importorskip("jsonschema")
        sarif = self._report().to_sarif()
        jsonschema.validate(sarif, _SARIF_SUBSET_SCHEMA)

    def test_envelope_and_rule_index(self):
        sarif = self._report().to_sarif()
        assert sarif["$schema"] == SARIF_SCHEMA_URI
        run = sarif["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        for result in run["results"]:
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]

    def test_levels_and_locations(self):
        sarif = self._report().to_sarif()
        results = sarif["runs"][0]["results"]
        assert [r["level"] for r in results] == ["error", "warning", "note"]
        with_phys = [r for r in results
                     if "physicalLocation" in r["locations"][0]]
        assert len(with_phys) == 1
        phys = with_phys[0]["locations"][0]["physicalLocation"]
        assert phys["artifactLocation"]["uri"] == "flows/order.json"
        assert phys["region"]["startLine"] == 12
        for result in results:
            logical = result["locations"][0]["logicalLocations"]
            assert logical[0]["fullyQualifiedName"]

    def test_round_trips_through_json(self):
        report = self._report()
        assert json.loads(report.to_sarif_json()) == report.to_sarif()

    def test_unknown_rule_does_not_crash(self):
        report = LintReport([_d(rule="XXX999", sev=Severity.WARN)])
        sarif = report.to_sarif()
        rules = sarif["runs"][0]["tool"]["driver"]["rules"]
        assert rules[0]["id"] == "XXX999"
        assert rules[0]["defaultConfiguration"]["level"] == "warning"
