"""Smoke tests: every example script runs to completion.

Each example asserts its own claims internally (recovery outcomes,
strict correctness), so "runs without raising" is a meaningful check.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=[p.stem for p in EXAMPLES]
)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # every example narrates what it does


def test_all_examples_discovered():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "motivating_example",
        "banking_fraud_recovery",
        "travel_booking",
        "capacity_planning",
        "simulation_vs_model",
        "attack_waves",
        "distributed_recovery",
    } <= names
