"""Smoke test of the benchmark itself at tiny sizes; runs in seconds.

    python3 -m pytest -q perfbench/test_smoke.py

Checks every workload in both modes reports exactly the metrics BENCHMARK.json
names with no failed operation, and that a query checked against a wrong
expected class is counted as a failure rather than passing.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib as bl  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(bl.SRC))

TINY_GRAPH = {"n_entities": 3_000, "n_relations": 10, "n_facts": 8_000, "n_classes": 40}
TINY = {
    "cold_query": {"sizes": TINY_GRAPH},
    "incremental_run": {"sizes": {"n_classes": 12, "n_sessions": 3, "samples_per_class": 4}},
    "allocate_lookup": {"sizes": {"graph": TINY_GRAPH, "n_sessions": 3, "classes_per_session": 50,
                                  "lookups_per_session": 200, "text_check_classes": 20}},
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_reports_its_metrics(workload, trace, capsys):
    outcome = run.run_workload(workload, seed=3, seconds=0.0, trace=trace, **TINY[workload])
    assert outcome.notes == []
    assert outcome.attempted >= 1 and outcome.failed == 0
    result = run.report(outcome, trace, {"seed": 3}, run.load_units())
    assert result["correct"] is True
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_wrong_expected_class_counts_as_failure():
    outcome = run.run_workload("cold_query", seed=3, seconds=0.0, trace=False,
                               sizes=TINY_GRAPH, expected="no_such_class")
    assert outcome.failed == outcome.attempted >= 2
    assert any("graph_head" in note for note in outcome.notes)


def test_incremental_replay_matches_untraced_counts():
    outcome = run.run_workload("incremental_run", seed=5, seconds=0.0, trace=True,
                               **TINY["incremental_run"])
    assert outcome.failed == 0, outcome.notes
    assert outcome.metrics["harness.samples"] == (4 + 8 + 12) * 4


def test_exits_nonzero_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cold_query",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
