"""Bit-identity against pinned outputs of fixed small runs.

tests/fixtures/golden.json was generated by golden_cases.py, last with
ranking on exact token counts; any change to parsing, voting, encoding or
ranking that moves a score, a tie or a class shows up here.
"""

from __future__ import annotations

import json

import pytest

import golden_cases as gc


@pytest.fixture(scope="module")
def golden():
    return json.loads(gc.FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def graph():
    return gc.graph()


@pytest.mark.parametrize("name", list(gc.CASES))
def test_comparable_matches_golden(golden, graph, name):
    assert gc.report_doc(name, graph) == golden["reports"][name]


def test_diagnostics_match_golden(golden, graph):
    assert gc.diagnostics_records(graph) == golden["diagnostics"]


def test_query_records_match_golden(golden, graph):
    assert gc.query_records(graph) == golden["query"]


RECORD_KEYS = ["raw_text", "matched", "unmatched", "tally", "graph_head", "vote_tie",
               "final_class", "similarity_tie", "top_similarities",
               "order_seed", "session", "true_class", "sample"]


def test_record_keys_keep_their_order(graph):
    # the golden tests compare parsed dicts, which ignore key order; a record's line does not
    records = gc.diagnostics_records(graph)
    assert records and all(list(rec) == RECORD_KEYS for rec in records)
    assert all(list(rec) == RECORD_KEYS[:9] for rec in gc.query_records(graph))


def test_diff_paths_names_moved_leaves():
    old = {"a": [1, {"b": 2, "c": 3}], "d": {"e": 4}, "f": [1, 2]}
    new = {"a": [1, {"b": 2, "c": 5}], "d": {"e": 4, "g": 0}, "f": [1]}
    assert list(gc.diff_paths(old, new)) == ["a[1].c", "d.g", "f"]
    assert list(gc.diff_paths(old, old)) == []


def test_print_diff_says_whether_a_section_moved(golden, capsys):
    assert gc.print_diff(golden, golden) is False
    moved = json.loads(json.dumps(golden))
    moved["query"][0]["final_class"] = "nobody"
    assert gc.print_diff(golden, moved) is True
    assert "query: 1 values differ" in capsys.readouterr().out
