"""Bit-identity against outputs pinned before inference was batched.

tests/fixtures/golden.json was generated by golden_cases.py on the
one-sample-at-a-time pipeline; any change to parsing, voting, encoding or
ranking that moves a score, a tie or a class shows up here.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import golden_cases as gc
from kgcil import HashingEncoder, TaskSubgraph, encode_candidates, extend_subgraph, infer_batch
from kgcil.synthetic import class_name


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


def test_diff_paths_names_moved_leaves():
    old = {"a": [1, {"b": 2, "c": 3}], "d": {"e": 4}, "f": [1, 2]}
    new = {"a": [1, {"b": 2, "c": 5}], "d": {"e": 4, "g": 0}, "f": [1]}
    assert list(gc.diff_paths(old, new)) == ["a[1].c", "d.g", "f"]
    assert list(gc.diff_paths(old, old)) == []


def test_batch_rows_equal_single_gemv(graph):
    # Each row must equal candidate_vectors @ encode(text) bit for bit. One
    # matrix-matrix product over the whole batch (encoded @ candidates.T)
    # blocks its sums differently: scores move by an ulp, exact ties become
    # non-ties and final classes flip, so infer_batch must not use one.
    sub = TaskSubgraph(graph)
    names = [class_name(i) for i in range(gc.N_CLASSES)]
    extend_subgraph(sub, names, graph, 3)
    enc = HashingEncoder(256)
    vectors = encode_candidates(names, enc)
    rng = np.random.default_rng(0)
    words = [f"item_{i:03d}_{j}" for i in range(gc.N_CLASSES) for j in range(5)]
    words += names + ["IsA", "Rel00", "Rel01", "a", "the", ".", "hub_001", "genus_002"]
    texts = [" ".join(rng.choice(words, size=int(rng.integers(0, 30)))) for _ in range(400)]
    batch = infer_batch(texts, sub, names, enc, vectors)
    for i, text in enumerate(texts):
        want = vectors @ enc.encode(batch.augmented[i])
        assert np.array_equal(batch.scores[i], want), text
