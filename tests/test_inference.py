from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgcil import (
    EmptyCandidates,
    HashingEncoder,
    ParsedTriplet,
    TaskSubgraph,
    augment_text,
    classify,
    encode_candidates,
    extend_subgraph,
    infer,
    infer_batch,
    parse_triplets,
    prediction_record,
    render_training_text,
    vote_head,
)
from kgcil.inference import rank_rows
from kgcil.synthetic import class_name, synthetic_graph


@pytest.fixture
def fruit_sub(fruit_graph):
    sub = TaskSubgraph(fruit_graph)
    extend_subgraph(sub, ["granny_smith"], fruit_graph, 2)
    extend_subgraph(sub, ["pineapple"], fruit_graph, 2)
    return sub


def trip(graph, rels, tail):
    return ParsedTriplet(tuple(graph.relation_id(r) for r in rels), tail)


class TestVote:
    def test_majority(self, fruit_graph, fruit_sub):
        g = fruit_graph
        triplets = [
            trip(g, ["IsA"], "fruit"),
            trip(g, ["AtLocation"], "store"),
            trip(g, ["AtLocation"], "pizza"),
        ]
        tally, head = vote_head(triplets, fruit_sub)
        assert tally.counts == {"granny_smith": 1, "pineapple": 2}
        assert head == "pineapple"
        assert not tally.is_tied()

    def test_no_matches(self, fruit_graph, fruit_sub):
        g = fruit_graph
        tally, head = vote_head([trip(g, ["IsA"], "warp_drive")], fruit_sub)
        assert head is None
        assert tally.counts == {}
        assert len(tally.unmatched) == 1

    def test_tie_breaks_lexicographic(self, fruit_graph, fruit_sub):
        g = fruit_graph
        triplets = [trip(g, ["IsA"], "fruit"), trip(g, ["AtLocation"], "pizza")]
        tally, head = vote_head(triplets, fruit_sub)
        assert tally.counts == {"granny_smith": 1, "pineapple": 1}
        assert head == "granny_smith"
        assert tally.is_tied()

    def test_every_match_is_owned(self, fruit_graph, fruit_sub):
        g = fruit_graph
        triplets = [trip(g, ["IsA"], "fruit"), trip(g, ["ReceiveAction"], "eaten")]
        tally, _ = vote_head(triplets, fruit_sub)
        for t, cname in tally.matched:
            key = (t.relations, g.entity_id(t.tail))
            assert fruit_sub.pair_to_class[key] == g.entity_id(cname)


class TestVoteOracle:
    """vote_head against a dict-free exhaustive scan over the assignments."""

    @staticmethod
    def oracle(graph, sub, triplets):
        counts = {}
        for cid, a in sub.assignments.items():
            name = graph.entity_name(cid)
            hits = 0
            for t in triplets:
                for p in a.paths:
                    if t.relations == p.relations and t.tail == graph.entity_name(p.tail):
                        hits += 1
            if hits:
                counts[name] = hits
        best = min(counts, key=lambda n: (-counts[n], n)) if counts else None
        return counts, best

    def test_randomized_equivalence(self):
        rng = np.random.default_rng(7)
        g = synthetic_graph(15, n_relations=5, facts_per_class=3, contention=0.4,
                            with_chains=True, seed=3)
        sub = TaskSubgraph(g)
        for i in range(15):
            extend_subgraph(sub, [class_name(i)], g, 3)
        all_paths = [(a, p) for a in sub.assignments.values() for p in a.paths]
        rel_ids = list(range(len(g.relations)))
        for _ in range(500):
            triplets = []
            for _ in range(int(rng.integers(0, 5))):
                kind = rng.random()
                if kind < 0.6 and all_paths:
                    _, p = all_paths[int(rng.integers(len(all_paths)))]
                    triplets.append(ParsedTriplet(p.relations, g.entity_name(p.tail)))
                elif kind < 0.8:
                    rid = rel_ids[int(rng.integers(len(rel_ids)))]
                    tail = g.entity_name(int(rng.integers(len(g.entities))))
                    triplets.append(ParsedTriplet((rid,), tail))
                else:
                    triplets.append(ParsedTriplet((rel_ids[0],), f"junk_{int(rng.integers(99))}"))
            tally, head = vote_head(triplets, sub)
            want_counts, want_head = self.oracle(g, sub, triplets)
            assert tally.counts == want_counts
            assert head == want_head


class TestAugment:
    def test_prepends_head(self):
        assert augment_text("a ripe fruit", "pineapple") == "pineapple a ripe fruit"

    def test_no_head_is_identity(self):
        assert augment_text("a ripe fruit", None) == "a ripe fruit"

    def test_empty_raw(self):
        assert augment_text("", "pineapple") == "pineapple"


class TestClassify:
    def test_exact_name_wins(self):
        enc = HashingEncoder(256)
        pred = classify("pineapple", ["granny_smith", "pineapple"], enc)
        assert pred.final_class == "pineapple"
        assert pred.similarity_scores["pineapple"] == pytest.approx(1.0)

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidates):
            classify("anything", [], HashingEncoder(16))

    def test_single_candidate(self):
        pred = classify("no overlap at all", ["pineapple"], HashingEncoder(64))
        assert pred.final_class == "pineapple"

    def test_zero_similarity_tie_is_lexicographic(self):
        enc = HashingEncoder(256)
        pred = classify("This is a photo of a apple", ["granny_smith", "pineapple"], enc)
        assert pred.final_class == "granny_smith"
        assert pred.tie

    def test_cached_vectors_match(self):
        enc = HashingEncoder(128)
        from kgcil import encode_candidates
        names = ["alpha", "beta", "gamma"]
        vecs = encode_candidates(names, enc)
        a = classify("beta things", names, enc)
        b = classify("beta things", names, enc, candidate_vectors=vecs)
        assert a.final_class == b.final_class == "beta"
        assert a.similarity_scores == b.similarity_scores

    def test_tie_goes_to_smallest_name_in_any_order(self):
        pred = classify("", ["pineapple", "granny_smith", "apple"], HashingEncoder(32))
        assert pred.final_class == "apple"
        assert pred.tie

    def test_repeated_candidate_raises(self):
        enc = HashingEncoder(64)
        vecs = encode_candidates(["beta", "alpha", "beta"], enc)
        with pytest.raises(ValueError):
            classify("beta", ["beta", "alpha", "beta"], enc, candidate_vectors=vecs)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rank_rows_matches_fraction_reference(self, data):
        # the exact cosine order of integer counts: maximum d²/c2, ties to the
        # smallest name, tie set exactly when the maximum is shared
        m, dim = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
        cell = st.integers(0, data.draw(st.sampled_from([3, 2**22])))
        vector = st.lists(cell, min_size=dim, max_size=dim)
        cand = np.array(data.draw(st.lists(vector, min_size=m, max_size=m)), dtype=np.float64)
        if m > 1 and data.draw(st.booleans()):
            cand[data.draw(st.integers(1, m - 1))] = cand[0]  # one vector, two names
        if data.draw(st.booleans()):
            cand[data.draw(st.integers(0, m - 1))] = 0.0
        rows = data.draw(st.lists(vector, max_size=4)) + [[0] * dim]  # an all-zero text
        scales = data.draw(st.lists(st.sampled_from([1, 2**30, 3**20]), min_size=len(rows),
                                    max_size=len(rows)))  # the larger ones pass the 2^52 bound
        rows = np.array(rows, dtype=np.float64) * np.array(scales, dtype=np.float64)[:, None]
        names = [f"c{k}" for k in data.draw(st.permutations(range(m)))]
        ranking = rank_rows([""] * len(rows), rows, names, None, cand)
        cand_ints = [[int(x) for x in c] for c in cand.tolist()]
        for i, row in enumerate(rows.tolist()):
            counts = [int(x) for x in row]
            keys = {name: Fraction(sum(a * b for a, b in zip(counts, c)) ** 2,
                                   max(sum(b * b for b in c), 1))
                    for name, c in zip(names, cand_ints)}
            top = sorted(name for name, key in keys.items() if key == max(keys.values()))
            assert ranking.final_class(i) == top[0]
            assert ranking.tie[i] == (len(top) > 1)
            t2 = sum(a * a for a in counts)
            if t2 * max(sum(b * b for b in c) for c in cand_ints) ** 2 < 2**52:
                # reported cosines come from the same keys, so they order like the ranking
                scores = ranking.prediction(i).similarity_scores
                assert min(scores, key=lambda n: (-scores[n], n)) == top[0]
                assert scores[top[0]] == pytest.approx(float(keys[top[0]] / max(t2, 1)) ** 0.5)
        assert ranking.final_class(len(rows) - 1) == min(names)  # all-zero text: every key is 0
        assert ranking.tie[len(rows) - 1] == (m > 1)


class TestInfer:
    def test_oracle_text_recovers_class(self, fruit_graph, fruit_sub):
        g = fruit_graph
        enc = HashingEncoder(256)
        a = fruit_sub.assignments[g.entity_id("pineapple")]
        text = render_training_text(a, g).text
        pred = infer(text, fruit_sub, ["granny_smith", "pineapple"], enc)
        assert pred.graph_head == "pineapple"
        assert pred.final_class == "pineapple"
        assert pred.tally.counts == {"pineapple": 2}

    def test_fallback_equals_plain_classify(self, fruit_graph, fruit_sub):
        enc = HashingEncoder(256)
        raw = "This is a photo of a apple"
        pred = infer(raw, fruit_sub, ["granny_smith", "pineapple"], enc)
        plain = classify(raw, ["granny_smith", "pineapple"], enc)
        assert pred.graph_head is None
        assert pred.augmented_text == raw
        assert pred.final_class == plain.final_class
        assert pred.similarity_scores == plain.similarity_scores

    def test_batch_rows_equal_single_infer(self, fruit_graph, fruit_sub):
        enc = HashingEncoder(64)
        names = ["granny_smith", "pineapple"]
        texts = ["it IsA fruit.", "", "it AtLocation pizza. it AtLocation store.",
                 "This is a photo of a apple", "it IsA fruit. it AtLocation pizza."]
        batch = infer_batch(texts, fruit_sub, names, enc, encode_candidates(names, enc))
        assert batch.vote_ms > 0.0  # the batch's own stage timers
        assert batch.classify_ms > 0.0
        for i, text in enumerate(texts):
            single = infer(text, fruit_sub, names, enc)
            got = batch.prediction(i)
            assert got.final_class == single.final_class
            assert got.similarity_scores == single.similarity_scores
            assert got.tie == single.tie
            assert got.graph_head == single.graph_head
            assert got.tally == single.tally
            assert got.augmented_text == single.augmented_text

    def test_batch_empty_candidates(self, fruit_sub):
        with pytest.raises(EmptyCandidates):
            infer_batch(["it IsA fruit."], fruit_sub, [], HashingEncoder(16))


class TestRecord:
    def test_jsonable(self, fruit_graph, fruit_sub):
        import json

        enc = HashingEncoder(256)
        raw = "it IsA fruit. it AtLocation pizza."
        pred = infer(raw, fruit_sub, ["granny_smith", "pineapple"], enc)
        rec = prediction_record(raw, pred, fruit_graph.relations)
        doc = json.loads(json.dumps(rec))
        assert doc["raw_text"] == raw
        assert doc["tally"] == {"granny_smith": 1, "pineapple": 1}
        assert doc["graph_head"] == "granny_smith"
        assert doc["vote_tie"] is True
        assert len(doc["top_similarities"]) <= 3
