from __future__ import annotations

import json
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgcil import (
    Candidates,
    EmptyCandidates,
    HashingEncoder,
    KnowledgeGraph,
    ParsedTriplet,
    PieceTable,
    TaskSchedule,
    TaskSubgraph,
    augment_text,
    classify,
    export_subgraph,
    extend_subgraph,
    infer,
    infer_batch,
    parse_triplets,
    prediction_record,
    render_clause,
    render_training_text,
    run_experiment,
    vote_head,
)
from kgcil import encoders, inference
from kgcil.cli import EXIT_OK, main
from kgcil.harness import Session
from kgcil.inference import TOP_K, rank_rows
from kgcil.simulate import GeneratorConfig
from kgcil.synthetic import class_name, synthetic_graph


@pytest.fixture
def fruit_sub(fruit_graph):
    sub = TaskSubgraph(fruit_graph)
    extend_subgraph(sub, ["granny_smith"], fruit_graph, 2)
    extend_subgraph(sub, ["pineapple"], fruit_graph, 2)
    return sub


FRUIT = ["granny_smith", "pineapple"]


def trip(graph, rels, tail):
    return ParsedTriplet(tuple(graph.relation_id(r) for r in rels), tail)


def candidate_set(names, enc) -> Candidates:
    return Candidates(names, enc.encode_batch(list(names)))


def classify_names(text, names, enc):
    return classify(text, names, enc, candidate_set(names, enc))


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
        pred = classify_names("pineapple", FRUIT, HashingEncoder(256))
        assert pred.final_class == "pineapple"
        assert pred.similarity_scores["pineapple"] == pytest.approx(1.0)

    def test_empty_candidates(self):
        # raised when the set is built, before any text is ranked
        with pytest.raises(EmptyCandidates):
            candidate_set([], HashingEncoder(16))
        with pytest.raises(EmptyCandidates):
            Candidates((), np.zeros((0, 16)))

    def test_single_candidate(self):
        pred = classify_names("no overlap at all", ["pineapple"], HashingEncoder(64))
        assert pred.final_class == "pineapple"

    def test_zero_similarity_tie_is_lexicographic(self):
        pred = classify_names("This is a photo of a apple", FRUIT, HashingEncoder(256))
        assert pred.final_class == "granny_smith"
        assert pred.tie

    def test_one_set_ranks_many_batches(self):
        # a set is built once and ranks every batch of a session; no call may leave
        # anything behind in it, so each row ranks as against a freshly built set
        rng = np.random.default_rng(5)
        enc = HashingEncoder(32)
        words = ["alpha", "beta", "gamma", "delta", "it", "isa", "fruit", ""]
        names = ["gamma", "alpha", "delta", "beta", "alpha_beta"]
        shared = candidate_set(names, enc)
        for _ in range(40):
            texts = [" ".join(rng.choice(words, size=int(rng.integers(0, 6))))
                     for _ in range(int(rng.integers(1, 8)))]
            preds = rank_rows(enc.encode_batch(texts), shared).predictions()
            for text, got in zip(texts, preds):
                fresh = rank_rows(enc.encode_batch([text]), candidate_set(names, enc))
                want = fresh.predictions()[0]
                assert got.final_class == want.final_class
                assert got.tie == want.tie
                assert list(got.similarity_scores.items()) == list(want.similarity_scores.items())

    def test_set_arrays_are_read_only(self):
        raw = np.array([[1.0, 2.0], [0.0, 3.0]])
        cands = Candidates(["b", "a"], raw)
        in_order = Candidates(["a", "b"], raw)  # given sorted, it still holds its own rows
        for array in (cands.vectors, cands.c2):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
        with pytest.raises(FrozenInstanceError):
            cands.c2 = np.zeros(2)
        raw[:] = 9.0  # the set holds its own rows: writing the caller's array leaves it as built
        assert cands.names == ("a", "b")  # name order, each row moved along with its name
        assert cands.vectors.tolist() == [[0.0, 3.0], [1.0, 2.0]]
        assert cands.c2.tolist() == [9.0, 5.0]
        assert in_order.vectors.tolist() == [[1.0, 2.0], [0.0, 3.0]]

    def test_classify_checks_the_set_names(self):
        enc = HashingEncoder(32)
        for names in (["pineapple", "apple"], ["pineapple"], FRUIT + ["apple"]):
            with pytest.raises(ValueError, match="names"):
                classify("pineapple", names, enc, candidate_set(FRUIT, enc))
        # the set is sorted, so the same names in any order are accepted
        pred = classify("pineapple", FRUIT[::-1], enc, candidate_set(FRUIT, enc))
        assert pred.final_class == "pineapple"

    def test_rank_rows_checks_the_width(self):
        # text and candidates from encoders of different dimension are not ranked
        for text_dim, cand_dim in ((64, 32), (32, 64)):
            cands = candidate_set(FRUIT, HashingEncoder(cand_dim))
            with pytest.raises(ValueError, match="buckets"):
                classify("pineapple", FRUIT, HashingEncoder(text_dim), cands)
            with pytest.raises(ValueError, match="buckets"):
                rank_rows(np.zeros((0, text_dim)), cands)

    def test_ranking_ignores_the_order_the_pairs_are_given_in(self):
        # the set sorts its (name, vector) pairs, so every order ranks alike, also for
        # rows past the 2^52 bound, which are ranked in Python integers
        rng = np.random.default_rng(11)
        names = [f"c{k}" for k in range(8)]
        cand = rng.integers(0, 3, size=(8, 5)).astype(np.float64)
        cand[6] = cand[1]  # one vector, two names: equal keys in every row
        rows = rng.integers(0, 4, size=(6, 5)).astype(np.float64)
        rows = np.vstack([rows, np.zeros((1, 5)), rows[:3] * 3.0**20])
        results = []
        for perm in (np.arange(8), np.arange(8)[::-1], rng.permutation(8)):
            given = Candidates([names[j] for j in perm], cand[perm])
            batch = rank_rows(rows, given)
            assert sorted(batch.exact) == [7, 8, 9]  # the scaled rows are past the bound
            results.append([(p.final_class, p.tie, list(p.similarity_scores.items()))
                            for p in batch.predictions()])
        assert results[0] == results[1] == results[2]
        assert results[0][0][1] and results[0][7][1]  # a tie below the bound, and its copy past it

    def test_tie_goes_to_smallest_name_in_any_order(self):
        pred = classify_names("", ["pineapple", "granny_smith", "apple"], HashingEncoder(32))
        assert pred.final_class == "apple"
        assert pred.tie

    def test_repeated_candidate_raises(self):
        # raised when the set is built, before any text is ranked
        with pytest.raises(ValueError, match="distinct"):
            candidate_set(["beta", "alpha", "beta"], HashingEncoder(64))

    def test_one_row_per_name(self):
        # raised when the set is built: a row without a name, or a name without a row
        for n_rows in (3, 1):
            with pytest.raises(ValueError):
                Candidates(["b", "a"], np.zeros((n_rows, 4)))

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
        ranking = rank_rows(rows, Candidates(names, cand))
        preds = ranking.predictions()
        cand_ints = [[int(x) for x in c] for c in cand.tolist()]
        for i, row in enumerate(rows.tolist()):
            counts = [int(x) for x in row]
            keys = {name: Fraction(sum(a * b for a, b in zip(counts, c)) ** 2,
                                   max(sum(b * b for b in c), 1))
                    for name, c in zip(names, cand_ints)}
            top = sorted(name for name, key in keys.items() if key == max(keys.values()))
            assert ranking.final_class(i) == top[0]
            assert ranking.tie[i] == (len(top) > 1)
            # the listed names are the first TOP_K of the exact order, ties to the smallest name
            assert list(preds[i].similarity_scores) == sorted(names, key=lambda n: (-keys[n], n))[:TOP_K]
            t2 = sum(a * a for a in counts)
            if t2 * max(sum(b * b for b in c) for c in cand_ints) ** 2 < 2**52:
                # reported cosines come from the same keys, so they order like the ranking
                scores = preds[i].similarity_scores
                assert min(scores, key=lambda n: (-scores[n], n)) == top[0]
                assert scores[top[0]] == pytest.approx(float(keys[top[0]] / max(t2, 1)) ** 0.5)
        assert ranking.final_class(len(rows) - 1) == min(names)  # all-zero text: every key is 0
        assert ranking.tie[len(rows) - 1] == (m > 1)


class TestInfer:
    def test_oracle_text_recovers_class(self, fruit_graph, fruit_sub):
        g = fruit_graph
        enc = HashingEncoder(256)
        a = fruit_sub.assignments[g.entity_id("pineapple")]
        text = render_training_text(a, g)
        pred = infer(text, fruit_sub, enc)
        assert pred.graph_head == "pineapple"
        assert pred.final_class == "pineapple"
        assert pred.tally.counts == {"pineapple": 2}

    def test_fallback_equals_plain_classify(self, fruit_graph, fruit_sub):
        enc = HashingEncoder(256)
        raw = "This is a photo of a apple"
        pred = infer(raw, fruit_sub, enc)
        plain = classify_names(raw, FRUIT, enc)
        assert pred.graph_head is None
        assert pred.final_class == plain.final_class
        assert pred.similarity_scores == plain.similarity_scores

    def test_batch_rows_equal_single_infer(self, fruit_graph, fruit_sub):
        enc = HashingEncoder(64)
        texts = ["it IsA fruit.", "", "it AtLocation pizza. it AtLocation store.",
                 "This is a photo of a apple", "it IsA fruit. it AtLocation pizza."]
        batch = infer_batch(texts, PieceTable(fruit_sub, enc))
        assert batch.vote_ms > 0.0  # the batch's own stage timers
        assert batch.classify_ms > 0.0
        for text, got in zip(texts, batch.predictions()):
            single = infer(text, fruit_sub, enc)
            assert got.final_class == single.final_class
            assert got.similarity_scores == single.similarity_scores
            assert got.tie == single.tie
            assert got.graph_head == single.graph_head
            assert got.tally == single.tally

    def test_batch_empty_candidates(self, fruit_graph):
        with pytest.raises(EmptyCandidates):  # a subgraph with no classes: the table's set raises
            PieceTable(TaskSubgraph(fruit_graph), HashingEncoder(16))

    def test_unknown_class_text_mode_is_refused(self, fruit_sub):
        enc = HashingEncoder(16)
        with pytest.raises(ValueError, match="class_text_mode"):
            PieceTable(fruit_sub, enc, "vibes")
        with pytest.raises(ValueError, match="class_text_mode"):
            Session.build(fruit_sub, GeneratorConfig(seed=0), enc, "vibes", 0, 1, 0, False)

    def test_zero_path_class_is_encoded_by_its_name(self):
        # z heads no fact, so it is granted no path: in name_plus_triplets mode it is still
        # a candidate, with its bare name as its class text
        g = KnowledgeGraph.from_facts([("a", "IsA", "x"), ("q", "R", "z")])
        sub = TaskSubgraph(g)
        extend_subgraph(sub, ["a", "z"], g, 1)
        assert not sub.assignments[g.entity_id("z")].paths
        enc = HashingEncoder(64)
        table = PieceTable(sub, enc, "name_plus_triplets")
        a_text = render_training_text(sub.assignments[g.entity_id("a")], g)
        assert table.candidates.names == ("a", "z")
        assert np.array_equal(table.candidates.vectors, enc.encode_batch([a_text, "z"]))
        assert infer_batch(["z"], table).final_class(0) == "z"


def test_one_candidate_set_per_session_and_query(monkeypatch, fruit_tsv, fruit_sub, tmp_path,
                                                 capsys):
    # the piece table builds each session's candidates; no caller builds a set of its own
    built, real = [], inference.Candidates
    monkeypatch.setattr(inference, "Candidates", lambda *args: built.append(args[0]) or real(*args))
    g = synthetic_graph(6, n_relations=4, facts_per_class=3, seed=2)
    schedule = TaskSchedule.b0([class_name(i) for i in range(6)], 3, samples_per_class=2)
    report = run_experiment(g, schedule, GeneratorConfig(seed=0), 2, HashingEncoder(32), [0])
    assert len(report.orders[0].sessions) == len(built) == 3
    built.clear()
    export_subgraph(fruit_sub, tmp_path / "sub.tsv")
    assert main(["query", "--graph", str(fruit_tsv), "--subgraph", str(tmp_path / "sub.tsv"),
                 "it AtLocation store. it AtLocation pizza."]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["final_class"] == "pineapple"
    assert built == [FRUIT]


def pieces_graph():
    """Eight classes at r=2, four of them granted; clauses of the other four match nothing."""
    g = synthetic_graph(8, n_relations=4, facts_per_class=3, contention=0.4, with_chains=True,
                        seed=3)
    probe = TaskSubgraph(g)
    extend_subgraph(probe, [class_name(i) for i in range(8)], g, 2)
    clauses = {a.class_id: [render_clause(g, p) for p in a.paths]
               for a in probe.assignments.values()}
    sub = TaskSubgraph(g)
    extend_subgraph(sub, [class_name(i) for i in range(4)], g, 2)
    matched = [c for cid in sub.assignments for c in clauses[cid]]
    unmatched = [c for cid in clauses if cid not in sub.assignments for c in clauses[cid]]
    return g, sub, matched, unmatched


PIECES = pieces_graph()


class TestPieceTable:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_batch_equals_per_text_reference(self, data):
        # a table batch against vote_head(parse_triplets(t)), then rank_rows / classify of
        # augment_text(t, head): head, final class, tie, exact order and keys bit for bit
        g, sub, matched, unmatched = PIECES
        enc = HashingEncoder(data.draw(st.sampled_from([1, 16, 64])))
        mode = data.draw(st.sampled_from(["name", "name_plus_triplets"]))
        clause = st.sampled_from(matched + unmatched + ["a photo of", "the", "IsA", ""])
        piece = st.lists(clause, max_size=3).map(" ".join)  # two clauses: two keywords, one piece
        texts = data.draw(st.lists(st.lists(piece, max_size=5).map(". ".join), max_size=6))
        texts += [f"{matched[0]}. it {matched[0]}. {matched[1]}",  # a triplet repeated
                  f"it {matched[0]} {matched[2]} {unmatched[0]}.",  # keywords sharing a piece
                  "", "no dot at all", ". ".join(matched + unmatched) * 3]
        # a long piece puts its row past the 2^52 float bound where the class texts are long
        # and share one bucket: n = 2^19 tokens against max(c2) = 144
        long = enc.dimension == 1 and mode == "name_plus_triplets" and data.draw(st.booleans())
        texts += [f"{matched[0]}. " + "x " * 2 ** 19] * long
        texts = data.draw(st.permutations(texts))
        names = sub.class_names()  # the reference builds its own set, as the table does
        class_texts = [render_training_text(a, g) if mode == "name_plus_triplets" and a.paths
                       else n for a, n in zip(sub.assignments.values(), names)]
        cands = Candidates(names, enc.encode_batch(class_texts))
        table = PieceTable(sub, enc, mode)
        assert table.candidates.names == cands.names
        assert np.array_equal(table.candidates.vectors, cands.vectors)
        cut = data.draw(st.integers(0, len(texts)))  # two batches on one table
        batches = [infer_batch(texts[:cut], table), infer_batch(texts[cut:], table)]
        rows = [(b, i) for b in batches for i in range(len(b.keys))]
        preds = [p for b in batches for p in b.predictions()]
        for text, (batch, i), got in zip(texts, rows, preds):
            tally, head = vote_head(parse_triplets(text, g.relations), sub)
            augmented = augment_text(text, head)
            ref = rank_rows(enc.encode_batch([augmented]), cands)
            assert got.graph_head == head and got.tally == tally
            assert batch.final_class(i) == ref.final_class(0)
            assert batch.tie[i] == ref.tie[0]
            assert batch.keys[i].tobytes() == ref.keys[0].tobytes()
            assert np.array_equal(batch.exact.get(i, []), ref.exact.get(0, []))
            want = classify(augmented, names, enc, cands)
            assert (got.final_class, got.tie) == (want.final_class, want.tie)
            assert list(got.similarity_scores.items()) == list(want.similarity_scores.items())
        if long:
            assert any(b.exact for b in batches)

    def test_one_class_twice_adds_no_rows(self, small_session):
        first = small_session.evaluate(class_name(0))
        size = len(small_session.pieces)
        again = small_session.evaluate(class_name(0))
        assert len(small_session.pieces) == size > 0
        assert (again["correct"], again["total"]) == (first["correct"], first["total"])

    def test_table_lives_one_registry(self):
        # a session-0 piece mentions a pair granted only in session 1: the session-0 table
        # is refused once the registry grows, and session 1 starts from an empty table
        g = synthetic_graph(6, n_relations=4, facts_per_class=3, seed=1)
        probe = TaskSubgraph(g)
        extend_subgraph(probe, [class_name(0), class_name(1)], g, 2)
        later = probe.assignments[g.entity_id(class_name(1))].paths[0]
        text = f"it {render_clause(g, later)}."
        sub = TaskSubgraph(g)
        extend_subgraph(sub, [class_name(0)], g, 2)
        enc, config = HashingEncoder(64), GeneratorConfig(seed=0)
        session0 = Session.build(sub, config, enc, "name", 0, 2, 0, False)
        assert len(session0.pieces) == 0
        assert infer_batch([text], session0.pieces).predictions()[0].graph_head is None
        extend_subgraph(sub, [class_name(1)], g, 2)
        with pytest.raises(ValueError, match="registry"):
            infer_batch([text], session0.pieces)
        session1 = Session.build(sub, config, enc, "name", 1, 2, 0, False)
        assert len(session1.pieces) == 0
        assert infer_batch([text], session1.pieces).predictions()[0].graph_head == class_name(1)

    def test_only_the_table_cuts_text_at_dots(self, monkeypatch):
        # the parser and the encoder see pieces and head names, never a whole text: not in
        # a batch, not in its predictions, not for a row past the float bound
        g, sub, matched, unmatched = PIECES
        enc = HashingEncoder(1)  # with the class texts' tokens in one bucket, n = 2^19 passes it
        table = PieceTable(sub, enc, "name_plus_triplets")  # before the spies: class texts hold dots
        seen, parse, tokens = [], inference.parse_triplets, encoders._TOKEN_RE
        monkeypatch.setattr(inference, "parse_triplets",
                            lambda text, rels: seen.append(text) or parse(text, rels))
        monkeypatch.setattr(encoders, "_TOKEN_RE",  # what the encoder tokenizes, by any method
                            SimpleNamespace(findall=lambda text: seen.append(text)
                                            or tokens.findall(text)))
        texts = [f"it {matched[0]}. it {matched[1]}. it {unmatched[0]}.",
                 f"{matched[2]}. {matched[2]}", "", "no dot at all", "...", "x " * 2 ** 19]
        batch = infer_batch(texts, table)
        assert batch.exact  # rows past the float bound were ranked
        assert [p.graph_head is not None for p in batch.predictions()][:2] == [True, True]
        assert seen and not [text for text in seen if "." in text]

    def test_stage_timers_hold_piece_growth(self, monkeypatch):
        # a new piece is parsed and voted inside vote_ms, and tokenized and scored inside
        # classify_ms; a piece seen before costs neither again
        g, sub, matched, _ = PIECES
        enc = HashingEncoder(32)
        table = PieceTable(sub, enc)
        slow_parse, slow_buckets = inference.parse_triplets, enc.buckets

        def parse_triplets(*args):
            time.sleep(0.05)
            return slow_parse(*args)

        def buckets(texts):
            time.sleep(0.05)
            return slow_buckets(texts)

        monkeypatch.setattr(inference, "parse_triplets", parse_triplets)
        monkeypatch.setattr(enc, "buckets", buckets)
        batch = infer_batch([f"it {matched[0]}"], table)  # the head's row is scored, not parsed
        assert 50.0 <= batch.vote_ms < 100.0 and 50.0 <= batch.classify_ms < 100.0
        batch = infer_batch([f"it {matched[0]}"], table)
        assert batch.vote_ms < 50.0 and batch.classify_ms < 50.0


@pytest.fixture
def small_session():
    g = synthetic_graph(6, n_relations=4, facts_per_class=3, seed=2)
    sub = TaskSubgraph(g)
    extend_subgraph(sub, [class_name(i) for i in range(6)], g, 2)
    config = GeneratorConfig(mode="corrupted", p_drop=0.3, p_swap=0.3, filler=True, seed=1)
    return Session.build(sub, config, HashingEncoder(64), "name", 0, 20, 0, False)


class TestRecord:
    def test_jsonable(self, fruit_graph, fruit_sub):
        enc = HashingEncoder(256)
        raw = "it IsA fruit. it AtLocation pizza."
        pred = infer(raw, fruit_sub, enc)
        rec = prediction_record(raw, pred, fruit_graph.relations)
        doc = json.loads(json.dumps(rec))
        assert doc["raw_text"] == raw
        assert doc["tally"] == {"granny_smith": 1, "pineapple": 1}
        assert doc["graph_head"] == "granny_smith"
        assert doc["vote_tie"] is True
        assert len(doc["top_similarities"]) <= 3

    def test_top_similarities_follow_the_exact_ranking(self):
        # past the 2^52 bound the three keys tie exactly, while their float cosines do not
        cand = np.array([[1, 0, 0, 1], [3, 0, 0, 3], [1, 0, 0, 1]], dtype=np.float64)
        row = np.array([[3**21, 2 * 3**20, 3**20, 0]], dtype=np.float64)
        pred = rank_rows(row, Candidates(["b", "a", "c"], cand)).predictions()[0]
        rec = prediction_record("", pred, None)
        assert rec["final_class"] == "a"
        assert rec["similarity_tie"] is True
        assert [name for name, _ in rec["top_similarities"]] == ["a", "b", "c"]
