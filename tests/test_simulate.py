from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import kgcil
from kgcil import (
    GeneratorConfig,
    HashingEncoder,
    KnowledgeGraph,
    NoAssignment,
    TaskSubgraph,
    TextGenerator,
    baseline_config,
    build_confusables,
    extend_subgraph,
    load_filler_templates,
    parse_triplets,
    render_clause,
    render_training_text,
)
from kgcil.harness import Session
from kgcil.simulate import _FILLER_BETWEEN_P, _uniforms


@pytest.fixture
def fruit_sub(fruit_graph):
    sub = TaskSubgraph(fruit_graph)
    extend_subgraph(sub, ["granny_smith", "pineapple"], fruit_graph, 2)
    return sub


def make_gen(graph, sub, **kw):
    return TextGenerator(graph, sub, GeneratorConfig(**kw))


class TestConfig:
    def test_defaults(self):
        cfg = GeneratorConfig()
        assert cfg.mode == "corrupted"
        assert cfg.p_drop == 0.0 and cfg.p_swap == 0.0 and cfg.p_hypernym == 0.0

    @pytest.mark.parametrize("field", ["p_drop", "p_swap", "p_hypernym"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_probability_range(self, field, bad):
        with pytest.raises(ValueError):
            GeneratorConfig(**{field: bad})

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            GeneratorConfig(mode="psychic")

    def test_dict_roundtrip(self):
        cfg = GeneratorConfig(mode="oracle", p_drop=0.25, seed=9, filler=False)
        assert GeneratorConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_stray_keys(self):
        with pytest.raises(ValueError):
            GeneratorConfig.from_dict({"mode": "oracle", "p_drp": 0.1})


class TestBaselineConfig:
    def test_explicit_hypernym_kept(self):
        cfg = GeneratorConfig(p_drop=0.2, p_swap=0.1, p_hypernym=0.7)
        derived = baseline_config(cfg)
        assert derived.mode == "baseline_gmm"
        assert derived.p_hypernym == 0.7

    def test_derived_from_corruption_budget(self):
        cfg = GeneratorConfig(p_drop=0.3, p_swap=0.3)
        assert baseline_config(cfg).p_hypernym == pytest.approx(0.6)

    def test_clamped_to_one(self):
        cfg = GeneratorConfig(p_drop=0.8, p_swap=0.5)
        assert baseline_config(cfg).p_hypernym == 1.0

    def test_seed_preserved(self):
        cfg = GeneratorConfig(seed=42)
        assert baseline_config(cfg).seed == 42


class TestConfusables:
    def test_fruit_pair(self, fruit_graph, fruit_sub):
        confs = build_confusables(fruit_sub, fruit_graph)
        assert confs["granny_smith"] == ["pineapple"]
        assert confs["pineapple"] == ["granny_smith"]

    def test_symmetric_and_irreflexive(self, fruit_graph, fruit_sub):
        confs = build_confusables(fruit_sub, fruit_graph)
        for a, others in confs.items():
            assert a not in others
            for b in others:
                assert a in confs[b]

    def test_no_shared_tails(self, reef_graph):
        sub = TaskSubgraph(reef_graph)
        extend_subgraph(sub, ["anemonefish"], reef_graph, 1)
        confs = build_confusables(sub, reef_graph)
        assert confs == {"anemonefish": []}


class TestOracle:
    def test_verbatim_training_text(self, fruit_graph, fruit_sub):
        gen = make_gen(fruit_graph, fruit_sub, mode="oracle")
        cid = fruit_graph.entity_id("pineapple")
        want = render_training_text(fruit_sub.assignments[cid], fruit_graph)
        assert gen.generate(cid, (0, 0)) == want

    def test_oracle_ignores_probabilities(self, fruit_graph, fruit_sub):
        gen = make_gen(fruit_graph, fruit_sub, mode="oracle", p_drop=1.0, p_swap=1.0)
        cid = fruit_graph.entity_id("granny_smith")
        text = gen.generate(cid, (3, 1))
        parsed = parse_triplets(text, fruit_graph.relations)
        assert len(parsed) == 2


class TestBaseline:
    def test_plain_photo_caption(self, fruit_graph, fruit_sub):
        gen = make_gen(fruit_graph, fruit_sub, mode="baseline_gmm")
        cid = fruit_graph.entity_id("granny_smith")
        assert gen.generate(cid, (0, 0)) == "This is a photo of granny_smith"

    def test_hypernym_pool(self, fruit_graph, fruit_sub):
        gen = make_gen(fruit_graph, fruit_sub, mode="baseline_gmm", p_hypernym=1.0)
        cid = fruit_graph.entity_id("granny_smith")
        mentions = {gen.generate(cid, (0, s)).removeprefix("This is a photo of ")
                    for s in range(40)}
        assert "granny_smith" not in mentions
        assert mentions <= {"fruit", "pineapple"}
        assert len(mentions) == 2

    def test_never_raises_for_assigned_class(self, fruit_graph, fruit_sub):
        gen = make_gen(fruit_graph, fruit_sub, mode="baseline_gmm", p_hypernym=0.5)
        cid = fruit_graph.entity_id("pineapple")
        for s in range(10):
            assert gen.generate(cid, (1, s)).startswith("This is a photo of ")


class TestCorrupted:
    def test_zero_noise_parses_to_full_assignment(self, fruit_graph, fruit_sub):
        gen = make_gen(fruit_graph, fruit_sub, filler=False)
        cid = fruit_graph.entity_id("pineapple")
        text = gen.generate(cid, (0, 0))
        parsed = parse_triplets(text, fruit_graph.relations)
        a = fruit_sub.assignments[cid]
        want = {(p.relations, fruit_graph.entity_name(p.tail)) for p in a.paths}
        assert {(t.relations, t.tail) for t in parsed} == want

    @pytest.mark.parametrize("filler", [False, True])
    def test_full_drop_yields_no_triplets(self, fruit_graph, fruit_sub, filler):
        gen = make_gen(fruit_graph, fruit_sub, p_drop=1.0, filler=filler)
        cid = fruit_graph.entity_id("granny_smith")
        for s in range(5):
            text = gen.generate(cid, (0, s))
            assert parse_triplets(text, fruit_graph.relations) == []

    def test_reproducible_per_key(self, fruit_graph, fruit_sub):
        kw = dict(p_drop=0.5, p_swap=0.5, seed=11)
        g1 = make_gen(fruit_graph, fruit_sub, **kw)
        g2 = make_gen(fruit_graph, fruit_sub, **kw)
        cid = fruit_graph.entity_id("pineapple")
        for s in range(20):
            assert g1.generate(cid, (2, s)) == g2.generate(cid, (2, s))

    def test_keys_decorrelate(self, fruit_graph, fruit_sub):
        gen = make_gen(fruit_graph, fruit_sub, p_drop=0.5, seed=0)
        cid = fruit_graph.entity_id("pineapple")
        texts = {gen.generate(cid, (0, s)) for s in range(30)}
        assert len(texts) > 1

    def test_forced_swap_inserts_confusable_clause(self, fruit_graph, fruit_sub):
        gen = make_gen(fruit_graph, fruit_sub, p_swap=1.0, filler=False)
        g = fruit_graph
        cid = g.entity_id("granny_smith")
        own = fruit_sub.assignments[cid]
        other = fruit_sub.assignments[g.entity_id("pineapple")]
        own_pairs = {(p.relations, g.entity_name(p.tail)) for p in own.paths}
        other_pairs = {(p.relations, g.entity_name(p.tail)) for p in other.paths}
        parsed = parse_triplets(gen.generate(cid, (0, 0)), g.relations)
        got = {(t.relations, t.tail) for t in parsed}
        assert got, "swap must not erase the description"
        assert got <= other_pairs
        assert not got & own_pairs

    def test_swap_without_confusables_is_noop(self, reef_graph):
        sub = TaskSubgraph(reef_graph)
        extend_subgraph(sub, ["anemonefish"], reef_graph, 1)
        gen = TextGenerator(reef_graph, sub, GeneratorConfig(p_swap=1.0, filler=False))
        cid = reef_graph.entity_id("anemonefish")
        parsed = parse_triplets(gen.generate(cid, (0, 0)), reef_graph.relations)
        assert [(t.relations, t.tail) for t in parsed] == [
            ((reef_graph.relation_id("RelatedTo"),), "water")
        ]

    def test_filler_preserves_parse(self, fruit_graph, fruit_sub):
        plain = make_gen(fruit_graph, fruit_sub, filler=False)
        wrapped = make_gen(fruit_graph, fruit_sub, filler=True)
        cid = fruit_graph.entity_id("pineapple")
        g = fruit_graph
        for s in range(10):
            a = parse_triplets(plain.generate(cid, (0, s)), g.relations)
            b = parse_triplets(wrapped.generate(cid, (0, s)), g.relations)
            assert a == b

    def test_drop_pattern_enumeration(self, fruit_graph):
        """With three clauses and p_drop=0.5, 7 of 8 equally likely patterns
        leave at least one clause standing."""
        sub = TaskSubgraph(fruit_graph)
        extend_subgraph(sub, ["pineapple"], fruit_graph, 3)
        cid = fruit_graph.entity_id("pineapple")
        assert len(sub.assignments[cid].paths) == 3
        gen = make_gen(fruit_graph, sub, p_drop=0.5, filler=False, seed=5)
        n = 4000
        survived = sum(
            bool(parse_triplets(gen.generate(cid, (0, s)), fruit_graph.relations))
            for s in range(n)
        )
        rate = survived / n
        sigma = (0.875 * 0.125 / n) ** 0.5
        assert abs(rate - 0.875) < 4 * sigma

    def test_unassigned_class_raises(self, fruit_graph, fruit_sub):
        gen = make_gen(fruit_graph, fruit_sub)
        with pytest.raises(NoAssignment):
            gen.generate(fruit_graph.entity_id("fruit"), (0, 0))

    def test_baseline_text_fallback_always_available(self, fruit_graph, fruit_sub):
        gen = make_gen(fruit_graph, fruit_sub, p_drop=0.9)
        cid = fruit_graph.entity_id("fruit")
        assert gen.baseline_text(cid, (0, 0)) == "This is a photo of fruit"


class TestFiller:
    def test_templates_load(self):
        templates = load_filler_templates()
        assert len(templates) >= 3
        assert all(t and not t.startswith("#") for t in templates)

    def test_templates_have_no_relation_keywords(self, fruit_graph):
        for t in load_filler_templates():
            assert parse_triplets(t, fruit_graph.relations) == []


# -- one PCG64 stream per class, one row per sample ----------------------


@pytest.mark.parametrize("key", [(0, -1), (-3,), -1, (0, -2, 4)])
def test_negative_key_raises_like_default_rng(key, fruit_graph, fruit_sub):
    # a negative row would otherwise wrap PCG64.advance silently
    with pytest.raises(ValueError):
        np.random.default_rng((0,) + (key if isinstance(key, tuple) else (key,)))
    gen = make_gen(fruit_graph, fruit_sub, p_drop=0.5)
    cid = fruit_graph.entity_id("granny_smith")
    with pytest.raises(ValueError):
        gen.generate(cid, key)
    *stream, row = key if isinstance(key, tuple) else (key,)
    with pytest.raises(ValueError):
        gen.generate_batch(cid, tuple(stream), range(row, row + 3))


def test_uniform_rows_are_stream_slices():
    for stream, rows in [((4, 9), range(0, 7)), ((4, 9), range(3, 6)), ((1,), range(7, 8)),
                         ((), range(5, 6)), ((2**40, 1), range(2, 4)), ((3,), range(2, 2))]:
        u = _uniforms(13, stream, rows, 4)
        assert u.shape == (len(rows), 4)
        whole = np.random.default_rng((13, *stream)).random((rows.stop, 4))
        assert u.tolist() == whole[rows.start:].tolist()
        for r, row in zip(rows, u):
            assert _uniforms(13, stream, range(r, r + 1), 4)[0].tolist() == row.tolist()


def test_corruption_rates_match_probabilities(fruit_graph, fruit_sub):
    """Over 10^5 clauses, drop, swap and filler-between rates sit within 4 binomial sigma."""
    p_drop, p_swap = 0.3, 0.25
    gen = make_gen(fruit_graph, fruit_sub, p_drop=p_drop, p_swap=p_swap, filler=True, seed=8)
    cid = fruit_graph.entity_id("granny_smith")
    g = fruit_graph
    own, other = ({f"it {render_clause(g, p)}"
                   for p in fruit_sub.assignments[g.entity_id(name)].paths}
                  for name in ("granny_smith", "pineapple"))
    assert not any(t.startswith("it ") for t in load_filler_templates())
    n = -(-100_000 // len(own))
    clauses = kept = swapped = between = 0
    for text in gen.generate_batch(cid, (0, cid), range(n)):
        sentences = [x.strip() for x in text.split(".") if x.strip()]
        said = [x for x in sentences if x.startswith("it ")]
        assert set(said) <= own | other
        clauses += len(own)
        kept += len(said)
        swapped += sum(x in other for x in said)
        between += len(sentences) - len(said) - 2  # all but the leading and trailing filler
    for hits, trials, p in [(clauses - kept, clauses, p_drop), (swapped, kept, p_swap),
                            (between, kept, _FILLER_BETWEEN_P)]:
        assert abs(hits / trials - p) < 4 * (p * (1 - p) / trials) ** 0.5, (hits, trials, p)


@pytest.mark.parametrize("mode", ["corrupted", "baseline_gmm", "oracle"])
def test_generate_batch_equals_one_key_calls(mode, fruit_graph, fruit_sub):
    gen = make_gen(fruit_graph, fruit_sub, mode=mode, p_drop=0.4, p_swap=0.4, p_hypernym=0.5,
                   filler=True, seed=11)
    cid = fruit_graph.entity_id("pineapple")
    for stream, rows in [((2, cid), range(30)), ((2, cid), range(17, 23)), ((0, cid), range(4, 5))]:
        keys = [(*stream, s) for s in rows]
        assert gen.generate_batch(cid, stream, rows) == [gen.generate(cid, k) for k in keys]
        assert (gen.generate_batch(cid, stream, rows, baseline=True)
                == [gen.baseline_text(cid, k) for k in keys])


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random loads on the first draw (_uniforms); `kgcil query` never draws
    src = os.path.dirname(os.path.dirname(os.path.abspath(kgcil.__file__)))
    code = "import sys, kgcil.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_keyword_name_caption_votes_for_no_class():
    # isa-red holds the keyword `isa`, so it gets no paths and is evaluated on bare
    # captions; its mention must not read (IsA, red), which c1 owns
    g = KnowledgeGraph.from_facts([("isa-red", "IsA", "fruit"), ("c1", "IsA", "red"),
                                   ("c1", "AtLocation", "tree")])
    sub = TaskSubgraph(g)
    extend_subgraph(sub, ["isa-red", "c1"], g, 2)
    assert not sub.assignments[g.entity_id("isa-red")].paths
    session = Session.build(sub, GeneratorConfig(seed=0), HashingEncoder(64), "name", 0, 3, 0,
                            True)
    records = session.evaluate("isa-red")["records"]
    assert [r["graph_head"] for r in records] == [None] * 3
    assert [r["matched"] for r in records] == [[]] * 3
