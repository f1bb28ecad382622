from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgcil import (
    INSTRUCTION_PROMPT,
    ClassAssignment,
    EmptyAssignment,
    KnowledgeGraph,
    NameTable,
    RelationPath,
    TaskSubgraph,
    extend_subgraph,
    parse_triplets,
    render_training_text,
)
from kgcil.synthetic import class_name, synthetic_graph
from kgcil.triplet_text import ParsedTriplet, label_reads_back, parse_batch, tail_reads_back


def parsed_names(graph, triplets):
    return [
        (tuple(graph.relation_name(r) for r in p.relations), p.tail) for p in triplets
    ]


@pytest.fixture
def fruit_sub(fruit_graph):
    sub = TaskSubgraph(fruit_graph)
    extend_subgraph(sub, ["granny_smith"], fruit_graph, 2)
    extend_subgraph(sub, ["pineapple"], fruit_graph, 2)
    return sub


class TestRender:
    def test_single_hop(self, fruit_graph, fruit_sub):
        a = fruit_sub.assignments[fruit_graph.entity_id("granny_smith")]
        assert render_training_text(a, fruit_graph).text == (
            "granny_smith IsA fruit. granny_smith ReceiveAction eaten."
        )

    def test_two_hop_clause(self, reef_graph):
        sub = TaskSubgraph(reef_graph)
        extend_subgraph(sub, ["anemonefish"], reef_graph, 1)
        extend_subgraph(sub, ["clownfish"], reef_graph, 1)
        a = sub.assignments[reef_graph.entity_id("clownfish")]
        assert render_training_text(a, reef_graph).text == "clownfish RelatedTo_RelatedTo river."

    def test_empty_assignment(self, fruit_graph):
        a = ClassAssignment(fruit_graph.entity_id("eaten"), [], 0)
        with pytest.raises(EmptyAssignment):
            render_training_text(a, fruit_graph)

    def test_instruction_prompt_constant(self):
        assert INSTRUCTION_PROMPT == (
            "Describe details of this photo from color, species, location, background, etc."
        )


class TestParse:
    def test_canonical_roundtrip(self, fruit_graph, fruit_sub):
        g = fruit_graph
        a = fruit_sub.assignments[g.entity_id("granny_smith")]
        text = render_training_text(a, g).text
        assert parsed_names(g, parse_triplets(text, g.relations)) == [
            (("IsA",), "fruit"),
            (("ReceiveAction",), "eaten"),
        ]

    def test_noisy_text(self, fruit_graph):
        # tail capture runs to the next keyword unless a boundary cuts it short
        g = fruit_graph
        text = "This is a green apple, it IsA fruit and it is AtLocation the store"
        assert parsed_names(g, parse_triplets(text, g.relations)) == [
            (("IsA",), "fruit_and_it_is"),
            (("AtLocation",), "store"),
        ]

    def test_keywordless_caption(self, fruit_graph):
        assert parse_triplets("This is a photo of a pineapple", fruit_graph.relations) == []

    def test_two_hop_keyword(self, reef_graph):
        g = reef_graph
        parsed = parse_triplets("clownfish RelatedTo_RelatedTo river.", g.relations)
        assert parsed_names(g, parsed) == [(("RelatedTo", "RelatedTo"), "river")]

    def test_case_insensitive(self, fruit_graph):
        g = fruit_graph
        assert parsed_names(g, parse_triplets("it isa fruit", g.relations)) == [(("IsA",), "fruit")]

    def test_boundaries_cut_tails(self, fruit_graph):
        g = fruit_graph
        for boundary in (".", ",", ";"):
            parsed = parse_triplets(f"it IsA fruit{boundary} nothing else", g.relations)
            assert parsed_names(g, parsed) == [(("IsA",), "fruit")]

    def test_articles_stripped(self, fruit_graph):
        g = fruit_graph
        parsed = parse_triplets("it AtLocation the store", g.relations)
        assert parsed_names(g, parsed) == [(("AtLocation",), "store")]

    def test_multiword_tail_joined(self, fruit_graph):
        g = fruit_graph
        parsed = parse_triplets("it AtLocation grocery store.", g.relations)
        assert parsed_names(g, parsed) == [(("AtLocation",), "grocery_store")]

    def test_duplicates_removed(self, fruit_graph):
        g = fruit_graph
        parsed = parse_triplets("it IsA fruit. also IsA fruit.", g.relations)
        assert parsed_names(g, parsed) == [(("IsA",), "fruit")]

    def test_keyword_without_tail(self, fruit_graph):
        assert parse_triplets("this IsA.", fruit_graph.relations) == []
        assert parse_triplets("ends with IsA", fruit_graph.relations) == []

    def test_head_mentions_discarded(self, fruit_graph):
        g = fruit_graph
        parsed = parse_triplets("granny_smith the famous apple IsA fruit", g.relations)
        assert parsed_names(g, parsed) == [(("IsA",), "fruit")]

    def test_underscore_token_not_two_relations(self, fruit_graph):
        # an underscore token only counts as a keyword pair if both halves match
        g = fruit_graph
        parsed = parse_triplets("it IsA_NotARel fruit. it IsA apple.", g.relations)
        assert parsed_names(g, parsed) == [(("IsA",), "apple")]


@st.composite
def assignments(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    graph = synthetic_graph(
        n,
        n_relations=draw(st.integers(min_value=2, max_value=5)),
        facts_per_class=draw(st.integers(min_value=1, max_value=5)),
        contention=draw(st.sampled_from([0.0, 0.5])),
        with_chains=True,
        seed=draw(st.integers(min_value=0, max_value=50)),
    )
    r = draw(st.integers(min_value=1, max_value=4))
    sub = TaskSubgraph(graph)
    for i in range(n):
        extend_subgraph(sub, [class_name(i)], graph, r)
    return graph, sub


@settings(max_examples=40, deadline=None)
@given(assignments())
def test_parse_inverts_render(case):
    graph, sub = case
    for a in sub.assignments.values():
        if not a.paths:
            continue
        text = render_training_text(a, graph).text
        parsed = parse_triplets(text, graph.relations)
        got = [(p.relations, graph.entity_id(p.tail)) for p in parsed]
        assert got == [(p.relations, p.tail) for p in a.paths]


@settings(max_examples=80, deadline=None)
@given(st.text(max_size=120))
def test_parse_never_raises(fruit_text):
    g = KnowledgeGraph.from_facts([("a", "IsA", "b"), ("a", "RelatedTo", "c")])
    parsed = parse_triplets(fruit_text, g.relations)
    for p in parsed:
        for rid in p.relations:
            assert 0 <= rid < len(g.relations)
        assert p.tail


def test_parse_is_pure(fruit_graph):
    text = "it IsA fruit. it AtLocation store."
    first = parse_triplets(text, fruit_graph.relations)
    assert parse_triplets(text, fruit_graph.relations) == first


# -- keyword table against the per-token matcher it replaced -----------------

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[.,;]")
KEYWORD_POOL = ["Made", "Of", "Made_Of", "made", "MADE_of", "IsA", "isa", "Of_Made",
                "A", "B", "A_B", "B_C", "C"]


def ref_match_keyword(token, index, fold):
    """The matcher parse_triplets and import_subgraph used before the keyword table."""
    low = token.lower() if fold else token
    rid = index.get(low)
    if rid is not None:
        return (rid,)
    for pos, ch in enumerate(low):
        if ch != "_":
            continue
        left = index.get(low[:pos])
        right = index.get(low[pos + 1:])
        if left is not None and right is not None:
            return (left, right)
    return None


def ref_parse(text, relations):
    idx = relations.lower_index()
    tokens = _TOKEN_RE.findall(text)
    out, seen = [], set()
    i, n = 0, len(tokens)
    while i < n:
        rels = ref_match_keyword(tokens[i], idx, True) if tokens[i] not in {".", ",", ";"} else None
        if rels is None:
            i += 1
            continue
        j = i + 1
        tail = []
        while j < n and tokens[j] not in {".", ",", ";"} and ref_match_keyword(tokens[j], idx, True) is None:
            tail.append(tokens[j].lower())
            j += 1
        while tail and tail[0] in {"a", "an", "the"}:
            tail.pop(0)
        if tail and (rels, "_".join(tail)) not in seen:
            seen.add((rels, "_".join(tail)))
            out.append((rels, "_".join(tail)))
        i = j
    return out


def _recase(draw, word):
    flips = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(c.swapcase() if f else c for c, f in zip(word, flips))


@st.composite
def keyword_cases(draw):
    names = draw(st.lists(st.sampled_from(KEYWORD_POOL), min_size=1, max_size=8, unique=True))
    table = NameTable.from_names(names)
    word = st.sampled_from(KEYWORD_POOL + ["the", "a", "fruit", "x_y", "Made_Of_Of", "A_B_C",
                                           "_Of", "Made_", ".", ",", ";"])
    labels = []
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        label = draw(word)
        if draw(st.booleans()):
            label = f"{label}_{draw(word)}"
        labels.append(_recase(draw, label) if draw(st.booleans()) else label)
    return table, labels


@settings(max_examples=300, deadline=None)
@given(keyword_cases())
def test_keyword_table_matches_reference(case):
    table, labels = case
    text = " ".join(labels)
    assert [(p.relations, p.tail) for p in parse_triplets(text, table)] == ref_parse(text, table)
    exact = {name: i for i, name in enumerate(table.names())}
    for label in labels:
        assert table.resolve(label) == ref_match_keyword(label, exact, False)
        assert table.resolve(label, fold=True) == ref_match_keyword(label, table.lower_index(), True)


def test_keyword_rules():
    table = NameTable.from_names(["Made", "Of", "Made_Of", "made", "A", "B", "A_B", "B_C", "C"])
    ids = {name: table.get(name) for name in table.names()}
    assert table.resolve("Made_Of") == (ids["Made_Of"],)  # a single name beats a pair
    assert table.resolve("A_B_C") == (ids["A"], ids["B_C"])  # the leftmost split wins
    assert table.resolve("made", fold=True) == (ids["Made"],)  # the first id wins on case
    assert table.resolve("made") == (ids["made"],)
    assert table.resolve("MADE_OF") is None
    assert table.resolve("MADE_OF", fold=True) == (ids["Made_Of"],)
    # (Made, Of) renders as Made_Of, which reads as the relation Made_Of
    assert not table.memo(label_reads_back)[(ids["Made"], ids["Of"])]
    assert not table.memo(tail_reads_back)["made_of"]  # a tail made_of reads as Made + Of


# -- piece-wise parsing against the whole-text parser it replaced ----------

_ARTICLES = {"a", "an", "the"}


def whole_text_parse(text, relations):
    """parse_triplets as it was before texts were parsed '.'-piece by piece."""
    keywords = relations.keywords()
    tokens = _TOKEN_RE.findall(text)
    rels = [None if t in {".", ",", ";"} else keywords[t] for t in tokens]
    out, seen = [], set()
    i, n = 0, len(tokens)
    while i < n:
        if not rels[i]:
            i += 1
            continue
        j = i + 1
        while j < n and rels[j] == ():
            j += 1
        tail_tokens = [t.lower() for t in tokens[i + 1:j]]
        while tail_tokens and tail_tokens[0] in _ARTICLES:
            tail_tokens.pop(0)
        if tail_tokens:
            trip = ParsedTriplet(rels[i], "_".join(tail_tokens))
            if (trip.relations, trip.tail) not in seen:
                seen.add((trip.relations, trip.tail))
                out.append(trip)
        i = j
    return out


PIECE_WORDS = KEYWORD_POOL + ["it", "the", "a", "An", "fruit", "red_fruit", "x_y", "_", "__",
                              "Made_Of_Of", "\u212a", "\u212aelvin", "\u0130s\u0130", "\u03a3",
                              "A\u03a3", "caf\u00e9", "7", "", "-", "'"]
PIECE_SEPS = [" ", " ", " ", ".", ". ", "..", " .", ",", ";", "_", ""]


@st.composite
def piece_texts(draw):
    """Texts of keywords, tails and articles cut by '.', ',' and ';', with empty pieces."""
    parts = [draw(st.sampled_from(["", ".", " ", ". "]))]
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        word = draw(st.sampled_from(PIECE_WORDS))
        parts += [_recase(draw, word) if draw(st.booleans()) else word,
                  draw(st.sampled_from(PIECE_SEPS))]
    parts.append(draw(st.sampled_from(["", ".", ". .", " "])))
    return "".join(parts)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.sampled_from(KEYWORD_POOL), min_size=1, max_size=6, unique=True),
       st.lists(piece_texts(), max_size=12), st.lists(st.sampled_from(KEYWORD_POOL), max_size=3))
def test_piecewise_parse_matches_whole_text(names, texts, later):
    texts = texts + texts[:3]  # repeated texts share every piece of the memo
    grown = list(dict.fromkeys(names + later))  # the same texts against more relations
    for table in NameTable.from_names(names), NameTable.from_names(grown):
        assert parse_batch(texts, table) == [whole_text_parse(t, table) for t in texts]
    for text in texts:
        assert parse_triplets(text, table) == whole_text_parse(text, table)


def test_parse_batch_dedups_across_pieces():
    g = KnowledgeGraph.from_facts([("c", "IsA", "fruit")])
    text = "it IsA fruit. it IsA fruit. it IsA the fruit."
    assert parse_batch([text, text], g.relations) == [[ParsedTriplet((0,), "fruit")]] * 2


# -- the allocation check against the parser -----------------------------

READ_BACK_TAILS = ["fruit", "of", "made", "made_of", "isa", "a_b", "a", "an", "the", "the_end",
                   "Fruit", "x-y", "t.z", "caf\u00e9", "\u212aelvin", "n1", "7", "_", "a_", ""]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(KEYWORD_POOL + ["Is-A", "x.y"]), min_size=1, max_size=8,
                unique=True), st.data())
def test_read_back_checks_equal_parsing_the_clause(names, data):
    table = NameTable.from_names(names)
    n = len(names)
    rels = data.draw(st.tuples(st.integers(0, n - 1)) | st.tuples(st.integers(0, n - 1),
                                                                   st.integers(0, n - 1)))
    tail = data.draw(st.sampled_from(READ_BACK_TAILS))
    parsed = parse_triplets(f"{table.label(rels)} {tail}", table)
    assert (label_reads_back(table, rels) and tail_reads_back(table, tail)) == (
        parsed == [ParsedTriplet(rels, tail)])
