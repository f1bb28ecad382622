from __future__ import annotations

import codecs
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgcil import EmptyGraph, KnowledgeGraph, LoadStats, MalformedLine, load_graph, normalize_name
from kgcil.synthetic import large_graph_tsv, synthetic_facts
from conftest import FRUIT_FACTS, REEF_FACTS, write_tsv


def names_of(graph, ids):
    return {graph.entity_name(i) for i in ids}


def test_normalize_name():
    assert normalize_name("  Granny  Smith ") == "granny_smith"
    assert normalize_name("granny_smith") == "granny_smith"
    assert normalize_name("A\tB\nC") == "a_b_c"


class TestLoad:
    def test_fruit_stats(self, fruit_tsv):
        g = load_graph(fruit_tsv)
        assert g.stats.to_dict() == {
            "entities": 6,
            "relations": 3,
            "facts": 6,
            "duplicates_dropped": 0,
            "self_loops_dropped": 0,
        }

    def test_duplicates_counted_once(self, tmp_path):
        facts = FRUIT_FACTS + [("granny_smith", "IsA", "fruit")] * 2
        g = load_graph(write_tsv(tmp_path / "dup.tsv", facts))
        assert g.stats.facts == 6
        assert g.stats.duplicates_dropped == 2

    def test_self_loops_dropped(self, tmp_path):
        facts = FRUIT_FACTS + [("fruit", "RelatedTo", "fruit")]
        g = load_graph(write_tsv(tmp_path / "loop.tsv", facts))
        assert g.stats.facts == 6
        assert g.stats.self_loops_dropped == 1
        # the loop's relation never made it into the table
        assert g.relation_id("RelatedTo") is None

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("# header\n\na\tIsA\tb\n   \n# tail comment\n", encoding="utf-8")
        assert load_graph(path).stats.facts == 1

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tIsA\tb\nbroken line\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as err:
            load_graph(path)
        assert err.value.line_no == 2

    def test_empty_name_is_malformed(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tIsA\t  \n", encoding="utf-8")
        with pytest.raises(MalformedLine) as err:
            load_graph(path)
        assert err.value.line_no == 1

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(EmptyGraph):
            load_graph(path)

    def test_load_determinism(self, fruit_tsv):
        g1, g2 = load_graph(fruit_tsv), load_graph(fruit_tsv)
        assert g1.entities.names() == g2.entities.names()
        assert g1.relations.names() == g2.relations.names()
        assert [f for i in range(len(g1.entities)) for f in g1.facts_of(i)] == [
            f for i in range(len(g2.entities)) for f in g2.facts_of(i)
        ]

    def test_whitespace_normalization_merges(self, tmp_path):
        facts = [("Granny Smith", "IsA", "fruit"), ("granny_smith", "IsA", "apple")]
        g = load_graph(write_tsv(tmp_path / "n.tsv", facts))
        assert g.stats.entities == 3  # granny_smith, fruit, apple


class TestQueries:
    def test_heads_for(self, fruit_graph):
        g = fruit_graph
        isa, loc = g.relation_id("IsA"), g.relation_id("AtLocation")
        assert names_of(g, g.heads_for(isa, g.entity_id("fruit"))) == {"granny_smith", "pineapple"}
        assert names_of(g, g.heads_for(loc, g.entity_id("pizza"))) == {"pineapple"}
        # unknown tail name resolves to nothing -> empty set by contract
        assert g.entity_id("vehicle") is None
        assert g.heads_for(isa, 999) == set()
        assert g.heads_for(-1, 0) == set()

    def test_facts_of_ordering(self, fruit_graph):
        g = fruit_graph
        facts = g.facts_of(g.entity_id("granny_smith"))
        rendered = [(g.relation_name(f.relation), g.entity_name(f.tail)) for f in facts]
        assert rendered == [("IsA", "fruit"), ("ReceiveAction", "eaten"), ("AtLocation", "store")]

    def test_facts_of_isolated_entity(self, fruit_graph):
        g = fruit_graph
        assert g.facts_of(g.entity_id("eaten")) == []

    def test_two_hop(self, reef_graph):
        g = reef_graph
        paths = g.two_hop_facts(g.entity_id("clownfish"))
        assert [(tuple(g.relation_name(r) for r in rels), g.entity_name(t)) for rels, t in paths] == [
            (("RelatedTo", "RelatedTo"), "river")
        ]

    def test_two_hop_excludes_cycles(self):
        g = KnowledgeGraph.from_facts([("a", "R", "b"), ("b", "R", "a"), ("b", "R", "c")])
        paths = g.two_hop_facts(g.entity_id("a"))
        # a->b->a is excluded, only a->b->c remains
        assert [(rels, g.entity_name(t)) for rels, t in paths] == [((0, 0), "c")]

    def test_two_hop_cap(self):
        g = KnowledgeGraph.from_facts(
            [("a", "R", "b"), ("b", "R", "c"), ("b", "R", "d"), ("b", "R", "e")]
        )
        full = g.two_hop_facts(g.entity_id("a"))
        assert len(full) == 3
        assert g.two_hop_facts(g.entity_id("a"), limit=1) == full[:1]

    def test_two_hop_no_outgoing(self, fruit_graph):
        assert fruit_graph.two_hop_facts(fruit_graph.entity_id("pizza")) == []

    def test_fact_count_conservation(self, fruit_graph, reef_graph):
        for g in (fruit_graph, reef_graph):
            assert sum(len(g.facts_of(i)) for i in range(len(g.entities))) == g.n_facts

    def test_pair_index_roundtrip(self, fruit_graph):
        g = fruit_graph
        for head in range(len(g.entities)):
            for f in g.facts_of(head):
                assert head in g.heads_for(f.relation, f.tail)


@st.composite
def triple_lists(draw):
    n_ent = draw(st.integers(min_value=2, max_value=12))
    n_rel = draw(st.integers(min_value=1, max_value=4))
    ents = [f"e{i}" for i in range(n_ent)]
    rels = [f"R{i}" for i in range(n_rel)]
    triples = draw(
        st.lists(
            st.tuples(st.sampled_from(ents), st.sampled_from(rels), st.sampled_from(ents)),
            min_size=1,
            max_size=40,
        )
    )
    return [(h, r, t) for h, r, t in triples if h != t]


@settings(max_examples=60, deadline=None)
@given(triple_lists())
def test_index_consistency_property(tmp_path_factory, triples):
    if not triples:
        return
    g = KnowledgeGraph.from_facts(triples)
    path = write_tsv(tmp_path_factory.mktemp("facts") / "g.tsv", triples)
    assert graph_state(load_graph(path)) == graph_state(g)
    # loading is set semantics: the fact table equals the distinct input triples
    expected = {
        (normalize_name(h), r, normalize_name(t)) for h, r, t in triples
    }
    got = {
        (g.entity_name(f.head), g.relation_name(f.relation), g.entity_name(f.tail))
        for i in range(len(g.entities))
        for f in g.facts_of(i)
    }
    assert got == expected
    assert sum(len(g.facts_of(i)) for i in range(len(g.entities))) == g.n_facts
    # every fact is visible through the pair index and vice versa
    for i in range(len(g.entities)):
        for f in g.facts_of(i):
            assert f.head in g.heads_for(f.relation, f.tail)


# -- parity with the per-line loader ------------------------------------------
#
# ref_load is the per-line loader the column-wise one replaced, frozen here
# as the reference: same ids in the same first-seen order, same arrays, and
# the same first error.

_REF_WS = re.compile(r"\s+")


def ref_load(path):
    entities: dict[str, int] = {}
    relations: dict[str, int] = {}
    hs: list[int] = []
    rs: list[int] = []
    ts: list[int] = []
    loops = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise MalformedLine(line_no, f"expected 3 tab-separated fields, got {len(parts)}")
            head = _REF_WS.sub("_", parts[0].strip().lower())
            rel = _REF_WS.sub("_", parts[1].strip())
            tail = _REF_WS.sub("_", parts[2].strip().lower())
            if not (head and rel and tail):
                raise MalformedLine(line_no, "empty field after normalization")
            if head == tail:
                loops += 1
                continue
            hs.append(entities.setdefault(head, len(entities)))
            rs.append(relations.setdefault(rel, len(relations)))
            ts.append(entities.setdefault(tail, len(entities)))
    if not hs:
        raise EmptyGraph("no facts survived loading")
    ne, nr = len(entities), len(relations)
    h, r, t = (np.asarray(x, dtype=np.int64) for x in (hs, rs, ts))
    _, first = np.unique((h * nr + r) * ne + t, return_index=True)
    h, r, t = h[first], r[first], t[first]
    pair_key = r * ne + t
    order = np.lexsort((h, pair_key))
    stats = LoadStats(ne, nr, len(first), len(hs) - len(first), loops)
    return (stats, list(entities), list(relations),
            *(a.tolist() for a in (h, r, t, pair_key[order], h[order])))


def graph_state(g):
    arrays = (g._h, g._r, g._t, g._pair_keys, g._pair_heads)
    assert all(a.dtype == np.int64 for a in arrays)
    return (g.stats, g.entities.names(), g.relations.names(), *(a.tolist() for a in arrays))


def outcome(load, path):
    try:
        return load(path)
    except MalformedLine as err:
        return ("MalformedLine", err.line_no, err.reason)
    except (EmptyGraph, UnicodeDecodeError) as err:
        return (type(err).__name__,)


def assert_parity(path):
    expected = outcome(ref_load, path)
    assert outcome(lambda p: graph_state(load_graph(p)), path) == expected
    return expected


_NAME_TOKENS = ["a", "A", "b", "B", "c7", "x_y", "Made", "Of", "Made_Of", "é", "É", "ß", "İ", "\x00", "-"]
_SPACE_TOKENS = [" ", "  ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000", "\u2028"]


@st.composite
def tsv_texts(draw):
    """Random TSV text: comments, blanks, loops, merges, and (when faulty) bad rows."""
    faulty = draw(st.booleans())

    def name():
        tokens = draw(st.lists(st.sampled_from(_NAME_TOKENS * 3 + _SPACE_TOKENS), max_size=4))
        if not faulty:  # one printable token keeps the name non-empty
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_NAME_TOKENS)))
        return "".join(tokens)

    kinds = ["fact"] * 6 + ["loop", "comment", "blank", "indented"] + ["arity"] * faulty
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "fact":
            line = "\t".join((name(), name(), name()))
        elif kind == "loop":
            head = name()
            tail = draw(st.sampled_from([head, head.upper(), f" {head}\xa0", head.replace("_", " ")]))
            line = "\t".join((head, name(), tail))
        elif kind == "comment":
            line = draw(st.sampled_from(["#", "# note", "  # indented", "\u3000#x", "\t#\tthree\tfields"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t", "\t\t", "\x0b", "\x0c\x1c", " \t \xa0"]))
        elif kind == "indented":
            indent = draw(st.sampled_from([" ", "\xa0", "\x0b", "\u3000"] + ["\t"] * faulty))  # a tab adds a field
            line = indent + "\t".join((name(), name(), name()))
        else:
            line = "\t".join(name() for _ in range(draw(st.sampled_from([1, 2, 4]))))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    text = "".join(lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


@settings(max_examples=400, deadline=None)
@given(tsv_texts())
@example("a\tR\tb\n \tR\tc\nx\ty\n")  # an empty field before a short row
@example("a\tR\tb\nx\ty\n \tR\tc\n")  # a short row before an empty field
@example("A\x00\tR\ta\na\tR\tA\n")  # a trailing NUL keeps names apart
@example("long_name_of_entity_1\tR\tlong_name_of_entity_2\nLONG_NAME_OF_ENTITY_1\tR R\tx\n")
@example("a\tR\t" + "é" * 300 + "\nb\tR\ta\n" + "É" * 300 + "\tR\tb\n")  # one row far wider than the rest
def test_loader_matches_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("tsv") / "g.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert_parity(path)


def test_loader_matches_reference_on_fixture_graphs(tmp_path, fruit_tsv):
    assert_parity(fruit_tsv)
    assert_parity(write_tsv(tmp_path / "reef.tsv", REEF_FACTS))
    facts = synthetic_facts(60, n_relations=6, contention=0.5, with_chains=True, seed=3)
    assert_parity(write_tsv(tmp_path / "synthetic.tsv", facts))
    large_graph_tsv(tmp_path / "large.tsv", n_entities=3000, n_relations=7, n_facts=9000, n_classes=20, seed=1)
    stats = assert_parity(tmp_path / "large.tsv")[0]
    assert (stats.entities, stats.relations, stats.facts) == (3000, 7, 9000)


@pytest.mark.parametrize("first_line", ["# fruit\n", ""])
@pytest.mark.parametrize("variant", ["bom", "crlf", "cr", "bom+crlf"])
def test_bom_and_line_endings_load_like_lf(tmp_path, variant, first_line):
    text = (first_line + "".join(f"{h}\t{r}\t{t}\n" for h, r, t in FRUIT_FACTS)).encode("utf-8")
    lf = tmp_path / "lf.tsv"
    lf.write_bytes(text)
    if "crlf" in variant:
        text = text.replace(b"\n", b"\r\n")
    if variant == "cr":
        text = text.replace(b"\n", b"\r")
    if "bom" in variant:
        text = codecs.BOM_UTF8 + text
    other = tmp_path / "other.tsv"
    other.write_bytes(text)
    g = load_graph(other)
    assert graph_state(g) == graph_state(load_graph(lf))
    assert g.entity_id("granny_smith") == 0


def test_invalid_utf8_raises(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"a\tR\tb\n\xff\tR\tc\n")
    with pytest.raises(UnicodeDecodeError):
        load_graph(path)
