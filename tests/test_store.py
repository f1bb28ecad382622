from __future__ import annotations

import codecs
import hashlib
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgcil import (EmptyGraph, Fact, KnowledgeGraph, LoadStats, MalformedLine, load_graph,
                   normalize_name, store)
from kgcil.synthetic import _decimal_rows, large_graph_tsv, synthetic_facts
from conftest import FRUIT_FACTS, REEF_FACTS, write_tsv


def names_of(graph, ids):
    return {graph.entity_name(i) for i in ids}


def test_normalize_name():
    assert normalize_name("  Granny  Smith ") == "granny_smith"
    assert normalize_name("granny_smith") == "granny_smith"
    assert normalize_name("A\tB\nC") == "a_b_c"


raw_names = st.text(st.one_of(st.sampled_from(" \t\n\x1f\u00a0\u2003\u3000AZÉİẞΣ_"), st.characters()),
                    min_size=1, max_size=10).filter(normalize_name)


@given(st.lists(st.tuples(raw_names, raw_names), min_size=1, max_size=8))
def test_table_names_are_normal(pairs):
    # entity_id skips normalize_name for a name the table holds; exact because each is a fixed point
    g = KnowledgeGraph.from_facts([("anchor", "R", "other")] + [(h, "R", t) for h, t in pairs])
    assert all(normalize_name(name) == name for name in g.entities.names())
    for raw in [name for pair in pairs for name in pair]:
        assert g.entity_id(raw) == g.entities.get(normalize_name(raw))


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
        # ids outside the entity table have no facts, not another head's
        for head in (-2, -1, len(g.entities), len(g.entities) + 5):
            assert g.facts_of(head) == []
            assert list(g.two_hop_facts(head)) == []

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
        full = list(g.two_hop_facts(g.entity_id("a")))
        assert len(full) == 3
        assert list(g.two_hop_facts(g.entity_id("a"), limit=1)) == full[:1]
        assert list(g.two_hop_facts(g.entity_id("a"), limit=0)) == []
        with pytest.raises(ValueError):
            g.two_hop_facts(g.entity_id("a"), limit=-1)

    def test_two_hop_walks_a_mid_only_when_reached(self):
        # a has three mids; the first chain needs only a's edges and b's
        g = KnowledgeGraph.from_facts([("a", "R", "b"), ("a", "R", "c"), ("a", "R", "d"),
                                       ("b", "R", "x"), ("c", "R", "y"), ("d", "R", "z")])
        with mock.patch.object(KnowledgeGraph, "_head_edges", autospec=True,
                               side_effect=KnowledgeGraph._head_edges) as spy:
            first = next(g.two_hop_facts(g.entity_id("a")))
        assert first == ((0, 0), g.entity_id("x"))
        assert [c.args[1] for c in spy.call_args_list] == [g.entity_id("a"), g.entity_id("b")]

    def test_two_hop_no_outgoing(self, fruit_graph):
        assert list(fruit_graph.two_hop_facts(fruit_graph.entity_id("pizza"))) == []

    def test_fact_count_conservation(self, fruit_graph, reef_graph):
        for g in (fruit_graph, reef_graph):
            assert sum(len(g.facts_of(i)) for i in range(len(g.entities))) == g.n_facts

    def test_pair_index_built_on_first_lookup(self, tmp_path):
        g = load_graph(write_tsv(tmp_path / "fruit.tsv", FRUIT_FACTS))
        assert "_tail_index" not in vars(g)
        assert names_of(g, g.heads_for(g.relation_id("IsA"), g.entity_id("fruit"))) == {
            "granny_smith", "pineapple"}
        starts, keys = vars(g)["_tail_index"]
        assert np.asarray(starts).dtype == np.asarray(keys).dtype == np.int32
        assert graph_state(g)[-2:] == ref_load(tmp_path / "fruit.tsv")[-2:]

    def test_pair_index_roundtrip(self, fruit_graph):
        g = fruit_graph
        for head in range(len(g.entities)):
            for f in g.facts_of(head):
                assert head in g.heads_for(f.relation, f.tail)

    def test_heads_for_matches_a_scan_on_hub_tails(self):
        # two hub tails take most facts, under every relation; the rest are scattered
        rng = np.random.default_rng(4)
        n_ent, n_rel = 300, 6
        tails = np.where(rng.random(3000) < 0.7, rng.integers(0, 2, 3000), rng.integers(0, n_ent, 3000))
        g = KnowledgeGraph.from_facts(
            (f"e{h}", f"R{r}", f"e{t}")
            for h, r, t in zip(rng.integers(0, n_ent, 3000).tolist(), rng.integers(0, n_rel, 3000).tolist(),
                               tails.tolist()))
        ne, nr = len(g.entities), len(g.relations)
        scan: dict[tuple[int, int], set[int]] = {}
        for head in range(ne):
            for f in g.facts_of(head):
                scan.setdefault((f.relation, f.tail), set()).add(head)
        for (rel, tail), heads in scan.items():
            assert g.heads_for(rel, tail) == heads
        hubs = [g.entity_id("e0"), g.entity_id("e1")]
        assert all(len(scan.get((rel, hub), ())) > 100 for hub in hubs for rel in range(nr))
        # pairs with no heads: every (relation, tail) the scan never saw, hubs included
        empty = [(rel, tail) for rel in range(nr) for tail in range(ne) if (rel, tail) not in scan]
        assert empty and all(g.heads_for(rel, tail) == set() for rel, tail in empty)
        for rel, tail in [(-1, hubs[0]), (nr, hubs[0]), (0, -1), (0, ne), (-1, -1), (nr, ne), (2 ** 40, 0)]:
            assert g.heads_for(rel, tail) == set()


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
@given(triple_lists(), st.integers(min_value=0, max_value=3))
def test_index_consistency_property(tmp_path_factory, triples, limit):
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
    # per-head reads against the sorted, distinct id triples, ids outside the table included
    ref = sorted({(g.entity_id(h), g.relation_id(r), g.entity_id(t)) for h, r, t in triples})
    edges = {h: [(r, t) for hh, r, t in ref if hh == h] for h in range(-2, len(g.entities) + 2)}
    for h in edges:
        assert g.facts_of(h) == [Fact(h, r, t) for r, t in edges[h]]
        chains = [((r1, r2), t) for r1, mid in edges[h] for r2, t in edges[mid] if t not in (h, mid)]
        assert list(g.two_hop_facts(h)) == chains
        assert list(g.two_hop_facts(h, limit)) == chains[:limit]


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
    with open(path, encoding="utf-8-sig") as fh:  # one leading BOM is ignored
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
    # the index behind heads_for: per-tail offsets, and relation * ne + head sorted within each tail
    tail_starts = np.concatenate(([0], np.cumsum(np.bincount(t, minlength=ne))))
    tail_keys = r * ne + h
    tail_keys = tail_keys[np.lexsort((tail_keys, t))]
    stats = LoadStats(ne, nr, len(first), len(hs) - len(first), loops)
    return (stats, list(entities), list(relations),
            *(a.tolist() for a in (h, r, t, tail_starts, tail_keys)))


def assert_reads_back(table):
    """get inverts name, and a name the table lacks reads back as None."""
    names = table.names()
    ids = {name: i for i, name in enumerate(names)}
    assert len(ids) == len(names)
    for i, name in enumerate(names):
        assert type(table.name(i)) is str and table.name(i) == name
        for probe in (name, name + "\x00", name + "x", ""):
            assert table.get(probe) == ids.get(probe), probe


def graph_state(g):
    """The graph as ref_load returns it: heads, relations and tails are decoded from the offsets."""
    starts, edges = np.asarray(g._starts), g._edges
    tail_starts, tail_keys = (np.asarray(a) for a in g._tail_index)
    assert starts.dtype == edges.dtype == np.int64
    assert tail_starts.dtype == tail_keys.dtype == np.int32  # offsets and keys below 2**31
    assert starts[0] == 0 and starts[-1] == len(edges) and (np.diff(starts) >= 0).all()
    heads = np.repeat(np.arange(len(g.entities)), np.diff(starts))
    rels, tails = np.divmod(edges, len(g.entities))
    assert_reads_back(g.entities)
    assert_reads_back(g.relations)
    return (g.stats, g.entities.names(), g.relations.names(),
            *(a.tolist() for a in (heads, rels, tails, tail_starts, tail_keys)))


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
@example("a\tR\tb\nc\tR\tB\n")  # B, seen last, merges into b and is left with no rows
@example("long_name_of_entity_1\tR\tlong_name_of_entity_2\nLONG_NAME_OF_ENTITY_1\tR R\tx\n")
@example("a\tR\t" + "é" * 300 + "\nb\tR\ta\n" + "É" * 300 + "\tR\tb\n")  # one row far wider than the rest
@example("abcdefg\tRelatio\tabcdefgh\nabcdefghi\tRelation\t" + "a" * 15 + "\n"
         + "b" * 16 + "\tRelation9\t" + "c" * 17 + "\n")  # names of 7, 8, 9, 15, 16 and 17 bytes
@example("abcdefgé\tR\tabcdefg\nABCDEFGÉ\tRelatioé\t" + "d" * 15 + "é\n")  # é across a word edge
@example("")  # no lines
@example("x")  # one short row, no tab and no final newline
@example("a\tb")  # one short row, one tab
@example("a\tR\tb")  # a good row without a final newline
@example("a\tR\tb\nx")  # a short last row without a final newline
@example("\t\t")  # blank: three empty fields
@example("#\tc\td\ne\tR\tf")  # a comment with tabs before the first row
@example("a\tR\tb\tc\n")  # one field too many
# the scan pads its buffer with 8 bytes: a row's last word must still fit
@example("a\tR\tb\nc\tR\t" + "t" * 20)  # a 20-byte tail on the last line, no final newline
@example("a\tR\tb\nx\n")  # a short last row: its tail starts past the final newline
@example("\ufeffa\tR\tb\r\nc\tR\tabcdefghi\r\n")  # BOM and CRLF, a 9-byte last name
def test_loader_matches_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("tsv") / "g.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert_parity(path)


def test_offset_dtype_switches_at_2_31():
    assert store._offset_dtype(2 ** 31 - 1) is np.int32
    assert store._offset_dtype(2 ** 31) is np.int64


def test_load_peak_memory_is_bounded(tmp_path):
    # the scan and the interning each hold a few per-line arrays, not a dozen
    path = tmp_path / "large.tsv"
    large_graph_tsv(path, n_entities=50_000, n_relations=20, n_facts=120_000, n_classes=50, seed=1)
    tracemalloc.start()
    try:
        graph = load_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.n_facts == 120_000
    assert peak <= 5.0 * path.stat().st_size


def test_loader_matches_reference_on_fixture_graphs(tmp_path, fruit_tsv):
    assert_parity(fruit_tsv)
    assert_parity(write_tsv(tmp_path / "reef.tsv", REEF_FACTS))
    facts = synthetic_facts(60, n_relations=6, contention=0.5, with_chains=True, seed=3)
    assert_parity(write_tsv(tmp_path / "synthetic.tsv", facts))
    large_graph_tsv(tmp_path / "large.tsv", n_entities=3000, n_relations=7, n_facts=9000, n_classes=20, seed=1)
    stats = assert_parity(tmp_path / "large.tsv")[0]
    assert (stats.entities, stats.relations, stats.facts) == (3000, 7, 9000)


def test_names_sharing_a_key_read_back(tmp_path, monkeypatch):
    # one key for every name, so each lookup walks a run of equal keys
    monkeypatch.setattr(store, "_row_keys", lambda rows: np.zeros(len(rows), np.uint64))
    monkeypatch.setattr(store, "_key", lambda name: 0)
    facts = FRUIT_FACTS + [("Granny Smith", "IsA", "apple"),
                           ("long_name_of_entity_1", "Is A", "é")]
    g = KnowledgeGraph.from_facts(facts)
    assert not any(g.entities._keys)
    assert_parity(write_tsv(tmp_path / "fruit.tsv", facts))
    assert graph_state(load_graph(tmp_path / "fruit.tsv")) == graph_state(g)


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


def test_normalized_names_merge_into_a_str_table(tmp_path):
    # one name that needs normalization must not turn the table into objects
    path = tmp_path / "large.tsv"
    large_graph_tsv(path, n_entities=3000, n_relations=7, n_facts=9000, n_classes=20, seed=1)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("E5\tRel01\te7\nNew Name\tRel02\tE9\n")
    assert_parity(path)
    g = load_graph(path)
    assert g.entities._names.dtype.kind == "U"
    assert g.entity_id("new_name") == 3000


@pytest.mark.parametrize("kwargs, md5", [
    (dict(n_entities=3000, n_relations=7, n_facts=9000, n_classes=20, seed=1),
     "a782ae05cc841148a670f7dff5574e09"),
    (dict(n_entities=2000, n_relations=120, n_facts=6000, n_classes=10, seed=4),
     "e4deb3fcb4a4fc9cd2cf6a3bd508877c"),
    # crosses a 65,536-row write slice; 4-digit entity names and Rel100
    (dict(n_entities=1001, n_relations=101, n_facts=70_000, n_classes=5, seed=3),
     "d6068f022afb318bbc305945fb51e0a4"),
    # one entity and no classes: every drawn fact is a self-loop, so the pool is empty
    (dict(n_entities=1, n_relations=3, n_facts=0, n_classes=0, seed=0),
     "ac43bb6f0f1e381a97e25eabecb64a37"),
])
def test_large_graph_tsv_bytes_are_pinned(tmp_path, kwargs, md5):
    path = tmp_path / "large.tsv"
    large_graph_tsv(path, **kwargs)
    assert hashlib.md5(path.read_bytes()).hexdigest() == md5


# -- grouping a block's rows ---------------------------------------------------


def _first_byte_keys(rows):
    return rows[:, 0].astype(np.uint64)  # distinct rows share keys all the time


def _zero_keys(rows):
    return np.zeros(len(rows), np.uint64)


@st.composite
def row_blocks(draw):
    """Rows of one block: duplicates, and rows differing only in their last word or padding."""
    width = 8 * draw(st.integers(1, 3))
    byte = st.sampled_from([0x00, 0x61, 0x62, store._PAD])
    pool = []
    for row in draw(st.lists(st.lists(byte, min_size=width, max_size=width), min_size=1, max_size=5)):
        cut = draw(st.integers(width - 8, width - 1))
        pool += [row, row[:cut] + [row[cut] ^ 1] + row[cut + 1:], row[:cut] + [store._PAD] * (width - cut)]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    return np.array([pool[i] for i in picks], np.uint8)


@settings(max_examples=300, deadline=None)
@given(row_blocks(), st.sampled_from([store._row_keys, _first_byte_keys, _zero_keys]))
def test_group_rows_matches_unique(rows, row_keys):
    _, ref_first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    ref_first = np.sort(ref_first)
    # ids count up in order of first position
    ref_ids = np.searchsorted(ref_first, np.unique(rows, axis=0, return_index=True)[1][inverse.ravel()])
    with mock.patch.object(store, "_row_keys", row_keys):
        ids, first = store._group_rows(rows)
    assert first.tolist() == ref_first.tolist()
    assert ids.tolist() == ref_ids.tolist()


def test_keys_sharing_high_bits_are_split():
    # two keys whose products with _MIX differ only in bit 0, below the p = 2
    # position bits of a 4-row block, so they share one run of the sort
    inverse = pow(store._MIX, -1, 2 ** 64)
    keys = [mixed * inverse % 2 ** 64 for mixed in (0x0123456789ABCDE0, 0x0123456789ABCDE1)]
    assert len({key * store._MIX % 2 ** 64 >> 2 for key in keys}) == 1
    rows = np.array([keys[0], keys[1], keys[1], keys[0]], np.uint64).view(np.uint8).reshape(4, 8)
    ids, first = store._group_rows(rows)
    assert ids.tolist() == [0, 1, 1, 0]
    assert first.tolist() == [0, 1]


def test_wide_rows_sharing_a_key_are_split():
    a = [7, 9]
    b = [8, (9 - store._MIX) % 2 ** 64]  # w0 * _MIX + w1 folds to the same key
    rows = np.array([a, b, a, b, b], np.uint64)
    assert len(set(store._row_keys(rows.view(np.uint8)).tolist())) == 1
    ids, first = store._group_rows(rows.view(np.uint8))
    assert ids.tolist() == [0, 1, 0, 1, 1]
    assert first.tolist() == [0, 1]


def test_names_sharing_high_bits_load_like_reference(tmp_path, monkeypatch):
    # with _MIX = 1 a one-word key is its row, so names that differ only in
    # the low bits of their first byte share the high bits of the sort
    monkeypatch.setattr(store, "_MIX", 1)
    names = ["a", "b", "c", "d", "q", "r", "A", "long_name_a", "long_name_b"]
    facts = [(h, "R", t) for h in names for t in names[::-1]] + [("S", "Q", "s ")]
    assert_parity(write_tsv(tmp_path / "g.tsv", facts))
    assert graph_state(load_graph(tmp_path / "g.tsv")) == graph_state(KnowledgeGraph.from_facts(facts))


def test_a_dropped_graph_frees_its_name_tables_without_a_collection():
    # a table's memos reach it through a weak reference, so no table is a reference cycle
    import gc
    import weakref

    graph = KnowledgeGraph.from_facts(FRUIT_FACTS)
    graph.entity_id("apple")
    graph.relations.keywords()["IsA"]
    refs = [weakref.ref(graph.entities), weakref.ref(graph.relations)]
    gc.disable()
    try:
        del graph
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 1001])
def test_decimal_rows_spell_the_names(n):
    # NUL bytes stand where a number has fewer digits than the widest; the writer drops them
    for prefix, min_digits, fmt in [(b"e", 1, "e{}"), (b"Rel", 2, "Rel{:02d}")]:
        rows = _decimal_rows(prefix, n, min_digits)
        assert [row[row != 0].tobytes().decode() for row in rows] == [fmt.format(i) for i in range(n)]


def test_large_graph_tsv_refuses_class_tails_past_the_entities(tmp_path):
    # class 9's last dedicated tail is entity 10 + 27 + 17 = 54, which 40 entities lack
    path = tmp_path / "large.tsv"
    with pytest.raises(ValueError, match="n_entities=40 .*n_classes=10"):
        large_graph_tsv(path, n_entities=40, n_relations=7, n_facts=200, n_classes=10)
    assert not path.exists()
    large_graph_tsv(path, n_entities=55, n_relations=7, n_facts=200, n_classes=10)
    assert load_graph(path).n_facts == 200
