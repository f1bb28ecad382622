from __future__ import annotations

import copy
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgcil import (
    KnowledgeGraph,
    NameTable,
    RelationPath,
    TaskSubgraph,
    UnknownClass,
    export_subgraph,
    extend_subgraph,
    import_subgraph,
    parse_triplets,
    render_export,
    render_training_text,
    vote_head,
)
from kgcil import store, taskgraph
from kgcil.synthetic import class_name, synthetic_graph
from conftest import FRUIT_FACTS


def grant_names(sub, graph, cname):
    a = sub.assignments[graph.entity_id(cname)]
    return [
        ("_".join(graph.relation_name(r) for r in p.relations), graph.entity_name(p.tail))
        for p in a.paths
    ]


class TestExtend:
    def test_two_session_allocation(self, fruit_graph):
        g = fruit_graph
        sub = TaskSubgraph(g)
        _, rep1 = extend_subgraph(sub, ["granny_smith"], g, 2)
        assert grant_names(sub, g, "granny_smith") == [("IsA", "fruit"), ("ReceiveAction", "eaten")]
        assert not rep1.grants[0].fallback_used
        # pineapple skips the used (IsA, fruit) pair and takes the next two
        _, rep2 = extend_subgraph(sub, ["pineapple"], g, 2)
        assert grant_names(sub, g, "pineapple") == [("AtLocation", "store"), ("AtLocation", "pizza")]
        assert rep2.shortfall == []
        assert sub.tasks == 2

    def test_two_hop_fallback(self, reef_graph):
        g = reef_graph
        sub = TaskSubgraph(g)
        extend_subgraph(sub, ["anemonefish"], g, 1)
        _, rep = extend_subgraph(sub, ["clownfish"], g, 1)
        assert grant_names(sub, g, "clownfish") == [("RelatedTo_RelatedTo", "river")]
        assert rep.grants[0].fallback_used

    def test_no_facts_means_shortfall(self, fruit_graph):
        # "eaten" exists only as a tail: no direct facts, no chains
        sub = TaskSubgraph(fruit_graph)
        _, rep = extend_subgraph(sub, ["eaten"], fruit_graph, 2)
        assert rep.shortfall == ["eaten"]
        assert rep.grants[0].granted == 0
        assert sub.assignments[fruit_graph.entity_id("eaten")].paths == []

    def test_unknown_class_collected(self, fruit_graph):
        sub = TaskSubgraph(fruit_graph)
        _, rep = extend_subgraph(sub, ["warp_drive", "pineapple"], fruit_graph, 1)
        assert rep.unknown == ["warp_drive"]
        assert rep.shortfall == ["warp_drive"]
        assert rep.grants[0].unknown
        # the known class still got its grant
        assert rep.grants[1].granted == 1

    def test_reassignment_rejected(self, fruit_graph):
        sub = TaskSubgraph(fruit_graph)
        extend_subgraph(sub, ["pineapple"], fruit_graph, 1)
        with pytest.raises(ValueError, match="already assigned"):
            extend_subgraph(sub, ["pineapple"], fruit_graph, 1)

    @pytest.mark.parametrize("batch,assigned", [
        ([0, 1, 0], "class_000"),  # repeated within the batch
        ([1, 3, 2], "class_002"),  # assigned by an earlier extend
    ], ids=["repeated", "earlier"])
    def test_refused_extend_grants_nothing(self, batch, assigned):
        g = synthetic_graph(6, seed=1)
        sub = TaskSubgraph(g)
        extend_subgraph(sub, [class_name(2)], g, 2)
        before = copy.deepcopy((sub.assignments, sub.pair_to_class, sub.tasks))
        with pytest.raises(ValueError, match=f"class already assigned: '{assigned}'"):
            extend_subgraph(sub, [class_name(i) for i in batch], g, 2)
        assert (sub.assignments, sub.pair_to_class, sub.tasks) == before
        # the next extend files its classes under the next task
        extend_subgraph(sub, [class_name(0)], g, 2)
        assert sub.assignments[g.entity_id(class_name(0))].task_index == 1

    def test_bad_r_target(self, fruit_graph):
        with pytest.raises(ValueError):
            extend_subgraph(TaskSubgraph(fruit_graph), ["pineapple"], fruit_graph, 0)

    def test_other_graph_rejected(self, fruit_graph, reef_graph):
        sub = TaskSubgraph(fruit_graph)
        with pytest.raises(ValueError, match="different graph"):
            extend_subgraph(sub, ["anemonefish"], reef_graph, 1)
        assert not sub.assignments and sub.tasks == 0

    def test_sufficiency_bound(self, fruit_graph):
        # enough unused direct facts -> fallback never engages
        sub = TaskSubgraph(fruit_graph)
        _, rep = extend_subgraph(sub, ["granny_smith"], fruit_graph, 3)
        assert rep.grants[0].granted == 3
        assert not rep.grants[0].fallback_used

    def test_monotonicity(self, fruit_graph):
        sub = TaskSubgraph(fruit_graph)
        extend_subgraph(sub, ["granny_smith"], fruit_graph, 2)
        before = copy.deepcopy(sub.assignments)
        extend_subgraph(sub, ["pineapple"], fruit_graph, 2)
        for cid, a in before.items():
            assert sub.assignments[cid].paths == a.paths
            assert sub.assignments[cid].task_index == a.task_index


class TestClassOfPair:
    def test_lookup(self, fruit_graph):
        g = fruit_graph
        sub = TaskSubgraph(g)
        extend_subgraph(sub, ["granny_smith"], g, 2)
        isa = g.relation_id("IsA")
        key = ((isa,), g.entity_id("fruit"))
        assert sub.pair_to_class[key] == g.entity_id("granny_smith")
        path = RelationPath((isa,), g.entity_id("fruit"))
        assert sub.pair_to_class[path.key] == g.entity_id("granny_smith")
        assert ((isa,), g.entity_id("pizza")) not in sub.pair_to_class

    def test_empty_subgraph(self, fruit_graph):
        sub = TaskSubgraph(fruit_graph)
        assert ((0,), 1) not in sub.pair_to_class
        assert not sub.assignments

    @pytest.mark.parametrize("imported", [False, True], ids=["extend", "import"])
    def test_registry_keys_are_the_granted_paths(self, reef_graph, tmp_path, imported):
        # each path is stored once: its registry key is the path object its class holds
        g = reef_graph
        sub = TaskSubgraph(g)
        extend_subgraph(sub, ["anemonefish"], g, 1)
        extend_subgraph(sub, ["clownfish"], g, 1)  # a two-hop path
        if imported:
            export_subgraph(sub, tmp_path / "sub.tsv")
            sub = import_subgraph(tmp_path / "sub.tsv", g)
        assert len(sub.pair_to_class) == 2
        for key, cid in sub.pair_to_class.items():
            assert any(key is p for p in sub.assignments[cid].paths)
            assert key.key is key
            # a plain (relations, tail) pair, as vote_head builds it, finds the same owner
            assert sub.pair_to_class[(key.relations, key.tail)] == cid

    def test_records_hold_no_dict(self, fruit_graph):
        g = fruit_graph
        sub = TaskSubgraph(g)
        extend_subgraph(sub, ["granny_smith"], g, 1)
        assignment = sub.assignments[g.entity_id("granny_smith")]
        records = [assignment, assignment.paths[0], g.facts_of(g.entity_id("pineapple"))[0],
                   parse_triplets("pineapple IsA fruit.", g.relations)[0]]
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__


class TestRegistryWrites:
    """extend_subgraph and import_subgraph pause the cyclic collector and share relation tuples."""

    @pytest.fixture
    def exported(self, fruit_graph, tmp_path):
        sub = TaskSubgraph(fruit_graph)
        extend_subgraph(sub, ["granny_smith"], fruit_graph, 2)
        export_subgraph(sub, tmp_path / "sub.tsv")
        (tmp_path / "bad.tsv").write_text("0\tpineapple\tPartOf\tfruit\n", encoding="utf-8")
        return tmp_path

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("call", ["extend", "extend-assigned", "import", "import-unknown-relation"])
    def test_collector_left_as_found(self, fruit_graph, exported, monkeypatch, enabled, call):
        g = fruit_graph
        run, error = {
            "extend": (lambda: extend_subgraph(TaskSubgraph(g), ["pineapple"], g, 1), None),
            "extend-assigned": (lambda: extend_subgraph(TaskSubgraph(g), ["pineapple"] * 2, g, 1),
                                "class already assigned"),
            "import": (lambda: import_subgraph(exported / "sub.tsv", g), None),
            "import-unknown-relation": (lambda: import_subgraph(exported / "bad.tsv", g),
                                        "unknown relation"),
        }[call]
        during = []  # the collector's state while the call looks its names up
        get = NameTable.get
        monkeypatch.setattr(NameTable, "get", lambda table, name: during.append(gc.isenabled())
                            or get(table, name))
        (gc.enable if enabled else gc.disable)()
        try:
            if error:
                with pytest.raises(ValueError, match=error):
                    run()
            else:
                run()
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert during and not any(during)

    def test_work_is_once_per_distinct_name(self, tmp_path, monkeypatch):
        g = synthetic_graph(40, n_relations=4, contention=0.6, with_chains=True, seed=5)
        calls = {"normalize": [], "label": [], "tail": []}

        def spy(key, fn):
            return lambda *args: calls[key].append(args[-1]) or fn(*args)

        monkeypatch.setattr(taskgraph, "tail_reads_back", spy("tail", taskgraph.tail_reads_back))
        sub = TaskSubgraph(g)
        for k in range(4):
            extend_subgraph(sub, [class_name(i) for i in range(k, 40, 4)], g, 4)
        with monkeypatch.context() as m:
            m.setattr(NameTable, "label", spy("label", NameTable.label))
            export_subgraph(sub, tmp_path / "sub.tsv")
        with monkeypatch.context() as m:
            m.setattr(store, "normalize_name", spy("normalize", store.normalize_name))
            m.setattr(taskgraph, "normalize_name", spy("normalize", taskgraph.normalize_name))
            imported = import_subgraph(tmp_path / "sub.tsv", g)
        assert imported.pair_to_class == sub.pair_to_class
        assert calls["normalize"] == []
        sequences = {p.relations for p in sub.pair_to_class}
        assert len(sequences) < len(sub.pair_to_class)
        assert sorted(calls["label"]) == sorted(sequences)
        tails = {g.entity_name(p.tail) for p in sub.pair_to_class}
        assert len(calls["tail"]) == len(set(calls["tail"])) and tails <= set(calls["tail"])

    def test_a_dropped_graph_leaves_no_tail_memo(self, tmp_path):
        g = synthetic_graph(10, n_relations=3, seed=2)
        sub = TaskSubgraph(g)
        extend_subgraph(sub, [class_name(i) for i in range(10)], g, 2)
        export_subgraph(sub, tmp_path / "sub.tsv")
        import_subgraph(tmp_path / "sub.tsv", g)
        ref, memos = weakref.ref(g), len(taskgraph._tail_memos)
        gc.disable()
        try:
            del g, sub
            assert ref() is None and len(taskgraph._tail_memos) == memos - 1
        finally:
            gc.enable()

    def test_names_out_of_normal_form_are_normalized(self, fruit_graph, tmp_path):
        g = fruit_graph
        sub = TaskSubgraph(g)
        _, report = extend_subgraph(sub, ["Granny Smith", " Durian  X"], g, 1)
        assert [(grant.name, grant.unknown) for grant in report.grants] == [
            ("granny_smith", False), ("durian_x", True)]
        assert report.unknown == ["durian_x"]
        out = tmp_path / "sub.tsv"
        out.write_text("0\t Granny  Smith \tIsA\tFRUIT\n", encoding="utf-8")
        back = import_subgraph(out, g)
        path = RelationPath((g.relation_id("IsA"),), g.entity_id("fruit"))
        assert back.pair_to_class == sub.pair_to_class == {path: g.entity_id("granny_smith")}
        assert back.class_names() == sub.class_names() == ["granny_smith"]

    def test_equal_relation_sequences_share_one_tuple(self, tmp_path):
        g = synthetic_graph(40, n_relations=4, contention=0.6, with_chains=True, seed=5)
        sub = TaskSubgraph(g)
        for k in range(4):
            extend_subgraph(sub, [class_name(i) for i in range(k, 40, 4)], g, 4)
        export_subgraph(sub, tmp_path / "sub.tsv")
        imported = import_subgraph(tmp_path / "sub.tsv", g)
        paths = list(sub.pair_to_class) + list(imported.pair_to_class)
        assert {len(p.relations) for p in paths} == {1, 2}
        shared = {}
        for p in paths:
            assert shared.setdefault(p.relations, p.relations) is p.relations
        assert len(shared) < len(sub.pair_to_class)


class TestExport:
    GOLDEN = (
        "# kgcil-subgraph v1\n"
        "task\tclass\trelation\ttail\n"
        "0\tgranny_smith\tIsA\tfruit\n"
        "0\tgranny_smith\tReceiveAction\teaten\n"
        "1\tpineapple\tAtLocation\tstore\n"
        "1\tpineapple\tAtLocation\tpizza\n"
    )

    def build(self, g):
        sub = TaskSubgraph(g)
        extend_subgraph(sub, ["granny_smith"], g, 2)
        extend_subgraph(sub, ["pineapple"], g, 2)
        return sub

    def test_golden_bytes(self, fruit_graph, tmp_path):
        sub = self.build(fruit_graph)
        out = tmp_path / "sub.tsv"
        stats = export_subgraph(sub, out)
        assert out.read_text(encoding="utf-8") == self.GOLDEN
        assert stats.bytes == len(self.GOLDEN.encode())
        assert stats.classes == 2 and stats.paths == 4

    def test_empty_subgraph_header_only(self, fruit_graph, tmp_path):
        out = tmp_path / "empty.tsv"
        stats = export_subgraph(TaskSubgraph(fruit_graph), out)
        assert out.read_text(encoding="utf-8") == "# kgcil-subgraph v1\ntask\tclass\trelation\ttail\n"
        assert stats.classes == 0 and stats.paths == 0

    def test_roundtrip(self, fruit_graph, tmp_path):
        sub = self.build(fruit_graph)
        out = tmp_path / "sub.tsv"
        export_subgraph(sub, out)
        back = import_subgraph(out, fruit_graph)
        assert back.pair_to_class == sub.pair_to_class
        assert back.tasks == sub.tasks
        # re-export is byte-identical
        assert render_export(back) == render_export(sub)

    def test_roundtrip_with_two_hop(self, reef_graph, tmp_path):
        sub = TaskSubgraph(reef_graph)
        extend_subgraph(sub, ["anemonefish"], reef_graph, 1)
        extend_subgraph(sub, ["clownfish"], reef_graph, 1)
        out = tmp_path / "reef.tsv"
        export_subgraph(sub, out)
        back = import_subgraph(out, reef_graph)
        assert back.pair_to_class == sub.pair_to_class

    def test_import_skips_repeated_rows(self, fruit_graph, tmp_path):
        sub = self.build(fruit_graph)
        clean, dup = tmp_path / "clean.tsv", tmp_path / "dup.tsv"
        export_subgraph(sub, clean)
        lines = self.GOLDEN.splitlines(keepends=True)  # two header lines, then four rows
        dup.write_text("".join(lines[:3] + lines[2:] + lines[-1:]), encoding="utf-8")
        a, b = import_subgraph(clean, fruit_graph), import_subgraph(dup, fruit_graph)
        assert b.pair_to_class == a.pair_to_class
        assert {c: x.paths for c, x in b.assignments.items()} == {c: x.paths for c, x in a.assignments.items()}
        assert render_export(b) == render_export(a) == self.GOLDEN

    @pytest.mark.parametrize("bom,newline,skip", [("\ufeff", "\n", 0), ("\ufeff", "\n", 2),
                                                  ("", "\r\n", 0), ("\ufeff", "\r\n", 0)],
                             ids=["bom", "bom-rows-only", "crlf", "bom+crlf"])
    def test_roundtrip_with_bom_or_crlf(self, fruit_graph, tmp_path, bom, newline, skip):
        # a leading UTF-8 BOM is not part of line 1, whether that line is the header or a row
        sub = self.build(fruit_graph)
        out = tmp_path / "sub.tsv"
        rows = "".join(render_export(sub).splitlines(keepends=True)[skip:])
        out.write_bytes((bom + rows).replace("\n", newline).encode("utf-8"))
        back = import_subgraph(out, fruit_graph)
        assert back.pair_to_class == sub.pair_to_class
        assert render_export(back) == self.GOLDEN

    def test_import_rejects_foreign_rows(self, fruit_graph, tmp_path):
        out = tmp_path / "bad.tsv"
        out.write_text("0\tgranny_smith\tIsA\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 4 fields"):
            import_subgraph(out, fruit_graph)

    @pytest.mark.parametrize("task", ["-2", "x"])
    def test_import_rejects_bad_task_index(self, fruit_graph, tmp_path, task):
        out = tmp_path / "bad.tsv"
        out.write_text(f"0\tgranny_smith\tIsA\tfruit\n{task}\tpineapple\tIsA\tfruit\n",
                       encoding="utf-8")
        with pytest.raises(ValueError, match=f"subgraph line 2: bad task index '{task}'"):
            import_subgraph(out, fruit_graph)

    @pytest.mark.parametrize("extra,row,error,match", [
        ([], "1\tdurian\tIsA\tfruit", UnknownClass, "class name not in graph: 'durian'"),
        ([], "1\tpineapple\tPartOf\tfruit", ValueError, "subgraph line 2: unknown relation 'PartOf'"),
        ([], "1\tpineapple\tIsA\tberry", ValueError, "subgraph line 2: unknown tail 'berry'"),
        ([], "1\tpineapple\tIsA\tfruit", ValueError,
         "subgraph line 2: pair already owned by another class"),
        # `c0 IsA of.` votes for nobody: the tail opens a capture of its own
        ([("c0", "IsA", "of"), ("c0", "IsA", "thing"), ("c1", "Of", "x")], "1\tc0\tIsA\tof",
         ValueError, "subgraph line 2: clause does not read back to its path"),
        # `isa` folds to IsA, so `c2 isa veg.` votes for nobody
        ([("c2", "isa", "veg"), ("c2", "Color", "green")], "1\tc2\tisa\tveg",
         ValueError, "subgraph line 2: clause does not read back to its path"),
        # `isa-red IsA plant.` also reads (IsA, red), so the vote ties with c1
        ([("isa-red", "IsA", "plant"), ("c1", "IsA", "red")], "1\tisa-red\tIsA\tplant",
         ValueError, "subgraph line 2: class name 'isa-red' holds a keyword"),
        # every row of a class must give its one task index, in its first run of rows or a later one
        ([], "3\tgranny_smith\tReceiveAction\teaten", ValueError,
         "subgraph line 2: class 'granny_smith' is in task 0"),
        ([], "1\tpineapple\tAtLocation\tstore\n1\tgranny_smith\tReceiveAction\teaten", ValueError,
         "subgraph line 3: class 'granny_smith' is in task 0"),
    ], ids=["unknown-class", "unknown-relation", "unknown-tail", "pair-owned",
            "tail-keyword", "label-folds", "name-keyword", "task-disagrees", "task-disagrees-later"])
    def test_import_rejects_row(self, tmp_path, extra, row, error, match):
        graph = KnowledgeGraph.from_facts(FRUIT_FACTS + extra)
        out = tmp_path / "bad.tsv"
        out.write_text(f"0\tgranny_smith\tIsA\tfruit\n{row}\n", encoding="utf-8")
        with pytest.raises(error, match=match):
            import_subgraph(out, graph)


class TestInvariantsRandomized:
    def test_exclusivity_and_conservation(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            n = int(rng.integers(6, 30))
            g = synthetic_graph(n, n_relations=int(rng.integers(2, 6)),
                                facts_per_class=int(rng.integers(2, 6)),
                                contention=0.5, with_chains=True, seed=trial)
            names = [class_name(i) for i in range(n)]
            order = rng.permutation(n)
            sub = TaskSubgraph(g)
            pos = 0
            while pos < n:
                size = int(rng.integers(1, 6))
                block = [names[i] for i in order[pos: pos + size]]
                pos += size
                extend_subgraph(sub, block, g, int(rng.integers(1, 5)))
            # each pair owned exactly once, and the registry covers all paths
            total_paths = sum(len(a.paths) for a in sub.assignments.values())
            assert total_paths == len(sub.pair_to_class)
            for cid, a in sub.assignments.items():
                for p in a.paths:
                    assert sub.pair_to_class[p.key] == cid
                    # conservation: granted paths exist in the graph
                    if len(p.relations) == 1:
                        assert cid in g.heads_for(p.relations[0], p.tail)
                    else:
                        assert (p.relations, p.tail) in set(g.two_hop_facts(cid))

    def test_deterministic_exports(self):
        g = synthetic_graph(12, contention=0.4, with_chains=True, seed=9)
        names = [class_name(i) for i in range(12)]
        exports = []
        for _ in range(2):
            sub = TaskSubgraph(g)
            extend_subgraph(sub, names[:6], g, 3)
            extend_subgraph(sub, names[6:], g, 3)
            exports.append(render_export(sub))
        assert exports[0] == exports[1]


# -- exclusivity of the rendered text ----------------------------------------

def read_back(sub, graph, cname):
    """The vote tally and head that the class's own rendered text gets."""
    text = render_training_text(sub.assignments[graph.entity_id(cname)], graph)
    return vote_head(parse_triplets(text, graph.relations), sub)


class TestTextExclusivity:
    def test_pair_label_naming_one_relation_not_granted(self):
        # (Made, Of) renders as Made_Of, which parses as the single relation bee owns
        g = KnowledgeGraph.from_facts([("bee", "Made_Of", "x"), ("zed", "Made", "m"),
                                       ("m", "Of", "x")])
        sub = TaskSubgraph(g)
        extend_subgraph(sub, ["bee"], g, 2)
        _, report = extend_subgraph(sub, ["zed"], g, 2)
        assert grant_names(sub, g, "zed") == [("Made", "m")]
        assert report.shortfall == ["zed"]
        tally, head = read_back(sub, g, "zed")
        assert tally.counts == {"zed": 1}
        assert head == "zed"

    def test_label_folding_onto_another_relation_not_granted(self):
        # isa parses case-folded to IsA, the first of the two ids
        g = KnowledgeGraph.from_facts([("c1", "IsA", "fruit"), ("c2", "isa", "veg"),
                                       ("c2", "Color", "green")])
        sub = TaskSubgraph(g)
        extend_subgraph(sub, ["c1", "c2"], g, 1)
        assert grant_names(sub, g, "c2") == [("Color", "green")]
        tally, head = read_back(sub, g, "c2")
        assert tally.counts == {"c2": 1}
        assert head == "c2"


    def test_tail_named_like_a_keyword_not_granted(self):
        # `c0 IsA of.` opens a second capture at `of`; `c2 IsA a.` drops the article
        g = KnowledgeGraph.from_facts([("c0", "IsA", "of"), ("c1", "Of", "x"),
                                       ("c2", "IsA", "a"), ("c2", "Color", "red")])
        sub = TaskSubgraph(g)
        _, report = extend_subgraph(sub, ["c0", "c1", "c2"], g, 1)
        assert grant_names(sub, g, "c0") == []
        assert grant_names(sub, g, "c1") == [("Of", "x")]
        assert grant_names(sub, g, "c2") == [("Color", "red")]
        assert report.shortfall == ["c0"]
        for cname in ("c1", "c2"):
            assert read_back(sub, g, cname)[1] == cname

    def test_class_named_with_a_keyword_not_granted(self):
        # `isa-red IsA fruit.` also parses to (IsA, red), which c1 owns; any
        # token of the name that opens a capture is refused, in any case, a pair too
        g = KnowledgeGraph.from_facts([("isa-red", "IsA", "fruit"), ("c1", "IsA", "red"),
                                       ("isa_color", "IsA", "veg"), ("c2", "Color", "red"),
                                       ("ISA", "Color", "blue"), ("c3", "Made", "wood"),
                                       ("c3", "Of", "oak"), ("MADE_of-pie", "Color", "gold")])
        sub = TaskSubgraph(g)
        _, report = extend_subgraph(sub, ["isa-red", "c1", "isa_color", "ISA", "Made_Of-Pie"], g, 1)
        for cname in ("isa-red", "isa_color", "isa", "made_of-pie"):
            assert grant_names(sub, g, cname) == []
        assert grant_names(sub, g, "c1") == [("IsA", "red")]
        assert report.shortfall == ["isa-red", "isa_color", "isa", "made_of-pie"]
        assert [gr.granted for gr in report.grants] == [0, 1, 0, 0, 0]
        assert read_back(sub, g, "c1")[1] == "c1"

    def test_names_the_tokenizer_splits_not_granted(self):
        # a relation or tail holding a character outside [A-Za-z0-9_] renders as several tokens
        g = KnowledgeGraph.from_facts([("c0", "Is-A", "fruit"), ("c0", "IsA", "x-y"),
                                       ("c0", "IsA", "caf\u00e9"), ("c0", "IsA", "pome")])
        sub = TaskSubgraph(g)
        extend_subgraph(sub, ["c0"], g, 4)
        assert grant_names(sub, g, "c0") == [("IsA", "pome")]


RELATION_POOL = ["Made", "Of", "Made_Of", "made", "MADE_of", "Of_Made", "IsA", "isa", "ISA",
                 "A", "B", "A_B", "B_C", "C", "a_b", "Is-A"]
# tails named like keywords or articles, or holding characters the tokenizer splits on
TAIL_POOL = ["of", "made", "made_of", "isa", "a_b", "a", "an", "the", "the_end", "x-y", "t.z",
             "caf\u00e9", "\u212aelvin", "n1"]


@st.composite
def colliding_graphs(draw):
    """Graphs whose relation names hold '_' and case collisions, with keyword-like names."""
    rels = draw(st.lists(st.sampled_from(RELATION_POOL), min_size=1, max_size=8, unique=True))
    n_classes = draw(st.integers(min_value=1, max_value=8))
    n_tails = draw(st.integers(min_value=1, max_value=6))
    # class names may hold a keyword token, which would add a triplet to their text
    ents = [draw(st.sampled_from([f"c{i}", f"isa-c{i}", f"c{i}-of", f"a_b-c{i}"]))
            for i in range(n_classes)] + [f"t{i}" for i in range(n_tails)]
    ents += draw(st.lists(st.sampled_from(TAIL_POOL), max_size=4, unique=True))
    fact = st.tuples(st.sampled_from(ents), st.sampled_from(rels), st.sampled_from(ents))
    facts = [f for f in draw(st.lists(fact, min_size=1, max_size=40)) if f[0] != f[2]]
    if not facts:
        facts = [("c0", rels[0], "t0")]
    graph = KnowledgeGraph.from_facts(facts)
    classes = [c for c in ents[:n_classes] if graph.entity_id(c) is not None]
    return graph, classes, draw(st.integers(min_value=1, max_value=4))


@settings(max_examples=150, deadline=None)
@given(colliding_graphs())
def test_granted_paths_read_back_to_their_class(tmp_path_factory, case):
    graph, classes, r = case
    sub = TaskSubgraph(graph)
    for i in range(0, len(classes), 3):
        extend_subgraph(sub, classes[i:i + 3], graph, r)
    for cid, a in sub.assignments.items():
        if not a.paths:
            continue
        cname = graph.entity_name(cid)
        text = render_training_text(a, graph)
        parsed = parse_triplets(text, graph.relations)
        assert [(p.relations, graph.entity_id(p.tail)) for p in parsed] == [p.key for p in a.paths]
        tally, head = read_back(sub, graph, cname)
        assert tally.counts == {cname: len(a.paths)}
        assert head == cname
    out = tmp_path_factory.mktemp("collide") / "sub.tsv"
    export_subgraph(sub, out)
    assert import_subgraph(out, graph).pair_to_class == sub.pair_to_class
