"""Load a tiny knowledge graph, poke at its indexes, then diagnose one query.

Run from the repository root:

    python3 demos/01_ingest_and_query.py
"""

import json
import tempfile

from kgcil import (
    HashingEncoder,
    KnowledgeGraph,
    TaskSubgraph,
    extend_subgraph,
    infer,
    load_graph,
    prediction_record,
)

FACTS = [
    ("granny_smith", "IsA", "fruit"),
    ("granny_smith", "ReceiveAction", "eaten"),
    ("granny_smith", "AtLocation", "store"),
    ("pineapple", "IsA", "fruit"),
    ("pineapple", "AtLocation", "store"),
    ("pineapple", "AtLocation", "pizza"),
]


def main():
    # a graph can come straight from facts, or from a TSV on disk
    with tempfile.NamedTemporaryFile("w", suffix=".tsv", delete=False) as fh:
        fh.write("# head\trelation\ttail\n")
        for h, r, t in FACTS:
            fh.write(f"{h}\t{r}\t{t}\n")
        path = fh.name
    graph = load_graph(path)
    print("ingest stats:", graph.stats.to_dict())

    # the two indexes the rest of the system leans on
    gid = graph.entity_id("granny_smith")
    print("\nfacts_of(granny_smith):")
    for fact in graph.facts_of(gid):
        print(" ", graph.entity_name(fact.head), graph.relation_name(fact.relation),
              graph.entity_name(fact.tail))
    rel = graph.relation_id("AtLocation")
    store = graph.entity_id("store")
    heads = sorted(graph.entity_name(h) for h in graph.heads_for(rel, store))
    print("heads_for(AtLocation, store):", heads)

    # two-hop paths kick in when direct facts run out
    two_hop = KnowledgeGraph.from_facts([
        ("clownfish", "RelatedTo", "water"),
        ("anemonefish", "RelatedTo", "water"),
        ("water", "RelatedTo", "river"),
    ])
    cid = two_hop.entity_id("clownfish")
    print("\ntwo-hop from clownfish:")
    for rels, tail in two_hop.two_hop_facts(cid):
        names = "_".join(two_hop.relation_name(r) for r in rels)
        print(f"  clownfish {names} {two_hop.entity_name(tail)}")

    # allocate exclusive relation paths, then classify one noisy description
    sub = TaskSubgraph(graph)
    extend_subgraph(sub, ["granny_smith", "pineapple"], graph, 2)
    text = "a tropical thing, it AtLocation store, it AtLocation pizza."
    pred = infer(text, sub, HashingEncoder(256))  # ranked against the subgraph's classes
    print("\nquery:", text)
    print(json.dumps(prediction_record(text, pred, graph.relations), indent=2))


if __name__ == "__main__":
    main()
