"""Training text out, triplets back in, votes counted.

The rendered sentences are the system's training signal; the parser recovers
(relation, tail) pairs from any description, and the vote maps those pairs
back to whichever class owns them. Run from the repository root:

    python3 demos/03_text_roundtrip_and_voting.py
"""

from kgcil import (
    INSTRUCTION_PROMPT,
    KnowledgeGraph,
    TaskSubgraph,
    extend_subgraph,
    parse_triplets,
    render_training_text,
    vote_head,
)

FACTS = [
    ("granny_smith", "IsA", "fruit"),
    ("granny_smith", "ReceiveAction", "eaten"),
    ("pineapple", "IsA", "fruit"),
    ("pineapple", "AtLocation", "store"),
    ("pineapple", "AtLocation", "pizza"),
]


def main():
    graph = KnowledgeGraph.from_facts(FACTS)
    sub = TaskSubgraph(graph)
    extend_subgraph(sub, ["granny_smith", "pineapple"], graph, 2)

    print("instruction prompt used at generation time:")
    print(" ", INSTRUCTION_PROMPT)

    cid = graph.entity_id("pineapple")
    text = render_training_text(sub.assignments[cid], graph)
    print("\nrendered training text for pineapple:")
    print(" ", text)

    parsed = parse_triplets(text, graph.relations)
    print("\nparsed back out:")
    for t in parsed:
        rels = "_".join(graph.relation_name(r) for r in t.relations)
        print(f"  ({rels}, {t.tail})")

    # a messier description: extra words, a stray clause from the wrong class
    noisy = "ripe and sweet, it IsA fruit and it AtLocation pizza, maybe eaten"
    parsed = parse_triplets(noisy, graph.relations)
    tally, head = vote_head(parsed, sub)
    print("\nnoisy description:", noisy)
    print("votes:", tally.counts, "-> head:", head)
    unmatched = [("_".join(graph.relation_name(r) for r in t.relations), t.tail)
                 for t in tally.unmatched]
    print("unmatched pairs:", unmatched)


if __name__ == "__main__":
    main()
