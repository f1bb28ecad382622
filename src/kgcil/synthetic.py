"""Synthetic graph builders for tests, demos, and benchmarks.

Graphs come in two flavors: small class-centric graphs where every class has
dedicated facts (so allocation always succeeds) plus shared hub facts (so
confusables and contention exist), and a large random graph with exact entity,
relation, and fact counts for scale benchmarks.
"""

from __future__ import annotations

import itertools

import numpy as np

from .store import KnowledgeGraph


def class_name(i: int) -> str:
    return f"class_{i:03d}"


def synthetic_facts(n_classes: int, n_relations: int = 8, facts_per_class: int = 4,
                    group_size: int = 5, contention: float = 0.0,
                    with_chains: bool = False, seed: int = 0) -> list[tuple[str, str, str]]:
    """Name triples for a class-centric graph.

    Every class gets an IsA fact to its group genus (shared tail, so classes in
    a group are confusables and hypernyms exist) plus facts_per_class facts.
    With contention > 0 that share of per-class facts points at a small shared
    tail pool, forcing allocation skips; with_chains adds outgoing facts from
    those shared tails so two-hop fallback has somewhere to go.
    """
    if n_relations < 2:
        raise ValueError("need at least 2 relations (IsA plus one more)")
    rng = np.random.default_rng(seed)
    rels = [f"Rel{j:02d}" for j in range(n_relations - 1)]
    facts: list[tuple[str, str, str]] = []
    n_shared = max(2, n_classes // 4)
    for i in range(n_classes):
        cname = class_name(i)
        facts.append((cname, "IsA", f"genus_{i // group_size:03d}"))
        for j in range(facts_per_class):
            rel = rels[(i + j) % len(rels)]
            if contention > 0 and rng.random() < contention:
                facts.append((cname, rel, f"hub_{int(rng.integers(n_shared)):03d}"))
            else:
                facts.append((cname, rel, f"item_{i:03d}_{j}"))
    if with_chains:
        for q in range(n_shared):
            for j in range(3):
                facts.append((f"hub_{q:03d}", rels[j % len(rels)], f"deep_{q:03d}_{j}"))
        for g in range((n_classes + group_size - 1) // group_size):
            facts.append((f"genus_{g:03d}", rels[0], f"realm_{g:03d}"))
    return facts


def synthetic_graph(n_classes: int, **kwargs) -> KnowledgeGraph:
    return KnowledgeGraph.from_facts(synthetic_facts(n_classes, **kwargs))


def write_tsv(facts, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in facts:
            fh.write(f"{h}\t{r}\t{t}\n")


def large_graph_tsv(path, n_entities: int = 574_270, n_relations: int = 50,
                    n_facts: int = 1_380_131, n_classes: int = 200,
                    seed: int = 7) -> None:
    """Write a random TSV with exact entity, relation, and fact counts.

    A chain over all entity ids guarantees every entity and relation appears;
    the first n_classes entities get three dedicated facts each so they can be
    used as classes; the remainder is uniform random, deduplicated, and
    trimmed so the loaded graph has exactly the requested counts.
    """
    rng = np.random.default_rng(seed)
    # chain covers every entity and cycles through every relation
    chain_h = np.arange(n_entities - 1, dtype=np.int64)
    chain = np.stack([chain_h, chain_h % n_relations, chain_h + 1], axis=1)
    # dedicated class facts, tails far away from the class id block
    cls = np.repeat(np.arange(n_classes, dtype=np.int64), 3)
    offs = np.tile(np.array([11, 13, 17], dtype=np.int64), n_classes)
    cls_facts = np.stack([cls, (cls + offs) % n_relations, n_classes + cls * 3 + offs], axis=1)
    need = n_facts - len(chain) - len(cls_facts)
    if need < 0:
        raise ValueError("n_facts too small for the requested entity count")
    extra = rng.integers(0, [n_entities, n_relations, n_entities], size=(int(need * 1.02) + 64, 3))
    extra = extra[extra[:, 0] != extra[:, 2]]
    all_rows = np.concatenate([chain, cls_facts, extra.astype(np.int64)])
    packed = (all_rows[:, 0] * n_relations + all_rows[:, 1]) * n_entities + all_rows[:, 2]
    _, first = np.unique(packed, return_index=True)
    keep = np.sort(first)[:n_facts]
    if len(keep) < n_facts:
        raise ValueError("random pool too small after dedup; raise the oversample factor")
    rows = all_rows[keep]
    del chain_h, chain, extra, all_rows, packed, first, keep  # free them before the names
    # names with their separators, so a line is three list lookups
    heads = [f"e{i}\t" for i in range(n_entities)]
    rels = [f"Rel{j:02d}\t" for j in range(n_relations)]
    tails = [f"e{i}\n" for i in range(n_entities)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# synthetic large graph\n")
        for lo in range(0, n_facts, 1 << 16):  # one join per slice bounds the memory
            h, r, t = rows[lo:lo + (1 << 16)].T.tolist()
            lines = zip(map(heads.__getitem__, h), map(rels.__getitem__, r), map(tails.__getitem__, t))
            fh.write("".join(itertools.chain.from_iterable(lines)))


def large_class_names(n_classes: int = 200) -> list[str]:
    return [f"e{i}" for i in range(n_classes)]
