"""End-to-end acceptance suite.

Each test covers one numbered criterion and records a single PASS/FAIL line;
the lines are echoed after the run by a terminal-summary hook in conftest.
The criteria are ordered so cheap structural checks run before the large
performance fixture.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import string
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from kgcil import (
    GeneratorConfig,
    HashingEncoder,
    KnowledgeGraph,
    ParsedTriplet,
    PieceTable,
    TaskSchedule,
    TaskSubgraph,
    TextGenerator,
    bench,
    compute_hacc,
    compute_pd,
    extend_subgraph,
    infer_batch,
    load_graph,
    parse_triplets,
    render_export,
    render_training_text,
    run_experiment,
    run_paired_comparison,
    vote_head,
)
from kgcil.cli import EXIT_OK, main
from kgcil.harness import SIMULATION_CAVEAT, OrderResult, SessionResult, _even_chunks
from kgcil.taskgraph import ClassAssignment, RelationPath
from kgcil.synthetic import class_name, large_class_names, large_graph_tsv, synthetic_graph

LINES: list[str] = []


def record(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} {'PASS' if ok else 'FAIL'} {name}: {detail}"
    LINES.append(line)
    assert ok, line


def test_criterion_1_pair_exclusivity():
    """1,000 randomized task sequences: pair ownership stays a function and
    assignments never mutate after their session. Budget: 60 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    pool = []
    for _ in range(10):
        n_classes = int(rng.integers(10, 501))
        g = synthetic_graph(
            n_classes,
            n_relations=int(rng.integers(3, 51)),
            facts_per_class=int(rng.integers(2, 5)),
            contention=float(rng.uniform(0, 0.6)),
            with_chains=bool(rng.integers(2)),
            seed=int(rng.integers(1 << 31)),
        )
        pool.append((g, n_classes))
    for seq in range(1000):
        g, n_classes = pool[int(rng.integers(len(pool)))]
        k = n_classes if seq % 97 == 0 else int(rng.integers(2, min(40, n_classes) + 1))
        chosen = rng.choice(n_classes, size=k, replace=False)
        names = [class_name(int(i)) for i in chosen]
        blocks = _even_chunks(names, int(rng.integers(1, min(5, k) + 1)))
        r = int(rng.integers(1, 5))
        sub = TaskSubgraph(g)
        snapshots = {}
        for block in blocks:
            extend_subgraph(sub, block, g, r)
            total = sum(len(a.paths) for a in sub.assignments.values())
            assert total == len(sub.pair_to_class), "a pair is shared or dangling"
            for cid, a in sub.assignments.items():
                for p in a.paths:
                    assert sub.pair_to_class[p.key] == cid, "pair owned by another class"
            for cid, paths in snapshots.items():
                assert tuple(sub.assignments[cid].paths) == paths, "assignment mutated"
            for name in block:
                cid = g.entity_id(name)
                snapshots[cid] = tuple(sub.assignments[cid].paths)
    dt = time.perf_counter() - t0
    record(1, "pair exclusivity and immutability", dt < 60.0,
           f"1000 sequences clean in {dt:.1f}s (budget 60s)")


def test_criterion_2_oracle_fidelity(fruit_graph):
    """Noise-free descriptions must classify perfectly wherever every class
    holds at least one relation path."""
    fixtures = [
        (fruit_graph, ["granny_smith", "pineapple"],
         TaskSchedule.b0(["granny_smith", "pineapple"], 2, samples_per_class=5), 2),
        (synthetic_graph(12, n_relations=6, facts_per_class=4, seed=2),
         [class_name(i) for i in range(12)],
         TaskSchedule.b0([class_name(i) for i in range(12)], 3, samples_per_class=3), 3),
        (synthetic_graph(30, n_relations=8, facts_per_class=4, contention=0.5,
                         with_chains=True, seed=6),
         [class_name(i) for i in range(30)],
         TaskSchedule.b100([class_name(i) for i in range(30)], 15, 3,
                           samples_per_class=3), 2),
        (synthetic_graph(20, n_relations=6, facts_per_class=4, seed=8),
         [class_name(i) for i in range(20)],
         TaskSchedule.fewshot([class_name(i) for i in range(20)], base_size=10,
                              way=5, samples_per_class=3), 3),
    ]
    checked = 0
    for graph, classes, schedule, r in fixtures:
        probe = TaskSubgraph(graph)
        _, rep = extend_subgraph(probe, classes, graph, r)
        assert all(g.granted >= 1 for g in rep.grants), "fixture violates the precondition"
        report = run_experiment(graph, schedule, GeneratorConfig(mode="oracle"),
                                r, HashingEncoder(1024), orders=[0, 1])
        for order in report.orders:
            for session in order.sessions:
                assert session.accuracy == 1.0, (
                    f"session {session.index} of seed {order.seed} at {session.accuracy}")
        checked += 1
    record(2, "oracle fidelity", True,
           f"{checked} fixtures, every session exactly 100%")


def test_criterion_3_drop_only_law():
    """r=3, p_drop=0.5, no swaps: accuracy tracks 1 - p_drop^r within three
    binomial sigma over 10,000 samples. Budget: 30 s."""
    t0 = time.perf_counter()
    p = 0.5
    patterns = list(itertools.product([0, 1], repeat=3))
    survival = sum(1 for bits in patterns if any(bits)) / len(patterns)
    analytic = 1 - p ** 3
    assert survival == analytic == 0.875, "enumeration oracle disagrees with the formula"

    g = synthetic_graph(100, n_relations=8, facts_per_class=4, group_size=1, seed=9)
    sub = TaskSubgraph(g)
    extend_subgraph(sub, [class_name(i) for i in range(100)], g, 3)
    assert all(len(a.paths) == 3 for a in sub.assignments.values()), "law needs r=3 everywhere"
    candidates = sub.class_names()
    table = PieceTable(sub, HashingEncoder(256))  # one per subgraph, as `kgcil run` keeps
    gen = TextGenerator(g, sub, GeneratorConfig(p_drop=p, seed=33, filler=False))
    n = 10_000
    correct = 0
    for s in range(n):
        name = candidates[s % len(candidates)]
        text = gen.generate(g.entity_id(name), (0, s))
        correct += infer_batch([text], table).final_class(0) == name
    acc = correct / n
    sigma = math.sqrt(analytic * (1 - analytic) / n)
    dt = time.perf_counter() - t0
    ok = abs(acc - analytic) <= 3 * sigma and dt < 30.0
    record(3, "drop-only law", ok,
           f"acc={acc:.4f} vs {analytic:.4f}, |delta|={abs(acc - analytic):.4f} "
           f"<= 3*sigma={3 * sigma:.4f}, {dt:.1f}s (budget 30s)")


def _scan_vote(graph, sub, triplets):
    """Reference tally: a plain nested walk over every class assignment."""
    bag = Counter((t.relations, t.tail) for t in triplets)
    counts = {}
    for cid, a in sub.assignments.items():
        hits = sum(bag.get((p.relations, graph.entity_name(p.tail)), 0) for p in a.paths)
        if hits:
            counts[graph.entity_name(cid)] = hits
    best = min(counts, key=lambda n: (-counts[n], n)) if counts else None
    return counts, best


def test_criterion_4_vote_oracle_equivalence():
    """vote_head agrees with an exhaustive scan on 100,000 random triplet
    lists across graphs of at most 1,000 facts (exact)."""
    rng = np.random.default_rng(404)
    cases = [(30, 6, 0.0), (60, 10, 0.5), (25, 4, 0.8), (80, 12, 0.3)]
    setups = []
    for i, (nc, nr, cont) in enumerate(cases):
        g = synthetic_graph(nc, n_relations=nr, facts_per_class=3, contention=cont,
                            with_chains=bool(i % 2), seed=i)
        assert g.stats.facts <= 1000
        sub = TaskSubgraph(g)
        extend_subgraph(sub, [class_name(j) for j in range(nc)], g, 3)
        pairs = [p for a in sub.assignments.values() for p in a.paths]
        setups.append((g, sub, pairs))
    checked = 0
    for g, sub, pairs in setups:
        nrel, nent = len(g.relations), len(g.entities)
        for _ in range(25_000):
            triplets = []
            for _ in range(int(rng.integers(0, 6))):
                u = rng.random()
                if u < 0.55:
                    p = pairs[int(rng.integers(len(pairs)))]
                    triplets.append(ParsedTriplet(p.relations, g.entity_name(p.tail)))
                elif u < 0.8:
                    triplets.append(ParsedTriplet(
                        (int(rng.integers(nrel)),), g.entity_name(int(rng.integers(nent)))))
                else:
                    triplets.append(ParsedTriplet(
                        (int(rng.integers(nrel)),), f"zz_{int(rng.integers(50))}"))
            tally, head = vote_head(triplets, sub)
            want_counts, want_head = _scan_vote(g, sub, triplets)
            assert tally.counts == want_counts
            assert head == want_head
            checked += 1
    record(4, "vote oracle equivalence", True,
           f"{checked} triplet lists over {len(setups)} graphs, all exact")


def _safe_entity_name(rng, banned: set[str]) -> str:
    alphabet = string.ascii_lowercase + "0123456789"
    while True:
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            length = int(rng.integers(2, 8))
            parts.append("".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), length)))
        if all(p not in banned for p in parts):
            return "_".join(parts)


def test_criterion_5_parser_inversion():
    """parse after render returns exactly the assignment's pairs, on 10,000
    randomly built assignments (exact)."""
    rng = np.random.default_rng(55)
    rel_pool = ["IsA", "AtLocation", "MadeOf", "PartOf", "UsedFor", "HasA",
                "CapableOf", "Causes", "RelatedTo", "ReceiveAction"]
    checked = 0
    for case in range(200):
        n_rel = int(rng.integers(2, len(rel_pool) + 1))
        relations = list(rng.choice(rel_pool, size=n_rel, replace=False))
        banned = {r.lower() for r in relations}
        entities = []
        while len(entities) < 12:
            name = _safe_entity_name(rng, banned)
            if name not in entities:
                entities.append(name)
        facts = [(entities[int(rng.integers(12))], relations[int(rng.integers(n_rel))],
                  entities[int(rng.integers(12))]) for _ in range(40)]
        facts = [(h, r, t) for h, r, t in facts if h != t]
        if not facts:
            continue
        graph = KnowledgeGraph.from_facts(facts)
        nrel, nent = len(graph.relations), len(graph.entities)
        for _ in range(50):
            used = set()
            paths = []
            for _ in range(int(rng.integers(1, 5))):
                hops = int(rng.integers(1, 3))
                rel_seq = tuple(int(rng.integers(nrel)) for _ in range(hops))
                tail = int(rng.integers(nent))
                if (rel_seq, tail) in used:
                    continue
                used.add((rel_seq, tail))
                paths.append(RelationPath(rel_seq, tail))
            if not paths:
                continue
            assignment = ClassAssignment(int(rng.integers(nent)), paths, 0)
            text = render_training_text(assignment, graph)
            parsed = parse_triplets(text, graph.relations)
            got = [(p.relations, graph.entity_id(p.tail)) for p in parsed]
            assert got == [(p.relations, p.tail) for p in paths], text
            checked += 1
    assert checked >= 10_000, f"only {checked} assignments generated"
    record(5, "parser inversion", True, f"{checked} assignments, identity exact")


def test_criterion_6_metric_formulas():
    """Frozen metric identities, all exact."""
    assert compute_hacc(0.8, 0.8) == 0.8
    assert compute_hacc(1.0, 0.0) == 0.0
    assert compute_pd(91.32, 77.82) == 13.50
    sessions = [SessionResult(i, [], {}, acc, acc, 0.0, 0.0, 0.0, 0)
                for i, acc in enumerate([80.0, 70.0, 60.0])]
    order = OrderResult(seed=0, sessions=sessions)
    assert order.avg == 70.0
    assert order.last == 60.0
    record(6, "metric formulas", True,
           "hacc(0.8,0.8)=0.8, hacc(1,0)=0, pd(91.32,77.82)=13.50, avg/last=70/60")


def test_criterion_7_baseline_dominance():
    """Graph-grounded descriptions beat bare captions in every cell of the
    (p_drop, p_swap) grid; the 0.3/0.3 margin is reported, not asserted."""
    g = synthetic_graph(200, n_relations=12, facts_per_class=4, contention=0.3, seed=21)
    classes = [class_name(i) for i in range(200)]
    schedule = TaskSchedule.b0(classes, 5, samples_per_class=10)
    enc = HashingEncoder(1024)
    margins = {}
    for p_drop in (0.1, 0.3, 0.5):
        for p_swap in (0.1, 0.3, 0.5):
            out = run_paired_comparison(
                g, schedule, GeneratorConfig(p_drop=p_drop, p_swap=p_swap, seed=17),
                3, enc, orders=[0])
            aug = out["augmented"].summary["avg"]["mean"]
            base = out["baseline"].summary["avg"]["mean"]
            margins[(p_drop, p_swap)] = (aug - base) * 100
            assert aug >= base, (
                f"baseline won at p_drop={p_drop} p_swap={p_swap}: {aug:.4f} < {base:.4f}")
    center = margins[(0.3, 0.3)]
    worst = min(margins.values())
    record(7, "baseline dominance", True,
           f"9/9 cells dominant, worst margin {worst:+.2f}pt, "
           f"margin at 0.3/0.3 {center:+.2f}pt (expected >= 5, reported only)")


@pytest.fixture(scope="module")
def big_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("big") / "graph.tsv"
    large_graph_tsv(path)
    assert hashlib.md5(path.read_bytes()).hexdigest() == "5a70d2ed5917b024a695b1be4b6c8892"
    return load_graph(path)


def test_criterion_8_performance(big_graph):
    """On the 1.38M-edge graph: indexed lookups stay scan-free fast, voting
    stays in the low-millisecond range, and a 200-class export stays small."""
    g = big_graph
    stats = g.stats.to_dict()
    assert stats["entities"] == 574_270
    assert stats["relations"] == 50
    assert stats["facts"] == 1_380_131
    for name in large_class_names(200):
        assert g.entity_name(g.entity_id(name)) == name
    for cid in np.random.default_rng(8).integers(0, stats["entities"], size=1000).tolist():
        assert g.entity_id(g.entity_name(cid)) == cid
    assert g.entity_id(f"e{stats['entities']}") is None

    rng = np.random.default_rng(5)
    pairs = []
    while len(pairs) < 100_000:
        for h in rng.integers(0, stats["entities"], size=20_000):
            for f in g.facts_of(int(h)):
                pairs.append((f.relation, f.tail))
    pairs = pairs[:100_000]
    t0 = time.perf_counter()
    for r, t in pairs:
        g.heads_for(r, t)
    lookup_rate = len(pairs) / (time.perf_counter() - t0)

    sub = TaskSubgraph(g)
    _, rep = extend_subgraph(sub, large_class_names(200), g, 3)
    assert all(grant.granted > 0 for grant in rep.grants)
    export_mb = len(render_export(sub).encode("utf-8")) / 1e6
    report = bench(g, sub, n_samples=2000, seed=0)
    vote_ms = report.vote_ms

    ok = lookup_rate >= 1e5 and vote_ms <= 5.0 and export_mb <= 0.5
    record(8, "large-graph performance", ok,
           f"stats exact, heads_for {lookup_rate:,.0f}/s (floor 1e5), "
           f"vote {vote_ms:.3f}ms (cap 5ms), export {export_mb:.3f}MB (cap 0.5MB)")


def test_tail_index_memory_on_the_large_graph(big_graph):
    """The index behind heads_for stays below the old pair index's 12 bytes per
    fact (16.6 MB here), and building it holds at most 2.5x the edge array."""
    g = big_graph
    vars(g).pop("_tail_index", None)  # criterion 8's lookups may have built it
    tracemalloc.start()
    try:
        starts, keys = g._tail_index
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert starts.nbytes + keys.nbytes <= 12 * g.n_facts
    assert peak <= 2.5 * g._edges.nbytes


def test_criterion_9_simulation_disclosure(tmp_path, capsys):
    """Simulator-derived reports must carry the not-the-published-numbers
    caveat in the report body and on stderr."""
    graph_path = tmp_path / "graph.tsv"
    from kgcil.synthetic import synthetic_facts, write_tsv
    write_tsv(synthetic_facts(6, n_relations=4, facts_per_class=3, seed=1), graph_path)
    config = {
        "graph_path": str(graph_path),
        "schedule": {"kind": "b0", "classes": [class_name(i) for i in range(6)],
                     "n_tasks": 2, "samples_per_class": 2},
        "r_target": 2,
        "generator": {"mode": "corrupted", "p_drop": 0.2},
        "orders": [0],
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    stdout_doc = json.loads(captured.out)
    disk_doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
    in_stdout = stdout_doc["caveat"] == SIMULATION_CAVEAT
    on_disk = disk_doc["caveat"] == SIMULATION_CAVEAT
    on_stderr = "simulated description generator" in captured.err
    ok = in_stdout and on_disk and on_stderr
    record(9, "simulation disclosure", ok,
           f"caveat in stdout={in_stdout}, metrics.json={on_disk}, stderr={on_stderr}")
