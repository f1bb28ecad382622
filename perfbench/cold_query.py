"""cold_query: one fresh `kgcil query` process against the large synthetic graph.

Set-up writes `large_graph_tsv(seed=...)` (574,270 entities, 50 relations,
1,380,131 facts), allocates its 200 class entities at r=3, exports that
subgraph, and renders one seeded class's paths as the description. Each
measured operation is a new `kgcil query` process on those files, so graph
load and interning, which every query/build/bench user pays, dominate.
"""

from __future__ import annotations

import json
import statistics

import numpy as np

import benchlib as bl

SIZES = {"n_entities": 574_270, "n_relations": 50, "n_facts": 1_380_131, "n_classes": 200}
R_TARGET = 3
ENCODER_DIM = 256  # the `kgcil query` default


def _setup(ctx: bl.Context, tr: bl.Tracer, sizes: dict) -> dict:
    from kgcil import GeneratorConfig, TaskSubgraph, TextGenerator, export_subgraph, extend_subgraph, load_graph
    from kgcil.synthetic import large_class_names

    graph_tsv, sub_tsv = ctx.tmp / "graph.tsv", ctx.tmp / "sub.tsv"
    bl.write_large_graph(ctx, graph_tsv, sizes)
    graph = tr.call("store.load", load_graph, graph_tsv)
    tr.counts["facts_loaded"] += graph.n_facts
    sub = TaskSubgraph(graph)
    _, report = tr.call("taskgraph.extend", extend_subgraph, sub,
                        large_class_names(sizes["n_classes"]), graph, R_TARGET)
    bl.record_grants(tr, report)
    stats = tr.call("taskgraph.export", export_subgraph, sub, sub_tsv)
    tr.counts["export_bytes"] = stats.bytes
    gen = tr.call("simulate.generator_init", TextGenerator, graph, sub,
                  GeneratorConfig(mode="oracle", seed=ctx.seed))
    with_paths = [cid for cid, a in sub.assignments.items() if a.paths]
    cid = with_paths[int(np.random.default_rng(ctx.seed).integers(len(with_paths)))]
    text = tr.call("simulate.generate", gen.generate, cid, (0,))
    return {"graph": graph, "sub": sub, "graph_tsv": str(graph_tsv), "sub_tsv": str(sub_tsv),
            "text": text, "expected": graph.entity_name(cid)}


def _setup_errors(state: dict, tr: bl.Tracer) -> list[str]:
    """Allocated pairs are exclusive and every direct one is a graph fact."""
    errors = bl.exclusivity_errors(state["sub"])
    bad = bl.lookup_errors(state["graph"], bl.direct_pairs(state["sub"]), tr)
    if bad:
        errors.append(f"{bad} allocated direct pairs are not graph facts")
    return errors


def _query(ctx: bl.Context, state: dict) -> tuple[float, float, list[str]]:
    child = bl.run_child(ctx, bl.kgcil_argv(
        "query", "--graph", str(state["graph_tsv"]), "--subgraph", str(state["sub_tsv"]),
        state["text"]), "query")
    errors = []
    if child.returncode != 0:
        errors.append(f"query exited {child.returncode}: {child.stderr.decode(errors='replace')[-300:]}")
    else:
        record = json.loads(child.stdout)
        if record["graph_head"] != state["expected"]:
            errors.append(f"graph_head {record['graph_head']!r}, expected {state['expected']!r}")
    return child.wall_s, child.maxrss_mb, errors


def replay(state: dict, tr: bl.Tracer) -> dict:
    """What `kgcil query` does, with a span around each layer call (see replay.py)."""
    from kgcil import HashingEncoder, encode_candidates, import_subgraph, load_graph

    t0 = bl.pc()
    graph = tr.call("store.load", load_graph, state["graph_tsv"])
    tr.counts["facts_loaded"] += graph.n_facts
    sub = tr.call("taskgraph.import", import_subgraph, state["sub_tsv"], graph)
    encoder = HashingEncoder(dimension=ENCODER_DIM)
    candidates = sub.class_names()
    vectors = tr.call("encoders.candidates", encode_candidates, candidates, encoder)
    bl.classify_traced(tr, state["text"], state["expected"], sub, graph, candidates, vectors,
                       bl.TimedEncoder(encoder, tr))
    op_s = bl.pc() - t0
    return {"op_s": op_s, "self_s": op_s - tr.top_level_s()}


def run(ctx: bl.Context, trace: bool, sizes: dict = SIZES, expected: str | None = None) -> bl.Outcome:
    """expected overrides the seeded class the query must name (the smoke test uses it)."""
    tr = bl.Tracer(trace)
    t0 = bl.pc()
    state = _setup(ctx, tr, sizes)
    setup_s = bl.pc() - t0
    errors = _setup_errors(state, tr)
    state["expected"] = expected or state["expected"]
    # the query child loads its own copy; drop this one so two never coexist
    del state["graph"], state["sub"]

    if not trace:
        reps = bl.repeat_for(ctx.seconds, lambda: _query(ctx, state), min_reps=2)
        # a failed set-up check spoils the inputs of every query
        failed = len(reps) if errors else sum(1 for _, _, errs in reps if errs)
        return bl.Outcome({
            "setup_s": setup_s,
            "wall_s": statistics.median(r[0] for r in reps),
            "peak_rss_mb": max(r[1] for r in reps),
        }, attempted=len(reps), failed=failed,
            notes=errors + [e for _, _, errs in reps for e in errs],
            samples={"wall_s": [r[0] for r in reps]})

    untraced_s, _, q_errors = _query(ctx, state)
    import_s = bl.cli_import_s(ctx)
    replay_s, result = bl.traced_replay(ctx, state, tr)
    errors += q_errors
    if tr.counts["head_correct"] != 1:
        errors.append(f"traced replay did not vote for {state['expected']!r}")
    metrics = bl.layer_metrics(tr, self_s=result["self_s"], overhead_s=replay_s - untraced_s,
                               import_s=import_s)
    return bl.Outcome(metrics, attempted=1, failed=int(bool(errors)), notes=errors)
