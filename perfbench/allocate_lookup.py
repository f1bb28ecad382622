"""allocate_lookup: pair-registry writes interleaved with index reads, in process.

Set-up writes and loads `large_graph_tsv(seed=...)` and draws the inputs. One
measured pass then runs 10 sessions; each allocates a seeded batch of graph
entities as classes at r=5 and then does its slice of `heads_for` lookups,
drawn from existing facts as acceptance criterion 8 draws them. The pass ends
by exporting the subgraph and importing it back. No inference runs in the
pass, so this is the workload on which inference changes should show nothing,
and a change that speeds allocation by slowing lookups (or the reverse) shows
in the per-layer split. Most classes here need the two-hop fallback, because
a random entity has about 2.4 direct facts and r=5 asks for five.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

import benchlib as bl

SIZES = {
    "graph": {"n_entities": 574_270, "n_relations": 50, "n_facts": 1_380_131, "n_classes": 200},
    "n_sessions": 10,
    "classes_per_session": 2_000,
    "lookups_per_session": 10_000,
    "text_check_classes": 200,
}
R_TARGET = 5


def _setup(ctx: bl.Context, tr: bl.Tracer, sizes: dict) -> dict:
    from kgcil import load_graph

    graph_tsv = ctx.tmp / "graph.tsv"
    bl.write_large_graph(ctx, graph_tsv, sizes["graph"])
    graph = tr.call("store.load", load_graph, graph_tsv)
    tr.counts["facts_loaded"] += graph.n_facts
    rng = np.random.default_rng(ctx.seed)
    n_sessions = sizes["n_sessions"]
    n_classes = n_sessions * sizes["classes_per_session"]
    ids = rng.choice(len(graph.entities), size=n_classes, replace=False)
    names = [graph.entity_name(int(i)) for i in ids]
    batches = [names[k::n_sessions] for k in range(n_sessions)]
    n_lookups = n_sessions * sizes["lookups_per_session"]
    lookups: list[tuple[int, int, int]] = []
    while len(lookups) < n_lookups:
        for h in rng.integers(0, len(graph.entities), size=n_lookups // 4 + 1):
            lookups.extend((f.relation, f.tail, f.head) for f in graph.facts_of(int(h)))
    lookups = lookups[:n_lookups]
    slices = [lookups[k::n_sessions] for k in range(n_sessions)]
    return {"graph": graph, "batches": batches, "slices": slices}


def _pass(ctx: bl.Context, state: dict, tr: bl.Tracer) -> tuple[float, list[str]]:
    """One measured pass: allocate and look up per session, then export and import.

    The imported subgraph is kept in state["imported"] for the text check.
    """
    from kgcil import TaskSubgraph, export_subgraph, extend_subgraph, import_subgraph

    graph = state["graph"]
    path = ctx.tmp / "sub.tsv"
    state.pop("imported", None)  # every pass starts with the same objects alive
    t0 = bl.pc()
    sub = TaskSubgraph(graph)
    bad = 0
    reports = []
    for batch, lookups in zip(state["batches"], state["slices"]):
        _, report = tr.call("taskgraph.extend", extend_subgraph, sub, batch, graph, R_TARGET)
        reports.append(report)
        bad += bl.lookup_errors(graph, lookups, tr)
    stats = tr.call("taskgraph.export", export_subgraph, sub, path)
    imported = tr.call("taskgraph.import", import_subgraph, path, graph)
    wall = bl.pc() - t0

    errors = bl.exclusivity_errors(sub) + bl.roundtrip_errors(sub, imported)
    if bad:
        errors.append(f"{bad} heads_for results miss the head of the fact they came from")
    for report in reports:
        bl.record_grants(tr, report)
    tr.counts["export_bytes"] = stats.bytes
    state["imported"] = imported
    return wall, errors


def _text_errors(ctx: bl.Context, state: dict, sub, tr: bl.Tracer, n_classes: int) -> list[str]:
    """Rendered paths of a seeded sample of classes parse and vote back to their class.

    Exclusivity must hold for text, not only for registry keys. This runs
    after the pass and outside its timing; it also gives the traced run its
    simulate, triplet_text, inference and encoders spans on this workload.
    """
    from kgcil import GeneratorConfig, HashingEncoder, TextGenerator, encode_candidates

    if not tr.enabled:
        tr = bl.Tracer(True)  # the check needs the counts; its spans are discarded
    graph = state["graph"]
    gen = tr.call("simulate.generator_init", TextGenerator, graph, sub,
                  GeneratorConfig(mode="oracle", seed=ctx.seed))
    with_paths = [cid for cid, a in sub.assignments.items() if a.paths]
    rng = np.random.default_rng(ctx.seed)
    picked = [with_paths[int(i)] for i in
              rng.choice(len(with_paths), size=min(n_classes, len(with_paths)), replace=False)]
    candidates = [graph.entity_name(cid) for cid in picked]
    encoder = HashingEncoder(256)
    vectors = tr.call("encoders.candidates", encode_candidates, candidates, encoder)
    timed = bl.TimedEncoder(encoder, tr)
    errors = []
    for cid, name in zip(picked, candidates):
        t0 = bl.pc()
        text = gen.generate(cid, (0,))
        tr.add("simulate.generate", bl.pc() - t0)
        before = tr.counts["head_correct"]
        bl.classify_traced(tr, text, name, sub, graph, candidates, vectors, timed)
        if tr.counts["head_correct"] == before:
            errors.append(f"rendered paths of {name!r} do not vote for it")
    return errors


def run(ctx: bl.Context, trace: bool, sizes: dict = SIZES) -> bl.Outcome:
    tr = bl.Tracer(trace)
    t0 = bl.pc()
    state = _setup(ctx, tr, sizes)
    setup_s = bl.pc() - t0

    if not trace:
        reps = bl.repeat_for(ctx.seconds, lambda: _pass(ctx, state, tr), min_reps=2)
        errors_by_pass = [errs for _, errs in reps]
        errors_by_pass[-1] = errors_by_pass[-1] + _text_errors(
            ctx, state, state["imported"], tr, sizes["text_check_classes"])
        return bl.Outcome({
            "setup_s": setup_s,
            "wall_s": statistics.median(r[0] for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, attempted=len(reps), failed=sum(1 for e in errors_by_pass if e),
            notes=[e for errs in errors_by_pass for e in errs],
            samples={"wall_s": [r[0] for r in reps]})

    untraced_s, errors = _pass(ctx, state, bl.Tracer(False))
    import_s = bl.cli_import_s(ctx)
    top_before = tr.top_level_s()
    op_s, pass_errors = _pass(ctx, state, tr)
    self_s = op_s - (tr.top_level_s() - top_before)
    errors += pass_errors + _text_errors(ctx, state, state["imported"], tr,
                                         sizes["text_check_classes"])
    metrics = bl.layer_metrics(tr, self_s=self_s, overhead_s=op_s - untraced_s, import_s=import_s)
    return bl.Outcome(metrics, attempted=1, failed=int(bool(errors)), notes=errors)
