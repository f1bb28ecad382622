"""incremental_run: one fresh `kgcil run --jobs 1` on the demos/05 graph.

The graph is `synthetic_facts(200, n_relations=12, facts_per_class=5,
contention=0.2, with_chains=True, seed=...)`; the config is a b0 schedule of
10 sessions, 50 samples per class, the corrupted generator at
p_drop = p_swap = 0.3 with filler, a 256-dim hashing encoder and one class
order: 55,000 classified samples. Generate, parse, vote, encode and rank do
nearly all the work; `store` does almost none. `--jobs 1` is the plain
single-process baseline, which repeats on two shared cores where jobs=2 does
not.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import fields
from pathlib import Path

import numpy as np

import benchlib as bl

SIZES = {"n_classes": 200, "n_sessions": 10, "samples_per_class": 50}
SETUP_REPS = 5  # set-up takes well under a second, so several give a steady median


def _setup(ctx: bl.Context, sizes: dict) -> dict:
    """Write the graph TSV and the run config, then `kgcil ingest` the graph.

    Ingesting first is what a user does before a run, and it puts any work a
    later `ingest` does for `run` (a snapshot, say) into set-up, where it shows.
    """
    from kgcil.synthetic import class_name, synthetic_facts, write_tsv

    graph_tsv, cfg_path = ctx.tmp / "graph.tsv", ctx.tmp / "config.json"
    write_tsv(synthetic_facts(sizes["n_classes"], n_relations=12, facts_per_class=5,
                              contention=0.2, with_chains=True, seed=ctx.seed), graph_tsv)
    config = {
        "graph_path": str(graph_tsv),
        "schedule": {"kind": "b0", "classes": [class_name(i) for i in range(sizes["n_classes"])],
                     "n_tasks": sizes["n_sessions"], "samples_per_class": sizes["samples_per_class"]},
        "r_target": 3,
        "generator": {"mode": "corrupted", "p_drop": 0.3, "p_swap": 0.3, "seed": ctx.seed,
                      "filler": True},
        "encoder": {"id": "hashing", "dimension": 256},
        "orders": [ctx.seed],
        "output_dir": str(ctx.tmp / "out"),
    }
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    child = bl.run_child(ctx, bl.kgcil_argv("ingest", str(graph_tsv)), "ingest")
    if child.returncode != 0 or json.loads(child.stdout)["facts"] < 1:
        raise RuntimeError("kgcil ingest failed: " + child.stderr.decode(errors="replace")[-400:])
    return {"config": str(cfg_path), "out": str(ctx.tmp / "out"),
            "final_sub": str(ctx.tmp / "final_sub.tsv"), "n_sessions": sizes["n_sessions"]}


def comparable(doc: dict) -> dict:
    """MetricsReport.comparable() of a metrics.json document, by the package's own rule."""
    from kgcil import MetricsReport, OrderResult, SessionResult

    keep = {f.name for f in fields(SessionResult)}
    orders = [OrderResult(seed=o["seed"], sessions=[
        SessionResult(**{k: v for k, v in s.items() if k in keep}) for s in o["sessions"]])
        for o in doc["orders"]]
    return MetricsReport(orders=orders, config=doc["config"], caveat=doc["caveat"]).comparable()


def _run(ctx: bl.Context, state: dict) -> tuple[float, float, list[str], dict | None]:
    child = bl.run_child(ctx, bl.kgcil_argv("run", str(state["config"]), "--jobs", "1"), "run")
    if child.returncode != 0:
        return child.wall_s, child.maxrss_mb, [
            f"run exited {child.returncode}: {child.stderr.decode(errors='replace')[-300:]}"], None
    out = Path(state["out"])
    doc = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    with open(out / "sessions.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    errors = []
    if len(rows) != state["n_sessions"]:
        errors.append(f"sessions.csv has {len(rows)} rows for {state['n_sessions']} sessions")
    return child.wall_s, child.maxrss_mb, errors, doc


def replay(state: dict, tr: bl.Tracer) -> dict:
    """What `kgcil run` does for one class order, with a span around each layer call.

    Mirrors harness.run_experiment: same order shuffle, sample keys, candidate
    vectors and infer steps, so per-class counts must equal the untraced run's.
    Runs in a fresh interpreter (see replay.py); after the timed part it
    checks the final subgraph.
    """
    from kgcil import (GeneratorConfig, NoAssignment, TaskSchedule, TaskSubgraph, TextGenerator,
                       encode_candidates, encoder_from_config, extend_subgraph, load_graph,
                       load_run_config, normalize_name, render_export)

    t_start = bl.pc()
    doc = load_run_config(state["config"])
    graph = tr.call("store.load", load_graph, doc["graph_path"])
    tr.counts["facts_loaded"] += graph.n_facts
    sched = doc["schedule"]
    schedule = TaskSchedule.b0(sched["classes"], sched["n_tasks"],
                               samples_per_class=sched["samples_per_class"])
    generator = GeneratorConfig.from_dict(doc["generator"])
    encoder = encoder_from_config(doc["encoder"])
    timed = bl.TimedEncoder(encoder, tr)
    (order_seed,) = doc["orders"]
    names = [normalize_name(c) for c in schedule.classes]
    ordered = [names[i] for i in np.random.default_rng(order_seed).permutation(len(names))]
    sub = TaskSubgraph(graph)
    seen: list[str] = []
    sessions = []
    for t, new in enumerate(schedule.split(ordered)):
        _, report = tr.call("taskgraph.extend", extend_subgraph, sub, new, graph, doc["r_target"])
        bl.record_grants(tr, report)
        seen.extend(new)
        gen = tr.call("simulate.generator_init", TextGenerator, graph, sub, generator)
        candidates = list(seen)
        vectors = tr.call("encoders.candidates", encode_candidates, candidates, encoder)
        per_class = {}
        for cname in seen:
            cid = graph.entities.get(cname)
            correct = 0
            for s in range(schedule.samples_per_class):
                key = (t, cid, s)
                t0 = bl.pc()
                try:
                    text = gen.generate(cid, key)
                except NoAssignment:
                    text = gen.baseline_text(cid, key)
                tr.add("simulate.generate", bl.pc() - t0)
                final = bl.classify_traced(tr, text, cname, sub, graph, candidates, vectors, timed)
                correct += final == cname
            per_class[cname] = [correct, schedule.samples_per_class]
        payload = tr.call("taskgraph.export", render_export, sub).encode("utf-8")
        tr.counts["export_bytes"] = len(payload)
        sessions.append(per_class)
    op_s = bl.pc() - t_start
    return {"op_s": op_s, "self_s": op_s - tr.top_level_s(), "per_class": sessions,
            "errors": _final_subgraph_errors(state, tr, graph, sub)}


def _final_subgraph_errors(state: dict, tr: bl.Tracer, graph, sub) -> list[str]:
    """The run's final registry is exclusive, its direct pairs are facts, and it round-trips."""
    from kgcil import export_subgraph, import_subgraph

    errors = bl.exclusivity_errors(sub)
    bad = bl.lookup_errors(graph, bl.direct_pairs(sub), tr)
    if bad:
        errors.append(f"{bad} allocated direct pairs are not graph facts")
    tr.call("taskgraph.export", export_subgraph, sub, state["final_sub"])
    imported = tr.call("taskgraph.import", import_subgraph, state["final_sub"], graph)
    return errors + bl.roundtrip_errors(sub, imported)


def run(ctx: bl.Context, trace: bool, sizes: dict = SIZES) -> bl.Outcome:
    setups = []
    for _ in range(SETUP_REPS):
        t0 = bl.pc()
        state = _setup(ctx, sizes)
        setups.append(bl.pc() - t0)

    if not trace:
        # two runs at least, so that comparable() can be compared across repetitions
        reps = bl.repeat_for(ctx.seconds, lambda: _run(ctx, state), min_reps=2)
        reference = next((comparable(doc) for *_, doc in reps if doc is not None), None)
        failed, notes = 0, []
        for _, _, errors, doc in reps:
            if doc is not None and comparable(doc) != reference:
                errors = errors + ["comparable() differs between repetitions"]
            failed += bool(errors)
            notes += errors
        return bl.Outcome({
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r[0] for r in reps),
            "peak_rss_mb": max(r[1] for r in reps),
        }, attempted=len(reps), failed=failed, notes=notes,
            samples={"setup_s": setups, "wall_s": [r[0] for r in reps]})

    tr = bl.Tracer(True)
    untraced_s, _, errors, doc = _run(ctx, state)
    import_s = bl.cli_import_s(ctx)
    replay_s, result = bl.traced_replay(ctx, state, tr)
    errors += result["errors"]
    accuracy = None
    if doc is not None:
        untraced = [s["per_class"] for s in doc["orders"][0]["sessions"]]
        if untraced != result["per_class"]:
            errors.append("traced replay's per-class counts differ from the untraced run's")
        summary = doc["summary"]
        accuracy = (summary["avg"]["mean"], summary["last"]["mean"], summary["hacc"]["mean"])
    metrics = bl.layer_metrics(tr, self_s=result["self_s"], overhead_s=replay_s - untraced_s,
                               import_s=import_s, accuracy=accuracy)
    return bl.Outcome(metrics, attempted=1, failed=int(bool(errors)), notes=errors)
