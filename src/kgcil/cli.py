"""Command-line front end: ingest, build, run, query, bench.

stdout carries data (JSON or TSV), stderr carries logs. Exit codes: 0 on
success, 1 on input errors (usage errors included), 2 on internal failures.
Set KGCIL_LOG to one of error, warn, info, debug to control log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

from .config import load_run_config
from .encoders import HashingEncoder, encoder_from_config
from .harness import (
    SIMULATION_CAVEAT,
    TaskSchedule,
    bench,
    run_experiment,
    run_paired_comparison,
)
from .inference import EmptyCandidates, infer, prediction_record
from .simulate import GeneratorConfig
from .store import load_graph
from .taskgraph import TaskSubgraph, export_subgraph, extend_subgraph, import_subgraph

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

log = logging.getLogger("kgcil")


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("KGCIL_LOG", "warn").strip().lower(), logging.WARNING)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    # rebind on every invocation so repeated main() calls follow the live stream
    log.handlers.clear()
    log.addHandler(handler)
    log.propagate = False
    log.setLevel(level)


def parse_classes_file(path) -> list[list[str]]:
    """Class names, one per line; blank lines separate task blocks."""
    blocks: list[list[str]] = []
    current: list[str] = []
    with open(path, encoding="utf-8-sig") as fh:  # -sig drops a leading BOM
        for raw in fh:
            line = raw.strip()
            if not line:
                if current:
                    blocks.append(current)
                    current = []
                continue
            if line.startswith("#"):
                continue
            current.append(line)
    if current:
        blocks.append(current)
    return blocks


def cmd_ingest(args) -> int:
    graph = load_graph(args.graph)
    log.info("loaded %s", args.graph)
    print(json.dumps(graph.stats.to_dict()))
    return EXIT_OK


def cmd_build(args) -> int:
    graph = load_graph(args.graph)
    blocks = parse_classes_file(args.classes)
    if not blocks:
        log.warning("classes file %s holds no classes; writing an empty subgraph", args.classes)
    sub = TaskSubgraph(graph)
    grants, shortfall, unknown = [], [], []
    for block in blocks:
        _, report = extend_subgraph(sub, block, graph, args.r)
        grants.extend(g.to_dict() for g in report.grants)
        shortfall.extend(report.shortfall)
        unknown.extend(report.unknown)
    if unknown:
        log.warning("unknown classes: %s", ", ".join(unknown))
        if args.strict:
            log.error("--strict: %d unknown class name(s)", len(unknown))
            return EXIT_INPUT
    stats = export_subgraph(sub, args.out)
    print(json.dumps({
        "tasks": sub.tasks,
        "export": {"path": str(args.out), **stats.to_dict()},
        "grants": grants,
        "shortfall": shortfall,
        "unknown": unknown,
    }))
    return EXIT_OK


def _schedule_from_config(doc: dict) -> TaskSchedule:
    sched = dict(doc["schedule"])
    if sched.pop("shot", None) is not None:
        log.warning("schedule: 'shot' is deprecated and ignored")
    if "classes_file" in sched:
        sched["classes"] = [name for block in parse_classes_file(sched.pop("classes_file"))
                            for name in block]
    return TaskSchedule(**sched)


def cmd_run(args) -> int:
    if args.jobs < 0:
        raise ValueError(f"--jobs must be 0 or more, got {args.jobs}")
    doc = load_run_config(args.config)
    if args.jobs or "jobs" in doc:
        log.warning("'jobs' is deprecated and ignored: every session runs in one process")
    graph = load_graph(doc["graph_path"])
    schedule = _schedule_from_config(doc)
    generator = GeneratorConfig.from_dict(doc.get("generator", {}))
    encoder = encoder_from_config(doc.get("encoder", {}))
    outdir = doc["output_dir"]
    os.makedirs(outdir, exist_ok=True)
    diagnostics = os.path.join(outdir, "diagnostics.jsonl") if doc.get("diagnostics") else None
    arms = dict(class_text_mode=doc.get("class_text_mode", "name"), diagnostics_path=diagnostics)
    log.warning("%s", SIMULATION_CAVEAT)
    run_args = (graph, schedule, generator, doc["r_target"], encoder, doc["orders"])
    paired = run_paired_comparison(*run_args, **arms) if doc.get("compare_baseline") else None
    report = paired["augmented"] if paired else run_experiment(*run_args, **arms)
    metrics = report.to_dict()
    metrics["config"]["run_config"] = doc
    rows = report.session_rows()
    if paired:
        metrics["comparison"] = {"baseline": paired["baseline"].to_dict(),
                                 "margins": paired["margins"]}
        rows += paired["baseline"].session_rows("baseline")
    with open(os.path.join(outdir, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(outdir, "sessions.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    log.info("wrote %s", os.path.join(outdir, "metrics.json"))
    print(json.dumps(metrics))
    return EXIT_OK


def cmd_query(args) -> int:
    graph = load_graph(args.graph)
    sub = import_subgraph(args.subgraph, graph)
    try:
        pred = infer(args.text, sub, HashingEncoder(dimension=args.encoder_dim))
    except EmptyCandidates:
        log.error("subgraph %s holds no classes", args.subgraph)
        return EXIT_INPUT
    print(json.dumps(prediction_record(args.text, pred, graph.relations)))
    return EXIT_OK


def cmd_bench(args) -> int:
    graph = load_graph(args.graph)
    sub = import_subgraph(args.subgraph, graph)
    report = bench(graph, sub, n_samples=args.samples, seed=args.seed)
    sys.stdout.write(report.to_tsv())
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgcil", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a graph TSV and print its stats as JSON")
    p.add_argument("graph")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build", help="allocate relation paths for task blocks of classes")
    p.add_argument("--graph", required=True)
    p.add_argument("--classes", required=True, help="one class per line; blank lines split tasks")
    p.add_argument("--r", type=int, default=3, help="paths per class (default 3)")
    p.add_argument("--out", required=True, help="subgraph TSV to write")
    p.add_argument("--strict", action="store_true", help="fail on unknown class names")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("run", help="run an incremental experiment from a JSON config")
    p.add_argument("config")
    p.add_argument("--jobs", type=int, default=0, help="deprecated and ignored")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("query", help="diagnose one inference against a built subgraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--subgraph", required=True)
    p.add_argument("--encoder-dim", type=int, default=256)
    p.add_argument("text")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="latency and storage micro-benchmark for a subgraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--subgraph", required=True)
    p.add_argument("-n", "--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
            PermissionError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except Exception:
        log.exception("internal error")
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
