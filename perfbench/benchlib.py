"""Shared pieces of the kgcil benchmark: tracing, child processes, checks.

Every workload module receives a `Context` (checkout paths, a private scratch
directory inside the checkout, the child environment) and a `Tracer`. Untraced
runs use a disabled tracer, whose `call` is a plain call, so the coarse
per-call spans cost nothing when tracing is off; the hot per-sample and
per-lookup loops have separate traced and untraced bodies.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# a child that runs longer than this is killed and counted as failed, which
# keeps one run inside the 180 s a run may take
CHILD_TIMEOUT_S = 120.0

pc = time.perf_counter


class Tracer:
    """Span totals and call counts per name, recorded around layer calls.

    Spans are aggregated as running sums rather than kept one by one: the
    per-sample loops make several hundred thousand calls, and a list of span
    records that size would distort the memory and time being measured.
    Nested spans (the encode inside classify) are recorded under their own
    name and left out of the top-level sum that self time subtracts.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.total: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.nested: set[str] = set()
        self.counts: Counter = Counter()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        t0 = pc()
        out = fn(*args, **kwargs)
        self.add(name, pc() - t0)
        return out

    def add(self, name: str, seconds: float, nested: bool = False) -> None:
        self.total[name] += seconds
        self.calls[name] += 1
        if nested:
            self.nested.add(name)

    def top_level_s(self) -> float:
        return sum(v for k, v in self.total.items() if k not in self.nested)

    def mean(self, name: str) -> float:
        n = self.calls[name]
        return self.total[name] / n if n else 0.0

    def to_dict(self) -> dict:
        return {"total": dict(self.total), "calls": dict(self.calls),
                "nested": sorted(self.nested), "counts": dict(self.counts)}

    def merge(self, doc: dict) -> None:
        """Add another tracer's to_dict() (a child process's spans) to this one."""
        for name, seconds in doc["total"].items():
            self.total[name] += seconds
        self.calls.update(doc["calls"])
        self.nested.update(doc["nested"])
        for name, value in doc["counts"].items():
            if name == "export_bytes":  # a size, not a count: the latest export wins
                self.counts[name] = value
            else:
                self.counts[name] += value


class TimedEncoder:
    """Forwards to a real encoder and times every encode it is asked for.

    Passed to `classify`, it splits the encode of the augmented text out of
    the classify span without touching the package, so `inference.rank_us`
    can be classify time minus its own encode.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.dimension = inner.dimension
        self.tracer = tracer

    def encode(self, text: str):
        t0 = pc()
        vec = self.inner.encode(text)
        self.tracer.add("encoders.encode", pc() - t0, nested=True)
        return vec


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    tmp: Path
    env: dict


@dataclass
class Child:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def make_context(workload: str, seed: int, seconds: float) -> Context:
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    tmp = base / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return Context(workload, seed, seconds, tmp, env)


def remove_context(ctx: Context) -> None:
    shutil.rmtree(ctx.tmp, ignore_errors=True)
    try:
        ctx.tmp.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def run_child(ctx: Context, argv: list[str], name: str) -> Child:
    """Run one child to completion; wall time and peak RSS come from wait4."""
    out_path, err_path = ctx.tmp / f"{name}.out", ctx.tmp / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = pc()
        proc = subprocess.Popen(argv, cwd=ctx.tmp, stdout=out, stderr=err, env=ctx.env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = pc() - t0
    # wait4 reaped the child; tell Popen so it does not try again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_bytes(), err_path.read_bytes())


def kgcil_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "kgcil.cli", *args]


_GRAPH_SCRIPT = (
    "import json, sys\n"
    "from kgcil.synthetic import large_graph_tsv\n"
    "large_graph_tsv(sys.argv[1], **json.loads(sys.argv[2]))\n"
)


def write_large_graph(ctx: Context, path: Path, sizes: dict) -> None:
    """large_graph_tsv in a child, so its arrays never count in this process's peak RSS."""
    child = run_child(ctx, [sys.executable, "-c", _GRAPH_SCRIPT, str(path),
                            json.dumps(dict(sizes, seed=ctx.seed))], "make_graph")
    if child.returncode != 0:
        raise RuntimeError("graph generation failed: " + child.stderr.decode(errors="replace")[-400:])


def traced_replay(ctx: Context, state: dict, tracer: Tracer) -> tuple[float, dict]:
    """Run the workload's replay() in a fresh interpreter (see replay.py).

    Returns the child's wall time and the replay's result; the child's spans
    and counts are merged into tracer.
    """
    state_path, out_path = ctx.tmp / "replay_state.json", ctx.tmp / "replay_out.json"
    state_path.write_text(json.dumps(state), encoding="utf-8")
    child = run_child(ctx, [sys.executable, str(Path(__file__).with_name("replay.py")),
                            ctx.workload, str(state_path), str(out_path)], "replay")
    if child.returncode != 0:
        raise RuntimeError("traced replay failed: " + child.stderr.decode(errors="replace")[-600:])
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    tracer.merge(doc["tracer"])
    return child.wall_s, doc["result"]


def cli_import_s(ctx: Context, reps: int = 5) -> float:
    """Median wall time of a fresh interpreter that only imports kgcil.cli."""
    times = [run_child(ctx, [sys.executable, "-c", "import kgcil.cli"], "import").wall_s
             for _ in range(reps)]
    return statistics.median(times)


def repeat_for(seconds: float, op, min_reps: int) -> list:
    """Run op() until the next repetition would overrun the window.

    op returns its own duration first; at least min_reps repetitions run.
    """
    results = []
    start = pc()
    while True:
        results.append(op())
        elapsed = pc() - start
        if len(results) >= min_reps:
            typical = statistics.median(r[0] for r in results)
            if elapsed + typical > seconds:
                return results


# -- checks shared by workloads ---------------------------------------------

def exclusivity_errors(sub) -> list[str]:
    """Every allocated pair has exactly one owner, and the registry agrees."""
    owners: dict = {}
    errors = []
    for cid, assignment in sub.assignments.items():
        for path in assignment.paths:
            prev = owners.setdefault(path.key, cid)
            if prev != cid:
                errors.append(f"pair {path.key} owned by {prev} and {cid}")
            if sub.pair_to_class.get(path.key) != cid:
                errors.append(f"registry disagrees on pair {path.key}")
    if len(owners) != len(sub.pair_to_class):
        errors.append(f"{len(sub.pair_to_class)} registry keys for {len(owners)} allocated pairs")
    return errors


def roundtrip_errors(sub, imported) -> list[str]:
    """import_subgraph(export_subgraph(sub)) must reproduce the registry exactly."""
    errors = []
    if imported.pair_to_class != sub.pair_to_class:
        errors.append("imported pair_to_class differs from the exported one")
    want = {cid: [p.key for p in a.paths] for cid, a in sub.assignments.items() if a.paths}
    got = {cid: [p.key for p in a.paths] for cid, a in imported.assignments.items()}
    if want != got:
        errors.append("imported class paths differ from the exported ones")
    return errors


def direct_pairs(sub) -> list[tuple[int, int, int]]:
    """(relation, tail, class) for every single-relation path allocated."""
    return [(p.relations[0], p.tail, cid)
            for cid, a in sub.assignments.items() for p in a.paths if len(p.relations) == 1]


def lookup_errors(graph, triples, tracer: Tracer) -> int:
    """Count (relation, tail, head) triples whose head heads_for does not return."""
    bad = 0
    if tracer.enabled:
        for r, t, h in triples:
            t0 = pc()
            heads = graph.heads_for(r, t)
            tracer.add("store.heads_for", pc() - t0)
            bad += h not in heads
    else:
        for r, t, h in triples:
            bad += h not in graph.heads_for(r, t)
    return bad


def classify_traced(tracer: Tracer, text: str, true_name: str, sub, graph,
                    candidates, vectors, encoder: TimedEncoder) -> str:
    """parse -> vote -> augment -> classify, as `infer` does, with a span per layer.

    Also counts what each step produced, so the traced run can say where
    accuracy went.
    """
    from kgcil import augment_text, classify, parse_triplets, vote_head

    t0 = pc()
    triplets = parse_triplets(text, graph.relations)
    t1 = pc()
    tally, head = vote_head(triplets, sub)
    t2 = pc()
    pred = classify(augment_text(text, head), candidates, encoder, vectors)
    t3 = pc()
    tracer.add("triplet_text.parse", t1 - t0)
    tracer.add("inference.vote", t2 - t1)
    tracer.add("inference.classify", t3 - t2)
    c = tracer.counts
    c["samples"] += 1
    c["parsed"] += len(triplets)
    c["matched"] += len(tally.matched)
    c["empty_text"] += not text.strip()
    c["no_head"] += head is None
    c["vote_tie"] += tally.is_tied()
    c["head_correct"] += head == true_name
    c["final_correct"] += pred.final_class == true_name
    c["override_correct_head"] += head == true_name and pred.final_class != true_name
    return pred.final_class


def record_grants(tracer: Tracer, report) -> None:
    c = tracer.counts
    for g in report.grants:
        c["requested"] += g.requested
        c["granted"] += g.granted
        c["classes"] += 1
        c["fallback"] += g.fallback_used


# -- results -----------------------------------------------------------------

def environment(workload: str, seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


@dataclass
class Outcome:
    """What a workload hands back: metric values plus operation counts."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)  # the values behind a median


def layer_metrics(tracer: Tracer, *, self_s: float, overhead_s: float, import_s: float,
                  accuracy: tuple[float, float, float] | None = None) -> dict[str, float]:
    """Per-layer metrics shared by all workloads, from one traced run.

    accuracy is (avg, last, hacc) over sessions; workloads without sessions
    leave it out and their classified samples count as one session.
    """
    t, c = tracer, tracer.counts
    samples = c["samples"]
    if accuracy is None:
        acc = c["final_correct"] / samples if samples else 0.0
        accuracy = (acc, acc, acc)
    load_s = t.total["store.load"]
    per_sample = (lambda name: t.total[name] / samples * 1e6) if samples else (lambda name: 0.0)
    return {
        "cli.import_s": import_s,
        "store.load_s": t.mean("store.load"),
        "store.facts_per_s": c["facts_loaded"] / load_s if load_s else 0.0,
        "store.heads_for_us": t.mean("store.heads_for") * 1e6,
        "taskgraph.extend_s": t.total["taskgraph.extend"],
        "taskgraph.grant_ratio": c["granted"] / c["requested"] if c["requested"] else 0.0,
        "taskgraph.fallback_share": c["fallback"] / c["classes"] if c["classes"] else 0.0,
        "taskgraph.export_s": t.mean("taskgraph.export"),
        "taskgraph.export_bytes": c["export_bytes"],
        "taskgraph.import_s": t.mean("taskgraph.import"),
        "simulate.generator_init_ms": t.mean("simulate.generator_init") * 1e3,
        "simulate.generate_us": t.mean("simulate.generate") * 1e6,
        "simulate.empty_text": c["empty_text"],
        "triplet_text.parse_us": per_sample("triplet_text.parse"),
        "triplet_text.parsed": c["parsed"],
        "inference.vote_us": per_sample("inference.vote"),
        "inference.rank_us": per_sample("inference.classify") - per_sample("encoders.encode"),
        "inference.matched": c["matched"],
        "inference.match_ratio": c["matched"] / c["parsed"] if c["parsed"] else 0.0,
        "inference.no_head": c["no_head"],
        "inference.vote_tie": c["vote_tie"],
        "inference.head_correct_ratio": c["head_correct"] / samples if samples else 0.0,
        "inference.override_correct_head": c["override_correct_head"],
        "encoders.encode_us": per_sample("encoders.encode"),
        "encoders.candidates_ms": t.mean("encoders.candidates") * 1e3,
        "harness.samples": samples,
        "harness.acc_avg": accuracy[0],
        "harness.acc_last": accuracy[1],
        "harness.hacc": accuracy[2],
        "harness.self_s": self_s,
        "trace.overhead_s": overhead_s,
    }
