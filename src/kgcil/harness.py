"""Incremental-session experiment driver and metric aggregation.

A run walks a task schedule session by session: extend the subgraph with the
session's classes, generate descriptions for every class seen so far, push
them through graph-grounded inference, and score. Metrics follow the usual
incremental-learning bookkeeping: per-session accuracy, their mean (avg), the
final session (last), the first-to-last drop (pd), and the harmonic balance
between base-class and overall accuracy (hacc). Multiple class orders give
mean and population std.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .encoders import HashingEncoder
from .inference import encode_candidates, infer_batch, prediction_record
from .simulate import GeneratorConfig, NoAssignment, TextGenerator, baseline_config
from .store import KnowledgeGraph, Record, normalize_name
from .taskgraph import TaskSubgraph, UnknownClass, extend_subgraph, render_export
from .triplet_text import render_training_text

SIMULATION_CAVEAT = (
    "Accuracies in this report come from a simulated description generator, "
    "not a fine-tuned multimodal model. Published full-pipeline numbers "
    "(for example 84.29% Last on ImageNet-R) are out of scope here and are "
    "not reproduced."
)

CLASS_TEXT_MODES = ("name", "name_plus_triplets")


@dataclass
class TaskSchedule:
    """Class list plus a split recipe; the split applies to a shuffled order.

    A recipe that cannot split its own class list raises ValueError here.
    """

    classes: list[str]
    kind: str
    n_tasks: int = 0
    base_size: int = 0
    n_incremental: int = 0
    way: int = 5
    samples_per_class: int = 100

    def __post_init__(self):
        self.classes = list(self.classes)
        self.split(self.classes)

    @classmethod
    def b0(cls, classes, n_tasks: int, samples_per_class: int = 100) -> "TaskSchedule":
        return cls(classes, "b0", n_tasks=n_tasks, samples_per_class=samples_per_class)

    @classmethod
    def b100(cls, classes, base_size: int, n_incremental: int,
             samples_per_class: int = 100) -> "TaskSchedule":
        return cls(classes, "b100", base_size=base_size, n_incremental=n_incremental,
                   samples_per_class=samples_per_class)

    @classmethod
    def fewshot(cls, classes, base_size: int = 60, way: int = 5,
                samples_per_class: int = 100) -> "TaskSchedule":
        return cls(classes, "fewshot", base_size=base_size, way=way,
                   samples_per_class=samples_per_class)

    def split(self, ordered: list[str]) -> list[list[str]]:
        """Partition an ordered class list into per-session lists."""
        base, rest = ordered[: self.base_size], ordered[self.base_size:]
        if self.kind == "b0":
            if self.n_tasks < 1 or self.n_tasks > len(ordered):
                raise ValueError(f"n_tasks must be in [1, {len(ordered)}], got {self.n_tasks}")
            return _even_chunks(ordered, self.n_tasks)
        if self.kind == "b100":
            if self.base_size < 1 or len(rest) < self.n_incremental or self.n_incremental < 1:
                raise ValueError(f"bad split: base {self.base_size} + {self.n_incremental} "
                                 f"incremental over {len(ordered)} classes")
            return [base] + _even_chunks(rest, self.n_incremental)
        if self.kind == "fewshot":
            if (self.base_size < 1 or self.way < 1 or len(ordered) < self.base_size
                    or len(rest) % self.way):
                raise ValueError(f"{len(ordered)} classes cannot split into base "
                                 f"{self.base_size} plus {self.way}-way sessions")
            return [base] + [rest[i: i + self.way] for i in range(0, len(rest), self.way)]
        raise ValueError(f"unknown schedule kind: {self.kind!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


def _even_chunks(items: list[str], n: int) -> list[list[str]]:
    base, rem = divmod(len(items), n)
    out, pos = [], 0
    for k in range(n):
        size = base + (1 if k < rem else 0)
        out.append(items[pos: pos + size])
        pos += size
    return out


def compute_hacc(a0: float, an: float) -> float:
    """Harmonic balance of base-class and all-class accuracy; 0 when both are 0."""
    if a0 == an:
        return a0
    if a0 == 0 and an == 0:
        return 0.0
    return 2 * a0 * an / (a0 + an)


def compute_pd(first: float, last: float) -> float:
    """Performance drop, signed: first-session minus last-session accuracy."""
    return first - last


@dataclass
class SessionResult(Record):
    index: int
    new_classes: list[str]
    per_class: dict[str, list[int]]  # name -> [correct, total] over all seen classes
    accuracy: float
    base_accuracy: float
    generation_ms: float
    vote_ms: float
    classify_ms: float
    subgraph_bytes: int


@dataclass
class OrderResult:
    seed: int
    sessions: list[SessionResult]

    @property
    def avg(self) -> float:
        return float(np.mean([s.accuracy for s in self.sessions]))

    @property
    def last(self) -> float:
        return self.sessions[-1].accuracy

    @property
    def pd(self) -> float:
        return compute_pd(self.sessions[0].accuracy, self.sessions[-1].accuracy)

    @property
    def hacc(self) -> float:
        final = self.sessions[-1]
        return compute_hacc(final.base_accuracy, final.accuracy)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "sessions": [s.to_dict() for s in self.sessions],
            "avg": self.avg,
            "last": self.last,
            "pd": self.pd,
            "hacc": self.hacc,
        }


METRICS = ("avg", "last", "pd", "hacc")
TIMINGS = ("generation_ms", "vote_ms", "classify_ms")  # per sample, the stage times of a session


@dataclass
class MetricsReport:
    orders: list[OrderResult]
    config: dict = field(default_factory=dict)
    caveat: str = SIMULATION_CAVEAT

    def summary(self) -> dict:
        out = {}
        for metric in METRICS:
            values = np.array([getattr(o, metric) for o in self.orders], dtype=float)
            # population std matches the usual mean +/- spread over class orders
            out[metric] = {"mean": float(values.mean()), "std": float(values.std())}
        return out

    def to_dict(self) -> dict:
        return {
            "caveat": self.caveat,
            "config": self.config,
            "orders": [o.to_dict() for o in self.orders],
            "summary": self.summary(),
        }

    def comparable(self) -> dict:
        """Everything that must reproduce bit-for-bit across identical runs.

        Wall-clock timing fields are the one exception and are stripped.
        """
        doc = self.to_dict()
        for order in doc["orders"]:
            for session in order["sessions"]:
                for key in TIMINGS:
                    del session[key]
        return doc

    def format_summary(self) -> str:
        parts = []
        for metric, stats in self.summary().items():
            parts.append(f"{metric} {stats['mean'] * 100:.2f} +/- {stats['std'] * 100:.2f}")
        return ", ".join(parts)

    def session_rows(self, arm: str = "augmented") -> list[dict]:
        rows = []
        for order in self.orders:
            for s in order.sessions:
                rows.append({
                    "arm": arm,
                    "order_seed": order.seed,
                    "session": s.index,
                    "n_seen": len(s.per_class),
                    "accuracy": f"{s.accuracy * 100:.2f}",
                    "base_accuracy": f"{s.base_accuracy * 100:.2f}",
                    **{key: f"{getattr(s, key):.4f}" for key in TIMINGS},
                    "subgraph_bytes": s.subgraph_bytes,
                })
        return rows


# -- evaluation ------------------------------------------------------------

_WORKER_CTX: dict | None = None


def _eval_class(ctx: dict, cname: str) -> dict:
    """Evaluate samples_per_class generations for one class as one batch."""
    graph = ctx["graph"]
    gen: TextGenerator = ctx["generator"]
    cid = graph.entities.get(cname)
    session = ctx["session"]
    keys = [(session, cid, s) for s in range(ctx["samples"])]
    t0 = time.perf_counter()
    try:
        texts = gen.generate_batch(cid, keys)
    except NoAssignment:
        texts = gen.generate_batch(cid, keys, baseline=True)
    gen_ms = (time.perf_counter() - t0) * 1000.0
    batch = infer_batch(texts, ctx["subgraph"], ctx["candidates"], ctx["encoder"],
                        ctx["candidate_vectors"])
    records = None
    if ctx["diagnostics"]:
        records = []
        for s, text in enumerate(texts):
            rec = prediction_record(text, batch.prediction(s), graph.relations)
            rec.update(order_seed=ctx["order_seed"], session=session,
                       true_class=cname, sample=s)
            records.append(rec)
    return {
        "name": cname,
        "correct": sum(batch.final_class(s) == cname for s in range(len(texts))),
        "total": ctx["samples"],
        "chars": sum(map(len, texts)),
        "generation_ms": gen_ms,
        "vote_ms": batch.vote_ms,
        "classify_ms": batch.classify_ms,
        "records": records,
    }


def _eval_class_worker(cname: str) -> dict:
    return _eval_class(_WORKER_CTX, cname)


def _evaluate_session(ctx: dict, seen: list[str], jobs: int) -> list[dict]:
    if jobs <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [_eval_class(ctx, c) for c in seen]
    global _WORKER_CTX
    _WORKER_CTX = ctx
    try:
        # fork inherits the context without pickling it per task; a class's
        # texts come from its own (seed, session, class) stream, so which
        # worker draws them does not change them
        mp = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=mp) as pool:
            return list(pool.map(_eval_class_worker, seen))
    finally:
        _WORKER_CTX = None


def _candidate_vectors(seen: list[str], subgraph: TaskSubgraph, encoder,
                       class_text_mode: str):
    if class_text_mode not in CLASS_TEXT_MODES:
        raise ValueError(f"class_text_mode must be one of {CLASS_TEXT_MODES}")
    if class_text_mode == "name":
        texts = seen
    else:
        graph = subgraph.graph
        texts = []
        for name in seen:
            a = subgraph.assignments.get(graph.entities.get(name))
            texts.append(render_training_text(a, graph).text if a and a.paths else name)
    return encode_candidates(texts, encoder)


def run_experiment(graph: KnowledgeGraph, schedule: TaskSchedule,
                   generator: GeneratorConfig, r_target: int, encoder, orders,
                   *, jobs: int = 1, class_text_mode: str = "name",
                   diagnostics_path=None) -> MetricsReport:
    """Run the schedule once per class order and aggregate metrics.

    orders is a list of shuffle seeds; every class must resolve to a graph
    entity (UnknownClass otherwise). Results are independent of jobs.
    """
    orders = list(orders)
    if not orders:
        raise ValueError("orders must be non-empty")
    names = [normalize_name(c) for c in schedule.classes]
    for name in names:
        if graph.entities.get(name) is None:
            raise UnknownClass(name)
    diag = open(diagnostics_path, "w", encoding="utf-8") if diagnostics_path else None
    try:
        results = [
            _run_order(graph, schedule, names, generator, r_target, encoder, seed,
                       jobs, class_text_mode, diag)
            for seed in orders
        ]
    finally:
        if diag:
            diag.close()
    echo = {"generator": generator.to_dict(), "r_target": r_target, "orders": orders,
            "schedule": schedule.to_dict(), "encoder": encoder.to_config(),
            "class_text_mode": class_text_mode}
    return MetricsReport(orders=results, config=echo)


def _run_order(graph, schedule, names, generator, r_target, encoder, seed,
               jobs, class_text_mode, diag) -> OrderResult:
    rng = np.random.default_rng(seed)
    ordered = [names[i] for i in rng.permutation(len(names))]
    sessions = schedule.split(ordered)
    sub = TaskSubgraph(graph)
    seen: list[str] = []
    base: list[str] = []
    out: list[SessionResult] = []
    for t, sess_classes in enumerate(sessions):
        extend_subgraph(sub, sess_classes, graph, r_target)
        seen.extend(sess_classes)
        if t == 0:
            base = list(sess_classes)
        gen = TextGenerator(graph, sub, generator)
        ctx = {
            "graph": graph,
            "generator": gen,
            "subgraph": sub,
            "candidates": list(seen),
            "candidate_vectors": _candidate_vectors(seen, sub, encoder, class_text_mode),
            "encoder": encoder,
            "samples": schedule.samples_per_class,
            "session": t,
            "order_seed": seed,
            "diagnostics": diag is not None,
        }
        rows = _evaluate_session(ctx, seen, jobs)
        per_class = {row["name"]: [row["correct"], row["total"]] for row in rows}
        n_total = sum(v[1] for v in per_class.values())
        n_correct = sum(v[0] for v in per_class.values())
        base_total = sum(per_class[c][1] for c in base)
        base_correct = sum(per_class[c][0] for c in base)
        if diag:
            for row in rows:
                for rec in row["records"] or []:
                    diag.write(json.dumps(rec) + "\n")
        out.append(SessionResult(
            index=t,
            new_classes=list(sess_classes),
            per_class=per_class,
            accuracy=n_correct / n_total,
            base_accuracy=base_correct / base_total,
            **{key: sum(r[key] for r in rows) / n_total for key in TIMINGS},
            subgraph_bytes=len(render_export(sub).encode("utf-8")),
        ))
    return OrderResult(seed=seed, sessions=out)


def run_paired_comparison(graph, schedule, generator: GeneratorConfig, r_target,
                          encoder, orders, **kwargs) -> dict:
    """Same seeds through the graph-grounded arm and the bare-caption baseline."""
    augmented = run_experiment(graph, schedule, generator, r_target, encoder,
                               orders, **kwargs)
    kwargs.pop("diagnostics_path", None)
    baseline = run_experiment(graph, schedule, baseline_config(generator), r_target,
                              encoder, orders, **kwargs)
    aug_s, base_s = augmented.summary(), baseline.summary()
    return {
        "augmented": augmented,
        "baseline": baseline,
        "margins": {
            "avg": aug_s["avg"]["mean"] - base_s["avg"]["mean"],
            "last": aug_s["last"]["mean"] - base_s["last"]["mean"],
        },
    }


# -- micro-benchmark --------------------------------------------------------

@dataclass
class BenchReport:
    samples: int
    classes: int
    mean_paths_per_class: float
    avg_text_length_chars: float
    generation_ms: float
    vote_ms: float
    classify_ms: float
    storage_mb: float
    seed: int

    def to_tsv(self) -> str:
        rows = [
            ("samples", str(self.samples)),
            ("classes", str(self.classes)),
            ("mean_paths_per_class", f"{self.mean_paths_per_class:.2f}"),
            ("avg_text_length_chars", f"{self.avg_text_length_chars:.1f}"),
            *((key, f"{getattr(self, key):.4f}") for key in TIMINGS),
            ("storage_mb", f"{self.storage_mb:.4f}"),
            ("seed", str(self.seed)),
        ]
        return "metric\tvalue\n" + "\n".join(f"{k}\t{v}" for k, v in rows) + "\n"


# the generator whose time `run` spends: corrupted clauses in filler, as in demos/05
_BENCH_GENERATOR = {"mode": "corrupted", "p_drop": 0.3, "p_swap": 0.3, "filler": True}


def bench(graph: KnowledgeGraph, subgraph: TaskSubgraph, n_samples: int = 1000,
          seed: int = 0) -> BenchReport:
    """Per-sample stage latency, as in sessions.csv, plus export size for a subgraph.

    Runs the step `run` runs, one infer_batch per class, on texts of the
    corrupted generator with filler (p_drop = p_swap = 0.3) against every
    class of the subgraph at the default encoder; the samples go round-robin
    over the classes with paths.
    """
    assigned = [graph.entities.name(cid) for cid, a in subgraph.assignments.items() if a.paths]
    if not assigned or n_samples < 1:
        return BenchReport(n_samples, len(subgraph.assignments), *[0.0] * 6, seed)
    candidates = subgraph.class_names()
    encoder = HashingEncoder()
    ctx = {"graph": graph, "subgraph": subgraph, "candidates": candidates, "encoder": encoder,
           "generator": TextGenerator(graph, subgraph, GeneratorConfig(seed=seed, **_BENCH_GENERATOR)),
           "candidate_vectors": encode_candidates(candidates, encoder),
           "session": 0, "diagnostics": False}
    per_class, extra = divmod(n_samples, len(assigned))
    rows = [_eval_class(dict(ctx, samples=per_class + (k < extra)), name)
            for k, name in enumerate(assigned[:n_samples])]
    paths = sum(len(a.paths) for a in subgraph.assignments.values())
    return BenchReport(
        samples=n_samples,
        classes=len(subgraph.assignments),
        mean_paths_per_class=paths / len(subgraph.assignments),
        avg_text_length_chars=sum(r["chars"] for r in rows) / n_samples,
        **{key: sum(r[key] for r in rows) / n_samples for key in TIMINGS},
        storage_mb=len(render_export(subgraph).encode("utf-8")) / 1_000_000.0,
        seed=seed,
    )
