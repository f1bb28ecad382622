"""Simulated description generator with a controllable corruption model.

Stands in for a fine-tuned captioning model at evaluation time. Three modes:

* oracle: the class's training text, verbatim.
* corrupted: each allocated path is independently dropped (p_drop) or swapped
  for one belonging to a confusable class (p_swap); survivors are rendered as
  headless clauses, optionally wrapped in filler sentences.
* baseline_gmm: a bare caption, "This is a photo of <mention>", where the
  mention collapses to a hypernym or confusable class with p_hypernym.

Randomness is one PCG64 stream per (seed, session, class). The harness's
sample key (session, class id, s) reads row s of that stream, and each mode
lays a row out in fixed columns (see _uniforms, _corrupted, _baseline). A
text thus depends only on the seed and its key: not on the batch it is drawn
in, nor on the process, so results are the same for any --jobs and a one-key
generate() replays its row of the class batch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from importlib import resources

import numpy as np

from .store import KnowledgeGraph, Record
from .taskgraph import TaskSubgraph
from .triplet_text import render_training_text

MODES = ("oracle", "corrupted", "baseline_gmm")

BASELINE_TEMPLATE = "This is a photo of {mention}"

_FILLER_BETWEEN_P = 0.3  # chance of an extra filler sentence after a clause


class NoAssignment(ValueError):
    """Relational modes need at least one allocated path for the class."""


@dataclass(frozen=True)
class GeneratorConfig(Record):
    mode: str = "corrupted"
    p_drop: float = 0.0
    p_swap: float = 0.0
    p_hypernym: float = 0.0
    seed: int = 0
    filler: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("p_drop", "p_swap", "p_hypernym"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @classmethod
    def from_dict(cls, doc: dict) -> "GeneratorConfig":
        known = {f.name for f in fields(cls)}
        stray = sorted(set(doc) - known)
        if stray:
            raise ValueError(f"unknown generator option(s): {', '.join(stray)}")
        return cls(**doc)


def load_filler_templates() -> list[str]:
    text = resources.files("kgcil").joinpath("filler_templates.txt").read_text("utf-8")
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def build_confusables(subgraph: TaskSubgraph, graph: KnowledgeGraph) -> dict[str, list[str]]:
    """Assigned classes sharing at least one direct tail entity in the graph.

    Symmetric by construction and never includes the class itself. Keys follow
    allocation order; values are sorted name lists.
    """
    tail_owners: dict[int, set[int]] = {}
    for cid in subgraph.assignments:
        for fact in graph.facts_of(cid):
            tail_owners.setdefault(fact.tail, set()).add(cid)
    shared: dict[int, set[int]] = {cid: set() for cid in subgraph.assignments}
    for owners in tail_owners.values():
        if len(owners) > 1:
            for cid in owners:
                shared[cid] |= owners - {cid}
    return {
        graph.entities.name(cid): sorted(graph.entities.name(o) for o in others)
        for cid, others in shared.items()
    }


def _uniforms(seed: int, sample_keys, width: int) -> np.ndarray:
    """Row r of stream PCG64((seed, *stream)) for every key (*stream, r), shape (len, width).

    A key is an int or a tuple of ints; its last int is the row. Row r is the
    stream's doubles r*width .. r*width + width - 1, so a key's row does not
    depend on which keys share its batch. One generator, one advance and one
    draw serve all keys of a stream, over the rows from its least to its
    greatest. Raises ValueError on a negative int, as SeedSequence does.
    """
    keys = [tuple(map(int, k)) if isinstance(k, (tuple, list)) else (int(k),)
            for k in sample_keys]
    if any(v < 0 for key in keys for v in key):
        raise ValueError("expected non-negative integer")  # advance() would wrap a negative row
    streams: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        streams.setdefault(key[:-1], []).append(i)
    out = np.empty((len(keys), width))
    for stream, idx in streams.items():
        rows = np.array([keys[i][-1] for i in idx])
        lo = int(rows.min())
        bitgen = np.random.PCG64((seed, *stream))
        bitgen.advance(lo * width)
        out[idx] = np.random.Generator(bitgen).random((int(rows.max()) - lo + 1, width))[rows - lo]
    return out


class TextGenerator:
    """Per-subgraph generator; everything random hangs off (seed, sample key)."""

    def __init__(self, graph: KnowledgeGraph, subgraph: TaskSubgraph, config: GeneratorConfig):
        self.graph = graph
        self.subgraph = subgraph
        self.config = config
        self.confusables = build_confusables(subgraph, graph)
        self._fillers = [t + "." for t in load_filler_templates()] if config.filler else []
        self._oracle: dict[int, str] = {}
        self._clauses: dict[int, list[str]] = {}
        self._hypernyms: dict[int, list[str]] = {}
        isa = graph.relations.lower_index().get("isa")
        for cid, assignment in subgraph.assignments.items():
            if assignment.paths:
                self._oracle[cid] = render_training_text(assignment, graph).text
                self._clauses[cid] = [self._clause(p) for p in assignment.paths]
            hyp = [graph.entities.name(f.tail) for f in graph.facts_of(cid) if f.relation == isa]
            self._hypernyms[cid] = hyp

    def _clause(self, path) -> str:
        return f"{self.graph.relations.label(path.relations)} {self.graph.entities.name(path.tail)}"

    def generate_batch(self, class_id: int, sample_keys, baseline: bool = False) -> list[str]:
        """One description per sample key, each as generate() gives it alone.

        baseline=True draws bare captions whatever the configured mode (the
        harness's fallback for a class with no paths).
        """
        mode = "baseline_gmm" if baseline else self.config.mode
        if mode != "baseline_gmm" and not self._clauses.get(class_id):
            raise NoAssignment(
                f"class {self.graph.entities.name(class_id)!r} has no allocated paths"
            )
        if mode == "oracle":
            return [self._oracle[class_id]] * len(sample_keys)
        if mode == "baseline_gmm":
            return self._baseline(class_id, _uniforms(self.config.seed, sample_keys, 2))
        width = 6 * len(self._clauses[class_id]) + 2
        return self._corrupted(class_id, _uniforms(self.config.seed, sample_keys, width))

    def generate(self, class_id: int, sample_key) -> str:
        """One description for the class; deterministic per (seed, sample_key)."""
        return self.generate_batch(class_id, [sample_key])[0]

    def baseline_text(self, class_id: int, sample_key) -> str:
        """Baseline caption regardless of configured mode (shortfall fallback)."""
        return self.generate_batch(class_id, [sample_key], baseline=True)[0]

    def _baseline(self, cid: int, u: np.ndarray) -> list[str]:
        """Captions from columns collapse, mention pick."""
        name = self.graph.entities.name(cid)
        pool = self._hypernyms.get(cid, []) + self.confusables.get(name, [])
        captions = [BASELINE_TEMPLATE.format(mention=m) for m in [name] + pool]
        p = self.config.p_hypernym if pool else 0.0
        return [captions[1 + int(pick * len(pool)) if collapse < p else 0]
                for collapse, pick in u.tolist()]

    def _corrupted(self, cid: int, u: np.ndarray) -> list[str]:
        """Texts from 6 columns per clause, then the leading and trailing filler.

        A clause's columns are drop, swap, confusable pick, that confusable's
        clause, filler-between and filler pick; filler or not, the drop and
        swap pattern of a row is the same.
        """
        own = self._clauses[cid]
        pools = [self._clauses.get(self.graph.entities.get(c))
                 for c in self.confusables[self.graph.entities.name(cid)]]
        p_drop = self.config.p_drop
        p_swap = self.config.p_swap if pools else 0.0
        fillers = self._fillers
        out = []
        for row in u.tolist():
            parts = [fillers[int(row[-2] * len(fillers))]] if fillers else []
            for j, clause in enumerate(own):
                drop, swap, conf, pick, between, fill = row[6 * j:6 * j + 6]
                if drop < p_drop:
                    continue
                if swap < p_swap:
                    repl = pools[int(conf * len(pools))]
                    if repl:
                        clause = repl[int(pick * len(repl))]
                parts.append(f"it {clause}.")
                if fillers and between < _FILLER_BETWEEN_P:
                    parts.append(fillers[int(fill * len(fillers))])
            if fillers:
                parts.append(fillers[int(row[-1] * len(fillers))])
            out.append(" ".join(parts))
        return out


def baseline_config(cfg: GeneratorConfig) -> GeneratorConfig:
    """Baseline arm for a paired comparison against a corrupted config.

    The single class mention is corrupted with the same per-slot probability
    as each relational clause: p_hypernym defaults to p_drop + p_swap (capped
    at 1) unless the config already sets an explicit p_hypernym.
    """
    p_hyp = cfg.p_hypernym if cfg.p_hypernym > 0 else min(1.0, cfg.p_drop + cfg.p_swap)
    return replace(cfg, mode="baseline_gmm", p_hypernym=p_hyp)
