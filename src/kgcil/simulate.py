"""Simulated description generator with a controllable corruption model.

Stands in for a fine-tuned captioning model at evaluation time. Three modes:

* oracle: the class's training text, verbatim.
* corrupted: each allocated path is independently dropped (p_drop) or swapped
  for one belonging to a confusable class (p_swap); survivors are rendered as
  headless clauses, optionally wrapped in filler sentences.
* baseline_gmm: a bare caption, "This is a photo of <mention>", where the
  mention collapses to a hypernym or confusable class with p_hypernym.

Every sample is deterministic given (config.seed, sample key), so runs can be
parallelized and replayed.
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


class TextGenerator:
    """Per-subgraph generator; everything random hangs off (seed, sample key)."""

    def __init__(self, graph: KnowledgeGraph, subgraph: TaskSubgraph, config: GeneratorConfig):
        self.graph = graph
        self.subgraph = subgraph
        self.config = config
        self.confusables = build_confusables(subgraph, graph)
        self._fillers = load_filler_templates() if config.filler else []
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

    def _rng(self, sample_key) -> np.random.Generator:
        if isinstance(sample_key, (tuple, list)):
            key = tuple(int(k) for k in sample_key)
        else:
            key = (int(sample_key),)
        return np.random.default_rng((self.config.seed,) + key)

    def generate(self, class_id: int, sample_key) -> str:
        """One description for the class; deterministic per (seed, sample_key)."""
        if self.config.mode == "baseline_gmm":
            return self._baseline(class_id, self._rng(sample_key))
        if not self._clauses.get(class_id):
            raise NoAssignment(
                f"class {self.graph.entities.name(class_id)!r} has no allocated paths"
            )
        if self.config.mode == "oracle":
            return self._oracle[class_id]
        return self._corrupted(class_id, self._rng(sample_key))

    def baseline_text(self, class_id: int, sample_key) -> str:
        """Baseline caption regardless of configured mode (shortfall fallback)."""
        return self._baseline(class_id, self._rng(sample_key))

    def _baseline(self, cid: int, rng: np.random.Generator) -> str:
        mention = self.graph.entities.name(cid)
        if self.config.p_hypernym > 0 and rng.random() < self.config.p_hypernym:
            pool = self._hypernyms.get(cid, []) + self.confusables.get(mention, [])
            if pool:
                mention = pool[int(rng.integers(len(pool)))]
        return BASELINE_TEMPLATE.format(mention=mention)

    def _corrupted(self, cid: int, rng: np.random.Generator) -> str:
        name = self.graph.entities.name(cid)
        confs = self.confusables.get(name, [])
        kept: list[str] = []
        for clause in self._clauses[cid]:
            if rng.random() < self.config.p_drop:
                continue
            if confs and self.config.p_swap > 0 and rng.random() < self.config.p_swap:
                other = self.graph.entities.get(confs[int(rng.integers(len(confs)))])
                repl = self._clauses.get(other)
                if repl:
                    clause = repl[int(rng.integers(len(repl)))]
            kept.append(f"it {clause}.")
        if not self._fillers:
            return " ".join(kept)
        parts = [self._filler(rng)]
        for sentence in kept:
            parts.append(sentence)
            if rng.random() < _FILLER_BETWEEN_P:
                parts.append(self._filler(rng))
        parts.append(self._filler(rng))
        return " ".join(parts)

    def _filler(self, rng: np.random.Generator) -> str:
        return self._fillers[int(rng.integers(len(self._fillers)))] + "."


def baseline_config(cfg: GeneratorConfig) -> GeneratorConfig:
    """Baseline arm for a paired comparison against a corrupted config.

    The single class mention is corrupted with the same per-slot probability
    as each relational clause: p_hypernym defaults to p_drop + p_swap (capped
    at 1) unless the config already sets an explicit p_hypernym.
    """
    p_hyp = cfg.p_hypernym if cfg.p_hypernym > 0 else min(1.0, cfg.p_drop + cfg.p_swap)
    return replace(cfg, mode="baseline_gmm", p_hypernym=p_hyp)
