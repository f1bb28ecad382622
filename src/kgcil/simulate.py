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
from functools import lru_cache
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


# NumPy's SeedSequence (numpy/random/bit_generator.pyx): hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_OTHERS = [[d for d in range(_POOL) if d != src] for src in range(_POOL)]
_MASK32 = 0xFFFFFFFF


def _words(entropy) -> list[int]:
    """Ints as little-endian uint32 words, the way SeedSequence reads a sequence of ints."""
    out = []
    for value in entropy:
        if value < 0:
            raise ValueError("expected non-negative integer")
        out.append(value & _MASK32)
        value >>= 32
        while value:
            out.append(value & _MASK32)
            value >>= 32
    return out


@lru_cache(maxsize=None)
def _hash_consts(h: int, mult: int, n: int) -> np.ndarray:
    """The running hash constant before each of n hash steps and after the last, as a column."""
    out = [h]
    for _ in range(n):
        h = h * mult & _MASK32
        out.append(h)
    column = np.array(out, np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(value: np.ndarray, h: np.ndarray) -> np.ndarray:
    # SeedSequence's hashmix for len(h) - 1 consecutive steps; uint32 arrays wrap like C
    value = (value ^ h[:-1]) * h[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> 16)


def _seed_states(entropies) -> np.ndarray:
    """SeedSequence(e).generate_state(4, np.uint64) for every entropy tuple e, shape (n, 4).

    NumPy's algorithm, run on all rows of one word count at once. Words past
    the pool are mixed in one by one, so only rows of up to four words share
    a block (shorter rows pad with 0, as SeedSequence itself does). Raises
    ValueError on a negative int, as SeedSequence does.
    """
    words = [_words(e) for e in entropies]
    out = np.empty((len(words), 4), np.uint64)
    blocks: dict[int, list[int]] = {}
    for i, w in enumerate(words):
        blocks.setdefault(max(len(w), _POOL), []).append(i)
    for width, rows in blocks.items():
        entropy = np.array([words[i] + [0] * (width - len(words[i])) for i in rows], np.uint32).T
        h = _hash_consts(_INIT_A, _MULT_A, _POOL * (width - 1) + _POOL)
        pool = _hashmix(entropy[:_POOL], h[:_POOL + 1])
        k = _POOL
        for src, dst in enumerate(_OTHERS):
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[k:k + _POOL]))
            k += _POOL - 1
        for src in range(_POOL, width):
            pool = _mix(pool, _hashmix(entropy[src], h[k:k + _POOL + 1]))
            k += _POOL
        state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_consts(_INIT_B, _MULT_B, 8))
        out[rows] = np.ascontiguousarray(state.T).astype("<u4", copy=False).view("<u8")
    return out


class _SeedState:
    """A precomputed generate_state(4, np.uint64), all PCG64 asks of its seed sequence.

    Registered as a numpy.random ISeedSequence on first use (sample_streams),
    so importing kgcil does not load numpy.random.
    """

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("only PCG64's seeding request is precomputed")
        return self._state


def sample_streams(seed: int, sample_keys) -> list[np.random.Generator]:
    """np.random.default_rng((seed, *key)) for every sample key, seeded in one pass.

    A key is an int or a tuple of ints. Each stream is bit-identical to the
    default_rng one; only the SeedSequence hashing is batched (_seed_states).
    """
    np.random.bit_generator.ISeedSequence.register(_SeedState)  # a no-op once registered
    entropy = [(seed, *map(int, key if isinstance(key, (tuple, list)) else (key,)))
               for key in sample_keys]
    return [np.random.Generator(np.random.PCG64(_SeedState(state)))
            for state in _seed_states(entropy)]


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
        draw = self._baseline if mode == "baseline_gmm" else self._corrupted
        return [draw(class_id, rng) for rng in sample_streams(self.config.seed, sample_keys)]

    def generate(self, class_id: int, sample_key) -> str:
        """One description for the class; deterministic per (seed, sample_key)."""
        return self.generate_batch(class_id, [sample_key])[0]

    def baseline_text(self, class_id: int, sample_key) -> str:
        """Baseline caption regardless of configured mode (shortfall fallback)."""
        return self.generate_batch(class_id, [sample_key], baseline=True)[0]

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
