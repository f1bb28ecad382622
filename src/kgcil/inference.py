"""Graph-grounded inference: vote for a head class, augment, classify.

The pipeline mirrors how a relational description is turned into a label:
parsed triplets vote through the exclusive pair registry, the winning class
name is prepended to the raw text, and the augmented text is ranked against
candidate class names by cosine similarity.

infer_batch runs the pipeline for many texts at once (the harness sends one
batch per class). Ranking is exact arithmetic on the encoder's token counts,
so a text ranks the same in a batch as alone.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .taskgraph import TaskSubgraph
from .triplet_text import ParsedTriplet, parse_batch


class EmptyCandidates(ValueError):
    """classify needs at least one candidate class."""


@dataclass
class VoteTally:
    counts: dict[str, int] = field(default_factory=dict)
    matched: list[tuple[ParsedTriplet, str]] = field(default_factory=list)
    unmatched: list[ParsedTriplet] = field(default_factory=list)

    def best(self) -> str | None:
        """Highest-count class name; ties break to the smallest name."""
        if not self.counts:
            return None
        return min(self.counts, key=lambda name: (-self.counts[name], name))

    def is_tied(self) -> bool:
        if len(self.counts) < 2:
            return False
        top = max(self.counts.values())
        return sum(1 for v in self.counts.values() if v == top) > 1


@dataclass
class Prediction:
    final_class: str
    augmented_text: str
    similarity_scores: dict[str, float]
    tie: bool
    graph_head: str | None = None
    tally: VoteTally | None = None


def vote_head(triplets, subgraph: TaskSubgraph) -> tuple[VoteTally, str | None]:
    """Count pair-registry matches per class; every occurrence is one vote."""
    tally = VoteTally()
    graph = subgraph.graph
    for trip in triplets:
        cid = None
        tail_id = graph.entities.get(trip.tail)
        if tail_id is not None:
            cid = subgraph.pair_to_class.get((trip.relations, tail_id))
        if cid is None:
            tally.unmatched.append(trip)
        else:
            name = graph.entities.name(cid)
            tally.counts[name] = tally.counts.get(name, 0) + 1
            tally.matched.append((trip, name))
    return tally, tally.best()


def augment_text(raw: str, head_name: str | None) -> str:
    if head_name is None:
        return raw
    return f"{head_name} {raw}" if raw else head_name


def encode_candidates(names, encoder) -> np.ndarray:
    return encoder.encode_batch(list(names))


@dataclass
class BatchInference:
    """Ranked texts; row i of every per-text field belongs to the i-th text."""

    augmented: list[str]
    votes: list[tuple[VoteTally | None, str | None]]
    candidates: tuple[str, ...]  # distinct names, the column order of keys
    keys: np.ndarray  # rank keys d²/c2, texts x candidates (see rank_rows)
    t2: np.ndarray  # each text's squared count norm
    best: np.ndarray  # winning column per row
    tie: np.ndarray  # the row's top cosine is shared
    vote_ms: float = 0.0  # parse + vote, whole batch
    classify_ms: float = 0.0  # augment + encode + rank, whole batch

    def final_class(self, i: int) -> str:
        return self.candidates[self.best[i]]

    def prediction(self, i: int) -> Prediction:
        """Row i, reporting cosines sqrt(key/t2): tied keys report one value, a zero norm 0.0."""
        tally, head = self.votes[i]
        cosines = np.sqrt(self.keys[i] / max(self.t2[i], 1.0))
        return Prediction(self.final_class(i), self.augmented[i],
                          dict(zip(self.candidates, cosines.tolist())), bool(self.tie[i]),
                          graph_head=head, tally=tally)


@lru_cache(maxsize=16)
def _name_rank(candidates: tuple[str, ...]) -> np.ndarray:
    """Each candidate's lexicographic rank, cached: a session ranks every class against one list."""
    order = {name: k for k, name in enumerate(sorted(candidates))}
    if len(order) < len(candidates):
        raise ValueError("candidate class names must be distinct")
    rank = np.array([order[name] for name in candidates])
    rank.flags.writeable = False
    return rank


def _exact_best(row: np.ndarray, candidate_vectors: np.ndarray,
                rank: np.ndarray) -> tuple[int, bool]:
    """Best column and tie of one row, by d²/c2 in Python integers (rows past the float bound)."""
    from fractions import Fraction  # here, not at the top: the import costs a cold start ~3 ms

    cols = np.flatnonzero(row)
    counts = [int(x) for x in row[cols].tolist()]
    keys = [Fraction(sum(a * int(b) for a, b in zip(counts, c[cols].tolist())) ** 2,
                     max(sum(int(b) ** 2 for b in c.tolist()), 1)) for c in candidate_vectors]
    best = min(range(len(keys)), key=lambda j: (-keys[j], rank[j]))
    return best, keys.count(keys[best]) > 1


def rank_rows(texts, vectors: np.ndarray, candidates, encoder,
              candidate_vectors: np.ndarray | None = None, votes=None) -> BatchInference:
    """Rank rows of token counts against the candidates by cosine; ties go lexicographic.

    Counts are non-negative integers, so a row's dot products d and the
    squared norms c2 (candidates) and t2 (row) are exact, and the cosine
    order is the order of d²/c2. While t2 * max(c2)² < 2^52 the float key
    d*d / max(c2, 1) keeps equal rationals equal and distinct ones apart and
    in order; rows past that bound are ranked with Python integers.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise EmptyCandidates("no candidate classes to rank against")
    if candidate_vectors is None:
        candidate_vectors = encode_candidates(candidates, encoder)
    rank = _name_rank(candidates)
    c2 = np.einsum("ij,ij->i", candidate_vectors, candidate_vectors)
    t2 = np.einsum("ij,ij->i", vectors, vectors)
    # exact in any order; one matrix-vector product per row, as a batched matmul
    # runs OpenBLAS's threaded GEMM: slower on `kgcil run`, and some processes stall in it
    dots = np.empty((len(vectors), len(candidates)))
    for i, row in enumerate(vectors):
        np.matmul(candidate_vectors, row, out=dots[i])
    keys = dots * dots / np.maximum(c2, 1.0)
    tied = keys == keys.max(axis=1, keepdims=True)
    best = np.where(tied, rank, len(rank)).argmin(axis=1)
    tie = tied.sum(axis=1) > 1
    for i in np.flatnonzero(t2 * c2.max() ** 2 >= 2.0 ** 52):
        best[i], tie[i] = _exact_best(vectors[i], candidate_vectors, rank)
    return BatchInference(list(texts), votes or [(None, None)] * len(texts), candidates,
                          keys, t2, best, tie)


def classify(text: str, candidates, encoder, candidate_vectors: np.ndarray | None = None) -> Prediction:
    """Rank text against candidate class names by cosine; ties go lexicographic.

    candidate_vectors, when given, must be encoder outputs aligned with
    candidates (callers cache them to avoid re-encoding per sample).
    """
    return rank_rows([text], encoder.encode(text)[None], candidates, encoder,
                     candidate_vectors).prediction(0)


def infer_batch(texts, subgraph: TaskSubgraph, candidates, encoder,
                candidate_vectors: np.ndarray | None = None) -> BatchInference:
    """parse -> vote -> augment -> classify for many texts with one encode.

    Every row equals infer() on that text alone. When no triplet of a text
    matches the registry, its row equals classify(text).
    """
    t0 = time.perf_counter()
    parsed = parse_batch(texts, subgraph.graph.relations)
    votes = [vote_head(triplets, subgraph) for triplets in parsed]
    t1 = time.perf_counter()
    augmented = [augment_text(t, head) for t, (_, head) in zip(texts, votes)]
    batch = rank_rows(augmented, encoder.encode_batch(augmented), candidates, encoder,
                      candidate_vectors, votes)
    batch.vote_ms, batch.classify_ms = (t1 - t0) * 1000.0, (time.perf_counter() - t1) * 1000.0
    return batch


def infer(raw_text: str, subgraph: TaskSubgraph, candidates, encoder,
          candidate_vectors: np.ndarray | None = None) -> Prediction:
    """infer_batch on one text, with the tally kept for diagnostics."""
    return infer_batch([raw_text], subgraph, candidates, encoder,
                       candidate_vectors).prediction(0)


def prediction_record(raw_text: str, pred: Prediction, relations, top_k: int = 3) -> dict:
    """JSON-ready per-sample diagnostic record."""

    def fmt(trip: ParsedTriplet) -> dict:
        return {"relations": [relations.name(r) for r in trip.relations], "tail": trip.tail}

    tally = pred.tally
    top = heapq.nsmallest(top_k, pred.similarity_scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "raw_text": raw_text,
        "matched": [{"triplet": fmt(t), "class": c} for t, c in tally.matched] if tally else [],
        "unmatched": [fmt(t) for t in tally.unmatched] if tally else [],
        "tally": dict(sorted(tally.counts.items())) if tally else {},
        "graph_head": pred.graph_head,
        "vote_tie": tally.is_tied() if tally else False,
        "final_class": pred.final_class,
        "similarity_tie": pred.tie,
        "top_similarities": [[name, round(score, 6)] for name, score in top],
    }
