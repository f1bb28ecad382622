"""Graph-grounded inference: vote for a head class, augment, classify.

The pipeline mirrors how a relational description is turned into a label:
parsed triplets vote through the exclusive pair registry, the winning class
name is prepended to the raw text, and the augmented text is ranked against
candidate class names by cosine similarity.

infer_batch runs the pipeline for many texts at once (the harness sends one
batch per class): one encode for the batch, then one matrix-vector product
per text, so a text gets the same bits in a batch as alone.
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
        if graph is not None:
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
    """Ranked texts; row i of every field belongs to the i-th text."""

    augmented: list[str]
    votes: list[tuple[VoteTally | None, str | None]]
    candidates: tuple[str, ...]  # distinct names, the column order of scores
    scores: np.ndarray
    best: np.ndarray  # winning column per row
    tie: np.ndarray  # the row's top score is shared
    vote_ms: float = 0.0  # parse + vote, whole batch
    classify_ms: float = 0.0  # augment + encode + rank, whole batch

    def final_class(self, i: int) -> str:
        return self.candidates[self.best[i]]

    def prediction(self, i: int) -> Prediction:
        tally, head = self.votes[i]
        scores = dict(zip(self.candidates, self.scores[i].tolist()))
        return Prediction(self.final_class(i), self.augmented[i], scores, bool(self.tie[i]),
                          graph_head=head, tally=tally)


@lru_cache(maxsize=16)
def _candidate_order(candidates: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[int, ...], np.ndarray]:
    """Distinct names, the column each keeps (a repeat keeps its last), and their lexicographic rank.

    Cached because every class of a session is ranked against the same list.
    """
    last = {name: j for j, name in enumerate(candidates)}
    order = {name: k for k, name in enumerate(sorted(last))}
    rank = np.array([order[name] for name in last])
    rank.flags.writeable = False
    return tuple(last), tuple(last.values()), rank


def rank_rows(texts, vectors, candidates, encoder, candidate_vectors: np.ndarray | None = None,
              votes=None) -> BatchInference:
    """Rank encoded texts against the candidates; ties go lexicographic.

    A repeated candidate name keeps its last vector, as a name-keyed score
    dict would. Scores are filled one matrix-vector product per row, the
    same operation as `candidate_vectors @ vector`: a single matrix-matrix
    product sums in another order, moves scores by an ulp and turns exact
    ties into non-ties.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise EmptyCandidates("no candidate classes to rank against")
    if candidate_vectors is None:
        candidate_vectors = encode_candidates(candidates, encoder)
    names, columns, rank = _candidate_order(candidates)
    if len(columns) < len(candidates):
        candidate_vectors = candidate_vectors[list(columns)]
    scores = np.empty((len(vectors), len(names)))
    for i, row in enumerate(vectors):
        np.matmul(candidate_vectors, row, out=scores[i])
    tied = scores == scores.max(axis=1, keepdims=True)
    best = np.where(tied, rank, len(rank)).argmin(axis=1)
    return BatchInference(list(texts), votes or [(None, None)] * len(texts), names, scores,
                          best, tied.sum(axis=1) > 1)


def classify(text: str, candidates, encoder, candidate_vectors: np.ndarray | None = None) -> Prediction:
    """Rank text against candidate class names by cosine; ties go lexicographic.

    candidate_vectors, when given, must be encoder outputs aligned with
    candidates (callers cache them to avoid re-encoding per sample).
    """
    return rank_rows([text], [encoder.encode(text)], candidates, encoder,
                     candidate_vectors).prediction(0)


def infer_batch(texts, subgraph: TaskSubgraph, candidates, encoder,
                candidate_vectors: np.ndarray | None = None) -> BatchInference:
    """parse -> vote -> augment -> classify for many texts with one encode.

    Every row is bit-identical to infer() on that text alone. When no
    triplet of a text matches the registry, its row equals classify(text).
    """
    relations = subgraph.graph.relations if subgraph.graph is not None else None
    t0 = time.perf_counter()
    parsed = parse_batch(texts, relations) if relations is not None else [[]] * len(texts)
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
