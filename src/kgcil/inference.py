"""Graph-grounded inference: vote for a head class, augment, classify.

The pipeline mirrors how a relational description is turned into a label:
parsed triplets vote through the exclusive pair registry, the winning class
name is prepended to the raw text, and the augmented text is ranked by cosine
similarity against a session's Candidates: the registry's classes and the token
counts of their class texts, built once per session by its PieceTable.

infer_batch runs it for a batch of texts from that table, so a voted head is
always a candidate. Ranking is exact arithmetic on token counts, so a text ranks
the same from its pieces as alone. The set keeps its names sorted, so a ranking
is one stable sort by descending key: ties go to the smallest name.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .taskgraph import TaskSubgraph
from .triplet_text import ParsedTriplet, parse_triplets, render_training_text

TOP_K = 3  # similarity scores a Prediction keeps
CLASS_TEXT_MODES = ("name", "name_plus_triplets")  # what a class is encoded by


class EmptyCandidates(ValueError):
    """A candidate set needs at least one class."""


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
    similarity_scores: dict[str, float]  # the top TOP_K in ranking order, final_class first
    tie: bool
    graph_head: str | None = None
    tally: VoteTally | None = None


def _owner(trip: ParsedTriplet, subgraph: TaskSubgraph) -> int | None:
    """The class id whose registry holds the triplet's (relations, tail) pair, or None."""
    return subgraph.pair_to_class.get((trip.relations, subgraph.graph.entities.get(trip.tail)))


def vote_head(triplets, subgraph: TaskSubgraph) -> tuple[VoteTally, str | None]:
    """Count pair-registry matches per class; every occurrence is one vote."""
    tally = VoteTally()
    for trip in triplets:
        cid = _owner(trip, subgraph)
        if cid is None:
            tally.unmatched.append(trip)
        else:
            name = subgraph.graph.entities.name(cid)
            tally.counts[name] = tally.counts.get(name, 0) + 1
            tally.matched.append((trip, name))
    return tally, tally.best()


def augment_text(raw: str, head_name: str | None) -> str:
    if head_name is None:
        return raw
    return f"{head_name} {raw}" if raw else head_name


@dataclass(frozen=True, eq=False)
class Candidates:
    """A session's candidate classes, built once, in name order; every array is read-only.

    Row j of the vectors given belongs to the j-th name given; the set sorts
    the names and copies each row along with its name. No names raise
    EmptyCandidates, a repeated name or a missing or extra row ValueError.
    """

    names: tuple[str, ...]  # distinct and sorted; column j of every ranking is names[j]
    vectors: np.ndarray  # row j: token counts of names[j]'s class text
    c2: np.ndarray = field(init=False)  # each row's squared norm

    def __post_init__(self):
        given = tuple(self.names)
        if not given:
            raise EmptyCandidates("no candidate classes to rank against")
        rows = dict(zip(given, np.asarray(self.vectors, dtype=np.float64), strict=True))
        if len(rows) < len(given):
            raise ValueError("candidate class names must be distinct")
        names = tuple(sorted(rows))
        vectors = np.array([rows[name] for name in names])
        c2 = np.einsum("ij,ij->i", vectors, vectors)
        vectors.flags.writeable = c2.flags.writeable = False
        for key, value in zip(("names", "vectors", "c2"), (names, vectors, c2)):
            object.__setattr__(self, key, value)


def encode_candidates(names, encoder) -> Candidates:
    return Candidates(names, encoder.encode_batch(list(names)))


@dataclass
class BatchInference:
    """Ranked texts; row i of every per-text field belongs to the i-th text."""

    candidates: Candidates  # its names are the column order of keys
    keys: np.ndarray  # rank keys d²/c2, texts x candidates (see rank_rows)
    best: np.ndarray  # winning column per row
    tie: np.ndarray  # the row's top cosine is shared
    exact: dict[int, np.ndarray]  # column order of each row ranked past the float bound
    detail: Callable[[], tuple[np.ndarray, list]]  # each row's t2 and (tally, head), on demand
    vote_ms: float = 0.0  # parse + vote, whole batch
    classify_ms: float = 0.0  # encode + rank, whole batch

    def final_class(self, i: int) -> str:
        return self.candidates.names[self.best[i]]

    def predictions(self) -> list[Prediction]:
        """One per row, with its top TOP_K cosines sqrt(key/t2); a zero norm reports 0.0.

        The scores run in ranking order: descending key, ties in column (name) order.
        """
        t2, votes = self.detail()
        top = np.argsort(-self.keys, axis=1, kind="stable")[:, :TOP_K]
        for i, order in self.exact.items():
            top[i] = order[:TOP_K]
        t2 = np.maximum(t2, 1.0)[:, None]
        cosines = np.sqrt(np.take_along_axis(self.keys, top, axis=1) / t2).tolist()
        names = self.candidates.names
        return [Prediction(names[cols[0]], dict(zip([names[j] for j in cols], scores)),
                           tie, graph_head=head, tally=tally)
                for cols, scores, tie, (tally, head)
                in zip(top.tolist(), cosines, self.tie.tolist(), votes)]


def _exact_best(row: np.ndarray, candidates: Candidates) -> tuple[np.ndarray, bool]:
    """Column order and tie of one row, by d²/c2 in Python integers (rows past the float bound)."""
    from fractions import Fraction  # here, not at the top: the import costs a cold start ~3 ms

    cols = np.flatnonzero(row)
    counts = [int(x) for x in row[cols].tolist()]
    keys = [Fraction(sum(a * int(b) for a, b in zip(counts, c[cols].tolist())) ** 2,
                     max(sum(int(b) ** 2 for b in c.tolist()), 1)) for c in candidates.vectors]
    order = sorted(range(len(keys)), key=lambda j: -keys[j])  # stable: ties keep name order
    return np.array(order), len(order) > 1 and keys[order[0]] == keys[order[1]]


def _keys(dots: np.ndarray, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank keys d*d / max(c2, 1), each row's first maximum and whether it is shared."""
    keys = dots * dots / np.maximum(c2, 1.0)
    best = keys.argmax(axis=1)  # the first maximum: columns run in name order
    tie = (keys == keys.max(axis=1, keepdims=True)).sum(axis=1) > 1
    return keys, best, tie


def rank_rows(vectors: np.ndarray, candidates: Candidates) -> BatchInference:
    """Rank rows of token counts against the candidates by cosine; ties go to the smallest name.

    Counts are non-negative integers, so a row's dot products d and the
    squared norms c2 (candidates) and t2 (row) are exact, and the cosine
    order is the order of d²/c2. While t2 * max(c2)² < 2^52 the float key
    d*d / max(c2, 1) keeps equal rationals equal and distinct ones apart and
    in order; rows past that bound are ranked with Python integers. Rows
    whose width is not the candidates' raise ValueError, also in an empty batch.
    """
    if vectors.shape[1] != candidates.vectors.shape[1]:
        raise ValueError(f"text vectors have {vectors.shape[1]} buckets, "
                         f"the candidates {candidates.vectors.shape[1]}")
    c2 = candidates.c2
    t2 = np.einsum("ij,ij->i", vectors, vectors)
    # exact in any order; one matrix-vector product per row, as a batched matmul
    # runs OpenBLAS's threaded GEMM: slower on `kgcil run`, and some processes stall in it
    dots = np.empty((len(vectors), len(c2)))
    for i, row in enumerate(vectors):
        np.matmul(candidates.vectors, row, out=dots[i])
    keys, best, tie = _keys(dots, c2)
    exact = {}
    for i in np.flatnonzero(t2 * c2.max() ** 2 >= 2.0 ** 52).tolist():
        exact[i], tie[i] = _exact_best(vectors[i], candidates)
        best[i] = exact[i][0]
    return BatchInference(candidates, keys, best, tie, exact,
                          lambda: (t2, [(None, None)] * len(vectors)))


def classify(text: str, names, encoder, candidates: Candidates) -> Prediction:
    """Rank text against a session's candidates, which must hold exactly names, in any order."""
    if candidates.names != tuple(sorted(names)):
        raise ValueError("candidates do not hold the names given")
    return rank_rows(encoder.encode(text)[None], candidates).predictions()[0]


class PieceTable:
    """A session's distinct '.'-pieces, each parsed, voted, tokenized and scored once.

    The one code that cuts text at '.', which ends every capture and token: a text's
    triplets are its pieces' and the tokens of "<head> <raw>" the head's plus the
    pieces'. The candidates are the registry's classes, encoded by name or, in
    "name_plus_triplets" mode, by training text (a class with no paths by name). A row
    holds a piece's triplets, the matched ones also as keys tid * len(names) + their
    column, its token buckets and its scores (dot products with the candidates, then
    token count). A head name is a row, not parsed; row 0 is the zero row a batch pads
    with. A grown pair registry voids the table.
    """

    def __init__(self, subgraph: TaskSubgraph, encoder, class_text_mode: str = "name"):
        if class_text_mode not in CLASS_TEXT_MODES:
            raise ValueError(f"class_text_mode must be one of {CLASS_TEXT_MODES}")
        graph, names = subgraph.graph, subgraph.class_names()
        texts = names if class_text_mode == "name" else [
            render_training_text(a, graph) if a.paths else name
            for a, name in zip(subgraph.assignments.values(), names)]
        self.subgraph, self.encoder = subgraph, encoder
        self.candidates = Candidates(names, encoder.encode_batch(texts))
        self.pairs = len(subgraph.pair_to_class)
        self._column = {graph.entities.get(name): j for j, name in enumerate(self.candidates.names)}
        self._rows, self._keys = {}, {}  # piece -> row, matched ParsedTriplet -> key
        self._pieces: list[str | None] = [None]  # row -> its piece
        self._triplets: list[list[ParsedTriplet]] = [[]]  # row -> its parsed triplets
        self._matched: list[tuple[int, ...]] = [()]  # row -> keys of its matched triplets
        self._buckets: list[list[int]] = [[]]  # row -> its tokens' buckets
        self._scores = np.zeros((1, len(names) + 1))

    def __len__(self) -> int:
        return len(self._rows)

    def _add(self, piece: str, triplets: list[ParsedTriplet] | None = None) -> int:
        if triplets is None:  # a head name comes with []: a name that owns pairs opens no capture
            triplets = parse_triplets(piece, self.subgraph.graph.relations)
        found = tuple(self._keys.setdefault(trip, len(self._keys) * len(self._column) + self._column[cid])
                      for trip in triplets if (cid := _owner(trip, self.subgraph)) is not None)
        self._triplets.append(triplets)
        self._matched.append(found)
        self._pieces.append(piece)
        return self._rows.setdefault(piece, len(self._matched) - 1)

    def vote(self, texts) -> list[list[int]]:
        """Each text's piece rows, then its head's row (VoteTally.best's pick) if it has a head."""
        get, add, matched, width = self._rows.get, self._add, self._matched, len(self._column)
        rows = [[get(p) or add(p) for p in text.split(".")] for text in texts]
        keys = [{k for r in pieces for k in matched[r]} for pieces in rows]
        cells = [i * width + k % width for i, found in enumerate(keys) for k in found]
        if cells:
            votes = np.bincount(cells, minlength=len(rows) * width).reshape(len(rows), width)
            best = votes.argmax(axis=1)
            for i in np.flatnonzero(votes.max(axis=1)).tolist():
                head = self.candidates.names[best[i]]
                rows[i].append(get(head) or add(head, []))
        return rows

    def sums(self, rows: list[list[int]]) -> np.ndarray:
        """Per list of rows, the sum of their scores; new rows are tokenized and scored first."""
        start, end = len(self._buckets), len(self._pieces)
        if start < end:
            if end > len(self._scores):  # doubled: few batches copy, and unused zeros stay unpaged
                grown = np.zeros((2 * end, self._scores.shape[1]))
                grown[:start], self._scores = self._scores[:start], grown
            self._buckets += self.encoder.buckets(self._pieces[start:])
            counts = self.encoder.counts(self._buckets[start:])
            for r, vector in enumerate(counts, start):  # one matvec each, as in rank_rows
                np.matmul(self.candidates.vectors, vector, out=self._scores[r, :-1])
            self._scores[start:end, -1] = counts.sum(axis=1)
        total = np.zeros((len(rows), self._scores.shape[1]))
        for column in np.array(list(zip_longest(*rows, fillvalue=0)), np.intp):  # 0-padded
            total += self._scores[column]  # exact integers: sums in any order are equal
        return total

    def counts(self, rows: list[list[int]]) -> np.ndarray:
        """Per list of rows, the counts of their tokens, as encode_batch gives them."""
        return self.encoder.counts([[b for r in row for b in self._buckets[r]] for row in rows])

    def detail(self, rows: list[list[int]]) -> tuple[np.ndarray, list]:
        """Per list of rows, t2 and (VoteTally, head) by vote_head over its rows' triplets."""
        vectors, triplets = self.counts(rows), self._triplets
        return np.einsum("ij,ij->i", vectors, vectors), [
            vote_head(dict.fromkeys(t for r in row for t in triplets[r]), self.subgraph)
            for row in rows]


def infer_batch(texts, table: PieceTable) -> BatchInference:
    """parse -> vote -> augment -> classify for many texts, from a session's piece table.

    Row i equals rank_rows of augment_text(text, vote_head's head), from the
    table's sums of dot products and token count n. As t2 <= n², only rows with
    n² * max(c2)² >= 2^52 can pass rank_rows' bound: rank_rows ranks those from
    the table's token counts. A table whose pair registry has grown raises ValueError.
    """
    if len(table.subgraph.pair_to_class) != table.pairs:
        raise ValueError("the pair registry has grown since the piece table was built")
    t0 = time.perf_counter()
    rows = table.vote(texts)
    t1 = time.perf_counter()
    candidates, total = table.candidates, table.sums(rows)
    keys, best, tie = _keys(total[:, :-1], candidates.c2)
    far, exact = np.flatnonzero(total[:, -1] ** 2 * candidates.c2.max() ** 2 >= 2.0 ** 52), {}
    if len(far):
        ranked = rank_rows(table.counts([rows[i] for i in far.tolist()]), candidates)
        keys[far], best[far], tie[far] = ranked.keys, ranked.best, ranked.tie
        exact = {int(far[k]): order for k, order in ranked.exact.items()}
    return BatchInference(candidates, keys, best, tie, exact, lambda: table.detail(rows),
                          (t1 - t0) * 1000.0, (time.perf_counter() - t1) * 1000.0)


def infer(raw_text: str, subgraph: TaskSubgraph, encoder) -> Prediction:
    """infer_batch on one text, from a table of its own, with the tally kept for diagnostics."""
    return infer_batch([raw_text], PieceTable(subgraph, encoder)).predictions()[0]


def prediction_record(raw_text: str, pred: Prediction, relations) -> dict:
    """JSON-ready per-sample diagnostic record."""

    def fmt(trip: ParsedTriplet) -> dict:
        return {"relations": [relations.name(r) for r in trip.relations], "tail": trip.tail}

    tally = pred.tally
    return {
        "raw_text": raw_text,
        "matched": [{"triplet": fmt(t), "class": c} for t, c in tally.matched] if tally else [],
        "unmatched": [fmt(t) for t in tally.unmatched] if tally else [],
        "tally": dict(sorted(tally.counts.items())) if tally else {},
        "graph_head": pred.graph_head,
        "vote_tie": tally.is_tied() if tally else False,
        "final_class": pred.final_class,
        "similarity_tie": pred.tie,
        "top_similarities": [[name, round(score, 6)]
                             for name, score in pred.similarity_scores.items()],
    }
