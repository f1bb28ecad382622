"""In-memory knowledge graph: interned names, indexed fact lookups, two-hop walks.

Facts are loaded once (from TSV or from an in-memory triple list) and the graph
is immutable afterwards. Every query is answered from sorted-array indexes via
binary search, so lookups never scan the fact table.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

_WS = re.compile(r"\s+")


def normalize_name(raw: str) -> str:
    """Entity-name normal form: lowercased, trimmed, inner whitespace to '_'."""
    return _WS.sub("_", raw.strip().lower())


def normalize_relation(raw: str) -> str:
    # relation keywords keep their case (IsA, AtLocation, ...) so rendered text
    # stays readable; keyword matching elsewhere is case-insensitive
    return _WS.sub("_", raw.strip())


class MalformedLine(ValueError):
    """A TSV line that cannot be turned into a fact."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class EmptyGraph(ValueError):
    """No facts survived loading."""


@dataclass(frozen=True)
class Fact:
    head: int
    relation: int
    tail: int


@dataclass(frozen=True)
class LoadStats:
    entities: int
    relations: int
    facts: int
    duplicates_dropped: int
    self_loops_dropped: int

    def to_dict(self) -> dict:
        return {
            "entities": self.entities,
            "relations": self.relations,
            "facts": self.facts,
            "duplicates_dropped": self.duplicates_dropped,
            "self_loops_dropped": self.self_loops_dropped,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class _KeywordMemo(dict):
    def __init__(self, table: "NameTable"):
        super().__init__()
        self._table = table

    def __missing__(self, token: str) -> tuple[int, ...]:
        rels = self[token] = self._table.resolve(token, fold=True) or ()
        return rels


class NameTable:
    """Dense id <-> name bijection, ids assigned in first-seen order."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._lower: dict[str, int] | None = None
        self._keywords: _KeywordMemo | None = None

    def intern(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = len(self._names)
            self._names.append(name)
            self._ids[name] = idx
            self._lower = None
            self._keywords = None
        return idx

    def get(self, name: str) -> int | None:
        return self._ids.get(name)

    def name(self, idx: int) -> str:
        return self._names[idx]

    def names(self) -> list[str]:
        return list(self._names)

    def lower_index(self) -> dict[str, int]:
        """Case-folded name -> id; the first id wins on case collisions."""
        if self._lower is None:
            low: dict[str, int] = {}
            for idx, name in enumerate(self._names):
                low.setdefault(name.lower(), idx)
            self._lower = low
        return self._lower

    def resolve(self, label: str, fold: bool = False) -> tuple[int, ...] | None:
        """Ids named by 'Rel' or 'Rel1_Rel2'; None when the label names neither.

        A single name beats a pair, and of several pair readings the leftmost
        '_' split wins. fold=True matches case-insensitively through
        lower_index(); otherwise names must match exactly.
        """
        index = self.lower_index() if fold else self._ids
        if fold:
            label = label.lower()
        rid = index.get(label)
        if rid is not None:
            return (rid,)
        pos = label.find("_")
        while pos >= 0:
            left = index.get(label[:pos])
            right = index.get(label[pos + 1:])
            if left is not None and right is not None:
                return (left, right)
            pos = label.find("_", pos + 1)
        return None

    def keywords(self) -> dict[str, tuple[int, ...]]:
        """Token -> resolve(token, fold=True), () for a token naming nothing.

        A memo that resolves each token on first sight, so every later
        occurrence is one dict lookup; dropped on the next intern.
        """
        if self._keywords is None:
            self._keywords = _KeywordMemo(self)
        return self._keywords

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids


class KnowledgeGraph:
    """Immutable fact collection with by-head and by-(relation, tail) indexes."""

    def __init__(self, entities: NameTable, relations: NameTable,
                 heads: np.ndarray, rels: np.ndarray, tails: np.ndarray,
                 stats: LoadStats):
        # arrays arrive deduplicated and sorted by (head, relation, tail)
        self.entities = entities
        self.relations = relations
        self._h = heads
        self._r = rels
        self._t = tails
        self._ne = max(len(entities), 1)
        pair_key = self._r * self._ne + self._t
        order = np.lexsort((self._h, pair_key))
        self._pair_keys = pair_key[order]
        self._pair_heads = self._h[order]
        self.stats = stats

    @classmethod
    def _from_interned(cls, entities: NameTable, relations: NameTable,
                       heads: list[int], rels: list[int], tails: list[int],
                       self_loops: int) -> "KnowledgeGraph":
        if not heads:
            raise EmptyGraph("no facts survived loading")
        ne, nr = len(entities), len(relations)
        if ne * nr * ne >= 2 ** 63:
            raise OverflowError("graph too large for packed int64 keys")
        h = np.asarray(heads, dtype=np.int64)
        r = np.asarray(rels, dtype=np.int64)
        t = np.asarray(tails, dtype=np.int64)
        # packed key preserves (head, relation, tail) order, so np.unique both
        # deduplicates and sorts in one pass
        packed = (h * nr + r) * ne + t
        _, first = np.unique(packed, return_index=True)
        dropped = len(h) - len(first)
        stats = LoadStats(
            entities=ne,
            relations=nr,
            facts=len(first),
            duplicates_dropped=dropped,
            self_loops_dropped=self_loops,
        )
        return cls(entities, relations, h[first], r[first], t[first], stats)

    @classmethod
    def from_facts(cls, triples) -> "KnowledgeGraph":
        """Build a graph from (head, relation, tail) name triples.

        Mainly for fixtures and synthetic data; applies the same normalization
        and filtering as the TSV loader.
        """
        entities, relations = NameTable(), NameTable()
        hs: list[int] = []
        rs: list[int] = []
        ts: list[int] = []
        loops = 0
        for head, rel, tail in triples:
            hn, rn, tn = normalize_name(head), normalize_relation(rel), normalize_name(tail)
            if not (hn and rn and tn):
                raise ValueError(f"empty name in triple {(head, rel, tail)!r}")
            if hn == tn:
                loops += 1
                continue
            hs.append(entities.intern(hn))
            rs.append(relations.intern(rn))
            ts.append(entities.intern(tn))
        return cls._from_interned(entities, relations, hs, rs, ts, loops)

    # -- queries ----------------------------------------------------------

    @property
    def n_facts(self) -> int:
        return len(self._h)

    def __len__(self) -> int:
        return len(self._h)

    def entity_id(self, name: str) -> int | None:
        return self.entities.get(normalize_name(name))

    def relation_id(self, name: str) -> int | None:
        return self.relations.get(normalize_relation(name))

    def entity_name(self, idx: int) -> str:
        return self.entities.name(idx)

    def relation_name(self, idx: int) -> str:
        return self.relations.name(idx)

    def _head_range(self, head: int) -> tuple[int, int]:
        lo = int(self._h.searchsorted(head, "left"))
        hi = int(self._h.searchsorted(head, "right"))
        return lo, hi

    def facts_of(self, head: int) -> list[Fact]:
        """All facts with this head, ordered by (relation id, tail id)."""
        lo, hi = self._head_range(head)
        return [Fact(head, int(self._r[i]), int(self._t[i])) for i in range(lo, hi)]

    def heads_for(self, relation: int, tail: int) -> set[int]:
        """Every head h with (h, relation, tail) in the graph; empty when unknown."""
        if not (0 <= relation < len(self.relations) and 0 <= tail < self._ne):
            return set()
        key = relation * self._ne + tail
        lo = self._pair_keys.searchsorted(key, "left")
        hi = self._pair_keys.searchsorted(key, "right")
        return set(self._pair_heads[lo:hi].tolist())

    def two_hop_facts(self, head: int, limit: int = 1000) -> list[tuple[tuple[int, int], int]]:
        """Relation chains head -> mid -> tail with tail outside {head, mid}.

        Yields ((r1, r2), tail) pairs in deterministic index order, capped at
        `limit` to bound work on hub-heavy heads.
        """
        out: list[tuple[tuple[int, int], int]] = []
        lo, hi = self._head_range(head)
        for i in range(lo, hi):
            r1 = int(self._r[i])
            mid = int(self._t[i])
            lo2, hi2 = self._head_range(mid)
            for j in range(lo2, hi2):
                o = int(self._t[j])
                if o == head or o == mid:
                    continue
                out.append(((r1, int(self._r[j])), o))
                if len(out) >= limit:
                    return out
        return out


def load_graph(path, format: str = "tsv") -> KnowledgeGraph:
    """Load a graph from a tab-separated head/relation/tail file.

    Lines starting with '#' and blank lines are skipped. Exact duplicates and
    self-loops are dropped (counted in the load stats). Raises MalformedLine
    for rows without exactly three fields or with names that normalize to the
    empty string, and EmptyGraph when nothing survives.
    """
    if format != "tsv":
        raise ValueError(f"unsupported graph format: {format!r}")
    entities, relations = NameTable(), NameTable()
    hs: list[int] = []
    rs: list[int] = []
    ts: list[int] = []
    loops = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise MalformedLine(line_no, f"expected 3 tab-separated fields, got {len(parts)}")
            head = normalize_name(parts[0])
            rel = normalize_relation(parts[1])
            tail = normalize_name(parts[2])
            if not (head and rel and tail):
                raise MalformedLine(line_no, "empty field after normalization")
            if head == tail:
                loops += 1
                continue
            hs.append(entities.intern(head))
            rs.append(relations.intern(rel))
            ts.append(entities.intern(tail))
    return KnowledgeGraph._from_interned(entities, relations, hs, rs, ts, loops)
