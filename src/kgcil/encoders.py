"""Deterministic text encoders used by the similarity classifier.

The default encoder hashes lowercase alphanumeric tokens into a fixed number
of buckets with 64-bit FNV-1a and counts them; `inference.rank_rows` ranks
the counts by cosine. It is a stand-in for a learned embedding model: cheap,
reproducible, and good enough to rank texts by token overlap.
"""

from __future__ import annotations

import re
from itertools import chain

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9]+")

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & _MASK
    return h


class HashingEncoder:
    """Bag of hashed tokens; output is each bucket's token count (all-zero for empty text)."""

    id = "hashing"

    def __init__(self, dimension: int = 256):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._buckets: dict[str, int] = {}  # token -> bucket

    def encode(self, text: str) -> np.ndarray:
        return self.encode_batch([text])[0]

    def encode_batch(self, texts) -> np.ndarray:
        """One row of token counts per text, float64, shape (len(texts), dimension)."""
        return self.counts(self.buckets(texts))

    def buckets(self, texts) -> list[list[int]]:
        """Per text, the bucket of each of its tokens, in order; each token is hashed once."""
        buckets, rows = self._buckets, [_TOKEN_RE.findall(text.lower()) for text in texts]
        for token in set(chain.from_iterable(rows)).difference(buckets):
            buckets[token] = fnv1a_64(token.encode("utf-8")) % self.dimension
        return [[buckets[token] for token in tokens] for tokens in rows]

    def counts(self, rows) -> np.ndarray:
        """One row of counts per list of buckets, as encode_batch gives it: one bincount."""
        n, dim = len(rows), self.dimension
        lengths = [len(row) for row in rows]
        cells = np.repeat(np.arange(n, dtype=np.int64) * dim, lengths)
        cells += np.fromiter(chain.from_iterable(rows), np.int64, sum(lengths))
        return np.bincount(cells, minlength=n * dim).reshape(n, dim).astype(np.float64)

    def to_config(self) -> dict:
        return {"id": self.id, "dimension": self.dimension}


def encoder_from_config(cfg: dict) -> HashingEncoder:
    kind = cfg.get("id", "hashing")
    if kind != "hashing":
        raise ValueError(f"unknown encoder id: {kind!r}")
    return HashingEncoder(dimension=int(cfg.get("dimension", 256)))
