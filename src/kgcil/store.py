"""In-memory knowledge graph: interned names, indexed fact lookups, two-hop walks.

Facts are loaded once (from TSV or from an in-memory triple list) and the graph
is immutable afterwards. Both sources feed one column-wise ingestion core, so
loading makes no Python object per fact, nor one per name: the names stay in
the array interning produced, and a name is looked up through a sorted array
of 64-bit keys built from the same bytes. Every query is answered from
sorted-array indexes via binary search, so lookups never scan the fact table.
"""

from __future__ import annotations

import codecs
import re
from bisect import bisect_left
from dataclasses import asdict, dataclass

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


class Record:
    """Base of the result dataclasses: to_dict() holds their fields in order."""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Fact:
    head: int
    relation: int
    tail: int


@dataclass(frozen=True)
class LoadStats(Record):
    entities: int
    relations: int
    facts: int
    duplicates_dropped: int
    self_loops_dropped: int


class _Memo(dict):
    """fn(key) on first sight of key; every later lookup is one dict probe."""

    def __init__(self, fn):
        super().__init__()
        self._fn = fn

    def __missing__(self, key):
        value = self[key] = self._fn(key)
        return value


def _keyword(table: "NameTable", token: str) -> tuple[int, ...]:
    return table.resolve(token, fold=True) or ()


def _find(table: "NameTable", name: str) -> int | None:
    key, keys = _key(name), table._keys
    pos = bisect_left(keys, key)
    while pos < len(keys) and keys[pos] == key:
        if table._names.item(idx := table._order[pos]) == name:
            return idx
        pos += 1
    return None


class NameTable:
    """Immutable dense id <-> name bijection; ids are positions in the name array.

    get(name) binary-searches the sorted keys (_row_keys) for the name's key and
    compares the names that share it. Memoised: a repeated name is one dict probe.
    """

    def __init__(self, names: np.ndarray, keys: np.ndarray):
        """names: a str or object array of distinct names; keys: their _row_keys."""
        self._names = names
        order = np.argsort(keys)
        self._keys, self._order = memoryview(keys[order]), memoryview(order)  # bisect reads ints
        self._lower: dict[str, int] | None = None
        self._memos: dict = {}
        self._get = self.memo(_find)

    @classmethod
    def from_names(cls, names: list[str]) -> "NameTable":
        """A table whose ids are the positions in names, which must be distinct."""
        return cls(np.array(names, dtype=object), np.fromiter(map(_key, names), np.uint64))

    def get(self, name: str) -> int | None:
        return self._get[name]

    def name(self, idx: int) -> str:
        return self._names.item(idx)

    def names(self) -> list[str]:
        return self._names.tolist()

    def lower_index(self) -> dict[str, int]:
        """Case-folded name -> id; the first id wins on case collisions."""
        if self._lower is None:
            low: dict[str, int] = {}
            for idx, name in enumerate(self.names()):
                low.setdefault(name.lower(), idx)
            self._lower = low
        return self._lower

    def label(self, ids) -> str:
        """'Rel' or 'Rel1_Rel2', a path's text; resolve reads it back unless names collide."""
        return "_".join(map(self.name, ids))

    def resolve(self, label: str, fold: bool = False) -> tuple[int, ...] | None:
        """Ids named by 'Rel' or 'Rel1_Rel2'; None when the label names neither.

        A single name beats a pair, and of several pair readings the leftmost
        '_' split wins. fold=True matches case-insensitively through
        lower_index(); otherwise names must match exactly.
        """
        index = self.lower_index() if fold else self
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

    def memo(self, fn) -> "_Memo":
        """key -> fn(self, key), computed on first sight of key.

        One memo per fn, so each rule derived from the names keeps its own.
        """
        memo = self._memos.get(fn)
        if memo is None:
            memo = self._memos[fn] = _Memo(lambda key: fn(self, key))
        return memo

    def keywords(self) -> dict[str, tuple[int, ...]]:
        """Token -> resolve(token, fold=True), () for a token naming nothing.

        A memo, so every later occurrence of a token is one dict lookup.
        """
        return self.memo(_keyword)

    def __len__(self) -> int:
        return len(self._names)


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
        # facts are distinct, so sorting the packed (pair, head) key orders them
        # exactly as a lexsort by pair then head would
        by_pair = self._r * self._ne
        by_pair += self._t
        by_pair *= self._ne
        by_pair += self._h
        by_pair.sort()
        self._pair_keys, self._pair_heads = np.divmod(by_pair, self._ne)
        self.stats = stats

    @classmethod
    def from_facts(cls, triples) -> "KnowledgeGraph":
        """Build a graph from (head, relation, tail) name triples.

        Mainly for fixtures and synthetic data; applies the same normalization
        and filtering as the TSV loader.
        """
        triples = [tuple(triple) for triple in triples]
        columns = [_name_column([h for h, _, _ in triples] + [t for _, _, t in triples]),
                   _name_column([r for _, r, _ in triples])]
        return _ingest(columns, lambda i: ValueError(f"empty name in triple {triples[i]!r}"))

    # -- queries ----------------------------------------------------------

    @property
    def n_facts(self) -> int:
        return len(self._h)

    def entity_id(self, name: str) -> int | None:
        return self.entities.get(normalize_name(name))

    def relation_id(self, name: str) -> int | None:
        return self.relations.get(normalize_relation(name))

    def entity_name(self, idx: int) -> str:
        return self.entities.name(idx)

    def relation_name(self, idx: int) -> str:
        return self.relations.name(idx)

    def _head_edges(self, head: int) -> zip:
        """(relation id, tail id) of every fact with this head, in index order."""
        # ids are integers, so the right edge of head is the left edge of head + 1
        lo, hi = self._h.searchsorted((head, head + 1)).tolist()
        return zip(self._r[lo:hi].tolist(), self._t[lo:hi].tolist())

    def facts_of(self, head: int) -> list[Fact]:
        """All facts with this head, ordered by (relation id, tail id)."""
        return [Fact(head, rel, tail) for rel, tail in self._head_edges(head)]

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
        for r1, mid in self._head_edges(head):
            for r2, o in self._head_edges(mid):
                if o == head or o == mid:
                    continue
                out.append(((r1, r2), o))
                if len(out) >= limit:
                    return out
        return out


def load_graph(path) -> KnowledgeGraph:
    """Load a graph from a tab-separated head/relation/tail UTF-8 file.

    One leading byte-order mark is ignored and CRLF or lone-CR line endings
    read as LF. Lines starting with '#' and blank lines are skipped. Exact
    duplicates and self-loops are dropped (counted in the load stats). Raises
    MalformedLine for the first row without exactly three fields or with a
    name that normalizes to the empty string, UnicodeDecodeError for a file
    that is not UTF-8, and EmptyGraph when nothing survives.
    """
    columns, line_no, first_short = _read_tsv(path)

    def malformed(i: int) -> MalformedLine:
        if first_short is not None and first_short[0] == i:
            reason = f"expected 3 tab-separated fields, got {first_short[1]}"
        else:
            reason = "empty field after normalization"
        return MalformedLine(int(line_no[i]), reason)

    return _ingest(columns, malformed)


# -- ingestion core -------------------------------------------------------
#
# A name column is a list of blocks (at, rows), one per row width: rows holds
# the UTF-8 bytes of the names at positions `at` of the column, padded with
# 0xFF to the width, a multiple of 8. Valid UTF-8 never holds 0xFF, so two
# rows are equal exactly when their names are. Blocks keep one long name
# from widening every row.

_PAD = 0xFF
_MIX = 0x9E3779B97F4A7C15  # odd, so multiplying by it loses no bit of a key
# _PAD_MASKS[k] ORed into a word keeps its first k bytes and pads the rest
_PAD_MASKS = np.triu(np.full((9, 8), _PAD, np.uint8)).view(np.uint64).ravel()

# byte values normalization leaves as they are: printable ASCII other than
# space, and for entity names no uppercase
_BYTE = np.arange(256)
_RELATION_BYTES = (_BYTE > 0x20) & (_BYTE < 0x7F)
_ENTITY_BYTES = _RELATION_BYTES & ((_BYTE < ord("A")) | (_BYTE > ord("Z")))


def _row_width(lens):
    return np.maximum(8, -(-lens // 8) * 8)


def _byte_column(data: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> list:
    """The names data[starts[i]:starts[i] + lens[i]] as a name column.

    data must reach the widest row past every start.
    """
    if not len(lens) or _row_width(lens.min()) == _row_width(lens.max()):
        blocks = [slice(None)]
    else:
        widths = _row_width(lens)
        order = np.argsort(widths, kind="stable")
        blocks = np.split(order, np.flatnonzero(np.diff(widths[order])) + 1)
    column = []
    for at in blocks:
        block_lens = lens[at]
        width = int(_row_width(block_lens.max(initial=0)))
        rows = np.lib.stride_tricks.sliding_window_view(data, width)[starts[at]]
        # only the last word of a row can hold padding
        rows[:, width - 8:].view(np.uint64)[:, 0] |= _PAD_MASKS[block_lens - (width - 8)]
        column.append((at, rows))
    return column


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One 64-bit key per row: its words folded by multiply-add; a one-word row is its own key."""
    words = rows.view(np.uint64)
    keys = words[:, 0].copy()
    for word in words.T[1:]:
        keys *= _MIX
        keys += word
    return keys


def _key(name: str) -> int:
    """_row_keys of one name's row, in Python; one lookup cannot pay NumPy's call cost."""
    raw = name.encode("utf-8", "surrogatepass")
    key, width = 0, len(raw) + 7 & ~7 or 8  # _row_width(len(raw))
    for word in memoryview(raw.ljust(width, b"\xff")).cast("Q"):
        key = (key * _MIX + word) & 0xFFFFFFFFFFFFFFFF
    return key


def _name_column(names: list[str]) -> list:
    raw = [name.encode("utf-8", "surrogatepass") for name in names]
    lens = np.fromiter(map(len, raw), np.int64, len(raw))
    data = np.frombuffer(b"".join(raw) + bytes(int(_row_width(lens.max(initial=0)))), np.uint8)
    return _byte_column(data, np.cumsum(lens) - lens, lens)


def _read_tsv(path):
    """Scan a TSV file into name columns with NumPy, one row per data line.

    Returns ([entities, relations], line_no, first_short); entities holds
    every head and then every tail, and first_short is (row, field count) of
    the first line without exactly three fields, or None. Such a line gets
    empty names, so the core reports it. Only lines that start with
    whitespace, '#' or a non-ASCII byte are decoded in Python, to apply the
    skip rule. Arrays are deleted as soon as they are used up, which keeps
    the peak memory of a load low.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf.startswith(codecs.BOM_UTF8):
        buf = buf[len(codecs.BOM_UTF8):]
    if b"\r" in buf:  # the newline translation of text-mode reading
        buf = buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not buf.isascii():
        buf.decode("utf-8")  # invalid UTF-8 raises here
    ends = np.flatnonzero(np.frombuffer(buf, np.uint8) == ord("\n"))
    if buf and not buf.endswith(b"\n"):
        ends = np.append(ends, len(buf))
    starts = np.concatenate(([0], ends + 1))[:len(ends)]
    # zero padding lets every field be read as one fixed-width window
    data = np.zeros(len(buf) + int(_row_width((ends - starts).max(initial=0))), np.uint8)
    data[:len(buf)] = np.frombuffer(buf, np.uint8)
    del buf
    lead = data[starts]  # an empty line's lead is its own newline
    skip = (lead <= ord(" ")) | (lead == ord("#")) | (lead >= 0x80)
    for i in np.flatnonzero(skip).tolist():
        line = data[starts[i]:ends[i]].tobytes().decode("utf-8")
        skip[i] = not line.strip() or line.lstrip().startswith("#")
    lines = np.flatnonzero(~skip)
    del lead, skip
    tabs = np.flatnonzero(data == ord("\t"))
    tabs_to_end = np.searchsorted(tabs, ends)
    first_tab = np.concatenate(([0], tabs_to_end[:-1]))[lines]
    n_fields = tabs_to_end[lines] - first_tab + 1
    del tabs_to_end
    starts, ends = starts[lines], ends[lines]
    short = np.flatnonzero(n_fields != 3)
    first_short = (int(short[0]), int(n_fields[short[0]])) if len(short) else None
    del n_fields
    if not len(tabs):  # every row is short; any in-range lookup will do
        tabs = np.zeros(1, np.int64)
    tab1, tab2 = tabs.take(first_tab, mode="clip"), tabs.take(first_tab + 1, mode="clip")
    del tabs, first_tab
    rel_lens = tab2 - tab1 - 1
    rel_lens[short] = 0
    relations = _byte_column(data, tab1 + 1, rel_lens)
    del rel_lens
    # in place from here on: tab1 becomes the head lengths, tab2 the tail
    # starts and ends the tail lengths
    tab1 -= starts
    tab2 += 1
    ends -= tab2
    ent_starts = np.concatenate((starts, tab2))
    del starts, tab2
    ent_lens = np.concatenate((tab1, ends))
    del tab1, ends
    ent_lens[np.concatenate((short, short + len(lines)))] = 0
    entities = _byte_column(data, ent_starts, ent_lens)
    return [entities, relations], lines + 1, first_short


def _group(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids for the distinct values of key, and one position of each id."""
    order = np.argsort(key)
    sorted_key = key[order]
    new = np.empty(len(key), bool)
    new[:1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new[1:])
    del sorted_key
    ranks = np.cumsum(new)
    ranks -= 1
    ids = np.empty(len(key), np.int64)
    ids[order] = ranks
    return ids, order[new]


def _intern_column(column: list, size: int, normalize, plain: np.ndarray):
    """Give each distinct normalized name of a column one id.

    Equal rows of a block are grouped with integer sorts; only names with a
    byte outside plain are decoded and normalized in Python, and names that
    then coincide are merged. Returns (id of each of the size names, (array
    of the name of each id, array of their _row_keys)); ids follow no
    particular order.
    """
    parts = []
    names = []
    keys = []
    normalized = False
    for at, rows in column:
        words = rows.view(np.uint64)
        key = words[:, 0]
        for word in words.T[1:]:
            # one key for (leading words, next word): both dense ids below len(key)
            key = _group(key)[0] * len(key) + _group(word)[0]
        row_ids, first = _group(key)
        row_ids += sum(map(len, names))
        parts.append((at, row_ids))
        del words, key, row_ids
        urows = rows[first]
        keys.append(_row_keys(urows))
        live = urows != _PAD
        odd = (live & ~plain[urows]).any(axis=1)
        urows[~live] = 0
        block = np.where(odd, b"", urows.view(f"S{urows.shape[1]}").ravel()).astype(str)
        if odd.any():
            block = block.astype(object)  # a str array would drop trailing NULs
            lens = live.sum(axis=1)
            odd = np.flatnonzero(odd)
            for i in odd.tolist():
                block[i] = normalize(urows[i, :lens[i]].tobytes().decode("utf-8", "surrogatepass"))
            keys[-1][odd] = np.fromiter(map(_key, block[odd]), np.uint64)
            normalized = True
        names.append(block)
    if len(parts) == 1:
        ids = parts[0][1]  # one block holds the whole column in order
    else:
        ids = np.empty(size, np.int64)
        for at, row_ids in parts:
            ids[at] = row_ids
    del parts
    # one block keeps its fixed-width str array, so no str object is made per name
    names = names[0] if len(names) == 1 else np.concatenate([b.astype(object) for b in names])
    keys = np.concatenate(keys)
    if not normalized:
        return ids, (names, keys)
    index: dict[str, int] = {}
    merged = np.array([index.setdefault(name, len(index)) for name in names], np.int64)
    merged_keys = np.empty(len(index), np.uint64)
    merged_keys[merged] = keys  # names merged into one had one key already
    return merged[ids], (np.array(list(index), dtype=object), merged_keys)


def _first_seen(ids: np.ndarray, names: np.ndarray, keys: np.ndarray):
    """Ids renumbered in order of first occurrence, and the NameTable of the names used."""
    first = np.full(len(names), len(ids), np.int64)
    np.minimum.at(first, ids, np.arange(len(ids)))
    used = np.argsort(first)[:np.count_nonzero(first < len(ids))]
    rank = np.empty(len(names), np.int64)
    rank[used] = np.arange(len(used))
    return rank[ids], NameTable(names[used], keys[used])


def _ingest(columns: list, malformed) -> KnowledgeGraph:
    """Name columns in, graph out: the one path both loaders share.

    columns is [entities, relations]: entities holds every head and then
    every tail, relations one name per fact. The list is emptied, so the
    columns are freed once interned. malformed(i) builds the error raised for
    fact i, the first with a name that normalizes to the empty string. Ids
    are assigned in first-seen order, heads and tails interleaved, after
    self-loops are dropped.
    """
    entities, relations = columns
    columns.clear()
    n = sum(len(rows) for _, rows in relations)
    ent, ent_names = _intern_column(entities, 2 * n, normalize_name, _ENTITY_BYTES)
    del entities
    rel, rel_names = _intern_column(relations, n, normalize_relation, _RELATION_BYTES)
    del relations
    head, tail = ent[:n], ent[n:]
    bad = np.zeros(n, bool)
    for empty in np.flatnonzero(ent_names[0] == "").tolist():
        bad |= (head == empty) | (tail == empty)
    for empty in np.flatnonzero(rel_names[0] == "").tolist():
        bad |= rel == empty
    if bad.any():
        raise malformed(int(bad.argmax()))
    keep = head != tail
    kept = int(keep.sum())
    ent = ent.reshape(2, n).T[keep].ravel()  # heads and tails interleaved
    rel = rel[keep]
    del head, tail, keep, bad
    if not kept:
        raise EmptyGraph("no facts survived loading")
    ent, ent_names = _first_seen(ent, *ent_names)
    rel, rel_names = _first_seen(rel, *rel_names)
    ne, nr = len(ent_names), len(rel_names)
    if ne * nr * ne >= 2 ** 63:
        raise OverflowError("graph too large for packed int64 keys")
    # the packed key preserves (head, relation, tail) order, so one sort both
    # orders the facts and brings duplicates together
    packed = ent[0::2] * nr
    packed += rel
    packed *= ne
    packed += ent[1::2]
    del ent, rel
    packed.sort()
    packed = packed[np.concatenate(([True], packed[1:] != packed[:-1]))]
    head, rest = np.divmod(packed, nr * ne)
    rel, tail = np.divmod(rest, ne)
    del rest
    stats = LoadStats(
        entities=ne,
        relations=nr,
        facts=len(packed),
        duplicates_dropped=kept - len(packed),
        self_loops_dropped=n - kept,
    )
    del packed
    return KnowledgeGraph(ent_names, rel_names, head, rel, tail, stats)
