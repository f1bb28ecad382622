"""In-memory knowledge graph: interned names, indexed fact lookups, two-hop walks.

Facts are loaded once (from TSV or from an in-memory triple list) and the graph
is immutable afterwards. Both sources feed one column-wise ingestion core, so
loading makes no Python object per fact, nor one per name: the names stay in
the array interning produced, and a name is looked up through a sorted array
of 64-bit keys built from the same bytes. A head's facts are one slice of an
edge array, and a (relation, tail) pair's heads are bisected from the tail's slice.
"""

from __future__ import annotations

import codecs
import ctypes
import re
import weakref
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple

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


class Fact(NamedTuple):
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
    """fn(table, key) on first sight of key; every later lookup is one dict probe.

    It reaches the table that holds it through a weak reference, so the two make no cycle.
    """

    def __init__(self, fn, table):
        self._fn, self._table = fn, weakref.ref(table)

    def __missing__(self, key):
        value = self[key] = self._fn(self._table(), key)
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

    def names(self, ids=None) -> list[str]:  # of the ids given, in their order; all by default
        return (self._names if ids is None else self._names.take(ids)).tolist()

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
        """key -> fn(self, key) on first sight of key; each rule fn keeps a memo of its own."""
        memo = self._memos.get(fn)
        if memo is None:
            memo = self._memos[fn] = _Memo(fn, self)
        return memo

    def keywords(self) -> dict[str, tuple[int, ...]]:
        """Token -> resolve(token, fold=True), () for a token naming nothing.

        A memo, so every later occurrence of a token is one dict lookup.
        """
        return self.memo(_keyword)

    def __len__(self) -> int:
        return len(self._names)


class KnowledgeGraph:
    """Immutable fact collection indexed by head, and by tail from the first heads_for call on."""

    def __init__(self, entities: NameTable, relations: NameTable,
                 starts: np.ndarray, edges: np.ndarray, stats: LoadStats):
        # edges: relation * n_entities + tail of each distinct fact, by (head, relation,
        # tail); head h's facts are edges[starts[h]:starts[h + 1]]
        self.entities, self.relations = entities, relations
        self._starts = memoryview(starts)  # indexing it yields plain ints
        self._edges = edges
        self._ne = len(entities)
        self.stats = stats

    @cached_property
    def _tail_index(self) -> tuple[memoryview, memoryview]:
        """Per-tail offsets, and relation * n_entities + head of each fact, sorted within its tail."""
        ne, edges, span = self._ne, self._edges, len(self.relations) * self._ne
        heads = np.repeat(np.arange(ne, dtype=_offset_dtype(span)), np.diff(self._starts))
        packed = np.remainder(edges, ne)  # each fact's tail for now, made once heads' temporaries are gone
        counts = np.bincount(packed, minlength=ne)
        starts = np.zeros(ne + 1, _offset_dtype(len(edges)))
        starts[1:] = counts.cumsum(out=counts)  # summed in place: into int32 it would copy counts
        packed *= span - 1  # in place, to tail * span + relation * ne + head
        packed += edges
        packed += heads
        packed.sort()
        keys = np.remainder(packed, span, out=heads)
        return memoryview(starts), memoryview(keys)  # int32 below 2**31; bisect reads plain ints

    @classmethod
    def from_facts(cls, triples) -> "KnowledgeGraph":
        """Build a graph from (head, relation, tail) name triples.

        Mainly for fixtures and synthetic data; applies the same normalization
        and filtering as the TSV loader.
        """
        triples = [tuple(triple) for triple in triples]
        columns = [_name_column([name for h, _, t in triples for name in (h, t)]),
                   _name_column([r for _, r, _ in triples])]
        return _ingest(columns, lambda i: ValueError(f"empty name in triple {triples[i]!r}"))

    # -- queries ----------------------------------------------------------

    @property
    def n_facts(self) -> int:
        return len(self._edges)

    def entity_id(self, name: str) -> int | None:  # names held are normal: only a miss is normalized
        return i if (i := self.entities.get(name)) is not None else self.entities.get(normalize_name(name))

    def relation_id(self, name: str) -> int | None:
        return self.relations.get(normalize_relation(name))

    def entity_name(self, idx: int) -> str:
        return self.entities.name(idx)

    def relation_name(self, idx: int) -> str:
        return self.relations.name(idx)

    def _head_edges(self, head: int) -> list[tuple[int, int]]:
        """(relation id, tail id) of each fact with this head, in index order; none for an unknown id."""
        if not 0 <= head < self._ne:
            return []
        edges = self._edges[self._starts[head]:self._starts[head + 1]]
        return [divmod(edge, self._ne) for edge in edges.tolist()]

    def facts_of(self, head: int) -> list[Fact]:
        """All facts with this head, ordered by (relation id, tail id)."""
        return [Fact(head, rel, tail) for rel, tail in self._head_edges(head)]

    def heads_for(self, relation: int, tail: int) -> set[int]:
        """Every head h with (h, relation, tail) in the graph; empty when unknown."""
        if not (0 <= relation < len(self.relations) and 0 <= tail < self._ne):
            return set()
        starts, keys = self._tail_index
        base = relation * self._ne  # two bisections of the tail's slice: O(log in-degree)
        lo = bisect_left(keys, base, starts[tail], starts[tail + 1])
        hi = bisect_left(keys, base + self._ne, lo, starts[tail + 1])
        return {key - base for key in keys[lo:hi]}

    def two_hop_facts(self, head: int, limit: int = 1000) -> Iterator[tuple[tuple[int, int], int]]:
        """Relation chains head -> mid -> tail with tail outside {head, mid}, as ((r1, r2), tail).

        Lazy, in index order, at most `limit`: none for 0; a negative limit raises ValueError.
        """
        return islice((((r1, r2), o) for r1, mid in self._head_edges(head)
                       for r2, o in self._head_edges(mid) if o != head and o != mid), limit)


def load_graph(path) -> KnowledgeGraph:
    """Load a graph from a tab-separated head/relation/tail UTF-8 file.

    One leading byte-order mark is ignored and CRLF or lone-CR line endings
    read as LF. Lines starting with '#' and blank lines are skipped. Exact
    duplicates and self-loops are dropped (counted in the load stats). Raises
    MalformedLine for the first row without exactly three fields or with a
    name that normalizes to the empty string, UnicodeDecodeError for a file
    that is not UTF-8, and EmptyGraph when nothing survives. The heap the
    load freed is returned to the system where glibc allows it.
    """
    columns, line_no, first_short = _read_tsv(path)

    def malformed(i: int) -> MalformedLine:
        if first_short is not None and first_short[0] == i:
            reason = f"expected 3 tab-separated fields, got {first_short[1]}"
        else:
            reason = "empty field after normalization"
        return MalformedLine(int(line_no[i]), reason)

    graph = _ingest(columns, malformed)
    _trim_heap()
    return graph


def _trim_heap() -> None:
    """glibc's malloc_trim(0); a no-op where the C library lacks it.

    glibc keeps freed heap resident, and the scan arrays a load frees would
    otherwise stay in the RSS of every process that loads a graph.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


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

    A row is read as 8-byte words from its name's start, and its last word
    starts inside the name (at its start when empty), so data must hold 8
    bytes past the end of every name.
    """
    if not len(lens) or _row_width(lens.min()) == _row_width(lens.max()):
        blocks = [slice(None)]
    else:  # one block per width present, its positions in ascending order
        n_words = _row_width(lens) // 8
        blocks = [np.flatnonzero(n_words == w) for w in np.flatnonzero(np.bincount(n_words))]
        del n_words
    # the 8 bytes from every offset of data, read as one unaligned word
    words = np.ndarray((len(data) - 7,), np.uint64, data, strides=(1,))
    column = []
    for at in blocks:
        block_lens = lens[at]
        width = int(_row_width(block_lens.max(initial=0)))
        # one gather reads every word of every row, straight into place
        rows = words[np.add.outer(starts[at], np.arange(0, width, 8, dtype=starts.dtype))]
        # only the last word of a row can hold padding
        rows[:, -1] |= _PAD_MASKS[block_lens - (width - 8)]
        column.append((at, rows.view(np.uint8)))
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
    data = np.frombuffer(b"".join(raw) + bytes(8), np.uint8)
    return _byte_column(data, np.cumsum(lens) - lens, lens)


def _offset_dtype(size: int) -> type:
    """int32 for offsets into, or positions among, fewer than 2**31 items; int64 otherwise."""
    return np.int32 if size < 2 ** 31 else np.int64


def _read_tsv(path):
    """Scan a TSV file into name columns with NumPy, one row per data line.

    Returns ([entities, relations], line_no, first_short); entities holds
    each head followed by its tail, and first_short is (row, field count) of
    the first line without exactly three fields, or None. Such a line gets
    empty names, so the core reports it. The file's bytes are copied into
    one zeroed buffer, with a final newline if it lacks one and 8 spare
    bytes, before the scan, while nothing else is alive: every field is then
    followed by a separator, so each row's last 8-byte word lies inside the
    buffer (_byte_column). One scan finds every tab and newline; a row's
    fields end at its last three of them. Offsets are int32 below 2**31
    bytes. Only lines that start with whitespace, '#' or a non-ASCII byte
    are decoded in Python, to apply the skip rule. Arrays are deleted as
    soon as they are used up, which keeps the peak memory of a load low.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf.startswith(codecs.BOM_UTF8):
        buf = buf[len(codecs.BOM_UTF8):]
    if b"\r" in buf:  # the newline translation of text-mode reading
        buf = buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not buf.isascii():
        buf.decode("utf-8")  # invalid UTF-8 raises here
    size = len(buf) + (bool(buf) and not buf.endswith(b"\n"))  # room for a final newline
    data = np.zeros(size + 8, np.uint8)  # 8 spare bytes: see _byte_column
    data[:len(buf)] = np.frombuffer(buf, np.uint8)
    data[len(buf):size] = ord("\n")  # so every line ends at a newline
    del buf
    raw = data[:size]
    off_type = _offset_dtype(len(data))
    # in one array: a tab (9) or a newline (10) becomes 0 or 1, any other byte wraps to 2 or more
    is_sep = raw - ord("\t")
    is_sep = np.less(is_sep, 2, out=is_sep.view(bool))
    seps = np.flatnonzero(is_sep)
    del is_sep
    seps = seps.astype(off_type)
    newline = np.flatnonzero(raw[seps] == ord("\n")).astype(off_type)  # the last separator of each line
    ends = seps[newline]
    starts = np.empty_like(ends)  # each line starts after the previous newline
    starts[:1] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    lead = raw[starts]  # an empty line's lead is its own newline
    skip = (lead <= ord(" ")) | (lead == ord("#")) | (lead >= 0x80)
    for i in np.flatnonzero(skip).tolist():
        line = data[starts[i]:ends[i]].tobytes().decode("utf-8")
        skip[i] = not line.strip() or line.lstrip().startswith("#")
    lines = np.flatnonzero(~skip).astype(off_type)
    del lead, skip
    n_fields = np.diff(newline, prepend=off_type(-1))[lines]  # the separators since the previous newline
    newline = newline[lines]
    starts, ends = starts[lines], ends[lines]
    first = newline - n_fields
    first += 1  # a short row reads its tabs from its own separators
    tab1, tab2 = newline - 2, newline - 1
    np.maximum(tab1, first, out=tab1)
    np.maximum(tab2, first, out=tab2)
    tab1, tab2 = seps[tab1], seps[tab2]
    short = np.flatnonzero(n_fields != 3)
    first_short = (int(short[0]), int(n_fields[short[0]])) if len(short) else None
    del seps, newline, first, n_fields
    rel_lens = tab2 - tab1 - 1
    rel_lens[short] = 0
    relations = _byte_column(data, tab1 + 1, rel_lens)
    del rel_lens
    # in place from here on: tab1 becomes the head lengths, tab2 the tail
    # starts and ends the tail lengths
    tab1 -= starts
    tab2 += 1
    ends -= tab2
    ent_starts = np.stack((starts, tab2), axis=1).ravel()  # each head, then its tail
    del starts, tab2
    ent_lens = np.stack((tab1, ends), axis=1)
    del tab1, ends
    ent_lens[short] = 0
    entities = _byte_column(data, ent_starts, ent_lens.ravel())
    return [entities, relations], lines + 1, first_short


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids for the distinct rows of a block, and the first position of each id.

    One np.sort groups the rows. Each row becomes one word: its _row_keys
    times _MIX in the high bits and its position in the low p bits, so equal
    rows form one run of equal high bits, in position order. Rows of a run
    that differ (distinct keys sharing the high bits, or wide rows sharing a
    key) are split exactly: only those runs are ordered again, by a stable
    lexsort of their words. Ids count up in order of first position.
    """
    m = len(rows)
    pos_type = _offset_dtype(m)  # of order and runs; ids and first stay int64
    p = max(m - 1, 0).bit_length()
    low = (1 << p) - 1
    packed = _row_keys(rows)
    packed *= _MIX
    packed &= np.uint64(~low & 0xFFFFFFFFFFFFFFFF)
    packed |= np.arange(m, dtype=np.uint64)
    packed.sort()
    order = packed.astype(pos_type)  # the cast keeps the low 32 or 64 bits, so the p position bits
    order &= low
    packed >>= p
    new = np.ones(m, bool)
    np.not_equal(packed[1:], packed[:-1], out=new[1:])
    del packed
    # a run must hold equal rows: compare each sorted row with the one before
    words = rows.view(np.uint64)
    clash = np.zeros(max(m - 1, 0), bool)
    for word in words.T:
        sorted_word = word[order]
        clash |= sorted_word[1:] != sorted_word[:-1]
    del sorted_word
    clash &= ~new[1:]
    run = np.cumsum(new, dtype=pos_type)
    if clash.any():
        clashed = np.zeros(run[-1] + 1, bool)
        clashed[run[1:][clash]] = True
        at = np.flatnonzero(clashed[run])
        sub = order[at]
        # by run first, so each run keeps its slots; stable, so equal rows stay in position order
        order[at] = sub[np.lexsort((*words[sub].T[::-1], run[at]))]
        inner = at[~new[at]]
        new[inner] = (words[order[inner]] != words[order[inner - 1]]).any(axis=1)
        run = np.cumsum(new, dtype=pos_type)
    del clash
    run -= 1
    # number the runs in order of their first rows
    first = order[new]
    by_first = np.argsort(first)
    run_id = np.empty(len(first), np.int64)
    run_id[by_first] = np.arange(len(first))
    # made last: made first, ids would take heap that the temporaries above
    # then find taken, and they would grow the process instead
    ids = np.empty(m, np.int64)
    ids[order] = run
    np.take(run_id, ids, out=ids, mode="clip")  # in place: ids are intp, so take copies no index
    return ids, first[by_first].astype(np.int64)


def _intern_column(column: list, size: int, normalize, plain: np.ndarray):
    """Give each distinct normalized name of a column one id.

    Equal rows of a block are grouped by _group_rows. Only names with a byte
    outside plain are decoded and normalized in Python; _merge_normalized
    then merges each into any name it now equals. Returns (id of each of the
    size names, first position of each id, array of the name of each id,
    array of their _row_keys); the ids of a block count up in order of first
    position, and an id merged away has no rows.
    """
    ids = None if len(column) == 1 else np.empty(size, np.int64)
    firsts, names, keys, odd_ids, odd_names = [], [], [], [], []
    base = 0
    for at, rows in column:
        row_ids, first = _group_rows(rows)
        urows = rows[first]
        if ids is None:
            ids = row_ids  # one block holds the whole column in order
        else:
            row_ids += base
            ids[at] = row_ids
            first = at[first]
        del row_ids
        firsts.append(first)
        keys.append(_row_keys(urows))
        live = urows != _PAD
        odd = (live & ~plain[urows]).any(axis=1)
        if odd.any():
            lens = live.sum(axis=1)
            for i in np.flatnonzero(odd).tolist():
                odd_ids.append(base + i)
                odd_names.append(normalize(urows[i, :lens[i]].tobytes().decode("utf-8", "surrogatepass")))
        # the rest are ASCII, so each byte is its code point; NULs end a str
        urows[~live | odd[:, None]] = 0
        names.append(urows.astype(np.uint32).view(f"U{urows.shape[1]}").ravel())
        base += len(first)
    # one block keeps its fixed-width str array, so no str object is made per name
    names = names[0] if len(names) == 1 else np.concatenate([b.astype(object) for b in names])
    interned = (ids, np.concatenate(firsts), names, np.concatenate(keys))
    return _merge_normalized(*interned, odd_ids, odd_names) if odd_ids else interned


def _merge_normalized(ids, first, names, keys, odd: list[int], normalized: list[str]):
    """_intern_column's result with normalized[i] the name of id odd[i].

    An odd id whose name is now that of another id (a plain one, or a lower
    odd one) is merged into it: its rows take that id, which keeps the
    earliest first position, and it is left with no rows and first position
    len(ids), for _first_seen to drop. Plain names are normal and distinct
    already, so only those sharing a key with a normalized name are
    compared, and a str array of names stays one.
    """
    odd = np.array(odd, np.int64)
    keys[odd] = [_key(name) for name in normalized]
    near = np.setdiff1d(np.flatnonzero(np.isin(keys, keys[odd])), odd)
    index = dict(zip(names[near].tolist(), near.tolist()))
    into = np.arange(len(names))
    into[odd] = [index.setdefault(name, i) for i, name in zip(odd.tolist(), normalized)]
    np.minimum.at(first, into[odd], first[odd])
    # a str array must be wide enough for the names, and would drop trailing NULs
    nul = any(name.endswith("\x00") for name in normalized)
    normalized = np.array(normalized, object if nul else str)
    names = names.astype(np.promote_types(names.dtype, normalized.dtype), copy=False)
    names[odd] = normalized
    merged = into != np.arange(len(names))
    moved = merged[ids]
    ids[moved] = into[ids[moved]]
    first[merged] = len(ids)
    return ids, first, names, keys


def _first_seen(ids: np.ndarray, first: np.ndarray | None, names: np.ndarray, keys: np.ndarray):
    """Ids renumbered in order of first occurrence, and the NameTable of the names used.

    first holds each id's first position in ids (len(ids) for an id with no
    rows), as _intern_column found it; None when rows were dropped since,
    and it is then found again.
    """
    if first is None:
        first = np.full(len(names), len(ids), np.int64)
        np.minimum.at(first, ids, np.arange(len(ids)))
    elif (np.diff(first, append=len(ids)) > 0).all():
        return ids, NameTable(names, keys)  # every id used, counting up in order of first occurrence
    used = np.argsort(first)[:np.count_nonzero(first < len(ids))]
    rank = np.empty(len(names), np.int64)
    rank[used] = np.arange(len(used))
    return rank[ids], NameTable(names[used], keys[used])


def _ingest(columns: list, malformed) -> KnowledgeGraph:
    """Name columns in, graph out: the one path both loaders share.

    columns is [entities, relations]: entities holds each fact's head
    followed by its tail, relations one name per fact. The list is emptied,
    so the columns are freed once interned. malformed(i) builds the error
    raised for fact i, the first with a name that normalizes to the empty
    string. Ids are assigned in first-seen order, heads and tails
    interleaved, after self-loops are dropped.
    """
    entities, relations = columns
    columns.clear()
    n = sum(len(rows) for _, rows in relations)
    ent, ent_first, ent_names, ent_keys = _intern_column(entities, 2 * n, normalize_name, _ENTITY_BYTES)
    del entities
    rel, rel_first, rel_names, rel_keys = _intern_column(relations, n, normalize_relation, _RELATION_BYTES)
    del relations
    head, tail = ent[0::2], ent[1::2]
    bad = np.zeros(n, bool)
    for empty in np.flatnonzero(ent_names == "").tolist():
        bad |= (head == empty) | (tail == empty)
    for empty in np.flatnonzero(rel_names == "").tolist():
        bad |= rel == empty
    if bad.any():
        raise malformed(int(bad.argmax()))
    keep = head != tail
    kept = int(keep.sum())
    if kept < n:  # positions move, so _first_seen finds first occurrences again
        ent = ent.reshape(n, 2)[keep].ravel()
        rel = rel[keep]
        ent_first = rel_first = None
    del head, tail, keep, bad
    if not kept:
        raise EmptyGraph("no facts survived loading")
    ent, ent_names = _first_seen(ent, ent_first, ent_names, ent_keys)
    rel, rel_names = _first_seen(rel, rel_first, rel_names, rel_keys)
    del ent_first, rel_first, ent_keys, rel_keys
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
    head, edges = np.divmod(packed, nr * ne)
    starts = np.zeros(ne + 1, np.int64)
    np.cumsum(np.bincount(head, minlength=ne), out=starts[1:])
    stats = LoadStats(
        entities=ne,
        relations=nr,
        facts=len(packed),
        duplicates_dropped=kept - len(packed),
        self_loops_dropped=n - kept,
    )
    del packed, head
    return KnowledgeGraph(ent_names, rel_names, starts, edges, stats)
