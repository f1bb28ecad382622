"""Canonical triplet clause grammar: render assignments to text and back.

Rendering produces one clause per allocated path, clauses joined by '. ' with
a final '.':

    <class> <Relation> <tail>
    <class> <Rel1>_<Rel2> <tail>      (two-hop path)

Parsing is keyword-anchored. Any token equal to a relation name (case
folded), or to two relation names joined by '_', opens a capture; the tail is
everything up to '.', ',', ';', the next keyword, or end of input. Leading
articles are dropped, tail tokens are lowercased and joined by '_' so they
line up with entity-name normal form. Tokens before the first keyword (head
mentions, filler) are never captured.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .store import KnowledgeGraph, NameTable

# wording used when asking a captioning model for a relation-rich description
INSTRUCTION_PROMPT = (
    "Describe details of this photo from color, species, location, background, etc."
)

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[.,;]")
_WORD_RE = re.compile(r"[A-Za-z0-9_]+")
_NON_WORD_RE = re.compile(r"[^A-Za-z0-9_]")
_TAIL_RE = re.compile(r"[a-z0-9_]+")
_BOUNDARY = {".", ",", ";"}
_ARTICLES = {"a", "an", "the"}


class EmptyAssignment(ValueError):
    """A class with no allocated paths cannot be rendered."""


class ParsedTriplet(NamedTuple):
    """Relation-id sequence (length 1 or 2) plus the normalized tail text."""

    relations: tuple[int, ...]
    tail: str


def render_clause(graph: KnowledgeGraph, path) -> str:
    """The clause '<label> <tail>' of one allocated path, the only place it is formatted."""
    return f"{graph.relations.label(path.relations)} {graph.entities.name(path.tail)}"


def render_training_text(assignment, graph: KnowledgeGraph) -> str:
    """Render every allocated path of a class as one clause per path."""
    cname = graph.entities.name(assignment.class_id)
    if not assignment.paths:
        raise EmptyAssignment(f"class {cname!r} has no allocated paths")
    return ". ".join(f"{cname} {render_clause(graph, p)}" for p in assignment.paths) + "."


def label_reads_back(relations: NameTable, rels: tuple[int, ...]) -> bool:
    """The label of rels is one token whose keyword is rels.

    With tail_reads_back of the tail, this holds exactly when the clause
    '<label> <tail>' parses to [ParsedTriplet(rels, tail)]; any character
    outside [A-Za-z0-9_] would split the label into several tokens.
    """
    label = relations.label(rels)
    return _WORD_RE.fullmatch(label) is not None and relations.keywords()[label] == rels


def tail_reads_back(relations: NameTable, tail: str) -> bool:
    """The tail is one lowercase token, neither a keyword nor an article.

    A keyword would open a capture of its own and an article is dropped, so
    either leaves the clause without its triplet.
    """
    return (_TAIL_RE.fullmatch(tail) is not None and tail not in _ARTICLES
            and relations.resolve(tail, fold=True) is None)


def name_opens_no_capture(relations: NameTable, name: str) -> bool:
    """No token of the name is a keyword.

    A class name leads each clause of its text, so a keyword token in it
    would add a triplet of its own: `isa-red IsA fruit.` also reads (IsA, red).
    """
    keywords = relations.keywords()
    return not any(keywords[t] for t in _WORD_RE.findall(name))


def caption_mention(name: str) -> str:
    """The name as one token, which at a caption's end opens no capture, even as a keyword.

    Each character outside [A-Za-z0-9_] becomes '_', so `isa-red` no longer reads
    (IsA, red); the encoder splits tokens at '_' too, so a lowercase name keeps them.
    """
    return _NON_WORD_RE.sub("_", name)


def parse_triplets(text: str, relations: NameTable) -> list[ParsedTriplet]:
    """Extract (relation-sequence, tail) pairs from free text.

    Never raises on odd input; at worst returns an empty list. Duplicates are
    removed, first occurrence wins. Relations always come from the given
    table, so a parsed triplet can never name an unknown relation.
    """
    keywords = relations.keywords()
    tokens = _TOKEN_RE.findall(text)
    # per token: the relation ids it opens, () for a tail word, None for a boundary
    rels = [None if t in _BOUNDARY else keywords[t] for t in tokens]
    out: list[ParsedTriplet] = []
    i, n = 0, len(tokens)
    while i < n:
        if not rels[i]:
            i += 1
            continue
        j = i + 1
        while j < n and rels[j] == ():
            j += 1
        tail_tokens = [t.lower() for t in tokens[i + 1:j]]
        while tail_tokens and tail_tokens[0] in _ARTICLES:
            tail_tokens.pop(0)
        if tail_tokens:
            out.append(ParsedTriplet(rels[i], "_".join(tail_tokens)))
        i = j
    return list(dict.fromkeys(out)) if len(out) > 1 else out
