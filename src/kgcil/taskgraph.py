"""Incremental allocation of exclusive relation-tail paths to classes.

Each class added to a TaskSubgraph is granted up to r distinct
(relation-sequence, tail) pairs. A pair granted once is never granted again,
so matching a pair at inference time identifies exactly one class. Direct
facts are consumed first in (relation id, tail id) order; when they run out,
two-hop chains serve as fallback.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

from .store import KnowledgeGraph, NameTable, Record, _Memo, normalize_name
from .triplet_text import label_reads_back, name_opens_no_capture, tail_reads_back

SUBGRAPH_FORMAT = "kgcil-subgraph v1"
_EXPORT_HEADER = "task\tclass\trelation\ttail"


class UnknownClass(ValueError):
    def __init__(self, name: str):
        super().__init__(f"class name not in graph: {name!r}")
        self.name = name


class RelationPath(NamedTuple):
    """One or two relation ids plus the terminal tail entity.

    A tuple, so it hashes and compares equal to the plain (relations, tail)
    pair: the path is its own key in pair_to_class, and a plain pair finds it.
    """

    relations: tuple[int, ...]
    tail: int

    @property
    def key(self) -> RelationPath:
        return self


@dataclass(slots=True)
class ClassAssignment:
    class_id: int
    paths: list[RelationPath]
    task_index: int


@dataclass
class ClassGrant(Record):
    """Allocation outcome for a single class in one extension."""

    name: str
    requested: int
    granted: int
    fallback_used: bool
    unknown: bool = False


@dataclass
class AllocationReport(Record):
    grants: list[ClassGrant] = field(default_factory=list)
    shortfall: list[str] = field(default_factory=list)
    unknown: list[str] = field(default_factory=list)


class TaskSubgraph:
    """Evolving class -> relation-path registry; pair_to_class doubles as the used-pair set."""

    def __init__(self, graph: KnowledgeGraph):
        self.graph = graph
        self.assignments: dict[int, ClassAssignment] = {}
        self.pair_to_class: dict[RelationPath, int] = {}
        self.tasks = 0

    def class_names(self) -> list[str]:
        """Assigned class names in allocation order."""
        return [self.graph.entities.name(c) for c in self.assignments]


@contextmanager
def _collector_paused():
    """Python's cyclic collector off for the block, then back as it was.

    Registry writes build only acyclic containers, so a collection during
    them frees nothing, yet each full one walks every tracked object, most
    of them the registries' paths. A collector already off stays off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _shared(table, rels: tuple[int, ...]) -> tuple[int, ...]:
    """rels: as a memo of the relation table, the first tuple of each relation sequence."""
    return rels


def _resolved(table, label: str) -> tuple[int, ...] | None:
    """The shared tuple of the relations a label names; None when it names none."""
    rels = table.resolve(label)
    return None if rels is None else table.memo(_shared)[rels]


def _candidates(graph: KnowledgeGraph, cid: int):
    """(relations, tail, is_chain) of the direct facts, then of the two-hop chains.

    Lazy: a caller that stops early, as extend_subgraph does at r_target paths,
    walks no further mids. Equal relation sequences are one tuple object, the
    one _shared keeps.
    """
    shared = graph.relations.memo(_shared)
    for fact in graph.facts_of(cid):
        yield shared[(fact.relation,)], fact.tail, False
    for rels, tail in graph.two_hop_facts(cid):
        yield shared[rels], tail, True


_tail_memos = weakref.WeakKeyDictionary()  # graph -> {tail id: _tail_id_reads_back}


def _tail_id_reads_back(graph: KnowledgeGraph, tail: int) -> bool:
    return tail_reads_back(graph.relations, graph.entities.name(tail))


def _reads_back(graph: KnowledgeGraph):
    """(relations, tail id) -> whether the clause '<label> <tail>' parses back to that path alone.

    The rule every path of a subgraph keeps, with name_opens_no_capture of
    its class name, so that its text votes for its class. With relations
    Made, Of and Made_Of, the pair (Made, Of) renders as Made_Of and fails,
    as does a tail `of`. Each relation sequence and each tail id is checked
    once: by a memo of the relation table and by one per graph (_tail_memos).
    """
    labels = graph.relations.memo(label_reads_back)
    tails = _tail_memos.setdefault(graph, _Memo(_tail_id_reads_back, graph))
    return lambda rels, tail: labels[rels] and tails[tail]


@_collector_paused()
def extend_subgraph(subgraph: TaskSubgraph, new_classes, graph: KnowledgeGraph,
                    r_target: int) -> tuple[TaskSubgraph, AllocationReport]:
    """Grant up to r_target unused pairs to each new class, in place.

    Unknown class names are collected in the report rather than raised; they
    end up in both the unknown and shortfall lists. A name already assigned,
    or repeated in new_classes, raises ValueError before anything is granted.
    Classes whose direct facts are exhausted fall back to two-hop chains;
    whatever is still missing after that is recorded as shortfall. A path is
    granted only when its clause reads back to it (_reads_back). A class
    whose name holds a keyword token is granted nothing, since its name
    leads every clause (see name_opens_no_capture); it is shortfall. The
    cyclic collector is paused for the call, for the whole process
    (_collector_paused).
    """
    if r_target < 1:
        raise ValueError(f"r_target must be >= 1, got {r_target}")
    if subgraph.graph is not graph:
        raise ValueError("subgraph belongs to a different graph")
    raws = list(new_classes)
    cids = [graph.entity_id(raw) for raw in raws]
    names = [normalize_name(r) if c is None else graph.entities.name(c) for r, c in zip(raws, cids)]
    batch: set[int] = set()
    for name, cid in zip(names, cids):
        if cid in subgraph.assignments or cid in batch:
            raise ValueError(f"class already assigned: {name!r}")
        if cid is not None:
            batch.add(cid)
    reads_back = _reads_back(graph)
    task_index = subgraph.tasks
    report = AllocationReport()
    for name, cid in zip(names, cids):
        if cid is None:
            report.grants.append(ClassGrant(name, r_target, 0, False, unknown=True))
            report.unknown.append(name)
            report.shortfall.append(name)
            continue
        paths: list[RelationPath] = []
        fallback = False
        if name_opens_no_capture(graph.relations, name):
            for rels, tail, chain in _candidates(graph, cid):
                path = RelationPath(rels, tail)
                if path in subgraph.pair_to_class or not reads_back(rels, tail):
                    continue
                paths.append(path)
                subgraph.pair_to_class[path] = cid
                fallback |= chain
                if len(paths) >= r_target:
                    break
        subgraph.assignments[cid] = ClassAssignment(cid, paths, task_index)
        report.grants.append(ClassGrant(name, r_target, len(paths), fallback))
        if len(paths) < r_target:
            report.shortfall.append(name)
    subgraph.tasks += 1
    return subgraph, report


def render_export(subgraph: TaskSubgraph) -> str:
    """Serialize a subgraph to its TSV form (also used for size accounting)."""
    lines = [f"# {SUBGRAPH_FORMAT}", _EXPORT_HEADER]
    graph, assignments = subgraph.graph, subgraph.assignments.values()
    labels = graph.relations.memo(NameTable.label)
    tails = iter(graph.entities.names([p.tail for a in assignments for p in a.paths]))
    for a in assignments:
        lead = f"{a.task_index}\t{graph.entities.name(a.class_id)}\t"
        # zip draws from paths first, so it stops at the class's last path with tails unmoved
        lines.extend(f"{lead}{labels[p.relations]}\t{tail}" for p, tail in zip(a.paths, tails))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExportStats(Record):
    classes: int
    paths: int
    bytes: int


def export_subgraph(subgraph: TaskSubgraph, path) -> ExportStats:
    """Write the subgraph as TSV; returns row counts and the byte size."""
    payload = render_export(subgraph).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(payload)
    n_paths = sum(len(a.paths) for a in subgraph.assignments.values())
    return ExportStats(classes=len(subgraph.assignments), paths=n_paths, bytes=len(payload))


@_collector_paused()
def import_subgraph(path, graph: KnowledgeGraph) -> TaskSubgraph:
    """Rebuild a TaskSubgraph from an exported TSV file.

    A row that repeats a (class, pair) the class already holds is skipped. A
    row that allocation would not grant is rejected: its clause does not
    read back to it (_reads_back), or its class name holds a keyword, which
    is checked on the class's first row. All rows of a class give one task
    index. Each name resolves once (a class once per run of its rows) by
    KnowledgeGraph.entity_id, and each relation label to the tuple
    allocation shares (_resolved). The cyclic collector is paused for the
    call, for the whole process (_collector_paused).
    """
    sub = TaskSubgraph(graph)
    reads_back = _reads_back(graph)
    relations_of = graph.relations.memo(_resolved)
    run = None  # the task and class fields of the run of rows being read
    with open(path, encoding="utf-8-sig") as fh:  # -sig drops a leading BOM
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#") or line == _EXPORT_HEADER:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"subgraph line {line_no}: expected 4 fields, got {len(parts)}")
            task_s, cname, rel_s, tail_s = parts
            if run != (task_s, cname):
                if not task_s.strip().isdecimal():  # digits only: no sign, so no negative index
                    raise ValueError(f"subgraph line {line_no}: bad task index {task_s!r}")
                task_index = int(task_s)
                cid = graph.entity_id(cname)
                if cid is None:
                    raise UnknownClass(cname)
                a = sub.assignments.get(cid)
                if a is None:  # the class's first row
                    if not name_opens_no_capture(graph.relations, graph.entities.name(cid)):
                        raise ValueError(f"subgraph line {line_no}: class name {cname!r} holds a keyword")
                    a = sub.assignments[cid] = ClassAssignment(cid, [], task_index)
                elif a.task_index != task_index:
                    raise ValueError(f"subgraph line {line_no}: class {cname!r} is in task {a.task_index}")
                run = task_s, cname
            rels = relations_of[rel_s]
            if rels is None:
                raise ValueError(f"subgraph line {line_no}: unknown relation {rel_s!r}")
            tail = graph.entity_id(tail_s)
            if tail is None:
                raise ValueError(f"subgraph line {line_no}: unknown tail {tail_s!r}")
            if not reads_back(rels, tail):
                raise ValueError(f"subgraph line {line_no}: clause does not read back to its path")
            path = RelationPath(rels, tail)
            owner = sub.pair_to_class.get(path)
            if owner == cid:
                continue  # a repeated row: the class already holds this path
            if owner is not None:
                raise ValueError(f"subgraph line {line_no}: pair already owned by another class")
            a.paths.append(path)
            sub.pair_to_class[path] = cid
    sub.tasks = max((a.task_index for a in sub.assignments.values()), default=-1) + 1
    return sub
