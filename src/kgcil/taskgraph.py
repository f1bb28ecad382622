"""Incremental allocation of exclusive relation-tail paths to classes.

Each class added to a TaskSubgraph is granted up to r distinct
(relation-sequence, tail) pairs. A pair granted once is never granted again,
so matching a pair at inference time identifies exactly one class. Direct
facts are consumed first in (relation id, tail id) order; when they run out,
two-hop chains serve as fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .store import KnowledgeGraph, Record, normalize_name
from .triplet_text import label_reads_back, name_opens_no_capture, tail_reads_back

PairKey = tuple[tuple[int, ...], int]

SUBGRAPH_FORMAT = "kgcil-subgraph v1"
_EXPORT_HEADER = "task\tclass\trelation\ttail"


class UnknownClass(ValueError):
    def __init__(self, name: str):
        super().__init__(f"class name not in graph: {name!r}")
        self.name = name


@dataclass(frozen=True)
class RelationPath:
    """One or two relation ids plus the terminal tail entity."""

    relations: tuple[int, ...]
    tail: int

    @property
    def key(self) -> PairKey:
        return (self.relations, self.tail)


@dataclass
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
        self.pair_to_class: dict[PairKey, int] = {}
        self.tasks = 0

    def class_names(self) -> list[str]:
        """Assigned class names in allocation order."""
        return [self.graph.entities.name(c) for c in self.assignments]


def _candidates(graph: KnowledgeGraph, cid: int):
    """(relations, tail, is_chain) of the direct facts, then of the two-hop chains."""
    for fact in graph.facts_of(cid):
        yield (fact.relation,), fact.tail, False
    for rels, tail in graph.two_hop_facts(cid):
        yield rels, tail, True


def extend_subgraph(subgraph: TaskSubgraph, new_classes, graph: KnowledgeGraph,
                    r_target: int) -> tuple[TaskSubgraph, AllocationReport]:
    """Grant up to r_target unused pairs to each new class, in place.

    Unknown class names are collected in the report rather than raised; they
    end up in both the unknown and shortfall lists. Classes whose direct facts
    are exhausted fall back to two-hop chains; whatever is still missing after
    that is recorded as shortfall. A path is granted only when its rendered
    clause parses back to its own relations and tail, so the text of every
    grant votes for its class: with relations Made, Of and Made_Of, the pair
    (Made, Of) renders as Made_Of and is not granted, nor is a tail `of`. A
    class whose name holds a keyword token is granted nothing, since its name
    leads every clause (see name_opens_no_capture); it is shortfall.
    """
    if r_target < 1:
        raise ValueError(f"r_target must be >= 1, got {r_target}")
    if subgraph.graph is not graph:
        raise ValueError("subgraph belongs to a different graph")
    labels, tails = graph.relations.memo(label_reads_back), graph.relations.memo(tail_reads_back)
    entity_name = graph.entities.name
    task_index = subgraph.tasks
    report = AllocationReport()
    for raw in new_classes:
        name = normalize_name(raw)
        cid = graph.entities.get(name)
        if cid is None:
            report.grants.append(ClassGrant(name, r_target, 0, False, unknown=True))
            report.unknown.append(name)
            report.shortfall.append(name)
            continue
        if cid in subgraph.assignments:
            raise ValueError(f"class already assigned: {name!r}")
        paths: list[RelationPath] = []
        fallback = False
        if name_opens_no_capture(graph.relations, name):
            for rels, tail, chain in _candidates(graph, cid):
                key = (rels, tail)
                if (key in subgraph.pair_to_class or not labels[rels]
                        or not tails[entity_name(tail)]):
                    continue
                paths.append(RelationPath(rels, tail))
                subgraph.pair_to_class[key] = cid
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
    graph = subgraph.graph
    for a in subgraph.assignments.values():
        cname = graph.entities.name(a.class_id)
        for p in a.paths:
            rel = graph.relations.label(p.relations)
            lines.append(f"{a.task_index}\t{cname}\t{rel}\t{graph.entities.name(p.tail)}")
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


def import_subgraph(path, graph: KnowledgeGraph) -> TaskSubgraph:
    """Rebuild a TaskSubgraph from an exported TSV file.

    A row that repeats a (class, pair) the class already holds is skipped.
    """
    sub = TaskSubgraph(graph)
    max_task = -1
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#") or line == _EXPORT_HEADER:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"subgraph line {line_no}: expected 4 fields, got {len(parts)}")
            task_s, cname, rel_s, tail_s = parts
            try:
                task_index = int(task_s)
            except ValueError:
                raise ValueError(f"subgraph line {line_no}: bad task index {task_s!r}") from None
            cid = graph.entities.get(normalize_name(cname))
            if cid is None:
                raise UnknownClass(cname)
            rels = graph.relations.resolve(rel_s)
            if rels is None:
                raise ValueError(f"subgraph line {line_no}: unknown relation {rel_s!r}")
            tail = graph.entities.get(normalize_name(tail_s))
            if tail is None:
                raise ValueError(f"subgraph line {line_no}: unknown tail {tail_s!r}")
            key: PairKey = (rels, tail)
            owner = sub.pair_to_class.get(key)
            if owner == cid:
                continue  # a repeated row: the class already holds this path
            if owner is not None:
                raise ValueError(f"subgraph line {line_no}: pair already owned by another class")
            if cid not in sub.assignments:
                sub.assignments[cid] = ClassAssignment(cid, [], task_index)
            sub.assignments[cid].paths.append(RelationPath(rels, tail))
            sub.pair_to_class[key] = cid
            max_task = max(max_task, task_index)
    sub.tasks = max_task + 1
    return sub
