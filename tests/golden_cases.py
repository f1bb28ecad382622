"""Fixed small runs whose outputs are pinned in tests/fixtures/golden.json.

The fixture holds MetricsReport.comparable() for each case, the
diagnostics.jsonl records of one corrupted run, and `kgcil query` records
for a handful of texts. Inference changes must reproduce all of it bit for
bit. Regenerate (only when a behaviour change is intended) with

    PYTHONPATH=src python tests/golden_cases.py tests/fixtures/golden.json

and list beforehand what a re-pin would move, section by section, with

    PYTHONPATH=src python tests/golden_cases.py --diff
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from kgcil import (
    GeneratorConfig,
    HashingEncoder,
    TaskSchedule,
    TaskSubgraph,
    extend_subgraph,
    infer,
    prediction_record,
    run_experiment,
)
from kgcil.synthetic import class_name, synthetic_graph

FIXTURE = Path(__file__).parent / "fixtures" / "golden.json"

N_CLASSES = 24
NOISY = dict(mode="corrupted", p_drop=0.3, p_swap=0.3, seed=3)

# name -> (generator options, run_experiment keyword arguments)
CASES = {
    "oracle": (dict(mode="oracle"), {}),
    "corrupted": (NOISY, {}),
    "corrupted_filler": (dict(NOISY, filler=True), {}),
    "baseline_gmm": (dict(mode="baseline_gmm", p_hypernym=0.5, seed=3), {}),
    "name_plus_triplets": (dict(NOISY, filler=True), {"class_text_mode": "name_plus_triplets"}),
    "corrupted_jobs2": (dict(NOISY, filler=True), {"jobs": 2}),
}

QUERY_TEXTS = [
    "it Rel00 item_008_2. it Rel01 item_008_3.",
    "class_007 IsA genus_001, Rel02 the hub_004; rel03 HUB_003 and more.",
    "This is a photo of class_011",
    "",
    "it isa_rel00 realm_002; it REL04 Item_018_1. Rel00_Rel00 deep_001_0",
]


def graph():
    # contention and chains give shared tails, two-hop paths and swaps; a
    # 64-dim encoder gives hash collisions and exact score ties
    return synthetic_graph(N_CLASSES, n_relations=6, facts_per_class=4, contention=0.5,
                           with_chains=True, seed=5)


def schedule(samples_per_class: int = 5) -> TaskSchedule:
    return TaskSchedule.b0([class_name(i) for i in range(N_CLASSES)], 3,
                           samples_per_class=samples_per_class)


def _roundtrip(doc):
    return json.loads(json.dumps(doc))


def report_doc(name: str, g=None) -> dict:
    gen_opts, kwargs = CASES[name]
    report = run_experiment(g or graph(), schedule(), GeneratorConfig(**gen_opts), 3,
                            HashingEncoder(64), orders=[0, 1], **kwargs)
    return _roundtrip(report.comparable())


def diagnostics_records(g=None) -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "diagnostics.jsonl"
        run_experiment(g or graph(), schedule(2), GeneratorConfig(**dict(NOISY, filler=True)), 3,
                       HashingEncoder(64), orders=[1], diagnostics_path=path)
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def query_records(g=None) -> list[dict]:
    g = g or graph()
    sub = TaskSubgraph(g)
    extend_subgraph(sub, [class_name(i) for i in range(N_CLASSES)], g, 3)
    enc = HashingEncoder(64)
    out = []
    for text in QUERY_TEXTS:
        pred = infer(text, sub, sub.class_names(), enc)
        out.append(_roundtrip(prediction_record(text, pred, g.relations)))
    return out


def build() -> dict:
    g = graph()
    return {
        "reports": {name: report_doc(name, g) for name in CASES},
        "diagnostics": diagnostics_records(g),
        "query": query_records(g),
    }


def diff_paths(old, new, path: str = ""):
    """JSON key paths (a.b[2].c) where new differs from old, leaves first-seen order."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in {**old, **new}:
            yield from diff_paths(old.get(key), new.get(key), f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from diff_paths(a, b, f"{path}[{i}]")
    elif old != new:
        yield path


def print_diff(old: dict, new: dict) -> None:
    """One line per section (reports.<case>, diagnostics, query): identical, or what moved."""
    sections = [("reports." + name, old["reports"].get(name), new["reports"][name])
                for name in new["reports"]]
    sections += [(key, old.get(key), new[key]) for key in ("diagnostics", "query")]
    for name, a, b in sections:
        moved = list(diff_paths(a, b, name))
        if not moved:
            print(f"{name}: identical")
        else:
            print(f"{name}: {len(moved)} values differ, first {moved[0]}, last {moved[-1]}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        print_diff(json.loads(FIXTURE.read_text(encoding="utf-8")), build())
        sys.exit(0)
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else FIXTURE
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(build(), sort_keys=True) + "\n", encoding="utf-8")
