from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

from kgcil import (
    BenchReport,
    GeneratorConfig,
    HashingEncoder,
    MetricsReport,
    NoAssignment,
    OrderResult,
    SessionResult,
    TaskSchedule,
    TaskSubgraph,
    TextGenerator,
    UnknownClass,
    bench,
    compute_hacc,
    compute_pd,
    extend_subgraph,
    run_experiment,
    run_paired_comparison,
)
from kgcil.harness import SIMULATION_CAVEAT, _even_chunks
from kgcil.synthetic import class_name, synthetic_graph


def order_of(report: MetricsReport, seed: int = 0) -> OrderResult:
    return next(o for o in report.orders if o.seed == seed)


class TestSchedule:
    def test_b0_even_partition(self):
        classes = [class_name(i) for i in range(10)]
        sched = TaskSchedule.b0(classes, 4)
        parts = sched.split(classes)
        assert [len(p) for p in parts] == [3, 3, 2, 2]
        assert sum(parts, []) == classes

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_samples_per_class_below_one(self, samples):
        # 0 once divided by zero in the run, and -1 gave zero accuracies over totals of -1
        with pytest.raises(ValueError, match=f"samples_per_class must be >= 1, got {samples}"):
            TaskSchedule.b0([class_name(i) for i in range(6)], 2, samples_per_class=samples)

    def test_b0_rejects_too_many_tasks(self):
        with pytest.raises(ValueError):
            TaskSchedule.b0(["a", "b"], 3)

    def test_b100_sizes(self):
        classes = [class_name(i) for i in range(200)]
        sched = TaskSchedule.b100(classes, 100, 10)
        parts = sched.split(classes)
        assert len(parts) == 11
        assert len(parts[0]) == 100
        assert all(len(p) == 10 for p in parts[1:])

    def test_b100_rejects_overdraw(self):
        with pytest.raises(ValueError):
            TaskSchedule.b100(["a", "b", "c"], 2, 2)

    def test_fewshot_default_shape(self):
        classes = [class_name(i) for i in range(100)]
        sched = TaskSchedule.fewshot(classes)
        parts = sched.split(classes)
        assert len(parts[0]) == 60
        assert len(parts) == 9
        assert all(len(p) == 5 for p in parts[1:])

    def test_fewshot_rejects_ragged_tail(self):
        with pytest.raises(ValueError):
            TaskSchedule.fewshot([class_name(i) for i in range(63)], base_size=60, way=5)

    @pytest.mark.parametrize("n,k", [(1, 1), (7, 3), (12, 5), (9, 9)])
    def test_even_chunks_partition(self, n, k):
        items = [str(i) for i in range(n)]
        parts = _even_chunks(items, k)
        assert sum(parts, []) == items
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1


class TestMetricFormulas:
    def test_hacc_equal_is_identity(self):
        assert compute_hacc(0.8, 0.8) == 0.8

    def test_hacc_zero_base_kills_score(self):
        assert compute_hacc(1.0, 0.0) == 0.0
        assert compute_hacc(0.0, 0.0) == 0.0

    def test_hacc_harmonic_mean(self):
        assert compute_hacc(0.9, 0.6) == pytest.approx(0.72)

    def test_pd_exact(self):
        assert compute_pd(91.32, 77.82) == 13.50

    def test_pd_close(self):
        assert compute_pd(58.08, 54.95) == pytest.approx(3.13)

    def test_avg_and_last(self):
        sessions = [
            SessionResult(i, [], {}, acc, acc, 0.0, 0.0, 0.0, 0)
            for i, acc in enumerate([0.80, 0.70, 0.60])
        ]
        order = OrderResult(seed=0, sessions=sessions)
        assert order.avg == pytest.approx(0.70)
        assert order.last == 0.60
        assert order.pd == pytest.approx(0.20)

    def test_order_needs_a_session(self):
        with pytest.raises(ValueError, match="an order needs at least one session"):
            OrderResult(0, [])

    def test_population_std(self):
        sessions_a = [SessionResult(0, [], {}, 0.8, 0.8, 0.0, 0.0, 0.0, 0)]
        sessions_b = [SessionResult(0, [], {}, 0.6, 0.6, 0.0, 0.0, 0.0, 0)]
        report = MetricsReport(orders=[
            OrderResult(0, sessions_a), OrderResult(1, sessions_b),
        ])
        stats = report.summary()["last"]
        assert stats["mean"] == pytest.approx(0.7)
        assert stats["std"] == pytest.approx(0.1)


@pytest.fixture(scope="module")
def small_graph():
    return synthetic_graph(12, n_relations=6, facts_per_class=4, seed=2)


@pytest.fixture(scope="module")
def small_schedule():
    return TaskSchedule.b0([class_name(i) for i in range(12)], 3, samples_per_class=4)


class TestRunExperiment:
    def test_oracle_is_perfect(self, small_graph, small_schedule):
        report = run_experiment(
            small_graph, small_schedule, GeneratorConfig(mode="oracle"),
            3, HashingEncoder(128), orders=[0, 1],
        )
        stats = report.summary()
        assert stats["avg"]["mean"] == 1.0
        assert stats["last"]["mean"] == 1.0
        assert stats["pd"]["mean"] == 0.0
        assert stats["hacc"]["mean"] == 1.0

    def test_session_bookkeeping(self, small_graph, small_schedule):
        report = run_experiment(
            small_graph, small_schedule, GeneratorConfig(mode="oracle"),
            2, HashingEncoder(64), orders=[5],
        )
        order = order_of(report, 5)
        assert [len(s.per_class) for s in order.sessions] == [4, 8, 12]
        assert [len(s.new_classes) for s in order.sessions] == [4, 4, 4]
        sizes = [s.subgraph_bytes for s in order.sessions]
        assert sizes == sorted(sizes) and sizes[0] > 0
        for s in order.sessions:
            assert all(v[1] == 4 for v in s.per_class.values())

    def test_orders_shuffle_classes(self, small_graph, small_schedule):
        report = run_experiment(
            small_graph, small_schedule, GeneratorConfig(mode="oracle"),
            2, HashingEncoder(64), orders=[0, 1],
        )
        first = [o.sessions[0].new_classes for o in report.orders]
        assert first[0] != first[1]

    def test_unknown_class_rejected(self, small_graph):
        sched = TaskSchedule.b0(["class_000", "martian"], 1)
        with pytest.raises(UnknownClass):
            run_experiment(small_graph, sched, GeneratorConfig(), 2,
                           HashingEncoder(64), orders=[0])

    def test_empty_orders_rejected(self, small_graph, small_schedule):
        with pytest.raises(ValueError):
            run_experiment(small_graph, small_schedule, GeneratorConfig(), 2,
                           HashingEncoder(64), orders=[])

    def test_seed_stability(self, small_graph, small_schedule):
        cfg = GeneratorConfig(p_drop=0.3, p_swap=0.2, seed=9)
        a = run_experiment(small_graph, small_schedule, cfg, 3,
                           HashingEncoder(128), orders=[0, 1])
        b = run_experiment(small_graph, small_schedule, cfg, 3,
                           HashingEncoder(128), orders=[0, 1])
        assert a.comparable() == b.comparable()

    def test_diagnostics_jsonl(self, small_graph, small_schedule, tmp_path):
        path = tmp_path / "preds.jsonl"
        report = run_experiment(
            small_graph, small_schedule, GeneratorConfig(mode="oracle"),
            2, HashingEncoder(64), orders=[0], diagnostics_path=path,
        )
        lines = path.read_text().splitlines()
        want = sum(len(s.per_class) * 4 for s in report.orders[0].sessions)
        assert len(lines) == want
        rec = json.loads(lines[0])
        for key in ("raw_text", "final_class", "true_class", "session", "order_seed"):
            assert key in rec

    @pytest.mark.parametrize("order", [1, 2])
    def test_records_replay_one_key_generate(self, small_graph, small_schedule, tmp_path,
                                             order):
        # the sample address a per-sample replay relies on: record s of class c in
        # session t is row s of stream (t, c), as a one-key generate() draws it
        cfg = GeneratorConfig(p_drop=0.3, p_swap=0.3, seed=6, filler=True)
        path = tmp_path / "diagnostics.jsonl"
        run_experiment(small_graph, small_schedule, cfg, 3, HashingEncoder(64), orders=[order],
                       diagnostics_path=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        names = small_schedule.classes
        ordered = [names[i] for i in np.random.default_rng(order).permutation(len(names))]
        sub = TaskSubgraph(small_graph)
        checked = 0
        for t, new in enumerate(small_schedule.split(ordered)):
            extend_subgraph(sub, new, small_graph, 3)
            gen = TextGenerator(small_graph, sub, cfg)
            for rec in (r for r in records if r["session"] == t):
                cid = small_graph.entities.get(rec["true_class"])
                key = (t, cid, rec["sample"])
                try:
                    want = gen.generate(cid, key)
                except NoAssignment:
                    want = gen.baseline_text(cid, key)
                assert rec["raw_text"] == want
                checked += 1
        assert checked == len(records) == 4 * (4 + 8 + 12)

    def test_class_without_paths_runs_on_bare_captions(self, tmp_path):
        # item_000_0 has no outgoing facts, so allocation grants it no path
        graph = synthetic_graph(8, seed=0)
        names = [class_name(i) for i in range(7)] + ["item_000_0"]
        sched = TaskSchedule.b0(names, 2, samples_per_class=3)
        cfg = GeneratorConfig(p_drop=0.3, p_swap=0.3, seed=1)
        path = tmp_path / "diagnostics.jsonl"
        report = run_experiment(graph, sched, cfg, 2, HashingEncoder(64), orders=[0],
                                diagnostics_path=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        item = [r["raw_text"] for r in records if r["true_class"] == "item_000_0"]
        assert item and set(item) == {"This is a photo of item_000_0"}
        assert "item_000_0" in report.orders[0].sessions[-1].per_class

    def test_report_carries_caveat_and_config(self, small_graph, small_schedule):
        report = run_experiment(
            small_graph, small_schedule, GeneratorConfig(mode="oracle"),
            2, HashingEncoder(64), orders=[3],
        )
        doc = report.to_dict()
        assert doc["caveat"] == SIMULATION_CAVEAT
        assert doc["config"]["r_target"] == 2
        assert doc["config"]["orders"] == [3]
        json.dumps(doc)

    def test_session_rows_csv_shape(self, small_graph, small_schedule):
        report = run_experiment(
            small_graph, small_schedule, GeneratorConfig(mode="oracle"),
            2, HashingEncoder(64), orders=[0, 1],
        )
        rows = report.session_rows()
        assert len(rows) == 6
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        back = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(back) == 6
        assert back[0]["arm"] == "augmented"

    def test_name_plus_triplets_mode_runs(self, small_graph, small_schedule):
        report = run_experiment(
            small_graph, small_schedule, GeneratorConfig(mode="oracle"),
            2, HashingEncoder(128), orders=[0], class_text_mode="name_plus_triplets",
        )
        assert report.summary()["last"]["mean"] == 1.0

    def test_bad_class_text_mode(self, small_graph, small_schedule, tmp_path):
        diag = tmp_path / "diagnostics.jsonl"
        diag.write_text('{"kept": true}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="class_text_mode"):
            run_experiment(small_graph, small_schedule, GeneratorConfig(mode="oracle"),
                           2, HashingEncoder(64), orders=[0], class_text_mode="vibes",
                           diagnostics_path=diag)
        assert diag.read_text(encoding="utf-8") == '{"kept": true}\n'  # checked before it opens


class TestPairedComparison:
    def test_augmented_beats_baseline_under_noise(self, small_graph, small_schedule):
        result = run_paired_comparison(
            small_graph, small_schedule, GeneratorConfig(p_drop=0.3, p_swap=0.3, seed=1),
            3, HashingEncoder(128), orders=[0, 1],
        )
        assert result["margins"]["avg"] > 0
        assert result["margins"]["last"] > 0
        base_cfg = result["baseline"].config["generator"]
        assert base_cfg["mode"] == "baseline_gmm"
        assert base_cfg["p_hypernym"] == pytest.approx(0.6)


class TestBench:
    def test_empty_subgraph_zeros(self, small_graph):
        report = bench(small_graph, TaskSubgraph(small_graph), n_samples=10)
        assert report.classes == 0
        assert report.generation_ms == 0.0
        assert report.storage_mb == 0.0
        assert report.to_tsv() == (
            "metric\tvalue\n"
            "samples\t10\n"
            "classes\t0\n"
            "mean_paths_per_class\t0.00\n"
            "avg_text_length_chars\t0.0\n"
            "generation_ms\t0.0000\n"
            "vote_ms\t0.0000\n"
            "classify_ms\t0.0000\n"
            "storage_mb\t0.0000\n"
            "seed\t0\n"
        )

    def test_tsv_rows_follow_the_fields(self):
        report = BenchReport(samples=1000, classes=200, mean_paths_per_class=2.9951,
                             avg_text_length_chars=179.46, generation_ms=1.04771,
                             vote_ms=0.067449, classify_ms=0.13886, storage_mb=0.01704, seed=2)
        assert report.to_tsv() == (
            "metric\tvalue\n"
            "samples\t1000\n"
            "classes\t200\n"
            "mean_paths_per_class\t3.00\n"
            "avg_text_length_chars\t179.5\n"
            "generation_ms\t1.0477\n"
            "vote_ms\t0.0674\n"
            "classify_ms\t0.1389\n"
            "storage_mb\t0.0170\n"
            "seed\t2\n"
        )

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_rejects_samples_below_one(self, small_graph, n_samples):
        sub = TaskSubgraph(small_graph)
        extend_subgraph(sub, [class_name(i) for i in range(6)], small_graph, 3)
        with pytest.raises(ValueError, match=f"n_samples must be >= 1, got {n_samples}"):
            bench(small_graph, sub, n_samples=n_samples)

    def test_populated_report(self, small_graph):
        sub = TaskSubgraph(small_graph)
        extend_subgraph(sub, [class_name(i) for i in range(6)], small_graph, 3)
        report = bench(small_graph, sub, n_samples=50, seed=1)
        assert report.samples == 50
        assert report.classes == 6
        assert report.mean_paths_per_class == pytest.approx(3.0)
        assert report.generation_ms > 0.0
        assert report.vote_ms > 0.0
        assert report.classify_ms > 0.0
        assert report.storage_mb > 0.0
        tsv = report.to_tsv()
        lines = tsv.strip().splitlines()
        assert lines[0] == "metric\tvalue"
        assert len(lines) == 10
        assert all(len(line.split("\t")) == 2 for line in lines)
