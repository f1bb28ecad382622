from __future__ import annotations

import json

import pytest

from kgcil import TaskSchedule
from kgcil.cli import EXIT_INPUT, EXIT_OK, main, parse_classes_file
from kgcil.synthetic import class_name, synthetic_facts, write_tsv

FRUIT_GOLDEN_EXPORT = (
    "# kgcil-subgraph v1\n"
    "task\tclass\trelation\ttail\n"
    "0\tgranny_smith\tIsA\tfruit\n"
    "0\tgranny_smith\tReceiveAction\teaten\n"
    "1\tpineapple\tAtLocation\tstore\n"
    "1\tpineapple\tAtLocation\tpizza\n"
)


@pytest.fixture
def synth_tsv(tmp_path):
    path = tmp_path / "graph.tsv"
    write_tsv(synthetic_facts(12, n_relations=6, facts_per_class=4, seed=2), path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassesFile:
    def test_blocks_split_on_blank_lines(self, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_text("# base task\na\nb\n\nc\n\n\nd\ne\n")
        assert parse_classes_file(path) == [["a", "b"], ["c"], ["d", "e"]]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_text("# nothing here\n\n")
        assert parse_classes_file(path) == []


class TestIngest:
    def test_stats_json(self, capsys, fruit_tsv):
        code, out, _ = run_cli(capsys, "ingest", str(fruit_tsv))
        assert code == EXIT_OK
        stats = json.loads(out)
        assert stats == {"entities": 6, "relations": 3, "facts": 6,
                         "duplicates_dropped": 0, "self_loops_dropped": 0}

    def test_malformed_line_reported(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tIsA\tb\nbroken line\n")
        code, out, err = run_cli(capsys, "ingest", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "ingest", str(tmp_path / "absent.tsv"))
        assert code == EXIT_INPUT
        assert err != ""


class TestBuild:
    def test_golden_export(self, capsys, fruit_tsv, tmp_path):
        classes = tmp_path / "classes.txt"
        classes.write_text("granny_smith\n\npineapple\n")
        out_path = tmp_path / "sub.tsv"
        code, out, _ = run_cli(capsys, "build", "--graph", str(fruit_tsv),
                               "--classes", str(classes), "--r", "2",
                               "--out", str(out_path))
        assert code == EXIT_OK
        assert out_path.read_text() == FRUIT_GOLDEN_EXPORT
        report = json.loads(out)
        assert report["tasks"] == 2
        assert report["unknown"] == []
        assert {g["name"]: g["granted"] for g in report["grants"]} == {
            "granny_smith": 2, "pineapple": 2}

    def test_shortfall_reported(self, capsys, fruit_tsv, tmp_path):
        classes = tmp_path / "classes.txt"
        classes.write_text("granny_smith\n")
        code, out, _ = run_cli(capsys, "build", "--graph", str(fruit_tsv),
                               "--classes", str(classes), "--r", "9",
                               "--out", str(tmp_path / "sub.tsv"))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["shortfall"] == ["granny_smith"]

    def test_unknown_class_lenient_vs_strict(self, capsys, fruit_tsv, tmp_path):
        classes = tmp_path / "classes.txt"
        classes.write_text("granny_smith\nunicorn\n")
        out_path = tmp_path / "sub.tsv"
        code, out, err = run_cli(capsys, "build", "--graph", str(fruit_tsv),
                                 "--classes", str(classes), "--out", str(out_path))
        assert code == EXIT_OK
        assert json.loads(out)["unknown"] == ["unicorn"]
        assert "unicorn" in err

        strict_path = tmp_path / "strict.tsv"
        code, out, err = run_cli(capsys, "build", "--graph", str(fruit_tsv),
                                 "--classes", str(classes), "--out", str(strict_path),
                                 "--strict")
        assert code == EXIT_INPUT
        assert not strict_path.exists()

    def test_empty_classes_file_warns(self, capsys, fruit_tsv, tmp_path):
        classes = tmp_path / "classes.txt"
        classes.write_text("\n")
        out_path = tmp_path / "sub.tsv"
        code, out, err = run_cli(capsys, "build", "--graph", str(fruit_tsv),
                                 "--classes", str(classes), "--out", str(out_path))
        assert code == EXIT_OK
        assert "no classes" in err
        assert json.loads(out)["tasks"] == 0


class TestRun:
    def write_config(self, tmp_path, graph_path, **overrides):
        doc = {
            "graph_path": str(graph_path),
            "schedule": {"kind": "b0", "classes": [class_name(i) for i in range(12)],
                         "n_tasks": 3, "samples_per_class": 3},
            "r_target": 3,
            "generator": {"mode": "oracle"},
            "orders": [0, 1],
            "output_dir": str(tmp_path / "out"),
            "jobs": 1,
        }
        doc.update(overrides)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        return path

    def test_oracle_run_end_to_end(self, capsys, synth_tsv, tmp_path):
        cfg = self.write_config(tmp_path, synth_tsv)
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_OK
        metrics = json.loads(out)
        assert metrics["summary"]["last"]["mean"] == 1.0
        assert "simulated description generator" in metrics["caveat"]
        assert "simulated description generator" in err

        on_disk = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert on_disk["summary"] == metrics["summary"]
        csv_lines = (tmp_path / "out" / "sessions.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 2 * 3  # header + orders x sessions

    def test_comparison_block(self, capsys, synth_tsv, tmp_path):
        cfg = self.write_config(
            tmp_path, synth_tsv, compare_baseline=True,
            generator={"mode": "corrupted", "p_drop": 0.3, "p_swap": 0.3, "seed": 1},
            orders=[0],
        )
        code, out, _ = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_OK
        metrics = json.loads(out)
        assert metrics["comparison"]["margins"]["avg"] > 0
        csv_text = (tmp_path / "out" / "sessions.csv").read_text()
        assert "baseline" in csv_text and "augmented" in csv_text

    def test_schema_violation_names_key(self, capsys, synth_tsv, tmp_path):
        cfg = self.write_config(tmp_path, synth_tsv, r_targetx=3)
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_INPUT
        assert out == ""
        assert "r_targetx" in err

    def test_diagnostics_written(self, capsys, synth_tsv, tmp_path):
        cfg = self.write_config(tmp_path, synth_tsv, diagnostics=True, orders=[0])
        code, _, _ = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_OK
        lines = (tmp_path / "out" / "diagnostics.jsonl").read_text().splitlines()
        assert lines and all(json.loads(line)["true_class"] for line in lines)

    def test_classes_file_schedule(self, capsys, synth_tsv, tmp_path):
        listing = tmp_path / "classes.txt"
        listing.write_text("".join(f"{class_name(i)}\n" for i in range(12)))
        cfg = self.write_config(
            tmp_path, synth_tsv,
            schedule={"kind": "b0", "classes_file": str(listing), "n_tasks": 2,
                      "samples_per_class": 2},
        )
        code, out, _ = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_OK
        assert json.loads(out)["summary"]["last"]["mean"] == 1.0

    # kind -> (the kind's config keys, the same schedule built with TaskSchedule's defaults)
    SCHEDULES = {
        "b0": ({"n_tasks": 3}, lambda c: TaskSchedule.b0(c, 3, samples_per_class=2)),
        "b100": ({"base_size": 6, "n_incremental": 3},
                 lambda c: TaskSchedule.b100(c, 6, 3, samples_per_class=2)),
        "fewshot": ({"base_size": 2}, lambda c: TaskSchedule.fewshot(c, 2, samples_per_class=2)),
    }

    @pytest.mark.parametrize("source", ["classes", "classes_file"])
    @pytest.mark.parametrize("kind", sorted(SCHEDULES))
    def test_schedule_echo_per_kind(self, capsys, synth_tsv, tmp_path, kind, source):
        classes = [class_name(i) for i in range(12)]
        keys, expected = self.SCHEDULES[kind]
        schedule = {"kind": kind, **keys, "samples_per_class": 2}
        if source == "classes":
            schedule["classes"] = classes
        else:
            listing = tmp_path / "classes.txt"
            listing.write_text("\n".join(classes[:6]) + "\n\n" + "\n".join(classes[6:]) + "\n")
            schedule["classes_file"] = str(listing)
        cfg = self.write_config(tmp_path, synth_tsv, schedule=schedule, orders=[0])
        code, _, _ = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_OK
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert metrics["config"]["schedule"] == expected(classes).to_dict()

    def test_unfillable_schedule_is_input_error(self, capsys, synth_tsv, tmp_path):
        cfg = self.write_config(tmp_path, synth_tsv, schedule={
            "kind": "b0", "classes": [class_name(i) for i in range(12)], "n_tasks": 13})
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_INPUT
        assert out == ""
        assert "n_tasks" in err

    def test_deprecated_shot_is_ignored(self, capsys, synth_tsv, tmp_path):
        cfg = self.write_config(
            tmp_path, synth_tsv, orders=[0],
            schedule={"kind": "fewshot", "classes": [class_name(i) for i in range(12)],
                      "base_size": 2, "way": 5, "shot": 1, "samples_per_class": 2},
        )
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_OK
        assert "shot" not in json.loads(out)["config"]["schedule"]
        assert err.count("'shot' is deprecated and ignored") == 1


class TestKeyOrder:
    """The printed key order of every record, which sort_keys in the golden fixture leaves unpinned."""

    def test_ingest_build_and_run_key_order(self, capsys, synth_tsv, tmp_path):
        code, out, _ = run_cli(capsys, "ingest", str(synth_tsv))
        assert code == EXIT_OK
        assert list(json.loads(out)) == [
            "entities", "relations", "facts", "duplicates_dropped", "self_loops_dropped"]

        classes = tmp_path / "classes.txt"
        classes.write_text(f"{class_name(0)}\nunicorn\n")
        code, out, _ = run_cli(capsys, "build", "--graph", str(synth_tsv), "--classes",
                               str(classes), "--out", str(tmp_path / "sub.tsv"))
        assert code == EXIT_OK
        report = json.loads(out)
        assert list(report) == ["tasks", "export", "grants", "shortfall", "unknown"]
        assert list(report["export"]) == ["path", "classes", "paths", "bytes"]
        for grant in report["grants"]:
            assert list(grant) == ["name", "requested", "granted", "fallback_used", "unknown"]

        cfg = TestRun().write_config(tmp_path, synth_tsv, compare_baseline=True, orders=[0])
        code, out, _ = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_OK
        on_disk = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert json.loads(out) == on_disk
        for doc in (on_disk, on_disk["comparison"]["baseline"]):
            assert list(doc)[:4] == ["caveat", "config", "orders", "summary"]
            config = doc["config"]
            assert list(config)[:6] == ["generator", "r_target", "orders", "schedule", "encoder",
                                        "class_text_mode"]
            assert list(config["generator"]) == ["mode", "p_drop", "p_swap", "p_hypernym",
                                                 "seed", "filler"]
            assert list(config["schedule"]) == ["kind", "classes", "n_tasks", "base_size",
                                                "n_incremental", "way", "samples_per_class"]
            order = doc["orders"][0]
            assert list(order) == ["seed", "sessions", "avg", "last", "pd", "hacc"]
            for session in order["sessions"]:
                assert list(session) == ["index", "new_classes", "per_class", "accuracy",
                                         "base_accuracy", "generation_ms", "vote_ms",
                                         "classify_ms", "subgraph_bytes"]
        assert list(on_disk)[4:] == ["comparison"]
        assert list(on_disk["comparison"]) == ["baseline", "margins"]
        header = (tmp_path / "out" / "sessions.csv").read_text().splitlines()[0]
        assert header == ("arm,order_seed,session,n_seen,accuracy,base_accuracy,"
                          "generation_ms,vote_ms,classify_ms,subgraph_bytes")


class TestQuery:
    @pytest.fixture
    def built(self, capsys, fruit_tsv, tmp_path):
        classes = tmp_path / "classes.txt"
        classes.write_text("granny_smith\npineapple\n")
        sub = tmp_path / "sub.tsv"
        assert main(["build", "--graph", str(fruit_tsv), "--classes", str(classes),
                     "--r", "2", "--out", str(sub)]) == EXIT_OK
        capsys.readouterr()
        return fruit_tsv, sub

    def test_vote_drives_prediction(self, capsys, built):
        graph, sub = built
        code, out, _ = run_cli(capsys, "query", "--graph", str(graph),
                               "--subgraph", str(sub),
                               "it AtLocation store. it AtLocation pizza.")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["graph_head"] == "pineapple"
        assert rec["final_class"] == "pineapple"
        assert rec["tally"] == {"pineapple": 2}

    def test_keywordless_text_still_answers(self, capsys, built):
        graph, sub = built
        code, out, _ = run_cli(capsys, "query", "--graph", str(graph),
                               "--subgraph", str(sub), "This is a photo of a apple")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["graph_head"] is None
        assert rec["final_class"] == "granny_smith"
        assert rec["similarity_tie"] is True

    def test_missing_subgraph(self, capsys, built, tmp_path):
        graph, _ = built
        code, _, err = run_cli(capsys, "query", "--graph", str(graph),
                               "--subgraph", str(tmp_path / "absent.tsv"), "text")
        assert code == EXIT_INPUT
        assert err != ""

    def test_empty_subgraph_is_input_error(self, capsys, fruit_tsv, tmp_path):
        classes = tmp_path / "classes.txt"
        classes.write_text("\n")
        sub = tmp_path / "empty.tsv"
        assert main(["build", "--graph", str(fruit_tsv), "--classes", str(classes),
                     "--out", str(sub)]) == EXIT_OK
        capsys.readouterr()
        code, _, err = run_cli(capsys, "query", "--graph", str(fruit_tsv),
                               "--subgraph", str(sub), "anything")
        assert code == EXIT_INPUT
        assert "no classes" in err


class TestBenchCommand:
    def test_tsv_output(self, capsys, synth_tsv, tmp_path):
        classes = tmp_path / "classes.txt"
        classes.write_text("".join(f"{class_name(i)}\n" for i in range(6)))
        sub = tmp_path / "sub.tsv"
        assert main(["build", "--graph", str(synth_tsv), "--classes", str(classes),
                     "--out", str(sub)]) == EXIT_OK
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "bench", "--graph", str(synth_tsv),
                               "--subgraph", str(sub), "-n", "20", "--seed", "3")
        assert code == EXIT_OK
        rows = dict(line.split("\t") for line in out.strip().splitlines()[1:])
        assert rows["samples"] == "20"
        assert rows["classes"] == "6"
        assert float(rows["generation_ms"]) > 0

    def test_stage_rows_are_session_columns(self, capsys, synth_tsv, tmp_path):
        classes = tmp_path / "classes.txt"
        classes.write_text("".join(f"{class_name(i)}\n" for i in range(12)))
        sub = tmp_path / "sub.tsv"
        assert main(["build", "--graph", str(synth_tsv), "--classes", str(classes),
                     "--out", str(sub)]) == EXIT_OK
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "bench", "--graph", str(synth_tsv),
                               "--subgraph", str(sub), "-n", "30")
        assert code == EXIT_OK
        metrics = [line.split("\t")[0] for line in out.splitlines()]
        stages = [m for m in metrics if m.endswith("_ms")]
        assert stages == ["generation_ms", "vote_ms", "classify_ms"]
        cfg = TestRun().write_config(tmp_path, synth_tsv, orders=[0])
        assert main(["run", str(cfg)]) == EXIT_OK
        header = (tmp_path / "out" / "sessions.csv").read_text().splitlines()[0].split(",")
        assert set(stages) <= set(header)
