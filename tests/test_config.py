from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import kgcil

from kgcil.config import RUN_CONFIG_SCHEMA, ConfigError, load_run_config, validate_run_config
from kgcil.harness import CLASS_TEXT_MODES
from kgcil.simulate import MODES


def minimal(**overrides) -> dict:
    doc = {
        "graph_path": "graph.tsv",
        "schedule": {"kind": "b0", "classes": ["a", "b"], "n_tasks": 2},
        "r_target": 3,
        "generator": {"mode": "oracle"},
        "orders": [0],
        "output_dir": "out",
    }
    doc.update(overrides)
    return doc


def integer_keys(schema, path=()):
    """Every key path the schema types as integer; an array's items sit at index 0."""
    if schema.get("type") == "integer":
        yield path
    for key, sub in schema.get("properties", {}).items():
        yield from integer_keys(sub, path + (key,))
    if "items" in schema:
        yield from integer_keys(schema["items"], path + (0,))


class TestValidate:
    def test_minimal_passes(self):
        assert validate_run_config(minimal()) is not None

    def test_enums_are_the_code_tuples(self):
        # the schema reads the tuples the code checks against, so the two cannot drift apart
        props = RUN_CONFIG_SCHEMA["properties"]
        assert props["class_text_mode"]["enum"] == list(CLASS_TEXT_MODES)
        assert props["generator"]["properties"]["mode"]["enum"] == list(MODES)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            validate_run_config([1, 2])

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="r_targetx"):
            validate_run_config(minimal(r_targetx=1))

    def test_unknown_nested_key_named(self):
        doc = minimal(generator={"mode": "oracle", "p_drp": 0.1})
        with pytest.raises(ConfigError, match="p_drp"):
            validate_run_config(doc)

    def test_missing_required_key(self):
        doc = minimal()
        del doc["output_dir"]
        with pytest.raises(ConfigError, match="output_dir"):
            validate_run_config(doc)

    def test_probability_bounds(self):
        doc = minimal(generator={"mode": "corrupted", "p_drop": 1.2})
        with pytest.raises(ConfigError, match="p_drop"):
            validate_run_config(doc)

    def test_classes_and_classes_file_exclusive(self):
        doc = minimal()
        doc["schedule"]["classes_file"] = "classes.txt"
        with pytest.raises(ConfigError, match="exactly one"):
            validate_run_config(doc)
        del doc["schedule"]["classes"]
        assert validate_run_config(doc) is not None

    @pytest.mark.parametrize("kind,missing", [
        ("b0", "n_tasks"),
        ("b100", "base_size"),
        ("fewshot", "base_size"),
    ])
    def test_kind_specific_requirements(self, kind, missing):
        doc = minimal()
        doc["schedule"] = {"kind": kind, "classes": ["a", "b"]}
        with pytest.raises(ConfigError, match=missing):
            validate_run_config(doc)

    def test_empty_orders_rejected(self):
        with pytest.raises(ConfigError, match="orders"):
            validate_run_config(minimal(orders=[]))

    @pytest.mark.parametrize("key,overrides", [
        ("generator/seed", {"generator": {"mode": "corrupted", "seed": -1}}),
        ("orders/1", {"orders": [0, -2]}),
    ], ids=["generator_seed", "orders"])
    def test_negative_seed_rejected_by_key(self, key, overrides):
        with pytest.raises(ConfigError, match=key):
            validate_run_config(minimal(**overrides))

    @pytest.mark.parametrize("path", list(integer_keys(RUN_CONFIG_SCHEMA)),
                             ids=lambda path: "/".join(map(str, path)))
    def test_float_in_integer_key_rejected_by_key(self, path):
        # 2.0 is an integer to JSON Schema, and crashed the run it was let into
        doc = minimal()
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = 2.0
        where = "/".join(map(str, path))
        with pytest.raises(ConfigError, match=f"^{where}: 2.0 is not of type 'integer'$"):
            validate_run_config(doc)

    def test_error_reports_first_by_path(self):
        doc = minimal(generator={"mode": "psychic"}, r_target=0)
        with pytest.raises(ConfigError, match="generator"):
            validate_run_config(doc)


class TestLoad:
    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        sub = tmp_path / "conf"
        sub.mkdir()
        listing = sub / "classes.txt"
        listing.write_text("a\nb\n")
        doc = minimal()
        doc["schedule"] = {"kind": "b0", "classes_file": "classes.txt", "n_tasks": 1}
        path = sub / "run.json"
        path.write_text(json.dumps(doc))
        loaded = load_run_config(path)
        assert loaded["graph_path"] == str(sub / "graph.tsv")
        assert loaded["output_dir"] == str(sub / "out")
        assert loaded["schedule"]["classes_file"] == str(listing)

    def test_absolute_paths_kept(self, tmp_path):
        doc = minimal(graph_path="/data/g.tsv", output_dir="/data/out")
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        loaded = load_run_config(path)
        assert loaded["graph_path"] == "/data/g.tsv"
        assert loaded["output_dir"] == "/data/out"

    def test_invalid_json_surfaces(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            load_run_config(path)


def test_cli_import_leaves_jsonschema_unloaded():
    # jsonschema is imported on the first validation, not with the CLI
    src = os.path.dirname(os.path.dirname(os.path.abspath(kgcil.__file__)))
    code = "import sys, kgcil.cli; print('jsonschema' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_process_pool_unloaded():
    # the process pool is imported only when a run asks for more than one job
    src = os.path.dirname(os.path.dirname(os.path.abspath(kgcil.__file__)))
    code = "import sys, kgcil.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
