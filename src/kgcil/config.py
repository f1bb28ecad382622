"""Run-config loading and strict schema validation.

The config is plain JSON; unknown keys are rejected everywhere so typos fail
fast, and validation errors always name the offending key.
"""

from __future__ import annotations

import functools
import json
import os

from .inference import CLASS_TEXT_MODES
from .simulate import MODES

_PROB = {"type": "number", "minimum": 0.0, "maximum": 1.0}

RUN_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["graph_path", "schedule", "r_target", "generator", "orders", "output_dir"],
    "properties": {
        "graph_path": {"type": "string"},
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["b0", "b100", "fewshot"]},
                "classes": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                "classes_file": {"type": "string"},
                "n_tasks": {"type": "integer", "minimum": 1},
                "base_size": {"type": "integer", "minimum": 1},
                "n_incremental": {"type": "integer", "minimum": 1},
                "way": {"type": "integer", "minimum": 1},
                "shot": {"type": "integer", "minimum": 1, "deprecated": True},  # ignored
                "samples_per_class": {"type": "integer", "minimum": 1},
            },
        },
        "r_target": {"type": "integer", "minimum": 1},
        "generator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": list(MODES)},
                "p_drop": _PROB,
                "p_swap": _PROB,
                "p_hypernym": _PROB,
                "seed": {"type": "integer", "minimum": 0},
                "filler": {"type": "boolean"},
            },
        },
        "encoder": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "id": {"enum": ["hashing"]},
                "dimension": {"type": "integer", "minimum": 1},
            },
        },
        "orders": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
        "output_dir": {"type": "string"},
        "jobs": {"type": "integer", "minimum": 1, "deprecated": True},  # ignored
        "compare_baseline": {"type": "boolean"},
        "class_text_mode": {"enum": list(CLASS_TEXT_MODES)},
        "diagnostics": {"type": "boolean"},
    },
}


@functools.cache
def _validator():
    # imported on first validation: query, ingest, build and bench never
    # validate a config, and jsonschema is a large share of the CLI's import
    from jsonschema import Draft202012Validator, validators

    # JSON Schema's integer admits 2.0, which range() and list indices do not
    checker = Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
    return validators.extend(Draft202012Validator, type_checker=checker)(RUN_CONFIG_SCHEMA)


class ConfigError(ValueError):
    pass


def validate_run_config(doc) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    errors = sorted(_validator().iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"{where}: {err.message}")
    sched = doc["schedule"]
    if ("classes" in sched) == ("classes_file" in sched):
        raise ConfigError("schedule: exactly one of 'classes' or 'classes_file' is required")
    kind = sched["kind"]
    if kind == "b0" and "n_tasks" not in sched:
        raise ConfigError("schedule: 'n_tasks' is required for kind b0")
    if kind == "b100" and not ("base_size" in sched and "n_incremental" in sched):
        raise ConfigError("schedule: 'base_size' and 'n_incremental' are required for kind b100")
    if kind == "fewshot" and "base_size" not in sched:
        raise ConfigError("schedule: 'base_size' is required for kind fewshot")
    return doc


def load_run_config(path) -> dict:
    """Load, validate, and resolve relative paths against the config file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    validate_run_config(doc)
    root = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(root, p)

    doc["graph_path"] = resolve(doc["graph_path"])
    doc["output_dir"] = resolve(doc["output_dir"])
    if "classes_file" in doc["schedule"]:
        doc["schedule"]["classes_file"] = resolve(doc["schedule"]["classes_file"])
    return doc
