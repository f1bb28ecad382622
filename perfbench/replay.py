"""Child entry point for a traced replay of a process workload.

    python3 perfbench/replay.py <workload> <state.json> <out.json>

The untraced workload is one fresh `kgcil` process, so its traced replay
runs in a fresh interpreter too: a warm parent process would load and intern
the graph into memory it has already faulted in, and understate the cold
cost. The workload module's replay(state, tracer) returns a JSON-ready
result that includes its own op_s and self_s; this script writes it with the
tracer's spans and counts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib as bl  # noqa: E402


def main(workload: str, state_path: str, out_path: str) -> None:
    sys.path.insert(0, str(bl.SRC))
    state = json.loads(Path(state_path).read_text(encoding="utf-8"))
    tracer = bl.Tracer(True)
    result = __import__(workload).replay(state, tracer)
    Path(out_path).write_text(json.dumps({"tracer": tracer.to_dict(), "result": result}),
                              encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:4])
