"""Write ``BENCHMARK.json`` at the repository root.

The contract is generated, never hand-edited: the metrics, their units,
directions and bounds come from ``END_TO_END`` and ``LEDGER`` in
``run.py`` (the same tables the results are printed from), and the
workloads, their reasons and the run length from ``workloads.json``.

    python3 perfbench/contract.py
"""

from __future__ import annotations

import json
import pathlib
import sys

import run

HERE = pathlib.Path(__file__).resolve().parent


def contract() -> dict:
    config = json.loads((HERE / "workloads.json").read_text())
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": config["run_seconds"],
        "workloads": [{"name": name, "why": knobs["why"]}
                      for name, knobs in config["workloads"].items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, (unit, better, bound)
                       in run.END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in run.LEDGER.items()],
    }


def main() -> int:
    text = json.dumps(contract(), indent=2) + "\n"
    (HERE.parent / "BENCHMARK.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
