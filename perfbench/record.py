"""Record the simulated-output fingerprints ``run.py`` checks against.

Runs every input slot of every workload once and writes ``golden.json``.
Re-record only when a change is *meant* to alter simulated results; a
change that only speeds the simulator up must leave this file untouched.

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the source path above)


def main() -> int:
    golden = {}
    for name in workloads.NAMES:
        workload = workloads.get(name)
        entries = {}
        for slot in range(workload.slots):
            inputs = workload.prepare(slot)
            outcome = workload.outcome(inputs, workload.run(inputs))
            if not outcome.conserved:
                raise SystemExit(f"{name} slot {slot}: conservation broken")
            if outcome.sim_tokens <= 0:
                raise SystemExit(f"{name} slot {slot}: no simulated tokens")
            entries[str(slot)] = {
                "fingerprint": outcome.fingerprint,
                "sim_tokens": outcome.sim_tokens,
            }
            print(f"{name} slot {slot}: {outcome.sim_tokens} tokens, "
                  f"{outcome.fingerprint[:12]}", flush=True)
        golden[name] = entries
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
