"""Fresh-process set-up probe for the ``setup_s`` metric.

Imports ``repro``, builds one workload's specs, device model and engine,
draws its first request, then prints ``ready``.  ``run.py`` times the
span from launching this interpreter to reading that line.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the source path above)


def main() -> None:
    workloads.get(sys.argv[1]).setup(int(sys.argv[2]))
    print("ready", flush=True)


if __name__ == "__main__":
    main()
