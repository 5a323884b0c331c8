"""One set-up sample in a fresh interpreter.

Usage: ``python3 wsnbench/probe.py WORKLOAD SEED LAUNCH WORKDIR``

``LAUNCH`` is the parent's ``time.monotonic()`` just before it started
this process.  The probe imports what the workload imports, repeats its
per-process set-up (expansion, store creation) in ``WORKDIR`` and prints
the seconds from launch to ready as one JSON line.
"""

import importlib
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]


def main() -> int:
    name, seed, launch, workdir = sys.argv[1:5]
    import workloads

    workload = workloads.WORKLOADS[name]()
    for module in workload.imports:
        importlib.import_module(module)
    workload.setup_base(workloads.Run(int(seed), Path(workdir)))
    print(json.dumps({"setup_s": time.monotonic() - float(launch)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
