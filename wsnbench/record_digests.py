"""Recompute the reference digest table ``digests.json``.

Usage (from the repository root)::

    python3 wsnbench/record_digests.py

For each workload seed 0..15 it records the plain ``run_batch`` row
digests of the campaign manifest and the storeless-``Study`` digest of
every study seed the seed maps to, and replaces the whole table.  Run it
only when a change is meant to alter simulation results; seeds outside
the table are always checked against the plain path computed on the
spot.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]


def main() -> int:
    import check
    import workloads

    table = {"campaign": {}, "study": {}}
    for seed in range(16):
        scenarios = workloads.manifest_scenario_list(workloads.campaign_manifest(seed))
        table["campaign"][str(seed)], _ = check.campaign_reference(scenarios)
        for study_seed in workloads.study_seeds(seed):
            table["study"][str(study_seed)], _ = check.study_reference(study_seed)
        print(f"seed {seed} recorded", file=sys.stderr)
    check.TABLE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
