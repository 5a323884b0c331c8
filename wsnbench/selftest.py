"""Self-tests of the benchmark itself.

Usage (from the repository root)::

    python3 wsnbench/selftest.py

1. **Output check.**  One stored payload byte is corrupted after each
   timed ``campaign-cold`` path: ``passed_fraction`` must drop below 1
   and the exit code must be non-zero.
2. **Held-out seed.**  A seed outside ``digests.json`` runs end to end,
   its references computed by the plain path on the spot.
3. **Exact counts.**  Each in-process workload runs traced twice on one
   seed; every metric declared exact must come out identical.
4. **Layer-table consistency.**  Every traced run above, plus a traced
   ``coord-2w`` run, must pass the checks ``run.py`` makes itself: every
   top-level span is a root span on the main thread, layer self times
   plus ``unattributed_s`` sum to the traced wall, and ``campaign-warm``
   spends ~0 in ``system.vectorized.run_batch``.

Runs take the minimum iteration counts, so the whole suite needs a few
minutes.  Exits non-zero when any check fails.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import check  # noqa: E402
import workloads  # noqa: E402

#: Metrics that count work, not time: identical on every run of a seed.
EXACT_LAYER = (
    "scenario.cache_key_calls", "store.db.puts", "store.db.gets",
    "store.campaign.chunks", "system.envelope.simulations",
    "optimize.surface_evals", "store.merge.rows",
)


def invoke(workload: str, seed: int, trace: int, corrupt: bool = False):
    args = run.parse_args([
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace),
    ])
    return run.execute(args, corrupt=corrupt)


def main() -> int:
    failures = []

    def expect(condition: bool, what: str) -> None:
        print(f"{'ok  ' if condition else 'FAIL'} {what}", flush=True)
        if not condition:
            failures.append(what)

    code, result, _ = invoke("campaign-cold", 0, 0, corrupt=True)
    fraction = result["metrics"]["passed_fraction"]["value"]
    expect(fraction < 1.0, f"corrupt payload lowers passed_fraction ({fraction:.4f})")
    expect(code != 0, f"corrupt payload makes the exit code non-zero ({code})")

    held_out = 1000
    assert check.recorded_campaign(held_out) is None
    code, result, _ = invoke("campaign-cold", held_out, 0)
    expect(code == 0 and result["failed"] == 0,
           f"held-out seed {held_out} passes against the plain path")

    for name in ("campaign-cold", "campaign-warm", "study-paper"):
        seen = []
        for _ in range(2):
            code, result, observed = invoke(name, 1, 1)
            expect(code == 0, f"{name}: traced run passes its output and layer checks")
            values = {m: result["metrics"][m]["value"] for m in EXACT_LAYER}
            values["unsaved_max"] = observed.unsaved_max()
            values["store_bytes_per_scenario"] = observed.store_bytes_per_row()
            seen.append(values)
        for metric in seen[0]:
            expect(seen[0][metric] == seen[1][metric],
                   f"{name}: {metric} is exact ({seen[0][metric]} / {seen[1][metric]})")

    code, result, _ = invoke("coord-2w", 1, 1)
    expect(code == 0, "coord-2w: traced run passes its output and layer checks")
    expect(result["metrics"]["store.merge.rows"]["value"] == workloads.N_SCENARIOS,
           "coord-2w: every row merged once per iteration")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
