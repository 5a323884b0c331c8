"""Telemetry overhead on the vectorized batch hot path.

The acceptance case, written to ``BENCH_obs.json``: enabling the full
telemetry stack -- the metrics registry *and* the span event sink -- on
a **256-scenario** vectorized family batch must cost less than **3%**
wall time over the same batch with telemetry off.

The measurement times interleaved off/on *pairs*, alternating which arm
of a pair runs first, and judges the median of the per-pair on/off
ratios.  Load on a shared host changes over seconds to minutes, so it
slows both runs of a pair alike and cancels in their ratio; a burst that
hits one run of a pair spoils that pair only, and the median over
:data:`PAIRS` pairs ignores a minority of spoiled pairs.  Every run gets
a fresh store and a fresh runner: nothing is served from cache, so each
timed run is the same full simulate-and-persist pass.
"""

import json
import statistics
import time
from dataclasses import replace

import pytest

import repro.obs as obs
from repro.backends import quiet_options
from repro.core.batch import BatchRunner
from repro.obs.state import STATE
from repro.store import ResultStore
from repro.system.stochastic import named_family
from repro.system.vectorized import numpy_available

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="vectorized backend needs NumPy"
)

#: Acceptance batch size (matches the throughput bench).
N_SCENARIOS = 256
#: Family expansion seed: the whole bench is reproducible.
SEED = 42
#: Telemetry may cost at most this fraction of the untelemetered time.
MAX_OVERHEAD = 0.03
#: Interleaved off/on pairs; the median of their on/off ratios is judged.
PAIRS = 15


def _scenarios():
    family = named_family("factory-floor")
    return [
        replace(s, options=quiet_options("envelope"))
        for s in family.expand(n=N_SCENARIOS, seed=SEED)
    ]


def _timed_batch(scenarios, tmp_path, label):
    store = ResultStore(tmp_path / f"{label}.db")
    runner = BatchRunner(
        jobs=1, cache_size=0, backend="vectorized", store=store
    )
    started = time.perf_counter()
    results = runner.run(scenarios)
    elapsed = time.perf_counter() - started
    assert len(results) == N_SCENARIOS
    return elapsed


def _telemetry(on: bool, tmp_path, label: str) -> None:
    STATE.close_sink()
    if on:
        obs.configure(metrics=True, events=str(tmp_path / f"events-{label}.jsonl"))
    else:
        STATE.metrics_on = False
        STATE.sink_path = None


def test_telemetry_overhead_under_three_percent(tmp_path, write_artifact):
    scenarios = _scenarios()
    saved = (STATE.metrics_on, STATE.sink_path)
    off_times, on_times = [], []
    try:
        # One untimed warm-up ahead of the pairs so import costs and
        # allocator warm-up are not charged to the first arm.
        _telemetry(False, tmp_path, "warmup")
        _timed_batch(scenarios, tmp_path, "warmup")
        for i in range(PAIRS):
            times = {}
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                label = f"{'on' if on else 'off'}{i}"
                _telemetry(on, tmp_path, label)
                times[on] = _timed_batch(scenarios, tmp_path, label)
            off_times.append(times[False])
            on_times.append(times[True])
    finally:
        STATE.close_sink()
        STATE.metrics_on, STATE.sink_path = saved

    ratios = [on / off for on, off in zip(on_times, off_times)]
    overhead = statistics.median(ratios) - 1.0

    payload = {
        "n_scenarios": N_SCENARIOS,
        "family": "factory-floor",
        "seed": SEED,
        "pairs": PAIRS,
        "protocol": "interleaved off/on pairs, first arm alternating; "
        "overhead = median(on/off per pair) - 1",
        "telemetry_off_s": [round(t, 4) for t in off_times],
        "telemetry_on_s": [round(t, 4) for t in on_times],
        "pair_ratios": [round(r, 4) for r in ratios],
        "overhead_fraction": round(overhead, 4),
        "max_overhead_fraction": MAX_OVERHEAD,
    }
    write_artifact(
        "BENCH_obs.json", json.dumps(payload, indent=2, sort_keys=True)
    )

    assert overhead < MAX_OVERHEAD, (
        f"telemetry must cost < {MAX_OVERHEAD:.0%} on the vectorized batch "
        f"(median per-pair overhead {overhead:.2%}; pair ratios "
        f"{', '.join(f'{r:.3f}' for r in ratios)})"
    )
