"""Output checks: storage-format-independent digests and their references.

A digest is taken over a projection of *decoded* results, never over
stored bytes, so a change to the row format that keeps the results
keeps the digests:

- a simulation result projects to its transmissions, final voltage,
  energy breakdown, tuning events and every trace's samples as float64
  bytes (:func:`result_digest`);
- a study projects to its design matrix, responses, original-design
  value, optima, and the sorted digests of its stored rows
  (:func:`study_digest`).

References come from the simplest path: one plain
``repro.backends.run_batch`` of the manifest, and a storeless ``Study``.
``digests.json`` records them for the seeds in its table; any other seed
is computed by that plain path in the same invocation, after the timed
region (:func:`campaign_reference`, :func:`study_reference`).
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from dataclasses import astuple, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

TABLE = Path(__file__).with_name("digests.json")


def result_digest(result) -> str:
    """16-hex digest of one decoded ``SystemResult``'s projection."""
    h = hashlib.sha256()
    h.update(struct.pack("<qd", int(result.transmissions), float(result.final_voltage)))
    breakdown = result.breakdown
    h.update(
        np.array(
            [getattr(breakdown, f.name) for f in fields(breakdown)], dtype="<f8"
        ).tobytes()
    )
    h.update(struct.pack("<q", len(result.tuning_events)))
    for event in result.tuning_events:
        h.update(struct.pack("<3d", event.time, event.duration, event.energy))
        h.update(repr(astuple(event.result)).encode())
    names = result.traces.names()
    h.update(struct.pack("<q", len(names)))
    for name in names:
        trace = result.traces[name]
        h.update(name.encode() + b"\0" + struct.pack("<q", len(trace)))
        h.update(np.asarray(trace.times, dtype="<f8").tobytes())
        h.update(np.asarray(trace.values, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def study_digest(outcome, row_digests: List[str]) -> str:
    """Digest of one study: its outcome plus its rows' digests."""
    h = hashlib.sha256()
    h.update(np.asarray(outcome.design.points, dtype="<f8").tobytes())
    h.update(np.asarray(outcome.responses, dtype="<f8").tobytes())
    h.update(struct.pack("<d", float(outcome.original_transmissions)))
    for entry in outcome.optima:
        h.update(entry.method.encode() + b"\0")
        h.update(np.asarray(entry.coded, dtype="<f8").tobytes())
        h.update(struct.pack("<2d", entry.rsm_value, entry.simulated_value))
    for digest in sorted(row_digests):
        h.update(digest.encode())
    return h.hexdigest()


def _stored_digest(store, scenario_or_key) -> str:
    """Digest of one row read back through the store's API."""
    from repro.errors import ReproError

    try:
        result = store.get(scenario_or_key)
    except (ValueError, ReproError) as exc:  # a corrupt payload
        return f"undecodable: {exc}"
    return "missing" if result is None else result_digest(result)


def stored_row_digests(store) -> List[str]:
    """Digests of every row of ``store``."""
    return [_stored_digest(store, key) for key in store.keys()]


def campaign_row_digests(store, name: str) -> List[str]:
    """Digests of a campaign's stored rows, in campaign order."""
    from repro.store import Campaign

    return [_stored_digest(store, s) for s in Campaign(store, name).scenarios()]


# -- references --------------------------------------------------------------------


def load_table() -> dict:
    if not TABLE.is_file():
        return {"campaign": {}, "study": {}}
    return json.loads(TABLE.read_text())


def campaign_reference(scenarios) -> Tuple[List[str], float]:
    """Plain ``run_batch`` digests of ``scenarios`` and its wall time."""
    from repro.backends import run_batch

    start = time.perf_counter()
    results = run_batch(scenarios)
    wall = time.perf_counter() - start
    return [result_digest(r) for r in results], wall


def study_reference(study_seed: int) -> Tuple[str, float]:
    """Storeless-``Study`` digest of one study seed and its wall time.

    The rows a stored study writes are the results its batch runner
    returns; a storeless run returns the same results without a store,
    so they are collected from the runner's output here.
    """
    from repro.core.batch import BatchRunner
    from repro.core.study import Study
    from workloads import study_spec

    rows: Dict[str, object] = {}
    plain_run = BatchRunner.run

    def collecting_run(runner, scenarios):
        results = plain_run(runner, scenarios)
        for scenario, result in zip(runner.resolve_seeds(scenarios), results):
            rows[scenario.cache_key()] = result
        return results

    BatchRunner.run = collecting_run
    try:
        start = time.perf_counter()
        outcome = Study(study_spec(study_seed)).run()
        wall = time.perf_counter() - start
    finally:
        BatchRunner.run = plain_run
    digests = [result_digest(r) for r in rows.values()]
    return study_digest(outcome, digests), wall


def recorded_campaign(seed: int) -> Optional[List[str]]:
    return load_table()["campaign"].get(str(seed))


def recorded_study(study_seed: int) -> Optional[str]:
    return load_table()["study"].get(str(study_seed))
