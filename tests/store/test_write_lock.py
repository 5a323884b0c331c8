"""Write-lock scope: row encoding happens before ``BEGIN IMMEDIATE``.

SQLite allows one writer per file, so whatever a writer does inside its
transaction, every other writer waits for.  Canonical-JSON encoding is
the most expensive part of a ``put``; it must run *outside* the lock so
concurrent writers into one WAL file queue only behind each other's
``INSERT``.  The check: every ``canonical_json`` call a write makes
sees the calling connection outside any transaction.
"""

import pytest

import repro.store.db as db
from repro.backends import run
from repro.scenario import PartsSpec, Scenario
from repro.store import ResultStore


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "lock.db")


@pytest.fixture
def encodes_outside_lock(store, monkeypatch):
    """Wrap ``canonical_json`` with the lock check; returns the call log."""
    encode = db.canonical_json
    calls = []

    def checked(payload):
        assert not store._conn().in_transaction, (
            "canonical_json ran inside the store's write transaction"
        )
        calls.append(type(payload).__name__)
        return encode(payload)

    monkeypatch.setattr(db, "canonical_json", checked)
    return calls


def test_put_encodes_before_taking_the_write_lock(store, encodes_outside_lock):
    scenario = Scenario(parts=PartsSpec(v_init=2.85), horizon=60.0, seed=1)
    result = run(scenario)
    assert store.put(scenario, result) is True
    assert store.put(scenario, result) is False  # first writer still wins
    assert encodes_outside_lock == ["dict", "dict"] * 2
    assert store.get_payload_text(scenario) == db.canonical_json(
        result.to_payload()
    )


def test_put_study_encodes_before_taking_the_write_lock(
    store, encodes_outside_lock
):
    args = ("s", {"a": 1}, "k" * 64, "ccd", [[0.0, 1.0]], ["x", "y"])
    assert store.put_study(*args) is True
    assert store.put_study(*args) is False
    assert encodes_outside_lock == ["dict", "list", "list"] * 2
    stored = store.get_study("s")
    assert (stored.spec, stored.points, stored.keys) == (
        {"a": 1}, [[0.0, 1.0]], ["x", "y"]
    )
