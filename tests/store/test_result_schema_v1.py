"""Stored result-schema-1 rows stay readable and mergeable.

``fixtures/v1_rows.json`` holds two raw ``results`` rows (one value per
:data:`~repro.store.db.RESULT_COLUMNS` name) written by repro 1.11.0,
the last version whose payloads were schema 1 (trace samples as JSON
float lists): a 700 s vectorized ``factory-floor`` row, and a 0.02 s
detailed row whose ``v_store`` trace is an alias of ``v(vdc)``.  The
fixture is a record of what older stores hold, so it is never
regenerated: a change that makes these tests fail breaks real stores.
"""

import json
import math
from pathlib import Path

import pytest

from repro.backends import run
from repro.cli import main
from repro.errors import StoreError
from repro.scenario import Scenario
from repro.store import RESULT_COLUMNS, ResultStore, merge_stores
from repro.store.db import canonical_json, same_result_payload
from repro.system.result import RESULT_SCHEMA, SystemResult

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "v1_rows.json"
PAYLOAD = RESULT_COLUMNS.index("payload")


@pytest.fixture(scope="module")
def v1_rows():
    document = json.loads(FIXTURE.read_text())
    return [tuple(row[name] for name in RESULT_COLUMNS) for row in document["rows"]]


@pytest.fixture(scope="module")
def fresh(v1_rows):
    """Each fixture row's scenario, re-simulated by the current code."""
    out = {}
    for row in v1_rows:
        scenario = Scenario.from_dict(json.loads(row[RESULT_COLUMNS.index("scenario")]))
        out[row[0]] = (scenario, run(scenario))
    return out


def _v1_store(path, rows):
    store = ResultStore(path)
    for row in rows:
        assert store.put_raw(row)
    return store


def _v2_store(path, fresh):
    store = ResultStore(path)
    for scenario, result in fresh.values():
        store.put(scenario, result)
    return store


def test_fixture_holds_schema_1_rows(v1_rows):
    payloads = [json.loads(row[PAYLOAD]) for row in v1_rows]
    assert [p["schema"] for p in payloads] == [1, 1]
    assert {row[RESULT_COLUMNS.index("backend")] for row in v1_rows} == {
        "vectorized", "detailed",
    }
    detailed = next(p for p in payloads if "v(vdc)" in p["traces"])
    assert detailed["traces"]["v_store"] == {"alias": "v(vdc)"}
    assert RESULT_SCHEMA == 2


def test_v1_rows_decode_to_a_fresh_run(v1_rows, fresh, tmp_path):
    store = _v1_store(tmp_path / "v1.db", v1_rows)
    for row in v1_rows:
        scenario, result = fresh[row[0]]
        assert scenario.cache_key() == row[0]
        decoded = store.get(row[0])
        assert decoded.to_json() == result.to_json()
        assert canonical_json(decoded.to_payload()) == canonical_json(result.to_payload())


def test_v1_detailed_alias_stays_shared(v1_rows):
    row = next(r for r in v1_rows if '"v(vdc)"' in r[PAYLOAD])
    decoded = SystemResult.from_payload(json.loads(row[PAYLOAD]))
    assert decoded.traces["v_store"] is decoded.traces["v(vdc)"]
    upgraded = decoded.to_payload()["traces"]
    assert upgraded["signals"]["v_store"] == {"alias": "v(vdc)"}
    assert len(upgraded["times"]) == 1


def test_v1_and_v2_twins_are_the_same_result(v1_rows, fresh):
    for row in v1_rows:
        v2_text = canonical_json(fresh[row[0]][1].to_payload())
        assert v2_text != row[PAYLOAD]
        assert same_result_payload(row[PAYLOAD], v2_text)
        assert same_result_payload(v2_text, row[PAYLOAD])


def test_cli_store_merge_v1_store_into_v2_store(v1_rows, fresh, tmp_path, capsys):
    v1 = tmp_path / "v1.db"
    v2 = tmp_path / "v2.db"
    _v1_store(v1, v1_rows).close()
    _v2_store(v2, fresh).close()
    held = {key: ResultStore(v2).get_payload_text(key) for key in fresh}

    assert main(["store", "merge", str(v2), str(v1)]) == 0
    assert "0 row(s) imported, 2 already present" in capsys.readouterr().out
    # First writer wins: the v2 rows are kept byte for byte.
    merged = ResultStore(v2)
    assert {key: merged.get_payload_text(key) for key in fresh} == held
    # The other direction is accepted too, and keeps the v1 rows.
    assert main(["store", "merge", str(v1), str(v2)]) == 0
    assert "2 already present" in capsys.readouterr().out
    assert ResultStore(v1).get_raw(v1_rows[0][0])[PAYLOAD] == v1_rows[0][PAYLOAD]
    report = merge_stores(merged, ResultStore(v1), dry_run=True)
    assert report.identical == 2 and not report.conflicts


def _edit_one_sample(row):
    """The row with one trace sample moved to its next float."""
    payload = json.loads(row[PAYLOAD])
    owner = next(
        name for name, entry in sorted(payload["traces"].items()) if "alias" not in entry
    )
    values = payload["traces"][owner]["values"]
    values[len(values) // 2] = math.nextafter(values[len(values) // 2], math.inf)
    edited = list(row)
    edited[PAYLOAD] = canonical_json(payload)
    return tuple(edited)


def test_v1_row_with_one_edited_sample_is_refused(v1_rows, fresh, tmp_path, capsys):
    v2 = _v2_store(tmp_path / "v2.db", fresh)
    for row in v1_rows:
        edited = _edit_one_sample(row)
        assert not same_result_payload(edited[PAYLOAD], v2.get_payload_text(row[0]))
        with pytest.raises(StoreError) as excinfo:
            v2.put_raw(edited, source="old-v1.db")
        message = str(excinfo.value)
        assert row[0] in message
        assert "v2.db" in message and "old-v1.db" in message
        assert "payload" in message

    bad = ResultStore(tmp_path / "bad-v1.db")
    bad.put_raw(_edit_one_sample(v1_rows[0]))
    bad.close()
    assert main(["store", "merge", str(tmp_path / "v2.db"), str(tmp_path / "bad-v1.db")]) == 1
    assert "bad-v1.db" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    ['{"schema":1,"traces":[1]}', '{"schema":1,"traces":{"v":{"times":[0.0]}}}', "[1]"],
)
def test_undecodable_payload_under_one_key_is_a_divergence(v1_rows, fresh, tmp_path, payload):
    v2 = _v2_store(tmp_path / "v2.db", fresh)
    row = list(v1_rows[0])
    row[PAYLOAD] = payload
    with pytest.raises(StoreError, match="payload"):
        v2.put_raw(tuple(row), source="broken.db")
