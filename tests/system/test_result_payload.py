"""SystemResult JSON round-trip: the canonical persisted form."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.backends import run
from repro.errors import DesignError, SimulationError
from repro.scenario import Scenario, named_scenario
from repro.sim.trace import Trace, TraceSet, encode_column
from repro.system.result import RESULT_SCHEMA, EnergyBreakdown, SystemResult


@pytest.fixture(scope="module")
def paper_result():
    scenario = replace(named_scenario("paper"), horizon=900.0, seed=1)
    return run(scenario)


def test_full_round_trip_is_byte_stable(paper_result):
    text = paper_result.to_json()
    rebuilt = SystemResult.from_json(text)
    assert rebuilt.to_json() == text


def test_round_trip_preserves_everything(paper_result):
    rebuilt = SystemResult.from_payload(paper_result.to_payload())
    assert rebuilt.transmissions == paper_result.transmissions
    assert rebuilt.horizon == paper_result.horizon
    assert rebuilt.final_voltage == paper_result.final_voltage
    assert rebuilt.final_position == paper_result.final_position
    assert rebuilt.config == paper_result.config
    assert rebuilt.breakdown.imbalance() == paper_result.breakdown.imbalance()
    assert rebuilt.traces.names() == paper_result.traces.names()
    for name in paper_result.traces.names():
        assert list(rebuilt.traces[name].times) == list(
            paper_result.traces[name].times
        )
    assert len(rebuilt.tuning_events) == len(paper_result.tuning_events)
    for mine, theirs in zip(rebuilt.tuning_events, paper_result.tuning_events):
        assert mine.time == theirs.time
        assert mine.energy == theirs.energy
        assert mine.result == theirs.result
    assert rebuilt.retune_count() == paper_result.retune_count()
    assert rebuilt.summary() == paper_result.summary()


def test_payload_is_schema_stamped(paper_result):
    assert paper_result.to_payload()["schema"] == RESULT_SCHEMA


def test_unknown_schema_rejected(paper_result):
    payload = paper_result.to_payload()
    payload["schema"] = 99
    with pytest.raises(DesignError):
        SystemResult.from_payload(payload)


def test_non_object_payload_rejected():
    with pytest.raises(DesignError):
        SystemResult.from_payload([1, 2, 3])
    with pytest.raises(DesignError):
        SystemResult.from_json("not json at all {")


def test_save_load_file(tmp_path, paper_result):
    path = tmp_path / "result.json"
    paper_result.save(path)
    assert SystemResult.load(path).to_json() == paper_result.to_json()


def test_detailed_backend_alias_traces_round_trip():
    scenario = Scenario(horizon=0.2, backend="detailed", seed=1)
    result = run(scenario)
    rebuilt = SystemResult.from_payload(result.to_payload())
    # The adapter aliases "v_store" onto the native "v(vdc)" trace;
    # after a round trip the two names still share one sample list.
    assert rebuilt.to_json() == result.to_json()
    assert rebuilt.traces["v_store"] is rebuilt.traces["v(vdc)"]


def test_energy_breakdown_round_trip():
    breakdown = EnergyBreakdown(
        initial_stored=1.0, harvested=2.5, node_tx=0.5, shortfall=0.125
    )
    rebuilt = EnergyBreakdown.from_payload(breakdown.to_payload())
    assert rebuilt == breakdown


def test_trace_payload_length_mismatch_rejected():
    with pytest.raises(SimulationError):
        Trace.from_payload("bad", {"times": [0.0, 1.0], "values": [1.0]})


def test_traceset_alias_round_trip():
    traces = TraceSet()
    t = traces.trace("native")
    t.append(0.0, 1.0)
    t.append(1.0, 2.0)
    traces.alias("canonical", "native")
    payload = traces.to_payload()
    # The alphabetically first name owns the samples; the other aliases.
    # Time columns are stored once, base64 float64, and named by index.
    assert payload == {
        "times": [encode_column(np.array([0.0, 1.0]))],
        "signals": {
            "canonical": {"times": 0, "values": encode_column(np.array([1.0, 2.0]))},
            "native": {"alias": "canonical"},
        },
    }
    rebuilt = TraceSet.from_payload(payload)
    assert rebuilt["canonical"] is rebuilt["native"]
    assert list(rebuilt["native"].values) == [1.0, 2.0]


def test_traceset_alias_reads_schema_1():
    """The schema-1 layout: one float-list pair per owner, aliases by name."""
    payload = {
        "native": {"alias": "canonical"},
        "canonical": {"times": [0.0, 1.0], "values": [1.0, 2.0]},
    }
    rebuilt = TraceSet.from_payload(payload, legacy=True)
    assert rebuilt["canonical"] is rebuilt["native"]
    assert list(rebuilt["native"].times) == [0.0, 1.0]
    assert list(rebuilt["native"].values) == [1.0, 2.0]


def test_schema_1_result_payload_reads_and_upgrades(paper_result):
    """A schema-1 payload (float-list traces) decodes to the same result,
    and re-encodes to the schema-2 payload byte for byte."""
    payload = paper_result.to_payload()
    legacy = dict(payload, schema=1, traces={
        name: {"times": [float(x) for x in trace.times],
               "values": [float(x) for x in trace.values]}
        for name, trace in ((n, paper_result.traces[n])
                            for n in paper_result.traces.names())
    })
    rebuilt = SystemResult.from_payload(json.loads(json.dumps(legacy)))
    assert rebuilt.to_json() == paper_result.to_json()


def test_v2_trace_column_index_is_checked():
    payload = {"times": [encode_column(np.array([0.0]))],
               "signals": {"v": {"times": 1, "values": encode_column(np.array([1.0]))}}}
    with pytest.raises(SimulationError):
        TraceSet.from_payload(payload)
