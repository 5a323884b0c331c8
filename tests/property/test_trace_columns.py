"""Property-based tests (Hypothesis) for array-backed traces.

The vectorized engine records whole columns and builds each lane's
traces with :meth:`Trace.from_arrays`; the envelope and MNA simulators
append one sample at a time.  Both must give the same trace for the same
samples, including the equal-time rule (a run of equal times keeps its
first time and its last value) and the error on a backwards time.  The
base64 float64 payload columns must round-trip every float bit-exactly.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.trace import Trace, TraceSet, decode_column, encode_column

#: Few distinct times, so generated columns repeat times often.
times_st = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 2.0**-52, 2.0, 7.25])
values_st = st.floats(allow_nan=True, allow_infinity=True, width=64)


def _bits(array):
    return np.asarray(array, dtype="<f8").tobytes()


def _sequential(name, times, values):
    trace = Trace(name)
    for t, v in zip(times, values):
        trace.append(t, v)
    return trace


@st.composite
def samples(draw, sort=True):
    n = draw(st.integers(0, 40))
    times = draw(st.lists(times_st, min_size=n, max_size=n))
    if sort:
        times = sorted(times)
    values = draw(st.lists(values_st, min_size=n, max_size=n))
    return times, values


@given(samples())
def test_from_arrays_equals_sequential_append(data):
    times, values = data
    expected = _sequential("s", times, values)
    actual = Trace.from_arrays("s", np.array(times), np.array(values))
    assert len(actual) == len(expected)
    assert _bits(actual.times) == _bits(expected.times)
    assert _bits(actual.values) == _bits(expected.values)


@given(samples(sort=False))
def test_from_arrays_raises_exactly_like_sequential_append(data):
    times, values = data
    try:
        expected = _sequential("s", times, values)
    except SimulationError as exc:
        with pytest.raises(SimulationError) as excinfo:
            Trace.from_arrays("s", np.array(times), np.array(values))
        assert str(excinfo.value) == str(exc)
    else:
        actual = Trace.from_arrays("s", np.array(times), np.array(values))
        assert _bits(actual.times) == _bits(expected.times)
        assert _bits(actual.values) == _bits(expected.values)


@given(samples(), samples())
def test_append_after_from_arrays_matches_one_sequential_trace(head, tail):
    times, values = head
    shift = max(times, default=0.0)
    more_times = [shift + t for t in tail[0]]
    more_values = tail[1]
    source_times, source_values = np.array(times), np.array(values)
    built = Trace.from_arrays("s", source_times, source_values)
    before = (built.times, built.values)
    snapshot = (_bits(before[0]), _bits(before[1]))
    for t, v in zip(more_times, more_values):
        built.append(t, v)
    expected = _sequential("s", times + more_times, values + more_values)
    assert _bits(built.times) == _bits(expected.times)
    assert _bits(built.values) == _bits(expected.values)
    # Appending copies first: the arrays handed to from_arrays, and the
    # views taken before, never change.
    assert (_bits(source_times), _bits(source_values)) == (_bits(times), _bits(values))
    assert (_bits(before[0]), _bits(before[1])) == snapshot


@given(st.lists(values_st, max_size=64))
def test_base64_columns_round_trip_bit_exactly(values):
    column = np.array(values, dtype=float)
    text = encode_column(column)
    assert text.isascii()
    assert _bits(decode_column(text)) == _bits(column)
    # The schema-1 form (a JSON list of floats) decodes to the same bits.
    assert _bits(decode_column(list(values))) == _bits(column)


def test_decode_column_rejects_bad_text():
    with pytest.raises(SimulationError):
        decode_column("not base64!")
    with pytest.raises(SimulationError):
        decode_column("AAAA")  # 3 bytes: not whole float64 samples


def test_trace_arrays_are_read_only_views():
    trace = Trace("v")
    trace.append(0.0, 1.0)
    with pytest.raises(ValueError):
        trace.times[0] = 5.0
    with pytest.raises(ValueError):
        trace.values[0] = 5.0


def test_shared_time_column_survives_an_append_to_one_trace():
    times = np.array([0.0, 1.0, 2.0])
    a = Trace.from_arrays("a", times, np.array([1.0, 2.0, 3.0]))
    b = Trace.from_arrays("b", times, np.array([4.0, 5.0, 6.0]))
    assert a.times.base is b.times.base or np.shares_memory(a.times, b.times)
    a.append(2.0, 9.0)  # equal time: overwrite a's last value only
    a.append(3.0, 10.0)
    assert list(a.values) == [1.0, 2.0, 9.0, 10.0]
    assert list(b.times) == [0.0, 1.0, 2.0]
    assert list(b.values) == [4.0, 5.0, 6.0]
    assert list(times) == [0.0, 1.0, 2.0]


@given(samples(), samples())
def test_traceset_payload_round_trips_and_shares_equal_time_columns(a, b):
    traces = TraceSet()
    traces.add(Trace.from_arrays("a", np.array(a[0]), np.array(a[1])))
    traces.add(Trace.from_arrays("b", np.array(b[0]), np.array(b[1])))
    traces.add(Trace.from_arrays("c", np.array(a[0]), np.array(a[1][::-1])))
    payload = traces.to_payload()
    entries = payload["signals"]
    # "a" and "c" were built from the same times: one stored column.
    assert entries["a"]["times"] == entries["c"]["times"]
    distinct = {_bits(traces[n].times) for n in traces.names()}
    assert len(payload["times"]) == len(distinct)
    rebuilt = TraceSet.from_payload(payload)
    for name in traces.names():
        assert _bits(rebuilt[name].times) == _bits(traces[name].times)
        assert _bits(rebuilt[name].values) == _bits(traces[name].values)
    assert rebuilt.to_payload() == payload
