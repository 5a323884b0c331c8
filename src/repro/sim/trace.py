"""Waveform recording.

:class:`Trace` stores (time, value) samples of one quantity as float64
arrays; :class:`TraceSet` groups traces from a simulation run and exports
them to CSV for the figure-regeneration benches (Fig. 5 of the paper is
produced from such a trace of the supercapacitor voltage).

Payloads store every sample column as base64 of little-endian float64
bytes (:func:`encode_column`), which is bit-exact and about half the size
of a JSON list of float ``repr`` strings.  The older list form is still
read.
"""

from __future__ import annotations

import base64
import binascii
import io
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.errors import SimulationError

#: A stored sample column: a list of floats (result schema 1) or a
#: base64 string of little-endian float64 bytes (schema 2).
Column = Union[str, Sequence[float], np.ndarray]


def encode_column(samples: np.ndarray) -> str:
    """Base64 of the samples as little-endian float64 bytes (bit-exact)."""
    raw = np.ascontiguousarray(samples, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def decode_column(column: Column) -> np.ndarray:
    """A stored column as a float64 array (read-only when decoded)."""
    if isinstance(column, str):
        try:
            raw = base64.b64decode(column, validate=True)
        except binascii.Error as exc:
            raise SimulationError(f"trace column is not base64: {exc}") from exc
        if len(raw) % 8:
            raise SimulationError(
                f"trace column holds {len(raw)} bytes, not whole float64 samples"
            )
        return np.frombuffer(raw, dtype="<f8").astype(float, copy=False)
    return np.asarray(column, dtype=float)


def _frozen(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class Trace:
    """Time-stamped samples of one scalar quantity.

    Samples must be appended in non-decreasing time order.  Equal-time
    appends overwrite the previous sample, which keeps step-discontinuities
    representable without zero-width artefacts.  :meth:`from_arrays`
    applies the same two rules to whole columns at once.

    :attr:`times` and :attr:`values` are read-only views of the stored
    samples; traces built from arrays may share them with other traces
    and are copied into a private buffer on their first :meth:`append`.
    """

    def __init__(self, name: str):
        self.name = name
        self._times = np.empty(0)
        self._values = np.empty(0)
        self._n = 0
        self._last = 0.0
        # True while the buffers may be shared (built by from_arrays):
        # the next append copies them first.
        self._shared = False

    def __len__(self) -> int:
        return self._n

    def append(self, time: float, value: float) -> None:
        """Record ``value`` at ``time`` (monotone non-decreasing times)."""
        n = self._n
        if n:
            if time < self._last:
                raise SimulationError(
                    f"trace {self.name!r}: time went backwards "
                    f"({time!r} < {self._last!r})"
                )
            if time == self._last:
                if self._shared:
                    self._grow(n)
                self._values[n - 1] = value
                return
        if self._shared or n == len(self._times):
            self._grow(max(2 * n, 64))
        self._times[n] = time
        self._values[n] = value
        self._last = float(time)
        self._n = n + 1

    def _grow(self, capacity: int) -> None:
        """Move the samples into private buffers of ``capacity`` slots."""
        n = self._n
        times = np.empty(capacity)
        values = np.empty(capacity)
        times[:n] = self._times[:n]
        values[:n] = self._values[:n]
        self._times, self._values, self._shared = times, values, False

    @classmethod
    def from_arrays(cls, name: str, times: Column, values: Column) -> "Trace":
        """A trace holding the given sample columns, under :meth:`append`'s rules.

        A time below its predecessor raises :class:`SimulationError`
        exactly as the corresponding :meth:`append` would; a run of equal
        times keeps its first time and its last value.  Columns that
        need no change are kept as given (not copied).
        """
        t = decode_column(times)
        v = decode_column(values)
        if t.ndim != 1 or t.shape != v.shape:
            raise SimulationError(
                f"trace {name!r} payload has {t.size} times but {v.size} values"
            )
        if len(t) > 1:
            back = t[1:] < t[:-1]
            fresh = t[1:] != t[:-1]
            if back.any():
                k = int(np.argmax(back)) + 1
                # The sample a sequential append compares against: the
                # first time of the equal-time run ending at ``k - 1``.
                head = int(np.flatnonzero(np.r_[True, fresh[: k - 1]])[-1])
                raise SimulationError(
                    f"trace {name!r}: time went backwards "
                    f"({float(t[k])!r} < {float(t[head])!r})"
                )
            if not fresh.all():
                t, v = t[np.r_[True, fresh]], v[np.r_[fresh, True]]
        trace = cls(name)
        trace._times, trace._values, trace._n = t, v, len(t)
        trace._shared = True
        if len(t):
            trace._last = float(t[-1])
        return trace

    @property
    def times(self) -> np.ndarray:
        """Sample times (a read-only array)."""
        return _frozen(self._times[: self._n])

    @property
    def values(self) -> np.ndarray:
        """Sample values (a read-only array)."""
        return _frozen(self._values[: self._n])

    def at(self, time: float) -> float:
        """Zero-order-hold lookup: value of the last sample at or before ``time``."""
        if not self._n:
            raise SimulationError(f"trace {self.name!r} is empty")
        idx = int(np.searchsorted(self.times, time, side="right")) - 1
        return float(self._values[max(idx, 0)])

    def interp(self, time: float) -> float:
        """Linear interpolation at ``time`` (clamped at the ends)."""
        if not self._n:
            raise SimulationError(f"trace {self.name!r} is empty")
        value = float(np.interp(time, self.times, self.values))
        if not np.isfinite(value):
            # A subnormal gap between samples overflows the slope in
            # (v1-v0)/(t1-t0); a gap that small is below any meaningful
            # time resolution, so the step lookup is the honest answer
            # (and stays within the sampled value range).
            return self.at(time)
        return value

    def resample(self, times: Sequence[float]) -> np.ndarray:
        """Linearly interpolate the trace onto the given time grid."""
        if not self._n:
            raise SimulationError(f"trace {self.name!r} is empty")
        grid = np.asarray(times, dtype=float)
        out = np.interp(grid, self.times, self.values)
        bad = ~np.isfinite(out)
        if bad.any():
            # Same subnormal-gap overflow as interp(): fall back to the
            # zero-order-hold sample at each affected grid point.
            out[bad] = [self.at(t) for t in grid[bad]]
        return out

    def to_payload(self) -> dict:
        """Plain-JSON representation: base64 float64 time/value columns."""
        return {
            "times": encode_column(self.times),
            "values": encode_column(self.values),
        }

    @classmethod
    def from_payload(cls, name: str, payload: dict) -> "Trace":
        """Rebuild a trace from :meth:`to_payload` output.

        Also reads the schema-1 form, whose columns are JSON lists of
        floats.
        """
        return cls.from_arrays(name, payload.get("times", []), payload.get("values", []))

    def min(self) -> float:
        """Smallest recorded value."""
        return float(np.min(self.values))

    def max(self) -> float:
        """Largest recorded value."""
        return float(np.max(self.values))

    def mean(self) -> float:
        """Time-weighted mean value (trapezoidal; falls back to sample mean)."""
        t, v = self.times, self.values
        if len(t) < 2 or t[-1] == t[0]:
            return float(np.mean(v))
        return float(np.trapezoid(v, t) / (t[-1] - t[0]))

    def time_above(self, threshold: float) -> float:
        """Total time the (linearly interpolated) trace spends above ``threshold``."""
        t, v = self.times, self.values
        if len(t) < 2:
            return 0.0
        total = 0.0
        for i in range(len(t) - 1):
            t0, t1, v0, v1 = t[i], t[i + 1], v[i], v[i + 1]
            dt = t1 - t0
            if dt <= 0.0:
                continue
            if v0 > threshold and v1 > threshold:
                total += dt
            elif (v0 > threshold) != (v1 > threshold) and v1 != v0:
                frac_above = abs(max(v0, v1) - threshold) / abs(v1 - v0)
                total += dt * frac_above
        return total


class TraceSet:
    """A named collection of traces with shared CSV export."""

    def __init__(self) -> None:
        self._traces: Dict[str, Trace] = {}

    def trace(self, name: str) -> Trace:
        """Return the trace called ``name``, creating it on first use."""
        if name not in self._traces:
            self._traces[name] = Trace(name)
        return self._traces[name]

    def __contains__(self, name: str) -> bool:
        return name in self._traces

    def alias(self, name: str, existing: str) -> None:
        """Expose the trace called ``existing`` under ``name`` as well.

        Backends record under their native names (the MNA hook traces
        node ``"v(vdc)"``); an alias lets adapters also publish the
        canonical cross-backend name (``"v_store"``) without copying.
        """
        if existing not in self._traces:
            raise SimulationError(f"no trace named {existing!r} to alias")
        self._traces[name] = self._traces[existing]

    def add(self, trace: Trace) -> None:
        """Store ``trace`` under its own name, replacing any trace of that name.

        Aliases of a replaced trace keep the trace they were made for.
        """
        self._traces[trace.name] = trace

    def __getitem__(self, name: str) -> Trace:
        return self._traces[name]

    def names(self) -> List[str]:
        """Names of all traces, sorted."""
        return sorted(self._traces)

    def to_payload(self) -> dict:
        """Plain-JSON representation of every trace.

        ``{"times": [column, ...], "signals": {name: entry}}``: each
        distinct time column is stored once, as base64 float64, and a
        signal's entry gives its index in ``times`` next to its own
        base64 ``values`` column.  Aliased names (see :meth:`alias`) are
        stored as ``{"alias": ...}`` references to the first name that
        owns the samples, so shared traces stay shared after a
        round-trip and payloads carry each sample column once.
        """
        columns: Dict[str, int] = {}
        signals: Dict[str, dict] = {}
        owner_by_id: Dict[int, str] = {}
        for name in self.names():
            trace = self._traces[name]
            owner = owner_by_id.setdefault(id(trace), name)
            if owner != name:
                signals[name] = {"alias": owner}
                continue
            entry = trace.to_payload()
            entry["times"] = columns.setdefault(entry["times"], len(columns))
            signals[name] = entry
        return {"times": list(columns), "signals": signals}

    @classmethod
    def from_payload(cls, payload: Dict[str, dict], legacy: bool = False) -> "TraceSet":
        """Rebuild a trace set from :meth:`to_payload` output.

        ``legacy=True`` reads the result-schema-1 layout instead: one
        ``{"times": [...], "values": [...]}`` list pair (or alias) per
        name.
        """
        traces = cls()
        if legacy:
            entries, columns = payload, None
        else:
            entries = payload.get("signals", {})
            columns = [decode_column(c) for c in payload.get("times", [])]
        aliases = []
        for name in sorted(entries):
            entry = entries[name]
            if "alias" in entry:
                aliases.append((name, entry["alias"]))
                continue
            if columns is not None:
                index = entry.get("times")
                if not isinstance(index, int) or not 0 <= index < len(columns):
                    raise SimulationError(
                        f"trace {name!r} names time column {index!r} of "
                        f"{len(columns)}"
                    )
                entry = {"times": columns[index], "values": entry.get("values", "")}
            traces.add(Trace.from_payload(name, entry))
        for name, existing in aliases:
            traces.alias(name, existing)
        return traces

    def to_csv(self, times: Sequence[float]) -> str:
        """Resample every trace onto ``times`` and render a CSV string."""
        names = self.names()
        buf = io.StringIO()
        buf.write("time," + ",".join(names) + "\n")
        columns = [self._traces[n].resample(times) for n in names]
        for i, t in enumerate(times):
            row = ",".join(f"{col[i]:.9g}" for col in columns)
            buf.write(f"{t:.9g},{row}\n")
        return buf.getvalue()
