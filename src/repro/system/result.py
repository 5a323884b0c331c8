"""Simulation results and the energy audit.

:class:`EnergyBreakdown` tracks where every joule went; its
:meth:`~EnergyBreakdown.imbalance` must be ~0 for any correct backend
(property-tested).  :class:`SystemResult` is what a run returns: the
figure of merit (transmission count), traces for the Fig. 5-style plots,
the per-session tuning log and the audit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Mapping, Optional, Tuple, Union

from repro.control.session import SessionResult
from repro.errors import DesignError
from repro.sim.trace import TraceSet
from repro.system.config import SystemConfig

#: Version stamp written into every result JSON payload.  Bump when the
#: layout changes incompatibly; ``SystemResult.from_payload`` (and hence
#: the on-disk result store) refuses unknown versions.  Schema 2 stores
#: trace samples as base64 float64 columns with shared time columns
#: (:meth:`~repro.sim.trace.TraceSet.to_payload`); schema 1 stored them
#: as JSON float lists, one time list per trace.
RESULT_SCHEMA = 2

#: Every schema :meth:`SystemResult.from_payload` reads.
READABLE_SCHEMAS = (1, 2)


@dataclass
class EnergyBreakdown:
    """Joules by source and sink over a run."""

    initial_stored: float = 0.0
    final_stored: float = 0.0
    harvested: float = 0.0
    clipped: float = 0.0  # harvest rejected at the storage voltage clamp
    node_tx: float = 0.0
    node_sleep: float = 0.0
    mcu_sleep: float = 0.0
    mcu_active: float = 0.0
    accelerometer: float = 0.0
    actuator: float = 0.0
    shortfall: float = 0.0  # demanded but unavailable (store empty)

    @property
    def consumed(self) -> float:
        """Total energy drawn from the store."""
        return (
            self.node_tx
            + self.node_sleep
            + self.mcu_sleep
            + self.mcu_active
            + self.accelerometer
            + self.actuator
            - self.shortfall
        )

    @property
    def tuning_overhead(self) -> float:
        """Energy spent on the tuning subsystem (MCU active + peripherals)."""
        return self.mcu_active + self.accelerometer + self.actuator

    def imbalance(self) -> float:
        """Energy-conservation residual; ~0 for a correct simulation."""
        return (
            self.initial_stored + self.harvested - self.consumed - self.final_stored
        )

    def to_payload(self) -> dict:
        """Plain-JSON dictionary of every energy account."""
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_payload(cls, payload: Mapping) -> "EnergyBreakdown":
        """Rebuild a breakdown from :meth:`to_payload` output."""
        return cls(**{f.name: float(payload.get(f.name, 0.0)) for f in fields(cls)})

    def rows(self) -> List[Tuple[str, float]]:
        """(label, joules) rows for reports."""
        return [
            ("initial stored", self.initial_stored),
            ("harvested", self.harvested),
            ("clipped at clamp", self.clipped),
            ("node transmissions", self.node_tx),
            ("node sleep", self.node_sleep),
            ("MCU sleep", self.mcu_sleep),
            ("MCU active", self.mcu_active),
            ("accelerometer", self.accelerometer),
            ("actuator", self.actuator),
            ("final stored", self.final_stored),
        ]


@dataclass
class TuningEvent:
    """One watchdog wake-up and what its session did."""

    time: float
    result: SessionResult
    duration: float
    energy: float

    def to_payload(self) -> dict:
        """Plain-JSON dictionary (the session nests its own payload)."""
        return {
            "time": float(self.time),
            "duration": float(self.duration),
            "energy": float(self.energy),
            "session": self.result.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "TuningEvent":
        """Rebuild an event from :meth:`to_payload` output."""
        return cls(
            time=float(payload.get("time", 0.0)),
            result=SessionResult.from_payload(payload.get("session", {})),
            duration=float(payload.get("duration", 0.0)),
            energy=float(payload.get("energy", 0.0)),
        )


@dataclass
class SystemResult:
    """Outcome of one system simulation."""

    config: SystemConfig
    horizon: float
    transmissions: int
    breakdown: EnergyBreakdown
    traces: TraceSet = field(default_factory=TraceSet)
    tuning_events: List[TuningEvent] = field(default_factory=list)
    final_voltage: float = 0.0
    final_position: float = 0.0

    @property
    def transmissions_per_hour(self) -> float:
        """Figure of merit normalised to one hour."""
        if self.horizon <= 0.0:
            return 0.0
        return self.transmissions * 3600.0 / self.horizon

    def retune_count(self) -> int:
        """Number of wake-ups that actually moved the actuator."""
        return sum(1 for ev in self.tuning_events if ev.result.retuned)

    # -- serialisation --------------------------------------------------------

    def to_payload(self) -> dict:
        """Plain-JSON dictionary (includes the schema version).

        The payload is fully round-trippable: config, headline metrics,
        the complete energy audit, every tuning event and every recorded
        trace come back intact through :meth:`from_payload`.  This is the
        canonical on-disk form used by the result store
        (:mod:`repro.store`) and by ``repro-wsn run-scenario --out``.
        """
        return {
            "schema": RESULT_SCHEMA,
            "config": {
                "clock_hz": self.config.clock_hz,
                "watchdog_s": self.config.watchdog_s,
                "tx_interval_s": self.config.tx_interval_s,
            },
            "horizon": float(self.horizon),
            "transmissions": int(self.transmissions),
            "final_voltage": float(self.final_voltage),
            "final_position": float(self.final_position),
            "breakdown": self.breakdown.to_payload(),
            "tuning_events": [ev.to_payload() for ev in self.tuning_events],
            "traces": self.traces.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SystemResult":
        """Rebuild a result from :meth:`to_payload` output.

        Reads every schema in :data:`READABLE_SCHEMAS`; unversioned
        payloads are accepted as schema 1.  Unknown versions and
        non-object payloads raise :class:`~repro.errors.DesignError`.
        """
        if not isinstance(payload, Mapping):
            raise DesignError(
                f"result payload must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        schema = payload.get("schema", 1)
        if schema not in READABLE_SCHEMAS:
            raise DesignError(
                f"unsupported result schema {schema!r} (this library reads "
                f"schemas {', '.join(map(str, READABLE_SCHEMAS))})"
            )
        cfg = payload.get("config", {})
        return cls(
            config=SystemConfig(
                clock_hz=float(cfg.get("clock_hz", 4e6)),
                watchdog_s=float(cfg.get("watchdog_s", 320.0)),
                tx_interval_s=float(cfg.get("tx_interval_s", 5.0)),
            ),
            horizon=float(payload.get("horizon", 0.0)),
            transmissions=int(payload.get("transmissions", 0)),
            breakdown=EnergyBreakdown.from_payload(payload.get("breakdown", {})),
            traces=TraceSet.from_payload(
                payload.get("traces", {}), legacy=schema == 1
            ),
            tuning_events=[
                TuningEvent.from_payload(ev)
                for ev in payload.get("tuning_events", [])
            ],
            final_voltage=float(payload.get("final_voltage", 0.0)),
            final_position=float(payload.get("final_position", 0.0)),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON text of :meth:`to_payload`."""
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SystemResult":
        """Parse :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DesignError(f"result file is not valid JSON: {exc}") from exc
        return cls.from_payload(payload)

    def save(self, path: Union[str, Path]) -> None:
        """Write the result to a JSON file."""
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SystemResult":
        """Read a result from a JSON file."""
        return cls.from_json(Path(path).read_text())

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"config: {self.config.describe()}",
            f"horizon: {self.horizon:.0f} s",
            f"transmissions: {self.transmissions}",
            f"retunes: {self.retune_count()} of {len(self.tuning_events)} wake-ups",
            f"final supercap voltage: {self.final_voltage:.3f} V",
            "energy (mJ):",
        ]
        for label, joules in self.breakdown.rows():
            lines.append(f"  {label:<22s} {joules * 1e3:10.2f}")
        lines.append(f"  imbalance              {self.breakdown.imbalance() * 1e3:10.5f}")
        return "\n".join(lines)
