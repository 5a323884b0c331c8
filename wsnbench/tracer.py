"""Out-of-program tracing: wrap each layer's public entry point.

The benchmark never edits the program.  In a traced run it replaces the
public functions :func:`install_layers` names with thin wrappers that
record a span (name, start, end, parent, thread) per call and a few
counts, all kept in memory.  A layer's *self time* is its span minus its
direct children's spans on the same thread, so the self times of every
span under a root, plus the root's own self time (``unattributed``), add
up to the root's wall time exactly.

The same module is loaded by the serve wrapper (``serve.py``), so the
serve processes of the ``coord-2w`` workload trace the same layers.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Name of the span that wraps one timed iteration in the benchmark process.
ROOT = "root"


class Tracer:
    """In-memory spans and counts; records only while :attr:`active`."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around the block (no-op while inactive)."""
        if not self.active:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, threading.get_ident())
            self.count(name + ".calls")

    # -- patching ----------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        span: bool = True,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``before(args, kwargs)`` runs ahead of the span and its return
        value reaches ``after(tracer, token, args, kwargs, result)``,
        which runs once the span has closed; neither is timed into the
        layer.  ``span=False`` records counts only.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            if span:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
                tracer.count(name + ".calls")
            if after is not None:
                after(tracer, token, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (root spans included)."""
        spans = [s for s in self.spans if s is not None]
        children = defaultdict(float)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(spans):
            totals[name] += (end - start) - children[index]
        return dict(totals)

    def stray_spans(self) -> List[str]:
        """Names of top-level spans other than the root on the main thread.

        Layer spans count towards the traced wall only when they nest
        under a root span; one recorded outside the timed path or on
        another thread would be missing from the layer table's sum.
        """
        main = threading.main_thread().ident
        return [
            s[0] for s in self.spans
            if s is not None and s[3] < 0 and (s[0] != ROOT or s[4] != main)
        ]

    def root_wall(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[0] == ROOT)

    def chunk_count(self) -> int:
        """Batches a campaign run dispatched: its durable chunks."""
        spans = [s for s in self.spans if s is not None]
        return sum(
            1
            for name, _, _, parent, _ in spans
            if name == "core.batch.run"
            and parent >= 0
            and spans[parent][0] == "store.campaign.run"
        )


# -- the layer wrap points --------------------------------------------------------


def _trace_samples(result) -> int:
    seen, total = set(), 0
    for name in result.traces.names():
        trace = result.traces[name]
        if id(trace) not in seen:
            seen.add(id(trace))
            total += len(trace)
    return total


def _after_run_batch(tracer, _, args, kwargs, results) -> None:
    tracer.count("system.vectorized.lanes", len(results))
    tracer.count("sim.trace.samples", sum(_trace_samples(r) for r in results))


def _before_batch(args, kwargs):
    runner = args[0]
    return runner.misses, runner.store_hits


def _after_batch(tracer, token, args, kwargs, _) -> None:
    runner = args[0]
    tracer.count("core.batch.simulated", runner.misses - token[0])
    tracer.count("core.batch.store_hits", runner.store_hits - token[1])


def _after_encode(tracer, _, args, kwargs, text) -> None:
    payload = args[0] if args else None
    if isinstance(payload, dict) and "transmissions" in payload:
        tracer.count("store.db.payload_bytes", len(text.encode("utf-8")))


def _after_optimise(tracer, _, args, kwargs, entries) -> None:
    tracer.count(
        "optimize.surface_evals",
        sum(e.optimizer_result.n_evaluations for e in entries),
    )


def _after_decode_http(tracer, _, args, kwargs, __) -> None:
    tracer.count("service.client.bytes", len(args[0]))


def _after_merge(tracer, _, args, kwargs, result) -> None:
    tracer.count("store.merge.rows", sum(result))


def _after_claim(tracer, _, args, kwargs, job) -> None:
    if job is not None:
        tracer.count("service.worker.claim_wait_s", time.time() - job.submitted_unix)


def install_layers(tracer: Tracer, serve: bool = False) -> None:
    """Wrap every layer entry point the benchmark attributes time to."""
    import repro.store.db as db
    from repro.backends import EnvelopeBackend, VectorizedBackend
    from repro.coord import coordinator as coord
    from repro.core.batch import BatchRunner
    from repro.core.explorer import DesignSpaceExplorer
    from repro.core.objective import SimulationObjective
    from repro.core.study import Study
    from repro.scenario import Scenario
    from repro.service.client import ServiceClient
    from repro.sim.trace import Trace
    from repro.store.campaign import Campaign
    from repro.system.result import SystemResult

    w = tracer.wrap
    w(Scenario, "cache_key", "scenario.cache_key")
    w(Campaign, "create", "store.campaign.create")
    w(Campaign, "scenarios", "store.campaign.scenarios")
    w(Campaign, "run", "store.campaign.run")
    w(BatchRunner, "run", "core.batch.run", before=_before_batch, after=_after_batch)
    w(VectorizedBackend, "run_batch", "system.vectorized.run_batch", after=_after_run_batch)
    w(db, "canonical_json", "store.db.encode", after=_after_encode)
    w(SystemResult, "to_payload", "store.db.encode")
    w(db.ResultStore, "put", "store.db.put")
    w(db.ResultStore, "get", "store.db.get")
    w(SystemResult, "from_payload", "system.result.decode")
    w(Trace, "from_payload", "sim.trace.decode")
    w(EnvelopeBackend, "simulate", "system.envelope.simulate")
    w(Study, "run", "core.study.run")
    w(DesignSpaceExplorer, "build_design", "doe.build")
    w(SimulationObjective, "evaluate_design", "core.objective.evaluate_design")
    w(DesignSpaceExplorer, "fit_model", "rsm.fit")
    w(DesignSpaceExplorer, "optimise_model", "optimize.optimise", after=_after_optimise)
    w(ServiceClient, "request", "service.client.request")
    w(ServiceClient, "_decode", "service.client.decode", after=_after_decode_http, span=False)
    w(coord.Coordinator, "__init__", "coord.init")
    w(coord.Coordinator, "run", "coord.run")
    w(coord.Coordinator, "_poll_partition", "coord.poll")
    w(coord.Coordinator, "_mark_lost", "coord.lost", span=False)
    w(coord, "import_raw_rows", "store.merge.import", after=_after_merge)
    if serve:
        import repro.service.worker as worker
        from repro.service.jobs import JobQueue

        w(worker, "execute_job", "service.worker.run")
        w(JobQueue, "claim", "service.worker.claim", after=_after_claim, span=False)


# -- the per-layer metrics ----------------------------------------------------------

#: Per-layer metric -> (table, source): the self time of a span name or
#: a counter of :func:`layer_summary`; both are reported per iteration.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "scenario.cache_key_s": ("self", "scenario.cache_key"),
    "scenario.cache_key_calls": ("counts", "scenario.cache_key.calls"),
    "store.campaign.create_s": ("self", "store.campaign.create"),
    "store.campaign.scenarios_s": ("self", "store.campaign.scenarios"),
    "store.campaign.chunks": ("counts", "store.campaign.chunks"),
    "core.batch.run_self_s": ("self", "core.batch.run"),
    "core.batch.simulated": ("counts", "core.batch.simulated"),
    "core.batch.store_hits": ("counts", "core.batch.store_hits"),
    "system.vectorized.run_batch_s": ("self", "system.vectorized.run_batch"),
    "system.vectorized.lanes": ("counts", "system.vectorized.lanes"),
    "store.db.encode_s": ("self", "store.db.encode"),
    "store.db.put_s": ("self", "store.db.put"),
    "store.db.puts": ("counts", "store.db.put.calls"),
    "store.db.payload_bytes": ("counts", "store.db.payload_bytes"),
    "store.db.get_s": ("self", "store.db.get"),
    "store.db.gets": ("counts", "store.db.get.calls"),
    "system.result.decode_s": ("self", "system.result.decode"),
    "sim.trace.decode_s": ("self", "sim.trace.decode"),
    "system.envelope.simulate_s": ("self", "system.envelope.simulate"),
    "system.envelope.simulations": ("counts", "system.envelope.simulate.calls"),
    "doe.build_s": ("self", "doe.build"),
    "core.objective.evaluate_design_s": ("self", "core.objective.evaluate_design"),
    "rsm.fit_s": ("self", "rsm.fit"),
    "optimize.optimise_s": ("self", "optimize.optimise"),
    "optimize.surface_evals": ("counts", "optimize.surface_evals"),
    "service.client.requests": ("counts", "service.client.request.calls"),
    "service.client.request_s": ("self", "service.client.request"),
    "service.client.bytes": ("counts", "service.client.bytes"),
    "coord.wait_s": ("self", "coord.wait"),
    "coord.polls": ("counts", "coord.poll.calls"),
    "coord.partitions_lost": ("counts", "coord.lost.calls"),
    "store.merge.import_s": ("self", "store.merge.import"),
    "store.merge.rows": ("counts", "store.merge.rows"),
    "service.worker.claim_wait_s": ("counts", "service.worker.claim_wait_s"),
    "service.worker.run_s": ("self", "service.worker.run"),
}


def layer_summary(tracer: Tracer) -> dict:
    """Self times, counts and root wall: what a process reports home."""
    return {
        "self": tracer.self_times(),
        "counts": {**tracer.counts, "store.campaign.chunks": tracer.chunk_count()},
        "root_wall": tracer.root_wall(),
    }


def merge_summaries(summaries: List[dict]) -> dict:
    """Sum several processes' summaries (the two serves of coord-2w)."""
    merged = {"self": defaultdict(float), "counts": defaultdict(float), "root_wall": 0.0}
    for summary in summaries:
        for key in ("self", "counts"):
            for name, value in summary[key].items():
                merged[key][name] += value
        merged["root_wall"] += summary["root_wall"]
    return {"self": dict(merged["self"]), "counts": dict(merged["counts"]),
            "root_wall": merged["root_wall"]}


def format_table(title: str, self_times: Dict[str, float], counts: Dict[str, float],
                 wall: float, iterations: int) -> str:
    """The human layer table: self s, share of wall, calls (per iteration)."""
    lines = [
        f"{title}: per iteration over {iterations} traced iteration(s), "
        f"wall {wall / iterations:.4f} s",
        f"  {'layer':<34} {'self s':>10} {'share':>8} {'calls':>10}",
    ]
    for name, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
        label = "unattributed" if name == ROOT else name
        share = f"{100.0 * seconds / wall:7.2f}%" if wall > 0 else "      -"
        calls = counts.get(name + ".calls", 0) / iterations
        lines.append(
            f"  {label:<34} {seconds / iterations:10.4f} {share:>8} {calls:10.1f}"
        )
    return "\n".join(lines)
