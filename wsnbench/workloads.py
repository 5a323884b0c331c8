"""The four benchmark workloads, each generated from the workload seed.

Each workload has the same shape:

- ``setup_base(run)``: the set-up every fresh process repeats
  (expansion, store creation), timed part by part into
  ``run.setup_parts``; ``campaign-warm`` adds ``fill(run)``;
- ``iterate(run, tracer)``: one timed path, returning ``(wall, cpu)``;
  outside the timed region it reads the outputs back and records their
  digests, the store size and the progress reports;
- ``reference(run, computed)``: the expected digest per output label,
  plus the wall time of the plain path when it was computed here.

Why each workload exists is written down in ``NOTES.md``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import check
from tracer import ROOT, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent

#: Scenarios per campaign: one ``factory-floor`` expansion.
N_SCENARIOS = 128
FAMILY = "factory-floor"
CAMPAIGN = "bench"
#: Consecutive study seeds per ``study-paper`` iteration; one study takes
#: 0.8-1.6 s depending on its seed, so an iteration averages several.
STUDIES_PER_SEED = 4
#: Read passes per ``campaign-warm`` iteration, each with fresh handles.
PASSES_PER_ITERATION = 3
#: Serve processes (and partitions) of ``coord-2w``.
SERVES = 2
CLK_TCK = os.sysconf("SC_CLK_TCK")


def campaign_manifest(seed: int) -> dict:
    """128 ``factory-floor`` scenarios on the vectorized backend."""
    from repro.system.stochastic import named_family

    family = dataclasses.replace(named_family(FAMILY), backend="vectorized")
    return family.manifest(n=N_SCENARIOS, seed=seed)


def manifest_scenario_list(manifest: dict):
    """The manifest's scenarios with seeds resolved as a campaign does."""
    from repro.store.campaign import partition_scenarios
    from repro.system.stochastic import manifest_scenarios

    return partition_scenarios(manifest_scenarios(manifest), 1)[0]


def study_seeds(seed: int) -> List[int]:
    return [seed * STUDIES_PER_SEED + j for j in range(STUDIES_PER_SEED)]


def study_spec(study_seed: int):
    from repro.core.study import paper_study_spec

    return paper_study_spec(study_seed)


# -- per-process probes --------------------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_peak_rss_kb(pid="self") -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set."""
    Path("/proc/self/clear_refs").write_text("5")


def process_age_s() -> float:
    """Seconds since this process was launched (10 ms resolution)."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    return time.clock_gettime(time.CLOCK_BOOTTIME) - int(fields[19]) / CLK_TCK


def store_size(path: Path) -> Tuple[int, int]:
    """(file bytes after a WAL checkpoint, result rows) of one store."""
    conn = sqlite3.connect(str(path))
    try:
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        rows = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
    finally:
        conn.close()
    wal = Path(str(path) + "-wal")
    size = path.stat().st_size + (wal.stat().st_size if wal.exists() else 0)
    return size, rows


def corrupt_one_payload(path: Path) -> None:
    """Flip one digit of one stored payload (the self-test's fault)."""
    conn = sqlite3.connect(str(path))
    try:
        key, payload = conn.execute(
            "SELECT key, payload FROM results ORDER BY key LIMIT 1"
        ).fetchone()
        at = payload.index('"final_voltage":') + len('"final_voltage":')
        while not payload[at].isdigit():
            at += 1
        digit = str((int(payload[at]) + 1) % 10)
        conn.execute(
            "UPDATE results SET payload=? WHERE key=?",
            (payload[:at] + digit + payload[at + 1 :], key),
        )
        conn.commit()
    finally:
        conn.close()


# -- one benchmark invocation -----------------------------------------------------------


class Run:
    """Inputs, scratch space and observations of one invocation."""

    def __init__(self, seed: int, workdir: Path, corrupt: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.corrupt = corrupt
        self.setup_parts: Dict[str, List[float]] = {}
        self.observed: List[Tuple[object, str]] = []
        self.progress: List[List[int]] = []
        self.store_sizes: List[Tuple[int, int]] = []
        self.peak_rss_kb = 0
        self.serve_summaries: List[dict] = []
        self._stores = 0

    def add_setup(self, part: str, seconds: float) -> None:
        self.setup_parts.setdefault(part, []).append(seconds)

    def new_store_path(self) -> Path:
        self._stores += 1
        directory = self.workdir / f"store{self._stores}"
        directory.mkdir()
        return directory / "results.db"

    def on_chunk(self):
        """A fresh progress hook; its reports land in :attr:`progress`."""
        reports: List[int] = []
        self.progress.append(reports)
        return lambda done, total: reports.append(done)

    def note_rss(self, pid="self") -> None:
        self.peak_rss_kb = max(self.peak_rss_kb, proc_peak_rss_kb(pid))

    @contextmanager
    def timed(self, tracer: Optional[Tracer], box: dict):
        """Time one path: wall and CPU into ``box``; traced, a root span.

        The peak resident set is restarted first, so :attr:`peak_rss_kb`
        covers the timed paths only, not the set-up or the read-back.
        """
        reset_peak_rss()
        if tracer is not None:
            tracer.active = True
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            with tracer.span(ROOT) if tracer is not None else nullcontext():
                yield
        finally:
            box["wall"] = time.perf_counter() - start
            box["cpu"] = time.process_time() - cpu0
            if tracer is not None:
                tracer.active = False
        self.note_rss()

    def store_bytes_per_row(self) -> float:
        """Bytes per result row over every store this run checked."""
        return sum(b for b, _ in self.store_sizes) / sum(r for _, r in self.store_sizes)

    def unsaved_max(self) -> int:
        """Largest progress jump between consecutive reports of any run.

        Each run starts from zero; a report is made at every durable
        chunk boundary, so a jump is what a crash at that point would
        have to redo or re-read.
        """
        return max(
            max(b - a for a, b in zip([0] + reports, reports))
            for reports in self.progress
            if reports
        )


def _create_store(run: Run) -> Path:
    from repro.store import ResultStore

    path = run.new_store_path()
    ResultStore(path).close()
    return path


def _time_expansion(run: Run) -> None:
    start = time.perf_counter()
    run.manifest = campaign_manifest(run.seed)
    run.scenarios = manifest_scenario_list(run.manifest)
    run.add_setup("scenario.expand_s", time.perf_counter() - start)


def _read_back_campaign(run: Run, path: Path) -> None:
    from repro.store import ResultStore

    if run.corrupt:
        corrupt_one_payload(path)
    with ResultStore(path) as store:
        digests = check.campaign_row_digests(store, CAMPAIGN)
    run.observed.extend(enumerate(digests))
    run.store_sizes.append(store_size(path))


def _campaign_reference(run: Run, computed: bool):
    recorded = check.recorded_campaign(run.seed)
    if recorded is not None and not computed:
        return dict(enumerate(recorded)), None
    digests, wall = check.campaign_reference(run.scenarios)
    if recorded is not None and recorded != digests:
        raise RuntimeError(
            f"plain run_batch of seed {run.seed} no longer matches the "
            f"recorded digests in {check.TABLE.name}"
        )
    return dict(enumerate(digests)), wall


class CampaignCold:
    name = "campaign-cold"
    min_iterations = 2
    imports = ("repro.store", "repro.system.stochastic", "repro.system.vectorized")

    def setup_base(self, run: Run) -> None:
        _time_expansion(run)
        self._path = _create_store(run)

    def iterate(self, run: Run, tracer: Optional[Tracer]) -> Tuple[float, float]:
        from repro.store import Campaign, ResultStore

        path = self._path or run.new_store_path()
        self._path = None
        store = ResultStore(path)
        hook = run.on_chunk()
        box: dict = {}
        with run.timed(tracer, box):
            Campaign.create(store, CAMPAIGN, run.scenarios).run(jobs=1, on_chunk=hook)
        store.close()
        _read_back_campaign(run, path)
        shutil.rmtree(path.parent)
        return box["wall"], box["cpu"]

    def reference(self, run: Run, computed: bool):
        return _campaign_reference(run, computed)


class CampaignWarm:
    name = "campaign-warm"
    min_iterations = 3
    imports = CampaignCold.imports

    def setup_base(self, run: Run) -> None:
        _time_expansion(run)
        self._path = _create_store(run)

    def fill(self, run: Run) -> None:
        from repro.store import Campaign, ResultStore

        with ResultStore(self._path) as store:
            start = time.perf_counter()
            Campaign.create(store, CAMPAIGN, run.scenarios).run(jobs=1)
            run.add_setup("store.fill_s", time.perf_counter() - start)
        if run.corrupt:
            corrupt_one_payload(self._path)
        run.store_sizes.append(store_size(self._path))
        # One untimed pass: the first read of a fresh file runs slower
        # than the steady state every later pass sees.
        with ResultStore(self._path) as store:
            Campaign(store, CAMPAIGN).run(jobs=1)

    def iterate(self, run: Run, tracer: Optional[Tracer]) -> Tuple[float, float]:
        """Several passes; the digests are taken between them, untimed."""
        from repro.store import Campaign, ResultStore

        wall = cpu = 0.0
        for _ in range(PASSES_PER_ITERATION):
            store = ResultStore(self._path)
            hook = run.on_chunk()
            box: dict = {}
            with run.timed(tracer, box):
                results = Campaign(store, CAMPAIGN).run(jobs=1, on_chunk=hook)
            store.close()
            wall += box["wall"]
            cpu += box["cpu"]
            run.observed.extend(enumerate(check.result_digest(r) for r in results))
            del results
        return wall, cpu

    def reference(self, run: Run, computed: bool):
        return _campaign_reference(run, computed)


class StudyPaper:
    name = "study-paper"
    min_iterations = 2
    imports = ("repro.core.study", "repro.store")

    def setup_base(self, run: Run) -> None:
        run.study_seeds = study_seeds(run.seed)
        self._paths = [_create_store(run) for _ in run.study_seeds]

    def iterate(self, run: Run, tracer: Optional[Tracer]) -> Tuple[float, float]:
        from repro.core.study import Study
        from repro.store import ResultStore

        paths = self._paths or [run.new_store_path() for _ in run.study_seeds]
        self._paths = None
        stores = [ResultStore(path) for path in paths]
        hooks = [run.on_chunk() for _ in stores]
        box: dict = {}
        with run.timed(tracer, box):
            outcomes = [
                Study(study_spec(seed), store=store).run(on_chunk=hook)
                for seed, store, hook in zip(run.study_seeds, stores, hooks)
            ]
        for seed, store, path, outcome in zip(run.study_seeds, stores, paths, outcomes):
            store.close()
            if run.corrupt:
                corrupt_one_payload(path)
            with ResultStore(path) as reader:
                rows = check.stored_row_digests(reader)
            run.observed.append((seed, check.study_digest(outcome, rows)))
            run.store_sizes.append(store_size(path))
            shutil.rmtree(path.parent)
        return box["wall"], box["cpu"]

    def reference(self, run: Run, computed: bool):
        expected: Dict[int, str] = {}
        wall = 0.0
        for seed in run.study_seeds:
            recorded = check.recorded_study(seed)
            if recorded is not None and not computed:
                expected[seed] = recorded
                continue
            expected[seed], seconds = check.study_reference(seed)
            wall += seconds
            if recorded is not None and recorded != expected[seed]:
                raise RuntimeError(
                    f"storeless study of seed {seed} no longer matches the "
                    f"recorded digest in {check.TABLE.name}"
                )
        return expected, (wall if computed else None)


# -- coord-2w: one coordinator, two serve processes ---------------------------------


class Serves:
    """Two ``repro-wsn serve`` processes, each on its own fresh store."""

    def __init__(self, run: Run, traced: bool):
        self.run = run
        self.procs: List[subprocess.Popen] = []
        self.dirs: List[Path] = []
        self.urls: List[str] = []
        start = time.perf_counter()
        try:
            for _ in range(SERVES):
                directory = run.new_store_path().parent
                self.dirs.append(directory)
                command = [
                    sys.executable, str(BENCH_DIR / "serve.py"),
                    "--dump", str(directory / "dump.json"),
                ] + (["--trace"] if traced else []) + [
                    "--", "serve", "--store", str(directory / "results.db"),
                    "--port", "0", "--workers", "1",
                ]
                with open(directory / "serve.log", "w") as log:
                    self.procs.append(
                        subprocess.Popen(
                            command, stdout=log, stderr=subprocess.STDOUT,
                            cwd=str(ROOT_DIR),
                        )
                    )
            self.urls = [self._await_banner(p, d) for p, d in zip(self.procs, self.dirs)]
        except BaseException:
            self.terminate()
            raise
        run.add_setup("service.serve_start_s", time.perf_counter() - start)

    @staticmethod
    def _await_banner(proc: subprocess.Popen, directory: Path) -> str:
        deadline = time.monotonic() + 60.0
        log = directory / "serve.log"
        while time.monotonic() < deadline:
            text = log.read_text()
            if "serving on " in text:
                return text.split("serving on ", 1)[1].split()[0]
            if proc.poll() is not None:
                raise RuntimeError(f"serve exited with {proc.returncode}:\n{text}")
            time.sleep(0.01)
        raise RuntimeError(f"serve did not start within 60 s:\n{log.read_text()}")

    def cpu_s(self) -> float:
        return sum(proc_cpu_s(p.pid) for p in self.procs)

    def note_rss(self) -> None:
        for proc in self.procs:
            self.run.note_rss(proc.pid)

    def terminate(self) -> None:
        """SIGTERM (the graceful drain) and wait for every serve to end."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def stop(self) -> List[dict]:
        """Terminate the serves and collect their dumps."""
        self.terminate()
        dumps = []
        for proc, directory in zip(self.procs, self.dirs):
            dump = directory / "dump.json"
            if proc.returncode != 0 or not dump.is_file():
                raise RuntimeError(
                    f"serve exited with {proc.returncode}:\n"
                    f"{(directory / 'serve.log').read_text()}"
                )
            dumps.append(json.loads(dump.read_text()))
        return dumps


class Coord2W:
    name = "coord-2w"
    min_iterations = 2
    imports = ("repro.coord", "repro.store", "repro.system.stochastic")

    def setup_base(self, run: Run) -> None:
        _time_expansion(run)
        self._path = _create_store(run)

    def iterate(self, run: Run, tracer: Optional[Tracer]) -> Tuple[float, float]:
        from repro.coord import Coordinator
        from repro.store import ResultStore

        path = self._path or run.new_store_path()
        self._path = None
        serves = Serves(run, traced=tracer is not None)
        dumps: List[dict] = []
        try:
            store = ResultStore(path)
            sleep = time.sleep
            if tracer is not None:
                def sleep(seconds: float) -> None:
                    with tracer.span("coord.wait"):
                        time.sleep(seconds)
            serve_cpu0 = serves.cpu_s()
            box: dict = {}
            with run.timed(tracer, box):
                Coordinator(
                    store, run.manifest, serves.urls, name=CAMPAIGN,
                    partitions=SERVES, sleep=sleep,
                ).run()
            serve_cpu = serves.cpu_s() - serve_cpu0
            serves.note_rss()
            store.close()
            dumps = serves.stop()
        finally:
            serves.terminate()
        for dump in dumps:
            run.progress.extend(dump["progress"])
            if tracer is not None:
                run.serve_summaries.append(dump["layers"])
        _read_back_campaign(run, path)
        for directory in [path.parent] + serves.dirs:
            shutil.rmtree(directory)
        return box["wall"], box["cpu"] + serve_cpu

    def reference(self, run: Run, computed: bool):
        return _campaign_reference(run, computed)


WORKLOADS = {w.name: w for w in (CampaignCold, CampaignWarm, StudyPaper, Coord2W)}
