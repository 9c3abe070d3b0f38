"""The ``service_mix`` workload: a closed-loop client against ``rcm serve``.

The client submits its next job only after the previous one completed:
``POST /v1/sweeps``, then ``GET /v1/jobs/{id}/stream`` until the ``end``
event, then ``GET /v1/jobs/{id}/results``.  A job's latency runs from the
submit to the last byte of the results body.  Callers of the service are
scripts and notebooks that each wait for their reply, hence a closed loop.

The job sequence is a seeded mix of four request classes.  Every request
body comes from a fixed catalog whose results were recorded in
``reference.json`` at the commit that defined the benchmark (``record.py``),
so each job is checked against rows recorded from an in-process sweep of
the same cell identity:

* ``cold``: xor+ring sweeps at d=12 with a base seed not used before in
  the run, so cells are computed and written to the store;
* ``warm``: an exact repeat of an earlier, completed cold request, so it
  is served from the runner memo or the store without computing;
* ``adaptive``: variance-adaptive xor sweeps at d=8;
* ``churn``: Markov-churn xor traces at d=11.
"""

from __future__ import annotations

import bisect
import http.client
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import child_env, rows_digest

CLASSES = ("cold", "warm", "adaptive", "churn")
#: One block of the job sequence: 10% cold, 50% warm, 20% adaptive, 20% churn.
#: Nothing records the service's real traffic; these shares are assumptions
#: (NOTES.md gives the reason for each), so the per-class medians are the
#: primary service metrics and the all-jobs figures depend on this block.
#: A cold job takes about eight times as long as a small one, so at 10% it
#: still fills about half the loop's time.
BLOCK = ("cold",) * 2 + ("warm",) * 10 + ("adaptive",) * 4 + ("churn",) * 4
#: Catalog sizes; a run stops issuing a class's fresh requests when its
#: catalog is used up, so they leave room for a program several times faster.
CATALOG_SIZES = {"cold": 800, "adaptive": 600, "churn": 600}
SEED_BASE = {"cold": 1_000_000, "adaptive": 2_000_000, "churn": 3_000_000}
#: A warm request repeats a cold request at least this many positions back.
WARM_LAG = 4
SEQUENCE_LENGTH = 20_000
STARTUP_TIMEOUT = 60.0
JOB_TIMEOUT = 60.0

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


def request_body(kind: str, index: int) -> Dict:
    """The catalog request ``index`` of class ``kind``.

    Latencies land on the 50 ms grid of the stream poll.  A cold job's work
    spans several grid cells (about 0.35-0.6 s), so its median moves by one
    cell, a tenth to a seventh of it, when host speed shifts.  The other
    classes are sized to finish well inside the first cell even on a busy
    host, so their latency is the poll floor.
    """
    seed = SEED_BASE[kind] + index
    if kind == "cold":
        return {"geometries": ["xor", "ring"], "d": 12, "q": [0.1, 0.3, 0.5],
                "pairs": 10000, "trials": 3, "seed": seed}
    if kind == "adaptive":
        return {"geometries": ["xor"], "d": 8, "q": [0.1, 0.3, 0.5],
                "pairs": 200, "trials": 6, "seed": seed,
                "adaptive": {"ci_target": 0.02, "min_trials": 2}}
    if kind == "churn":
        return {"geometries": ["xor"], "d": 11, "pairs": 400, "seed": seed,
                "churn": {"generator": "markov", "steps": 6}}
    raise ValueError(kind)


@dataclass(frozen=True)
class Job:
    """One entry of the job sequence: a class and the catalog entry it sends."""

    kind: str
    catalog: str
    index: int

    @property
    def body(self) -> Dict:
        return request_body(self.catalog, self.index)


def job_sequence(seed: int, length: int = SEQUENCE_LENGTH) -> List[Job]:
    """The seeded job sequence.

    Jobs come in blocks of :data:`BLOCK` holding every class in its exact
    share, shuffled per block, so each run serves the same mix whatever the
    seed.  Each class's fresh requests follow a seeded permutation of its
    catalog, and the sequence ends when a catalog is used up.
    """
    rng = random.Random(seed)
    orders = {kind: rng.sample(range(size), size) for kind, size in CATALOG_SIZES.items()}
    used = {kind: 0 for kind in CATALOG_SIZES}
    sequence: List[Job] = []
    cold_positions: List[int] = []
    while len(sequence) < length:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            eligible = bisect.bisect_right(cold_positions, len(sequence) - WARM_LAG)
            if kind == "warm" and eligible:
                original = cold_positions[rng.randrange(eligible)]
                sequence.append(Job("warm", "cold", sequence[original].index))
                continue
            if kind == "warm":
                kind = "cold"
            if used[kind] == CATALOG_SIZES[kind]:
                return sequence
            index = orders[kind][used[kind]]
            used[kind] += 1
            if kind == "cold":
                cold_positions.append(len(sequence))
            sequence.append(Job(kind, kind, index))
    return sequence


def strip_backend(shards: List[Dict]) -> List[Dict]:
    """Shard results without the backend label (an execution-shape detail)."""
    return [{key: value for key, value in shard.items() if key != "backend"} for shard in shards]


def inprocess_results(body: Dict) -> List[Dict]:
    """The shard results the service returns for ``body``, computed in-process
    with ``SweepRunner.sweep`` / ``simulate_churn`` on the same cell identity."""
    from repro.sim.adaptive import AdaptiveConfig
    from repro.sim.churn import ChurnConfig, simulate_churn
    from repro.sim.engine import SweepRunner
    from repro.sim.static_resilience import build_overlay
    from repro.workloads.traces import markov_trace

    shards = []
    if "churn" in body:
        churn = body["churn"]
        for geometry in body["geometries"]:
            overlay = build_overlay(geometry, body["d"], seed=body["seed"])
            trace = markov_trace(overlay.n_nodes, churn["steps"], leave_probability=0.02,
                                 rejoin_probability=0.05, seed=body["seed"])
            result = simulate_churn(
                overlay, ChurnConfig(pairs_per_step=body["pairs"], trace=trace), seed=body["seed"]
            )
            shards.append({"geometry": result.geometry, "d": result.d, "failure_model": "churn",
                           "churn": dict(churn), "rows": result.as_rows()})
        return shards
    adaptive = body.get("adaptive")
    config = None if adaptive is None else AdaptiveConfig(
        ci_target=adaptive["ci_target"], min_trials=adaptive.get("min_trials", 2)
    )
    with SweepRunner(pairs=body["pairs"], replicates=body["trials"], base_seed=body["seed"]) as runner:
        for geometry in body["geometries"]:
            sweep = runner.sweep(geometry, body["d"], body["q"], "uniform", adaptive=config)
            shard = {"geometry": sweep.geometry, "system": sweep.system, "d": sweep.d,
                     "failure_model": sweep.failure_model, "rows": sweep.as_rows()}
            report = runner.last_adaptive_report
            if report is not None:
                shard["adaptive"] = {
                    "rounds": report.rounds,
                    "trials_allocated": report.trials_allocated,
                    "trials_uniform": report.trials_uniform,
                    "trials_saved": report.trials_saved,
                    "max_ci_halfwidth": report.max_halfwidth,
                    "points": report.as_rows(),
                }
            shards.append(shard)
    return shards


def inprocess_digest(body: Dict) -> str:
    """Digest of :func:`inprocess_results` after the service's JSON round trip."""
    return rows_digest(json.loads(json.dumps(inprocess_results(body), allow_nan=False)))


# --------------------------------------------------------------------- #
# server process
# --------------------------------------------------------------------- #
class Server:
    """An ``rcm serve --port 0`` subprocess with a fresh SQLite store."""

    def __init__(self, workdir: Path, name: str, spans_path: Optional[Path] = None) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.stderr_path = workdir / f"{name}.stderr"
        store = workdir / f"{name}.db"
        serve_args = ["serve", "--port", "0", "--store", str(store)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            launcher = Path(__file__).resolve().parent / "serve_launcher.py"
            command = [sys.executable, str(launcher), str(spans_path), *serve_args]
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, env=child_env(), text=True
        )
        self.host, self.port = self._await_listening()
        self.setup_s = time.perf_counter() - started

    def _await_listening(self) -> Tuple[str, int]:
        lines: List[str] = []
        # A server that hangs before printing is killed, which ends readline.
        watchdog = threading.Timer(STARTUP_TIMEOUT, self.process.kill)
        watchdog.start()
        try:
            for line in iter(self.process.stdout.readline, ""):
                lines.append(line)
                match = _LISTENING.search(line)
                if match:
                    return match.group(1), int(match.group(2))
        finally:
            watchdog.cancel()
        self.stop()
        raise RuntimeError(f"server did not start: {''.join(lines)!r}; see {self.stderr_path}")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``) in MiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()
        self._stderr.close()


# --------------------------------------------------------------------- #
# closed-loop clients
# --------------------------------------------------------------------- #
@dataclass
class JobRecord:
    """What one client observed for one job."""

    job: Job
    latency_s: float = 0.0
    ok: bool = False
    digest: Optional[str] = None
    error: Optional[str] = None
    status: Dict = field(default_factory=dict)
    backends: List[str] = field(default_factory=list)
    end_received_wall: float = 0.0


def _request(host: str, port: int, method: str, path: str, body: Optional[bytes] = None):
    connection = http.client.HTTPConnection(host, port, timeout=JOB_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _stream_end(host: str, port: int, path: str) -> Tuple[Dict, float]:
    """Read the NDJSON stream until the ``end`` event; return it and its receipt time."""
    connection = http.client.HTTPConnection(host, port, timeout=JOB_TIMEOUT)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        if response.status != 200:
            raise RuntimeError(f"stream answered {response.status}")
        for raw in response:
            event = json.loads(raw)
            if event.get("event") == "end":
                return event, time.time()
        raise RuntimeError("stream closed without an end event")
    finally:
        connection.close()


def run_job(host: str, port: int, job: Job) -> JobRecord:
    """Submit one job, wait on its stream for ``end``, fetch its results."""
    record = JobRecord(job=job)
    started = time.perf_counter()
    try:
        status, payload = _request(host, port, "POST", "/v1/sweeps",
                                   json.dumps(job.body).encode("utf-8"))
        if status != 202:
            raise RuntimeError(f"submit answered {status}: {payload[:200]!r}")
        links = json.loads(payload)["links"]
        end, record.end_received_wall = _stream_end(host, port, links["stream"])
        status, payload = _request(host, port, "GET", links["results"])
        record.latency_s = time.perf_counter() - started
        if status != 200:
            raise RuntimeError(f"results answered {status}")
        document = json.loads(payload)
        record.status = end["status"]
        if document["state"] != "done":
            raise RuntimeError(f"job ended {document['state']}")
        record.digest = rows_digest(strip_backend(document["results"]))
        record.backends = sorted({str(shard.get("backend")) for shard in document["results"]})
        record.ok = True
    except (OSError, RuntimeError, ValueError, KeyError, http.client.HTTPException) as error:
        record.latency_s = time.perf_counter() - started
        record.error = f"{type(error).__name__}: {error}"
    return record


def closed_loop(host: str, port: int, sequence: List[Job],
                seconds: float) -> Tuple[List[JobRecord], float]:
    """One closed-loop client over ``sequence`` for ``seconds``.

    Each job is submitted after the previous one completed, so a warm job's
    original has always completed before it.  One client keeps the server to
    one job at a time, on one core of the 2-core host: with two clients, two
    cold jobs ran at once on both cores and any other load on the machine
    slowed them (NOTES.md, "One client, not two").  Returns the job records in
    sequence order and the loop's elapsed time (until the last job completed).
    """
    records: List[JobRecord] = []
    started = time.perf_counter()
    deadline = started + seconds
    for job in sequence:
        if time.perf_counter() >= deadline:
            break
        records.append(run_job(host, port, job))
    return records, time.perf_counter() - started


def reference_digest(reference: Dict, job: Job) -> str:
    """The recorded digest of the catalog entry ``job`` sends."""
    return reference["service_mix"][job.catalog][job.index]
