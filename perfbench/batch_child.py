"""One fresh interpreter of a batch workload, as a command-line user runs it.

Usage: ``python3 perfbench/batch_child.py WORKLOAD INPUT_SEED SPANS_PATH``
(``SPANS_PATH`` is ``-`` for an untraced run).  The program under test must
be importable (``src`` on ``PYTHONPATH``).

The child imports the program and loads its registries, then makes the
workload's public call twice: once cold, right after start-up, and once
warm, as a repeat in the same process.  After each step it prints one JSON
line; the parent stamps their arrival.  Only the cold call is traced.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from common import rows_digest
from tracing import SpanRecorder, install, subtree

#: large_n_d18: the three scan specs at N = 2^18.
D18_GEOMETRIES = ("xor", "ring", "smallworld")
D18_Q = (0.1, 0.3, 0.5)


def _say(record) -> None:
    print(json.dumps(record), flush=True)


def _cell_row(result):
    cell, metrics = result.cell, result.metrics
    return {
        "geometry": cell.geometry,
        "d": cell.d,
        "q": cell.q,
        "replicate": cell.replicate,
        "model": cell.model,
        "pairs": result.pairs,
        "degenerate": result.degenerate,
        "attempts": metrics.attempts,
        "successes": metrics.successes,
        "mean_hops_successful": metrics.mean_hops_successful,
        "mean_hops_failed": metrics.mean_hops_failed,
        "failure_reasons": {reason.name: count for reason, count in metrics.failure_reasons.items()},
    }


def main(argv) -> int:
    workload, input_seed, spans_path = argv[0], int(argv[1]), argv[2]

    if workload == "fig6a_paper":
        from repro.experiments.base import ExperimentConfig
        from repro.experiments.registry import EXPERIMENTS, run_experiment
        from repro.workloads.generators import PairWorkload

        if "FIG6A" not in EXPERIMENTS:
            raise SystemExit("FIG6A is not registered")
        config = ExperimentConfig(
            fast=False, workload=PairWorkload(pairs=2000, trials=3, seed=input_seed), workers=1
        )

        def call():
            result = run_experiment("FIG6A", config)
            return result.table("fig6a_failed_path_percent")

    elif workload == "large_n_d18":
        from repro.dht.network import OVERLAY_CLASSES
        from repro.sim.engine import SweepRunner

        if not all(geometry in OVERLAY_CLASSES for geometry in D18_GEOMETRIES):
            raise SystemExit("a large_n_d18 geometry is not registered")

        def call():
            runner = SweepRunner(pairs=2000, replicates=3, workers=1, base_seed=input_seed)
            try:
                cells = runner.run(list(D18_GEOMETRIES), 18, list(D18_Q))
            finally:
                runner.close()
            return [_cell_row(result) for result in cells.values()]

    else:
        raise SystemExit(f"unknown batch workload {workload!r}")

    from repro.sim.backends import resolve_backend

    backend = resolve_backend("auto").name
    _say({"event": "ready", "t": time.perf_counter(), "backend": backend})

    recorder = None
    if spans_path != "-":
        recorder = SpanRecorder()
        install(recorder)

    for phase in ("cold", "warm"):
        if recorder is not None and phase == "cold":
            with recorder.root("call.cold") as root_id:
                start = time.perf_counter()
                rows = call()
                wall = time.perf_counter() - start
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump(subtree(recorder.spans, root_id), handle)
        else:
            start = time.perf_counter()
            rows = call()
            wall = time.perf_counter() - start
        _say({"event": phase, "wall": wall, "digest": rows_digest(rows)})

    # ru_maxrss is in KiB on Linux.
    _say({"event": "exit", "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
