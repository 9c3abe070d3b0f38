"""Tests of the benchmark harness itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import pytest

from common import BENCH_DIR, METRIC_NAME, ROOT, child_env, percentile, rows_digest, supported_tail
import service_mix
from service_mix import WARM_LAG, Job, JobRecord, closed_loop, job_sequence
from run import block_mean_latencies
from tracing import layer_metrics, self_times

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Per-layer metrics the traced run adds beyond :func:`tracing.layer_metrics`.
CLIENT_SIDE_LAYER_METRICS = {
    "jobs.queue_wait_ms_p50", "jobs.run_ms_p50", "jobs.retries", "http.stream_lag_ms_p50",
    "trace.wall_s", "trace.overhead_s", "trace.requests",
}


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
        assert len(name) <= 64


def test_per_layer_metrics_match_what_the_traced_run_reports():
    reported = set(layer_metrics([], requests=1)) | CLIENT_SIDE_LAYER_METRICS
    assert reported == {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (39, None), (40, 75.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (10_000, 99.9)],
)
def test_percentile_rule_needs_ten_samples_beyond_the_tail(n, expected):
    assert supported_tail(n) == expected


def test_percentile_interpolates_linearly():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 95) == pytest.approx(4.8)
    assert percentile([7.0], 95) == 7.0


def test_digest_rejects_a_one_ulp_change_to_one_row():
    rows = [{"q": 0.1, "routability": 0.9876543210123}, {"q": 0.2, "routability": 0.5}]
    changed = [dict(row) for row in rows]
    changed[0]["routability"] = math.nextafter(changed[0]["routability"], math.inf)
    assert rows_digest([dict(row) for row in rows]) == rows_digest(rows)
    assert rows_digest(changed) != rows_digest(rows)


def _span(span_id, parent, layer, start, end, **attrs):
    return {"id": span_id, "parent": parent, "name": f"s{span_id}", "layer": layer,
            "start": start, "end": end, "thread": 1, "job_id": None, "attrs": attrs}


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    spans = [
        _span(1, None, None, 0.0, 10.0),            # root: 10 - 3 - 4 = 3 unaccounted
        _span(2, 1, "prepare", 1.0, 4.0),           # 3
        _span(3, 1, "engine", 5.0, 9.0),            # 4 - 1 (child) = 3
        _span(4, 3, "hops", 6.0, 7.0, pairs=5, pair_hops=20),
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}
    metrics = layer_metrics(spans, requests=1)
    assert metrics["prepare.s"] == 3.0
    assert metrics["engine.dispatch_self_s"] == 3.0
    assert metrics["hops.s"] == 1.0
    assert metrics["hops.ns_per_pair_hop"] == pytest.approx(1e9 / 20)
    assert metrics["trace.unaccounted_s"] == 3.0
    assert metrics["trace.layer_self_s"] + metrics["trace.unaccounted_s"] == 10.0


def test_overlapping_children_are_counted_once_and_clipped_to_the_parent():
    spans = [
        _span(1, None, "engine", 0.0, 10.0),
        _span(2, 1, "hops", 1.0, 5.0),
        _span(3, 1, "hops", 3.0, 8.0),
        _span(4, 1, "hops", 9.0, 12.0),
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 7.0 - 1.0)


def test_nested_spans_of_one_layer_count_one_call_and_one_mask_total():
    spans = [
        _span(1, None, "failures", 0.0, 2.0, masks=1),
        _span(2, 1, "failures", 0.5, 1.5, masks=1),
    ]
    metrics = layer_metrics(spans, requests=1)
    assert metrics["failures.masks"] == 1
    assert metrics["failures.sample_s"] == 2.0


def test_job_sequence_is_seeded_and_warm_jobs_repeat_earlier_cold_jobs():
    first, again, other = job_sequence(5, 400), job_sequence(5, 400), job_sequence(6, 400)
    assert first == again and first != other
    cold_at = {}
    for position, job in enumerate(first):
        if job.kind == "cold":
            assert job.index not in cold_at, "a cold request must be fresh within the run"
            cold_at[job.index] = position
        elif job.kind == "warm":
            assert cold_at[job.index] <= position - WARM_LAG


def test_a_warm_job_is_submitted_only_after_its_original_completed(monkeypatch):
    sequence = [Job("cold", "cold", 7), Job("adaptive", "adaptive", 1),
                Job("warm", "cold", 7), Job("churn", "churn", 2)]
    events = []

    def fake_run_job(host, port, job):
        events.append(("submit", job.kind))
        time.sleep(0.2 if job.kind == "cold" else 0.01)
        events.append(("done", job.kind))
        return JobRecord(job=job, ok=True)

    monkeypatch.setattr(service_mix, "run_job", fake_run_job)
    records, _ = closed_loop("localhost", 0, sequence, seconds=5.0)
    assert [r.job for r in records] == sequence
    assert events.index(("done", "cold")) < events.index(("submit", "warm"))


def test_block_means_skip_the_first_block_and_blocks_with_a_failure():
    size = len(service_mix.BLOCK)
    job = Job("churn", "churn", 0)
    records = [JobRecord(job=job, ok=True, latency_s=1.0 + position // size)
               for position in range(4 * size + 3)]
    records[2 * size + 1].ok = False
    assert block_mean_latencies(records) == [2.0, 4.0]


def test_traced_layers_add_up_to_the_traced_wall_time():
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        "from tracing import SpanRecorder, install, layer_metrics, subtree\n"
        "recorder = SpanRecorder(); install(recorder)\n"
        "from repro.sim.engine import SweepRunner\n"
        "with recorder.root('call') as root_id:\n"
        "    with SweepRunner(pairs=50, replicates=2) as runner:\n"
        "        runner.run(['xor', 'tree'], 8, [0.1, 0.4])\n"
        "spans = subtree(recorder.spans, root_id)\n"
        "wall = next(s for s in spans if s['id'] == root_id)\n"
        "m = layer_metrics(spans, requests=1)\n"
        "print(json.dumps({'wall': wall['end'] - wall['start'], **m}))\n"
    )
    output = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=child_env(), check=True, timeout=120).stdout
    metrics = json.loads(output.splitlines()[-1])
    assert metrics["trace.layer_self_s"] + metrics["trace.unaccounted_s"] == pytest.approx(
        metrics["wall"], abs=1e-9
    )
    assert metrics["dht.builds"] == 4
    assert metrics["failures.masks"] == 8
    assert metrics["hops.pairs"] == 8 * 50
    assert metrics["engine.cells_computed"] == 8
