"""Golden seeded rows: every measurement entry point reproduces its pinned output.

``tests/golden_rows.json`` records the exact ``as_rows()`` output (and the
experiment tables) of each seeded entry point below.  Refactors of the sweep
drivers, the dispatch layer or the churn loop must leave every row
byte-identical; a legitimate change to a published number regenerates the
file deliberately with::

    PYTHONPATH=src python tests/test_golden_rows.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.cli import main as cli_main
from repro.dht import KademliaOverlay
from repro.experiments import EXPERIMENTS, run_experiment
from repro.sim.adaptive import AdaptiveConfig
from repro.sim.churn import ChurnConfig, simulate_churn
from repro.sim.static_resilience import build_overlay, sweep_failure_probabilities
from repro.workloads import markov_trace

GOLDEN_PATH = Path(__file__).with_name("golden_rows.json")

#: Severities spanning the routable range up to all-degenerate cells
#: (a 64-node overlay at q=0.99 rarely keeps two survivors).
SWEEP_QS = [0.0, 0.1, 0.4, 0.7, 0.99]


def _cli_payload(arguments: List[str]) -> Dict:
    """Run ``rcm simulate`` with a JSON export and return the exported payload."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "rows.json"
        assert cli_main(["simulate", *arguments, "--json", str(path)]) == 0
        return json.loads(path.read_text(encoding="utf-8"))


def _cli_rows() -> Dict[str, object]:
    common = ["--geometry", "xor", "--d", "7", "--pairs", "150", "--seed", "41",
              "--q", *map(str, SWEEP_QS)]
    adaptive = [*common, "--trials", "5", "--adaptive", "--ci-target", "0.035"]
    rows: Dict[str, object] = {
        "simulate/batch": _cli_payload(common)["rows"],
        "simulate/batch/targeted": _cli_payload([*common, "--failure-model", "targeted"])["rows"],
        "simulate/scalar": _cli_payload([*common, "--engine", "scalar"])["rows"],
    }
    with tempfile.TemporaryDirectory() as scratch:
        ledger = str(Path(scratch) / "ledger.txt")
        recorded = _cli_payload([*adaptive, "--allocation-out", ledger])
        replayed = _cli_payload([*common, "--trials", "5", "--replay-allocation", ledger])
    rows["simulate/adaptive"] = {"rows": recorded["rows"], "points": recorded["adaptive"]["points"]}
    rows["simulate/replay"] = {"rows": replayed["rows"], "points": replayed["adaptive"]["points"]}
    return rows


def _pooled_rows(sweep) -> Dict[str, object]:
    """``as_rows()`` plus the pooled hop and failure-reason tallies behind them."""
    return {
        "rows": sweep.as_rows(),
        "pooled": [
            {
                "trials": result.trials,
                "degenerate_trials": result.degenerate_trials,
                "mean_hops_successful": result.metrics.mean_hops_successful,
                "mean_hops_failed": result.metrics.mean_hops_failed,
                "failure_reasons": {
                    reason.name: count for reason, count in result.metrics.failure_reasons.items()
                },
            }
            for result in sweep.results
        ],
    }


def _sweep_rows() -> Dict[str, object]:
    overlay = build_overlay("ring", 6, seed=5)
    return {
        "sweep/uniform": _pooled_rows(
            sweep_failure_probabilities(overlay, SWEEP_QS, pairs=120, trials=3, seed=8)
        ),
        "sweep/regional": _pooled_rows(
            sweep_failure_probabilities(
                overlay, SWEEP_QS, pairs=120, trials=3, seed=8, failure_models="regional"
            )
        ),
        "sweep/adaptive": _pooled_rows(
            sweep_failure_probabilities(
                overlay,
                SWEEP_QS,
                pairs=120,
                trials=6,
                seed=8,
                adaptive=AdaptiveConfig(ci_target=0.04),
            )
        ),
    }


def _churn_rows() -> Dict[str, object]:
    overlay = KademliaOverlay.build(8, seed=17)
    markov = ChurnConfig(
        leave_probability=0.05, rejoin_probability=0.1, steps_per_epoch=8, pairs_per_step=150
    )
    trace = markov_trace(overlay.n_nodes, 10, 0.06, 0.08, seed=3)
    traced = ChurnConfig(trace=trace, pairs_per_step=150, repair_every=4)
    return {
        "churn/markov": simulate_churn(overlay, markov, seed=11).as_rows(),
        "churn/trace": simulate_churn(overlay, traced, seed=12).as_rows(),
    }


def _experiment_rows() -> Dict[str, object]:
    return {
        f"experiment/{experiment_id}": run_experiment(experiment_id).tables
        for experiment_id in EXPERIMENTS
    }


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"unexpected row value {value!r} ({type(value).__name__})")


def collect_golden_rows() -> str:
    """Every pinned entry point's rows, serialized deterministically."""
    rows = {**_experiment_rows(), **_cli_rows(), **_sweep_rows(), **_churn_rows()}
    return json.dumps(rows, indent=1, sort_keys=True, default=_plain) + "\n"


def test_seeded_rows_match_the_golden_file():
    expected = GOLDEN_PATH.read_text(encoding="utf-8")
    measured = collect_golden_rows()
    if measured != expected:
        expected_rows = json.loads(expected)
        measured_rows = json.loads(measured)
        changed = sorted(
            key
            for key in expected_rows.keys() | measured_rows.keys()
            if json.dumps(expected_rows.get(key), sort_keys=True)
            != json.dumps(measured_rows.get(key), sort_keys=True)
        )
        raise AssertionError(f"seeded rows drifted from {GOLDEN_PATH.name}: {changed}")


if __name__ == "__main__":
    GOLDEN_PATH.write_text(collect_golden_rows(), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
