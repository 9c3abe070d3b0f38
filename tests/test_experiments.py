"""Tests for the experiment harnesses: every paper figure regenerates and its
headline *shape* claims hold on the regenerated data."""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.exceptions import ExperimentError
from repro.workloads.generators import PairWorkload


@pytest.fixture(scope="module")
def fast_config():
    """A configuration small enough for the whole experiment matrix to run in tests."""
    return ExperimentConfig(fast=True, workload=PairWorkload(pairs=250, trials=2, seed=99))


@pytest.fixture(scope="module")
def results(fast_config):
    """Run every registered experiment once (module-scoped: they are reused across tests)."""
    return {experiment_id: run_experiment(experiment_id, fast_config) for experiment_id in EXPERIMENTS}


class TestRegistry:
    def test_expected_experiments_are_registered(self):
        assert {"FIG1-3", "FIG6A", "FIG6B", "FIG7A", "FIG7B", "TAB-SCAL"} <= set(EXPERIMENTS)

    def test_list_experiments_matches_registry(self):
        listed = {entry[0] for entry in list_experiments()}
        assert listed == set(EXPERIMENTS)

    def test_lookup_is_case_insensitive(self):
        assert get_experiment("fig6a").experiment_id == "FIG6A"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            get_experiment("FIG99")


class TestResultPlumbing:
    def test_every_experiment_produces_tables_and_metadata(self, results):
        for experiment_id, result in results.items():
            assert result.experiment_id == experiment_id
            assert result.title
            assert result.paper_reference
            assert result.tables
            for rows in result.tables.values():
                assert rows, f"{experiment_id} produced an empty table"
                keys = set(rows[0])
                assert all(set(row) == keys for row in rows)

    def test_render_includes_every_table_name(self, results):
        for result in results.values():
            text = result.render()
            for name in result.tables:
                assert name in text

    def test_missing_table_lookup_raises(self, results):
        with pytest.raises(ExperimentError):
            results["FIG7A"].table("no-such-table")

    def test_csv_export(self, results):
        csv_text = results["FIG7B"].to_csv("fig7b_routability_percent")
        assert csv_text.splitlines()[0].startswith("n_nodes")


class TestFig123:
    def test_distance_table_matches_figure_three(self, results):
        rows = results["FIG1-3"].table("figure3_distance_table")
        assert [row["n_h"] for row in rows] == [3, 3, 1]

    def test_all_routability_computations_agree(self, results):
        for row in results["FIG1-3"].table("routability_validation"):
            assert row["p3_closed_form"] == pytest.approx(row["p3_markov_chain"], abs=1e-9)
            # The exact-denominator RCM value matches the full enumeration very tightly;
            # the paper's (1-q)N - 1 approximation is loose at this 8-node toy size.
            assert row["routability_exact_denominator"] == pytest.approx(
                row["routability_exact_definition"], abs=0.02
            )
            assert row["routability_rcm"] == pytest.approx(
                row["routability_exact_definition"], abs=0.2
            )
            # The Monte-Carlo estimate averages per-pattern ratios (equal pairs per
            # pattern) while Definition 1 is a ratio of expectations, so allow a
            # slightly wider band on top of sampling noise.
            assert row["routability_simulated"] == pytest.approx(
                row["routability_exact_definition"], abs=0.15
            )


class TestFig6a:
    def test_columns_present(self, results):
        rows = results["FIG6A"].table("fig6a_failed_path_percent")
        expected_columns = {
            "q",
            "tree_analytical",
            "tree_simulated",
            "hypercube_analytical",
            "hypercube_simulated",
            "xor_analytical",
            "xor_simulated",
        }
        assert set(rows[0]) == expected_columns

    def test_zero_failure_row_is_all_zero(self, results):
        first = results["FIG6A"].table("fig6a_failed_path_percent")[0]
        assert first["q"] == 0.0
        assert all(value == pytest.approx(0.0) for key, value in first.items() if key != "q")

    def test_paper_ordering_tree_worst_hypercube_best(self, results):
        for row in results["FIG6A"].table("fig6a_failed_path_percent"):
            if row["q"] >= 0.15:
                assert row["tree_analytical"] > row["xor_analytical"] > row["hypercube_analytical"]
                assert row["tree_simulated"] >= row["hypercube_simulated"]

    def test_curves_increase_with_failure_probability(self, results):
        rows = results["FIG6A"].table("fig6a_failed_path_percent")
        analytical = [row["hypercube_analytical"] for row in rows]
        assert analytical == sorted(analytical)


class TestFig6b:
    def test_analytical_curve_is_an_upper_bound_in_the_practical_region(self, results):
        for row in results["FIG6B"].table("fig6b_failed_path_percent"):
            if 0.0 < row["q"] <= 0.2:
                assert row["ring_analytical_upper_bound"] >= row["ring_simulated"] - 6.0

    def test_gap_column_is_consistent(self, results):
        for row in results["FIG6B"].table("fig6b_failed_path_percent"):
            assert row["bound_gap"] == pytest.approx(
                row["ring_analytical_upper_bound"] - row["ring_simulated"]
            )


class TestFig7a:
    def test_unscalable_geometries_collapse_at_asymptotic_size(self, results):
        for row in results["FIG7A"].table("fig7a_failed_path_percent"):
            if row["q"] >= 0.15:
                assert row["tree"] > 99.0
                assert row["smallworld"] > 99.0

    def test_scalable_geometries_stay_close_to_reference_size(self, results):
        drift = {
            row["geometry"]: row["max_abs_change_vs_2^16"]
            for row in results["FIG7A"].table("drift_vs_reference_size")
        }
        # The scalable geometries move by at most a few points between N = 2^16 and
        # N = 2^100 (the worst case sits around q ≈ 0.8); the tree collapses.
        assert drift["hypercube"] < 10.0
        assert drift["xor"] < 12.0
        assert drift["ring"] < 12.0
        assert drift["tree"] > 20.0


class TestFig7b:
    def test_summary_classification(self, results):
        summary = {row["geometry"]: row for row in results["FIG7B"].table("scaling_summary")}
        assert summary["tree"]["monotonically_degrading"]
        assert summary["smallworld"]["monotonically_degrading"]
        for geometry in ("hypercube", "xor", "ring"):
            assert summary[geometry]["routability_at_largest_n"] > 90.0

    def test_tree_routability_decays_with_size(self, results):
        rows = results["FIG7B"].table("fig7b_routability_percent")
        tree = [row["tree"] for row in rows]
        assert tree[0] > tree[-1]
        # By a few billion nodes the tree has lost most of its routability at q = 0.1
        # (it keeps sliding towards zero beyond the plotted range).
        assert tree[-1] < 30.0


class TestScalabilityTable:
    def test_classification_matches_the_paper(self, results):
        verdicts = {
            row["geometry"]: row["scalable"]
            for row in results["TAB-SCAL"].table("scalability_classification")
        }
        assert verdicts == {
            "tree": False,
            "hypercube": True,
            "xor": True,
            "ring": True,
            "smallworld": False,
        }

    def test_numerics_are_consistent_for_every_row(self, results):
        assert all(
            row["numerics_consistent"]
            for row in results["TAB-SCAL"].table("scalability_classification")
        )


class TestExtensions:
    def test_symphony_sensitivity_increases_with_degree(self, results):
        rows = results["EXT-SYM"].table("symphony_sensitivity")
        sparse = next(row for row in rows if row["kn"] == 1 and row["ks"] == 1)
        dense = next(row for row in rows if row["kn"] == 4 and row["ks"] == 4)
        assert dense["routability_d20"] > sparse["routability_d20"]

    def test_xor_gain_over_tree_is_positive_and_grows_with_size(self, results):
        d16 = results["EXT-XOR-TREE"].table("ablation_d16")
        d100 = results["EXT-XOR-TREE"].table("ablation_d100")
        for row16, row100 in zip(d16, d100):
            if row16["q"] > 0.0:
                assert row16["xor_gain_over_tree"] > 0.0
            # In the regime where both systems still deliver a useful fraction of
            # messages, the fallback's advantage widens with system size.
            if 0.0 < row16["q"] <= 0.45:
                assert row100["xor_gain_over_tree"] >= row16["xor_gain_over_tree"] - 1e-6

    def test_percolation_gap_is_larger_for_tree_than_xor(self, results):
        rows = results["EXT-PERC"].table("percolation_vs_routability")
        tree_gaps = [r["connectivity_minus_routability"] for r in rows if r["geometry"] == "tree"]
        xor_gaps = [r["connectivity_minus_routability"] for r in rows if r["geometry"] == "xor"]
        assert sum(tree_gaps) / len(tree_gaps) > sum(xor_gaps) / len(xor_gaps)


class TestConfigScaling:
    def test_fast_mode_uses_smaller_overlays(self):
        config = ExperimentConfig(fast=True)
        assert config.resolved_simulation_d(full_default=16, fast_default=10) == 10

    def test_explicit_simulation_d_wins(self):
        config = ExperimentConfig(fast=True, simulation_d=12)
        assert config.resolved_simulation_d(full_default=16, fast_default=10) == 12

    def test_fast_mode_scales_down_the_workload(self):
        config = ExperimentConfig(fast=True, workload=PairWorkload(pairs=1000, trials=2))
        assert config.resolved_workload().pairs < 1000
        full = ExperimentConfig(fast=False, workload=PairWorkload(pairs=1000, trials=2))
        assert full.resolved_workload().pairs == 1000


class TestFailureModes:
    def test_registered_and_listed(self):
        assert "EXT-FAILMODES" in EXPERIMENTS
        assert get_experiment("ext-failmodes").experiment_id == "EXT-FAILMODES"

    def test_one_table_per_model_plus_summary(self, results):
        result = results["EXT-FAILMODES"]
        assert set(result.tables) == {
            "failed_path_percent_uniform",
            "failed_path_percent_targeted",
            "failed_path_percent_regional",
            "model_comparison_at_reference_severity",
        }
        from repro.experiments.failure_modes import FAILMODE_GEOMETRIES

        for name in ("uniform", "targeted", "regional"):
            rows = result.table(f"failed_path_percent_{name}")
            assert set(rows[0]) == {"severity", *FAILMODE_GEOMETRIES}

    def test_no_failures_means_no_failed_paths_under_every_model(self, results):
        from repro.experiments.failure_modes import FAILMODE_GEOMETRIES

        for name in ("uniform", "targeted", "regional"):
            row = results["EXT-FAILMODES"].table(f"failed_path_percent_{name}")[0]
            assert row["severity"] == 0.0
            for geometry in FAILMODE_GEOMETRIES:
                assert row[geometry] == pytest.approx(0.0)

    def test_values_are_percentages_or_missing(self, results):
        from repro.experiments.failure_modes import FAILMODE_GEOMETRIES

        for name in ("uniform", "targeted", "regional"):
            for row in results["EXT-FAILMODES"].table(f"failed_path_percent_{name}"):
                for geometry in FAILMODE_GEOMETRIES:
                    value = row[geometry]
                    assert value is None or (
                        0.0 <= value <= 100.0 and not math.isnan(value)
                    )

    def test_uniform_table_matches_direct_sweep_runner(self, results, fast_config):
        # The experiment's uniform column is the ordinary SweepRunner sweep:
        # same seeds, same engine, so the numbers must agree exactly.
        from repro.experiments.failure_modes import FAST_D
        from repro.sim.engine import SweepRunner

        workload = fast_config.resolved_workload()
        result = results["EXT-FAILMODES"]
        severities = list(result.parameters["severities"])
        with SweepRunner(
            pairs=workload.pairs,
            replicates=workload.trials,
            base_seed=workload.derived_seed("failmodes"),
        ) as runner:
            sweep = runner.sweep("xor", FAST_D, severities, failure_model="uniform")
        expected = [
            100.0 * r.metrics.failed_path_fraction_or_none if r.metrics.measured else None
            for r in sweep.results
        ]
        observed = [row["xor"] for row in result.table("failed_path_percent_uniform")]
        assert observed == expected


class TestCellDispatch:
    """Experiments ask their runner for every grid cell exactly once."""

    @pytest.mark.parametrize("experiment_id", ["FIG6A", "FIG7A", "EXT-FAILMODES"])
    def test_fast_mode_computes_each_grid_cell_once(self, experiment_id, fast_config, monkeypatch):
        from repro.core.geometries import PAPER_GEOMETRIES
        from repro.experiments.failure_modes import FAILMODE_GEOMETRIES, FAILMODE_MODELS
        from repro.experiments.fig6a_static_resilience import FIG6A_GEOMETRIES
        from repro.sim import engine
        from repro.workloads.generators import paper_failure_probabilities

        grid_axes = {
            "FIG6A": (FIG6A_GEOMETRIES, 1),
            "FIG7A": (PAPER_GEOMETRIES, 1),
            "EXT-FAILMODES": (FAILMODE_GEOMETRIES, len(FAILMODE_MODELS)),
        }
        geometries, models = grid_axes[experiment_id]
        computed = []
        run_group = engine._run_fused_group

        def counting_run_group(spec):
            computed.extend(spec[0])
            return run_group(spec)

        monkeypatch.setattr(engine, "_run_fused_group", counting_run_group)
        run_experiment(experiment_id, fast_config)
        grid_size = (
            len(geometries)
            * models
            * len(paper_failure_probabilities(fast=True))
            * fast_config.resolved_workload().trials
        )
        assert len(computed) == len(set(computed)) == grid_size

    def test_adaptive_sweeps_are_served_by_the_uniform_cells(self, fast_config, monkeypatch):
        from repro.sim.engine import SweepRunner

        adaptive_stats = []
        sweep = SweepRunner.sweep

        def recording_sweep(self, *args, adaptive=None, **kwargs):
            result = sweep(self, *args, adaptive=adaptive, **kwargs)
            if adaptive is not None:
                adaptive_stats.append(self.last_run_stats)
            return result

        monkeypatch.setattr(SweepRunner, "sweep", recording_sweep)
        run_experiment("EXT-ADAPTIVE", fast_config)
        assert adaptive_stats
        for stats in adaptive_stats:
            assert stats.computed == 0
            assert stats.store_hits == stats.requested > 0
