"""Vendored one-task-per-cell sweep dispatch: the per-cell reference of the sweep gates.

``SweepRunner`` used to offer a second dispatch mode next to its fused
overlay groups: every ``(geometry, d, q, replicate, model)`` cell ran as its
own engine task — recall the overlay build, sample the cell's survival mask
and pairs from its own entropy stream, route them with one ``route_pairs``
call and summarise.  The runner now dispatches fused groups only; this
module keeps the per-cell shape, in-process, as the reference that
``test_bench_sweep.py`` and ``test_bench_failmodes.py`` time the fused path
against and cross-check it with, cell for cell.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.dht.metrics import summarize_routes
from repro.sim.engine import (
    SweepCell,
    SweepCellResult,
    _cached_overlay,
    _sample_cell,
    route_pairs,
)


def run_grid_per_cell(
    geometries: Sequence[str],
    d: int,
    failure_probabilities: Sequence[float],
    failure_models: Sequence[str] = ("uniform",),
    *,
    pairs: int,
    replicates: int,
    base_seed: int,
    backend: str,
    batch_size: Optional[int] = None,
) -> Dict[SweepCell, SweepCellResult]:
    """Route every cell of the grid as its own task; cell -> result.

    Cells are visited in ``SweepRunner``'s grid order (geometry, model,
    replicate, q), so consecutive cells share the cached overlay build.
    """
    results: Dict[SweepCell, SweepCellResult] = {}
    for geometry in geometries:
        for model in failure_models:
            for replicate in range(replicates):
                for q in failure_probabilities:
                    cell = SweepCell(
                        geometry=geometry, d=d, q=float(q), replicate=replicate, model=model
                    )
                    results[cell] = _run_cell(cell, pairs, base_seed, backend, batch_size)
    return results


def _run_cell(
    cell: SweepCell, pairs: int, base_seed: int, backend: str, batch_size: Optional[int]
) -> SweepCellResult:
    overlay = _cached_overlay(cell.geometry, cell.d, cell.replicate, base_seed, ())
    sampled = _sample_cell(overlay, cell, pairs, base_seed)
    if sampled is None:
        return SweepCellResult(cell=cell, pairs=pairs, metrics=summarize_routes(()), degenerate=True)
    alive, sources, destinations = sampled
    outcome = route_pairs(
        overlay, sources, destinations, alive, batch_size=batch_size, backend=backend
    )
    return SweepCellResult(cell=cell, pairs=pairs, metrics=outcome.to_metrics())
