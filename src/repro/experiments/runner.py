"""Cell execution and matrix orchestration.

:func:`run_cell` executes one matrix cell — every repeat — fully
in-process and returns its :class:`~repro.experiments.results.CellResult`.
:func:`run_matrix` orchestrates a whole spec, by default isolating each
cell in a subprocess (the ``bench_fleet_scale.py`` pattern: a fresh
interpreter per measurement, so no allocator/GC state or import-order
residue bleeds between cells) and fanning out up to ``--jobs`` cells at
a time.  Isolation and parallelism are pure orchestration choices: the
seeds come from :func:`~repro.experiments.spec.cell_seed`, so serial,
``--jobs N``, and one-``--cell``-at-a-time runs produce byte-identical
results.

Three cell kinds map onto the reproduction's existing worlds:

``chaos``  → :class:`~repro.testbed.chaos.ChaosWorld` /
             :class:`~repro.testbed.chaos.ShardedChaosWorld`
``t2a``    → :class:`~repro.testbed.testbed.Testbed` +
             :meth:`~repro.testbed.controller.TestController.measure_t2a`
``fleet``  → :func:`~repro.testbed.workload.run_fleet_experiment`
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

from repro.experiments.results import CellResult, MatrixResults, RepeatOutcome
from repro.experiments.spec import (
    Cell,
    ExperimentSpec,
    KIND_CHAOS,
    KIND_FLEET,
    KIND_T2A,
    cell_seed,
    expand_cells,
    resolve_fault_plan,
)
from repro.obs.metrics import deterministic_snapshot
from repro.testbed.chaos import (
    ChaosScenario,
    ChaosWorld,
    ShardedChaosWorld,
    chaos_scenario,
)
from repro.testbed.controller import TestController
from repro.testbed.testbed import Testbed, TestbedConfig
from repro.testbed.workload import run_fleet_experiment

#: Phase order used to flatten chaos T2A samples deterministically.
PHASE_ORDER = ("before", "during", "after")


# -- kind runners ------------------------------------------------------------------


def _chaos_scenario_for(spec: ExperimentSpec, cell: Cell) -> ChaosScenario:
    """The cell's scenario, with a spec-defined plan swapped in if named."""
    scenario = chaos_scenario(cell.params["scenario"])
    plan = resolve_fault_plan(spec, cell)
    if plan is None:
        return scenario
    return ChaosScenario(
        name=scenario.name,
        description=f"{scenario.description} (plan {cell.params['fault_plan']!r})",
        event_times=scenario.event_times,
        plan=plan,
    )


def _run_chaos(spec: ExperimentSpec, cell: Cell, seed: int) -> Tuple[List[float], Dict[str, Any], Dict[str, Any]]:
    params = cell.params
    knobs = cell.sweep.knobs
    scenario = _chaos_scenario_for(spec, cell)
    sharded = params["shards"] > 1 or params["corpus_size"] > 1
    if sharded:
        world = ShardedChaosWorld(
            seed=seed,
            poll_interval=knobs["poll_interval"],
            num_shards=params["shards"],
            shard_strategy=params["shard_strategy"],
            pairs=params["corpus_size"],
            delivery_mode=params["delivery_mode"],
        )
    else:
        world = ChaosWorld(
            seed=seed,
            poll_interval=knobs["poll_interval"],
            delivery_mode=params["delivery_mode"],
        )
    result = world.run(scenario, drain=knobs["drain"])

    samples: List[float] = []
    if sharded:
        for shard in range(result.num_shards):
            by_phase = result.t2a_by_shard.get(shard, {})
            for phase in PHASE_ORDER:
                samples.extend(by_phase.get(phase, []))
        stats = result.fleet_stats
        counters = {
            "actions_dead_lettered": stats["dead_letters"],
            "actions_delivered": stats["actions_delivered"],
            "actions_dispatched": stats["actions_dispatched"],
            "actions_in_replay": stats["actions_in_replay"],
            "actions_in_retry": stats["actions_in_retry"],
        }
    else:
        for phase in PHASE_ORDER:
            samples.extend(result.t2a_by_phase.get(phase, []))
        counters = {
            "actions_dead_lettered": result.actions_dead_lettered,
            "actions_delivered": result.actions_delivered,
            "actions_dispatched": result.actions_dispatched,
            "actions_in_replay": result.actions_in_replay,
            "actions_in_retry": result.actions_in_retry,
        }
    counters.update(
        actions_silently_lost=result.actions_silently_lost,
        events_injected=result.events_injected,
        events_observed=result.events_observed,
        faults_activated=result.faults_activated,
        faults_deactivated=result.faults_deactivated,
    )
    return samples, counters, result.snapshot


def _run_t2a(spec: ExperimentSpec, cell: Cell, seed: int) -> Tuple[List[float], Dict[str, Any], Dict[str, Any]]:
    params = cell.params
    knobs = cell.sweep.knobs
    testbed = Testbed(
        TestbedConfig(
            seed=seed,
            fault_plan=resolve_fault_plan(spec, cell),
        )
    )
    testbed.build()
    controller = TestController(testbed, timeout=knobs["timeout"])
    samples = controller.measure_t2a(
        params["applet"],
        runs=knobs["runs"],
        variant=knobs["variant"],
        spacing=knobs["spacing"],
    )
    counters = {
        "runs_completed": len(samples),
        "runs_requested": knobs["runs"],
    }
    return samples, counters, deterministic_snapshot(testbed.metrics)


def _run_fleet(spec: ExperimentSpec, cell: Cell, seed: int) -> Tuple[List[float], Dict[str, Any], Dict[str, Any]]:
    params = cell.params
    knobs = cell.sweep.knobs
    result = run_fleet_experiment(
        n_applets=params["corpus_size"],
        publications=knobs["publications"],
        seed=seed,
        delivery_mode=params["delivery_mode"],
    )
    counters = {
        "actions_executed": result.actions_executed,
        "peak_polls_per_second": result.peak_polls_per_second(),
        "polls_sent": result.polls_sent,
    }
    snapshot = deterministic_snapshot(result.metrics_snapshot or {})
    return list(result.latencies), counters, snapshot


_KIND_RUNNERS = {
    KIND_CHAOS: _run_chaos,
    KIND_T2A: _run_t2a,
    KIND_FLEET: _run_fleet,
}


def run_cell(spec: ExperimentSpec, index: int) -> CellResult:
    """Run one cell (all repeats) in-process, deterministically."""
    cells = expand_cells(spec)
    if not 0 <= index < len(cells):
        raise IndexError(
            f"cell index {index} out of range (spec has {len(cells)} cells)"
        )
    cell = cells[index]
    runner = _KIND_RUNNERS[cell.sweep.kind]
    repeats: List[RepeatOutcome] = []
    for repeat in range(cell.sweep.repeats):
        seed = cell_seed(spec, index, repeat)
        samples, counters, snapshot = runner(spec, cell, seed)
        repeats.append(
            RepeatOutcome(
                repeat=repeat,
                seed=seed,
                samples=samples,
                counters=counters,
                snapshot=snapshot,
            )
        )
    return CellResult(
        index=index,
        sweep=cell.sweep.name,
        kind=cell.sweep.kind,
        params=dict(cell.params),
        repeats=repeats,
    )


# -- matrix orchestration ----------------------------------------------------------


class MatrixRunError(RuntimeError):
    """A cell subprocess failed (non-zero exit or missing artifact)."""


def _cells_dir(output_dir: str) -> str:
    path = os.path.join(output_dir, "cells")
    os.makedirs(path, exist_ok=True)
    return path


def run_cell_to_file(spec: ExperimentSpec, index: int, output_dir: str) -> str:
    """Run one cell and write its artifact under ``output_dir/cells/``.

    This is what ``repro experiments SPEC --cell i`` calls — both for
    users slicing a matrix by hand and for the parent orchestrator's
    subprocesses.
    """
    result = run_cell(spec, index)
    return result.write(_cells_dir(output_dir))


def _child_command(spec_path: str, index: int, output_dir: str) -> List[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "experiments",
        spec_path,
        "--cell",
        str(index),
        "--output",
        output_dir,
    ]


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
    return env


def run_matrix(
    spec: ExperimentSpec,
    spec_path: str,
    output_dir: str,
    jobs: int = 1,
    isolate: bool = True,
    progress=None,
) -> MatrixResults:
    """Run every cell of ``spec`` and assemble the aggregated results.

    ``isolate=True`` (the default) runs each cell in its own
    interpreter via ``python -m repro experiments SPEC --cell i``; up to
    ``jobs`` subprocesses run concurrently.  ``isolate=False`` runs the
    cells serially in-process (useful under test).  Either way the
    output layout is::

        output_dir/
          cells/cell_0000.json ...   per-cell artifacts (full snapshots)
          results.json               aggregated matrix (byte-stable)
          results.txt                rendered table
          run_meta.json              wall-clock timings (NOT gated)

    Raises :class:`MatrixRunError` when any cell subprocess fails.
    """
    from repro.reporting import render_experiment_table

    cells = expand_cells(spec)
    os.makedirs(output_dir, exist_ok=True)
    cells_dir = _cells_dir(output_dir)
    started = time.time()
    timings: Dict[str, float] = {}

    if isolate:
        pending = list(range(len(cells)))
        running: List[Tuple[int, subprocess.Popen, float]] = []
        env = _child_env()
        jobs = max(1, jobs)

        def _reap() -> None:
            """Block until at least one running cell finishes, then fold it in."""
            while True:
                done = [entry for entry in running if entry[1].poll() is not None]
                if done:
                    break
                time.sleep(0.05)
            for entry in done:
                index, proc, t0 = entry
                running.remove(entry)
                timings[str(index)] = round(time.time() - t0, 3)
                if proc.returncode != 0:
                    stderr = proc.stderr.read() if proc.stderr else ""
                    for other in running:
                        other[1].kill()
                    raise MatrixRunError(
                        f"cell {index} failed (exit {proc.returncode}):\n{stderr}"
                    )
                if progress is not None:
                    progress(index, cells[index])

        while pending or running:
            while pending and len(running) < jobs:
                index = pending.pop(0)
                proc = subprocess.Popen(
                    _child_command(spec_path, index, output_dir),
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                    text=True,
                )
                running.append((index, proc, time.time()))
            if running:
                _reap()
    else:
        for index in range(len(cells)):
            t0 = time.time()
            run_cell_to_file(spec, index, output_dir)
            timings[str(index)] = round(time.time() - t0, 3)
            if progress is not None:
                progress(index, cells[index])

    cell_dicts = []
    for index in range(len(cells)):
        path = os.path.join(cells_dir, CellResult.cell_filename(index))
        if not os.path.exists(path):
            raise MatrixRunError(f"cell {index} produced no artifact at {path}")
        cell_dicts.append(CellResult.read(path))

    results = MatrixResults.from_cell_dicts(
        spec.name, spec.sha256, spec.description, cell_dicts
    )
    with open(os.path.join(output_dir, "results.json"), "w", encoding="utf-8") as handle:
        handle.write(results.to_json())
    with open(os.path.join(output_dir, "results.txt"), "w", encoding="utf-8") as handle:
        handle.write(render_experiment_table(results.to_dict()) + "\n")
    meta = {
        "wall_seconds": round(time.time() - started, 3),
        "jobs": jobs if isolate else 0,
        "isolated": isolate,
        "cell_wall_seconds": timings,
    }
    with open(os.path.join(output_dir, "run_meta.json"), "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return results
