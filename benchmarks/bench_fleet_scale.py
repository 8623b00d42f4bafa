#!/usr/bin/env python
"""Fleet-scale benchmark: the perf trajectory of poll dispatch at fleet scale.

Produces ``BENCH_fleet_scale.json`` with these sections:

``fleet``
    The end-to-end fleet workload (:class:`~repro.testbed.workload.FleetWorld`,
    lean configuration) at 10K / 100K / 1M applets: simulator
    events/sec, polls/sec, and peak RSS.  Each size runs in its own
    subprocess so ``ru_maxrss`` (which is monotone over a process
    lifetime) and GC state cannot bleed between measurements.

``snapshot_gate``
    Determinism guard at 10K applets: the fully instrumented fleet
    workload must reproduce a committed golden — the sha256 of its
    :func:`~repro.obs.metrics.deterministic_snapshot`, its action count
    and its poll count (:data:`GATE_GOLDENS`).  The goldens were
    captured while the retired per-applet-timer dispatch still existed,
    with heap == timers asserted for the same run.  ``make bench-scale``
    re-runs this gate (and validates the committed JSON's fields).

``parallel``
    Epoch-barriered sharded stepping
    (:class:`~repro.testbed.workload.ShardedFleetWorld` on a
    :class:`~repro.simcore.parallel.ShardedSimulator`, 4 shards) at the
    same 10K / 100K / 1M sizes: serial stepping (``jobs=1``) vs threaded
    stepping (``--jobs N``, default 4), with identical poll/event counts
    asserted between the two.  ``cpu_cores`` is recorded alongside the
    measured speedup because the stepping workers are *threads*: under
    the CPython GIL on few cores the measured ratio is ≈1x and the column
    documents exactly that — the determinism contract, not the wall
    clock, is what the architecture guarantees on this hardware (see
    docs/PERFORMANCE.md).

``history``
    Frozen numbers that are no longer regenerated, carried over verbatim
    from the existing output file on every run: the heap-vs-timers
    dispatch comparison and snapshot gate from when the per-applet-timer
    baseline still existed (``timers_dispatch``), and the ``fleet`` and
    ``parallel`` sections from before idle applets stopped allocating
    their dedupe and trigger-ring state (``eager_applet_state``) and
    from before per-applet runtime objects became columns indexed by
    applet slot (``applet_runtime_objects``).

Usage::

    python benchmarks/bench_fleet_scale.py                  # full run, writes JSON
    python benchmarks/bench_fleet_scale.py --quick          # small sizes, smoke test
    python benchmarks/bench_fleet_scale.py --jobs 8         # threads for `parallel`
    python benchmarks/bench_fleet_scale.py --gate-only      # CI: snapshot gate only
    python benchmarks/bench_fleet_scale.py --check FILE     # CI: validate JSON fields
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_fleet_scale.json")
FLEET_SIZES = (10_000, 100_000, 1_000_000)
QUICK_SIZES = (1_000, 2_000)
SEED = 7
PARALLEL_SHARDS = 4
DEFAULT_JOBS = 4

#: Fields the CI gate requires of every committed ``fleet`` entry.
FLEET_FIELDS = ("n_applets", "events_per_sec", "polls_per_sec", "peak_rss_mb")

#: Snapshot-gate goldens by fleet size (seed 11, two publications):
#: deterministic-snapshot sha256, actions executed, polls sent.  Each
#: was captured with heap and timers dispatch both in the tree and
#: their runs asserted identical.
GATE_GOLDENS = {
    1_000: (
        "5f9e4125bce0d2e67fc3ee77ead2c8d06f5c397743b4c844baa1699f9b373f2d",
        1965,
        4837,
    ),
    10_000: (
        "6f2e38ed514c2f9f7a5dbc0eefd60857112622f6fd1ccd2413e258062052604a",
        19610,
        47983,
    ),
}


def _peak_rss_mb() -> float:
    """Process-lifetime peak resident set size in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- child measurements (each runs in its own subprocess) -----------------------


def measure_fleet(n_applets: int, horizon: float) -> dict:
    """End-to-end fleet workload, lean config."""
    from repro.engine.config import EngineConfig
    from repro.testbed.workload import FleetWorld

    config = EngineConfig(initial_poll_jitter=120.0)
    t0 = time.perf_counter()
    world = FleetWorld(
        n_applets,
        engine_config=config,
        seed=SEED,
        with_trace=False,
        with_metrics=False,
        shared_user=True,
        warmup=False,
    )
    t1 = time.perf_counter()
    world.sim.run_until(horizon)
    t2 = time.perf_counter()
    events = world.sim.fired_count
    polls = world.engine.polls_sent
    return {
        "n_applets": n_applets,
        "horizon_sim_seconds": horizon,
        "setup_seconds": round(t1 - t0, 3),
        "run_seconds": round(t2 - t1, 3),
        "sim_events_fired": events,
        "polls_sent": polls,
        "events_per_sec": round(events / (t2 - t1), 1),
        "polls_per_sec": round(polls / (t2 - t1), 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "scheduler": world.engine.poll_dispatch_stats(),
    }


def measure_parallel(n_applets: int, horizon: float, num_shards: int, jobs: int) -> dict:
    """The sharded fleet workload stepped with ``jobs`` worker threads."""
    from repro.engine.config import EngineConfig
    from repro.testbed.workload import ShardedFleetWorld

    config = EngineConfig(initial_poll_jitter=120.0)
    t0 = time.perf_counter()
    world = ShardedFleetWorld(
        n_applets,
        num_shards=num_shards,
        jobs=jobs,
        engine_config=config,
        seed=SEED,
        with_metrics=False,
        warmup=False,
    )
    t1 = time.perf_counter()
    world.run_until(horizon)
    t2 = time.perf_counter()
    world.shutdown()
    events = world.stepper.fired_count
    polls = world.fleet.stats()["polls_sent"]
    return {
        "n_applets": n_applets,
        "num_shards": num_shards,
        "jobs": jobs,
        "horizon_sim_seconds": horizon,
        "setup_seconds": round(t1 - t0, 3),
        "run_seconds": round(t2 - t1, 3),
        "sim_events_fired": events,
        "polls_sent": polls,
        "epochs": world.stepper.epochs,
        "events_per_sec": round(events / (t2 - t1), 1),
        "polls_per_sec": round(polls / (t2 - t1), 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def measure_snapshot_gate(n_applets: int) -> dict:
    """The instrumented fleet run, checked against its committed golden."""
    import hashlib

    from repro.engine.config import EngineConfig
    from repro.obs.metrics import deterministic_snapshot
    from repro.testbed.workload import FleetWorld

    golden_sha, golden_actions, golden_polls = GATE_GOLDENS[n_applets]
    config = EngineConfig(initial_poll_jitter=120.0)
    world = FleetWorld(n_applets, engine_config=config, seed=11)
    result = world.run_publications(publications=2, spacing=300.0)
    blob = json.dumps(deterministic_snapshot(world.metrics), sort_keys=True).encode()
    outcome = {
        "n_applets": n_applets,
        "snapshot_sha256": hashlib.sha256(blob).hexdigest(),
        "actions_executed": result.actions_executed,
        "polls_sent": world.engine.polls_sent,
        "golden_sha256": golden_sha,
    }
    outcome["matches_golden"] = (
        outcome["snapshot_sha256"] == golden_sha
        and outcome["actions_executed"] == golden_actions
        and outcome["polls_sent"] == golden_polls
    )
    return outcome


# -- orchestration --------------------------------------------------------------

CHILD_MEASURES = {
    "fleet": measure_fleet,
    "parallel": measure_parallel,
    "snapshot_gate": measure_snapshot_gate,
}


def run_child(measure: str, *args) -> dict:
    """Re-exec this script to run one measurement in a fresh process."""
    payload = json.dumps({"measure": measure, "args": list(args)})
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", payload],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {measure}{args} failed:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_full(sizes, output: str, isolate: bool = True, jobs: int = DEFAULT_JOBS) -> dict:
    def run(measure, *args):
        if isolate:
            return run_child(measure, *args)
        return CHILD_MEASURES[measure](*args)

    report = {
        "benchmark": "fleet_scale",
        "description": "poll-dispatch hot path at fleet scale",
        "python": sys.version.split()[0],
        "seed": SEED,
        "fleet": [],
        "parallel": {
            "num_shards": PARALLEL_SHARDS,
            "jobs": jobs,
            "cpu_cores": os.cpu_count(),
            "worker_model": "threads (CPython GIL applies)",
            "sizes": [],
        },
    }

    for size in sizes:
        print(f"[fleet] {size} applets ...", flush=True)
        entry = run("fleet", size, 250.0)
        report["fleet"].append(entry)
        print(
            f"  events/sec={entry['events_per_sec']} "
            f"polls/sec={entry['polls_per_sec']} "
            f"peak_rss_mb={entry['peak_rss_mb']}",
            flush=True,
        )

    for size in sizes:
        print(f"[parallel] {size} applets, serial vs jobs={jobs} ...", flush=True)
        serial = run("parallel", size, 250.0, PARALLEL_SHARDS, 1)
        threaded = run("parallel", size, 250.0, PARALLEL_SHARDS, jobs)
        speedup = round(
            threaded["events_per_sec"] / serial["events_per_sec"], 2
        )
        report["parallel"]["sizes"].append({
            "n_applets": size,
            "serial": serial,
            "parallel": threaded,
            "speedup": speedup,
            # the serial/parallel determinism contract, asserted on the
            # observable workload counts (the full byte-level snapshot
            # gate runs in `make parallel-check`)
            "identical_counts": (
                serial["sim_events_fired"] == threaded["sim_events_fired"]
                and serial["polls_sent"] == threaded["polls_sent"]
            ),
        })
        print(
            f"  serial={serial['events_per_sec']} ev/s "
            f"jobs={jobs}: {threaded['events_per_sec']} ev/s "
            f"speedup={speedup}x identical_counts="
            f"{report['parallel']['sizes'][-1]['identical_counts']}",
            flush=True,
        )

    gate_n = 10_000 if not (set(sizes) == set(QUICK_SIZES)) else min(sizes)
    print(f"[snapshot_gate] {gate_n} applets vs golden ...", flush=True)
    report["snapshot_gate"] = run("snapshot_gate", gate_n)
    print(f"  matches_golden: {report['snapshot_gate']['matches_golden']}", flush=True)

    if os.path.exists(output):
        with open(output) as fh:
            history = json.load(fh).get("history")
        if history is not None:
            report["history"] = history

    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {output}")
    return report


# -- CI gate --------------------------------------------------------------------


def check_report(path: str) -> int:
    """Validate the committed JSON: required fields at required sizes."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"bench-scale: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    errors = []
    sizes = {entry.get("n_applets") for entry in report.get("fleet", [])}
    for required in FLEET_SIZES:
        if required not in sizes:
            errors.append(f"fleet section missing size {required}")
    for entry in report.get("fleet", []):
        for field in FLEET_FIELDS:
            if field not in entry:
                errors.append(f"fleet[{entry.get('n_applets')}] missing {field!r}")
    gate = report.get("snapshot_gate", {})
    if gate.get("matches_golden") is not True:
        errors.append("snapshot_gate.matches_golden is not true")
    parallel = report.get("parallel", {})
    if "cpu_cores" not in parallel:
        errors.append("parallel section missing 'cpu_cores'")
    parallel_sizes = {
        entry.get("n_applets") for entry in parallel.get("sizes", [])
    }
    for required in FLEET_SIZES:
        if required not in parallel_sizes:
            errors.append(f"parallel section missing size {required}")
    for entry in parallel.get("sizes", []):
        size = entry.get("n_applets")
        for field in ("serial", "parallel", "speedup"):
            if field not in entry:
                errors.append(f"parallel[{size}] missing {field!r}")
        if entry.get("identical_counts") is not True:
            errors.append(
                f"parallel[{size}] serial/parallel counts diverged "
                "(identical_counts is not true)"
            )
    for err in errors:
        print(f"bench-scale: {err}", file=sys.stderr)
    if not errors:
        print(
            f"bench-scale: {path} ok "
            f"(sizes={sorted(sizes)}, "
            f"parallel sizes={sorted(parallel_sizes)} on "
            f"{parallel['cpu_cores']} core(s))"
        )
    return 1 if errors else 0


def run_gate(n_applets: int = 10_000) -> int:
    """Re-run the determinism gate live (CI) against its golden."""
    outcome = measure_snapshot_gate(n_applets)
    print(json.dumps(outcome, indent=2, sort_keys=True))
    if not outcome["matches_golden"]:
        print(
            "bench-scale: deterministic-snapshot gate DIVERGED from the "
            f"committed golden at {n_applets} applets",
            file=sys.stderr,
        )
        return 1
    print(f"bench-scale: snapshot gate ok at {n_applets} applets")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--quick", action="store_true", help="small sizes, in-process (smoke test)"
    )
    parser.add_argument(
        "--gate-only",
        action="store_true",
        help="run only the 10K deterministic-snapshot gate (CI)",
    )
    parser.add_argument(
        "--gate-size", type=int, default=10_000, choices=sorted(GATE_GOLDENS),
        help="applets for --gate-only (a size with a committed golden)",
    )
    parser.add_argument(
        "--check", metavar="FILE", help="validate a committed report's fields"
    )
    parser.add_argument(
        "--jobs", type=int, default=DEFAULT_JOBS, metavar="N",
        help="worker threads for the parallel-stepping comparison "
             f"(default {DEFAULT_JOBS})",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        spec = json.loads(args.child)
        result = CHILD_MEASURES[spec["measure"]](*spec["args"])
        print(json.dumps(result))
        return 0
    if args.check:
        return check_report(args.check)
    if args.gate_only:
        return run_gate(args.gate_size)
    sizes = QUICK_SIZES if args.quick else FLEET_SIZES
    report = run_full(sizes, args.output, isolate=not args.quick, jobs=args.jobs)
    ok = report["snapshot_gate"]["matches_golden"] and all(
        entry["identical_counts"] for entry in report["parallel"]["sizes"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
