#!/usr/bin/env python3
"""The repository benchmark: one workload, measured in isolated repeats.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_poll --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload chaos_outage --seed 1 --seconds 40 --trace 1

Workloads (see ``perfbench/workloads.py``): ``fleet_poll``,
``fleet_push``, ``chaos_outage``.  Each repeat runs in its own
subprocess, so peak RSS and GC state never carry over between repeats.

``--trace 0`` repeats the untraced workload until ``--seconds`` have
passed (at least :data:`MIN_REPEATS` times) and reports the medians of
the end-to-end metrics:

* ``requests_per_s`` (1/s): engine-issued simulated requests (polls +
  actions dispatched + replay requests) per host second of the timed run;
* ``setup_s`` (s): host seconds to build the world;
* ``peak_rss_mb`` (MB): peak RSS of the repeat's process.

Both times are host seconds corrected to a reference host speed by the
probe of ``perfbench/hostspeed.py``; the uncorrected seconds are kept in
the record line as ``host_setup_s``/``host_run_s``.

``--trace 1`` runs one untraced repeat, one traced repeat (layer spans,
see ``perfbench/layers.py``) and one tracemalloc repeat, and reports
every per-layer metric.

The simulated trigger-to-action percentiles (``t2a_p50_s``/``t2a_p99_s``
with their sample count) and ``failed_share`` are printed for every run
too.  T2A is simulated time, so it repeats exactly per seed: it belongs
to the outcome digest, not to the timed metrics.

Outcome check: every timed or traced repeat emits a digest (polls, actions, T2A
quartiles, and the sha256 of the deterministic metrics snapshot where
metrics are on).  A run is incorrect when two repeats of its seed
disagree, when the digest differs from ``perfbench/reference.json`` for a
seed recorded there, or when a workload invariant fails (conservation,
every publication delivered, ...).  ``--record-reference`` stores this
run's digest for its seed after the run passes every other check.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full record (seed, cpu cores, Python version, every repeat).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(REPO_ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
BENCHMARK = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: Untraced repeats per run, at the least, whatever ``--seconds`` says.
MIN_REPEATS = 2
#: Even the minimum repeats stop once another one could end past this.
RUN_DEADLINE_S = 150.0
#: Per-repeat subprocess timeout.
CHILD_TIMEOUT_S = 170.0

# -- child side: one repeat in a fresh process -----------------------------------


def _peak_rss_mb() -> float:
    """Process-lifetime peak resident set size in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _operations(digest: Dict[str, int]) -> Dict[str, int]:
    """Attempted and failed operations of one repeat (see ``failed_share``)."""
    return {
        "attempted": digest["polls"] + digest["actions_dispatched"],
        "failed": digest["poll_failures"]
        + digest["actions_dispatched"] - digest["actions_delivered"],
    }


def measure(
    name: str, seed: int, workers: int, mode: str, scale: float = 1.0
) -> Dict[str, Any]:
    """One repeat: ``plain`` (timed), ``traced`` (layer spans) or ``memory``.

    ``scale`` shrinks the workload's size (tests only; the benchmark always
    runs at 1.0).
    """
    import tracemalloc

    from hostspeed import SpeedProbe
    from layers import SpanTracer, bytes_per_applet, read_counters
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workers, scale)
    record: Dict[str, Any] = {"mode": mode}
    if mode == "memory":
        # Attribution only: the run is cut short, so there is no outcome.
        tracemalloc.start()
        workload.setup()
        if workload.registers_in_run:
            workload.run()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        workload.shutdown()
        record["bytes_per_applet"] = bytes_per_applet(snapshot, workload.n_applets)
        return record
    if mode == "traced":
        with SpanTracer() as tracer:
            workload.setup()
            record["setup_spans"] = tracer.totals()
            tracer.reset()
            record["before"] = read_counters(workload)
            started = time.perf_counter()
            workload.run()
            record["run_s"] = time.perf_counter() - started
            record["after"] = read_counters(workload)
            outcome = workload.outcome()
            record["run_spans"] = tracer.totals()
    else:
        with SpeedProbe() as probe:
            started = time.perf_counter()
            workload.setup()
            built = time.perf_counter()
            requests_before = workload.requests()
            workload.run()
            finished = time.perf_counter()
        record["setup_s"] = probe.seconds(started, built)
        record["run_s"] = probe.seconds(built, finished)
        record["host_setup_s"] = probe.seconds(started, built, corrected=False)
        record["host_run_s"] = probe.seconds(built, finished, corrected=False)
        record["requests"] = workload.requests() - requests_before
        outcome = workload.outcome()
    workload.shutdown()
    record["problems"] = workload.check(outcome)
    record["outcome"] = outcome
    record["peak_rss_mb"] = _peak_rss_mb()
    return record


# -- parent side ----------------------------------------------------------------


def run_child(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Re-exec this script to run one measurement in a fresh process
    (the ``run_child`` pattern of ``benchmarks/bench_fleet_scale.py``)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", json.dumps(payload)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {payload} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def cpu_cores() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def metric_units(section: str) -> Dict[str, str]:
    """Name -> unit of every metric in one section of ``BENCHMARK.json``."""
    with open(BENCHMARK) as fh:
        return {metric["name"]: metric["unit"] for metric in json.load(fh)[section]}


def load_reference() -> Dict[str, Any]:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def check_outcomes(
    workload: str, seed: int, repeats: List[Dict[str, Any]]
) -> List[str]:
    """The simulated-outcome check over every repeat of one run."""
    problems = [p for rep in repeats for p in rep["problems"]]
    digests = [rep["outcome"]["digest"] for rep in repeats]
    if any(digest != digests[0] for digest in digests[1:]):
        problems.append("repeats of the same seed produced different digests")
    expected = load_reference().get(workload, {}).get(str(seed))
    if expected is not None and digests[0] != expected:
        problems.append(f"digest differs from the reference for seed {seed}")
    return problems


def record_reference(workload: str, seed: int, digest: Dict[str, Any]) -> None:
    reference = load_reference()
    reference.setdefault(workload, {})[str(seed)] = digest
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


def collect(args: argparse.Namespace, workers: int) -> List[Dict[str, Any]]:
    """Run the repeats of one benchmark run (each in its own process)."""
    base = {"workload": args.workload, "seed": args.seed, "workers": workers}
    if args.trace:
        return [run_child({**base, "mode": mode}) for mode in ("plain", "traced", "memory")]
    repeats: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while True:
        rep_started = time.perf_counter()
        repeats.append(run_child({**base, "mode": "plain"}))
        now = time.perf_counter()
        # Start another repeat only if it should finish inside the budget.
        budget = args.seconds if len(repeats) >= MIN_REPEATS else RUN_DEADLINE_S
        if now - started + (now - rep_started) > budget:
            break
    return repeats


def summarize(args: argparse.Namespace, repeats: List[Dict[str, Any]]) -> Dict[str, float]:
    """The metrics the result object reports for this run."""
    plain = [rep for rep in repeats if rep["mode"] == "plain"]
    if args.trace:
        from layers import layer_metrics

        traced = next(rep for rep in repeats if rep["mode"] == "traced")
        memory = next(rep for rep in repeats if rep["mode"] == "memory")
        return layer_metrics(
            traced["before"], traced["after"],
            traced["setup_spans"], traced["run_spans"],
            traced["run_s"], plain[0]["host_run_s"],
            memory["bytes_per_applet"],
        )
    return {
        "requests_per_s": statistics.median(
            rep["requests"] / rep["run_s"] for rep in plain
        ),
        "setup_s": statistics.median(rep["setup_s"] for rep in plain),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="store this run's digest as the reference for its seed",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import STEP_WORKERS, WORKLOADS

    if args.child:
        spec = json.loads(args.child)
        print(json.dumps(measure(spec["workload"], spec["seed"], spec["workers"], spec["mode"])))
        return 0
    if args.workload not in WORKLOADS:
        print(f"perfbench: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cores = cpu_cores()
    # Never more stepping workers than cores: extra threads only contend
    # for the interpreter lock and would make the timing meaningless.
    workers = min(STEP_WORKERS, cores)

    try:
        repeats = collect(args, workers)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    checked = [rep for rep in repeats if "outcome" in rep]
    problems = check_outcomes(args.workload, args.seed, checked)
    ops = [_operations(rep["outcome"]["digest"]) for rep in checked]
    attempted = sum(op["attempted"] for op in ops)
    failed = attempted if problems else sum(op["failed"] for op in ops)
    metrics = summarize(args, repeats)
    if args.record_reference and not problems:
        record_reference(args.workload, args.seed, repeats[0]["outcome"]["digest"])

    outcome = checked[0]["outcome"]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    print(f"workload {args.workload}  seed {args.seed}  cpu_cores {cores}  "
          f"workers {workers}  python {platform.python_version()}  "
          f"repeats {len(repeats)}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    for name in ("t2a_p50_s", "t2a_p99_s"):
        value = "n/a" if outcome[name] is None else f"{outcome[name]:.6g}"
        print(f"  {name:32s} {value:>14s} s (simulated, n={outcome['t2a_n']})")
    print(f"  {'failed_share':32s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} operations)")
    for problem in problems:
        print(f"  OUTCOME CHECK FAILED: {problem}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "cpu_cores": cores,
        "workers": workers,
        "python": platform.python_version(),
        "repeats": [
            {key: rep[key] for key in ("mode", "setup_s", "run_s", "host_setup_s",
                                       "host_run_s", "requests", "peak_rss_mb")
             if key in rep}
            for rep in repeats
        ],
        "digest": outcome["digest"],
        "problems": problems,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
