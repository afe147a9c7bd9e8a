"""Run one workload of the fqcc benchmark and print its metrics.

    python3 fqccbench/run.py --workload compile-water --seed 1 --seconds 20 --trace 0

Each run is one process and one client in a closed loop.  It runs the job's
first operation once, untimed, then repeats the workload's batch job until
the wall time used, plus half a job, reaches ``--seconds`` (at least one
job).  It checks every operation's output outside the timed section, and
prints a report line followed by the result as the last line of standard
output.

``--trace 0`` gives the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one untraced job and one traced job (set-up included) and gives the
per-layer metrics; the spans go to ``.bench_trace/`` in the checkout.
``--workload all`` runs every workload in turn.

Times are paced (see ``pace.py``): the process pins itself to one CPU, and
each job's wall time is scaled by the CPU's mean speed during the job,
relative to a fixed reference speed.  The raw wall times are on the report
line.
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
import traceback
from pathlib import Path
from time import perf_counter

import layers
import pace
import workloads
from spans import Recorder

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
PROBES = 5  # set-ups per run; setup_s is their median
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment():
    """One worker thread in fqcc and one BLAS thread, before numpy loads.

    fqcc's thread pool gains nothing on this GIL-bound work, and single
    threads keep the runs steady on a shared two-core machine.
    """
    os.environ["FQCC_WORKERS"] = "1"
    for var in BLAS_VARS:
        os.environ[var] = "1"


def machine():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "FQCC_WORKERS": os.environ.get("FQCC_WORKERS"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup_seconds(workload, seed, probes):
    """(wall, paced) times from starting a fresh interpreter until the inputs are ready.

    The probe inherits this process's CPU, samples its speed while it sets
    up, and prints the mean speed on its "ready" line.
    """
    walls, times = [], []
    for _ in range(probes):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workloads.to_spec(workload), str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
        word, _, speed = line.partition(" ")
        if word != "ready" or proc.returncode:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        walls.append(ready - start)
        times.append((ready - start) * float(speed))
    return walls, times


def warm_up(workload, inputs):
    """Run the job's first operation once, untimed, so caches and the heap fill."""
    _, operation = workload.operations(inputs)[0]
    try:
        operation()
    except Exception:  # the timed job meets the same failure and counts it
        pass


def run_job(workload, inputs):
    """One batch job: (wall s, paced s, results by operation, errors by operation)."""
    results, errors = {}, {}
    operations = workload.operations(inputs)
    with pace.Pacer() as pacer:
        start = perf_counter()
        for label, operation in operations:
            try:
                results[label] = operation()
            except Exception:  # a failed operation is counted, not fatal
                errors[label] = traceback.format_exc(limit=3)
        wall = perf_counter() - start
    return wall, wall * pacer.speed(), results, errors


def check_job(workload, inputs, reference, results, errors):
    """Problems found in one job's operations, by operation label."""
    problems = {label: [f"raised: {text}"] for label, text in errors.items()}
    for label, out in results.items():
        try:
            found = workload.check(inputs, reference, label, out)
        except Exception:  # a check that crashes fails its operation
            found = [f"check raised: {traceback.format_exc(limit=3)}"]
        if found:
            problems[label] = found
    return problems


def traced_job(workload, seed):
    """Set up and run one job with every layer wrapped: (recorder, inputs, job)."""
    rec = Recorder()
    try:
        layers.install(rec)
        inputs = workload.setup(seed)
        layers.install_inputs(rec, inputs)
        return rec, inputs, run_job(workload, inputs)
    finally:
        rec.restore()


def measure(workload, seed, seconds, trace, probes=PROBES, trace_dir=None):
    """(result, report) of one run; result is the object the last line prints."""
    setup_walls, setups = setup_seconds(workload, seed, probes)
    inputs = workload.setup(seed)
    reference = workload.reference(inputs)
    warm_up(workload, inputs)
    walls, paced, problems, counts = [], [], {}, {"jobs": 0, "attempted": 0}

    def checked(job_inputs, job):
        wall, job_paced, results, errors = job
        counts["jobs"] += 1
        counts["attempted"] += len(results) + len(errors)
        for label, found in check_job(workload, job_inputs, reference, results, errors).items():
            problems[f"job{counts['jobs']}.{label}"] = found
        return wall, job_paced, results

    while True:  # untraced jobs give the end-to-end numbers
        last = None  # free the last job's outputs before peak memory counts the next
        wall, job_paced, last = checked(inputs, run_job(workload, inputs))
        walls.append(wall)
        paced.append(job_paced)
        if trace or problems or sum(walls) + wall / 2 >= seconds:
            break
    if trace:
        rec, traced_inputs, job = traced_job(workload, seed)
        _, traced_paced, results = checked(traced_inputs, job)
        if trace_dir is not None:
            rec.dump(trace_dir / f"{workload.kind}-seed{seed}.jsonl")
        values = workload.layer_values(traced_inputs, results) if not problems else {}
        metrics = layers.per_layer(rec.spans, rec.counters, values, traced_paced / paced[0] - 1)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "job_s": statistics.median(paced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "two_qubit": workload.two_qubit(inputs, last) if not problems else 0,
        }
    failed = len(problems)
    report = {
        "seed": seed,
        "job_s": paced,
        "job_wall_s": walls,
        "setup_s": setups,
        "setup_wall_s": setup_walls,
        "cpu": sorted(os.sched_getaffinity(0)),
        "error_rate": {"value": failed / counts["attempted"], "unit": "ratio"},
        "problems": problems,
        "machine": machine(),
    }
    if not problems:
        named = workload.named_metrics(inputs, reference, last, statistics.median(paced))
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        report["fingerprint"] = workload.fingerprint(last)
    result = {
        "correct": not problems, "attempted": counts["attempted"], "failed": failed,
        "metrics": metrics,
    }
    return result, report


def _units(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def with_units(metrics, trace):
    """Attach BENCHMARK.json's units; the metric names must match it exactly."""
    units = _units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [p for p in ("src/fqcc/__init__.py", workloads.WATER, "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not an fqcc checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        rc = 0
        for name in workloads.WORKLOADS:
            print(f"== {name}", flush=True)
            rc |= subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]).returncode
        return rc

    pin_environment()
    pace.pin()
    workloads.use_checkout()
    result, report = measure(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
        trace_dir=ROOT / ".bench_trace",
    )
    result["metrics"] = with_units(result["metrics"], args.trace)
    print(json.dumps({"workload": args.workload, **report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
