"""Benchmark of the bosonic-bounds library: one command per workload and seed.

Run from the root of a checkout:

    python3 bench/run.py --workload gaussian-audit --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json.  Each
repetition is a fresh interpreter (bench/worker.py) doing the same seeded
work; the run repeats until --seconds have passed.  BLAS runs on one thread.

--trace 0 prints the end-to-end metrics:
  setup_s         median time for a fresh interpreter to import
                  bosonic_bounds.cli, over five probe interpreters and every
                  repetition;
  items_per_s     states audited, sweep rows written or requests answered per
                  second of operation time;
  latency_p50_ms, latency_p90_ms
                  percentiles of the operation latencies of one repetition
                  (an audit call, a sweep, or a request);
  peak_rss_mb     the largest ru_maxrss of any repetition.
items_per_s and the latencies are per-repetition figures, and each is the
median across repetitions.  Every timing is expressed at a reference host
speed (see speed_factor); the report line also gives the raw wall-clock
medians.

--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones: exact counts per repetition and the
median of their times, also at the reference speed.

The second-to-last stdout line is a report with the run environment, sample
counts, failed_frac and any failures; the last line is the result
{"correct", "attempted", "failed", "metrics"}.  The process exits non-zero
without a result if the library source (src/bosonic_bounds) is missing or a
repetition cannot run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = "1"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 60
# Seconds the worker's reference kernel takes on a quiet 2-vCPU host.
REFERENCE_S = 0.06
WORKLOADS = ("gaussian-audit", "bs-sweep", "cli-requests")

# Which end-to-end metric each per-layer metric is expected to move, and on
# which workload.
LAYER_MAP = {
    "symplectic.validate_covariance.calls": "items_per_s on gaussian-audit",
    "symplectic.validate_covariance.self_s": "items_per_s on gaussian-audit",
    "symplectic.symplectic_eigenvalues.calls": "items_per_s on gaussian-audit",
    "symplectic.symplectic_eigenvalues.self_s": "items_per_s on gaussian-audit",
    "symplectic.spectra_per_state": "items_per_s on gaussian-audit",
    "symplectic.validations_per_state": "items_per_s on gaussian-audit",
    "gaussian.random_gaussian_state.self_s": "items_per_s on gaussian-audit",
    "gaussian.gaussian_measures.calls": "items_per_s on gaussian-audit",
    "gaussian.gaussian_measures.self_s": "items_per_s on gaussian-audit",
    "gaussian.gaussian_to_dict.calls": "items_per_s on gaussian-audit",
    "fock.beam_splitter_block.calls": "items_per_s on bs-sweep; latency on cli-requests",
    "fock.beam_splitter_block.self_s": "items_per_s on bs-sweep; latency on cli-requests",
    "fock.beam_splitter_block.distinct_M": "items_per_s on bs-sweep; latency on cli-requests",
    "fock.beam_splitter_block.max_M": "items_per_s on bs-sweep; latency on cli-requests",
    "fock.beam_splitter_block.reuse_ratio": "items_per_s on bs-sweep; latency on cli-requests",
    "fock.beam_splitter_block.retained_bytes_computed": "peak_rss_mb on bs-sweep",
    "fock.apply_beam_splitter_fock.self_s":
        "items_per_s on bs-sweep; latency_p50_ms on cli-requests",
    "fock.schmidt_coefficients.calls":
        "items_per_s on bs-sweep; latency_p50_ms on cli-requests",
    "fock.schmidt_coefficients.self_s":
        "items_per_s on bs-sweep; latency_p50_ms on cli-requests",
    "fock.quadrature_moments.self_s":
        "items_per_s on bs-sweep; latency_p50_ms on cli-requests",
    "fock.qcs2_fock.calls": "latency_p90_ms on cli-requests",
    "fock.qcs2_fock.self_s": "latency_p90_ms on cli-requests",
    "fock.FockDensityOperator.from_pure.self_s": "latency_p90_ms on cli-requests",
    "bounds.solve_na_star.calls": "latency on cli-requests",
    "bounds.solve_na_star.self_s": "latency on cli-requests",
    "bounds.solve_na_star.iterations": "latency on cli-requests",
    "bounds.checks.self_s": "latency on cli-requests",
    "experiments.random_audit.self_s": "items_per_s on gaussian-audit",
    "experiments.write_sweep.self_s": "items_per_s on bs-sweep",
    "experiments.write_sweep.bytes": "items_per_s on bs-sweep",
    "cli.main.self_s": "latency on cli-requests; items_per_s on gaussian-audit",
    "symplectic.self_s": "items_per_s on gaussian-audit",
    "gaussian.self_s": "items_per_s on gaussian-audit",
    "fock.self_s": "items_per_s on bs-sweep; latency on cli-requests",
    "bounds.self_s": "latency on cli-requests",
    "experiments.self_s": "items_per_s on gaussian-audit and bs-sweep",
    "cli.self_s": "latency on cli-requests",
    "tracing_overhead_frac": "none: traced against untraced items_per_s in one run",
}


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(args, env, root):
    """Run one worker in a fresh interpreter and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = os.path.join(root, "src", "bosonic_bounds")
    if os.path.dirname(line["package"]) != expected:
        raise RuntimeError(f"worker imported {line['package']}, not the checkout's library")
    return line


def quantile(values, q):
    """q-th quantile (0 < q < 1) of values, interpolating between order statistics."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def measure(opts, root, env, workdir):
    """Run repetitions for opts.seconds; return (repetitions, every interpreter's line)."""
    probes = [run_child(["--probe"], env, root) for _ in range(opts.probes)]
    reps = []
    start = time.perf_counter()
    # A traced run needs at least one traced and one untraced repetition.
    least = 2 if opts.trace else 1
    while len(reps) < least or time.perf_counter() - start < opts.seconds:
        traced = bool(opts.trace) and len(reps) % 2 == 1
        args = ["--workload", opts.workload, "--seed", str(opts.seed),
                "--workdir", os.path.join(workdir, f"rep{len(reps)}")]
        if traced:
            args.append("--trace")
            if not any(rep["traced"] for rep in reps):
                args += ["--spans", os.path.join(
                    root, ".bench_runs", f"spans-{opts.workload}-seed{opts.seed}.json")]
        if opts.tiny:
            args.append("--tiny")
        line = run_child(args, env, root)
        line["traced"] = traced
        reps.append(line)
    return reps, probes + reps


def speed_factor(line):
    """Factor that turns timings of one interpreter into timings at the reference speed.

    The shared host slows whole interpreters, sometimes by half or more for
    minutes at a time, and process CPU time slows with them.  Each
    interpreter therefore times a fixed kernel that does not use the library
    (worker.reference_s) right after its import and again after its
    operations; scaling by REFERENCE_S over that time removes the host's
    speed of the moment from every figure of the interpreter.
    """
    return REFERENCE_S / statistics.median(line["reference_s"])


def items_per_s(rep, scale=speed_factor):
    seconds = sum(op["seconds"] for op in rep["ops"]) * scale(rep)
    return sum(op["items"] for op in rep["ops"]) / seconds


def latency_ms(rep, q, scale=speed_factor):
    return quantile([op["seconds"] * 1e3 for op in rep["ops"]], q) * scale(rep)


def end_to_end(reps, lines, scale=speed_factor):
    def median(statistic):
        return statistics.median(statistic(rep) for rep in reps)

    return {
        "setup_s": statistics.median(line["import_s"] * scale(line) for line in lines),
        "items_per_s": median(lambda rep: items_per_s(rep, scale)),
        "latency_p50_ms": median(lambda rep: latency_ms(rep, 0.5, scale)),
        "latency_p90_ms": median(lambda rep: latency_ms(rep, 0.9, scale)),
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
    }


def per_layer(reps):
    traced = [rep for rep in reps if rep["traced"]]
    plain = [rep for rep in reps if not rep["traced"]]
    scaled = [{name: value * speed_factor(rep) if name.endswith("self_s") else value
               for name, value in rep["layers"].items()} for rep in traced]
    metrics, mismatched = tracing.merge_repetitions(scaled)
    metrics["tracing_overhead_frac"] = 1.0 - (
        statistics.median(map(items_per_s, traced)) / statistics.median(map(items_per_s, plain)))
    return metrics, mismatched


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes and one setup probe, for the benchmark's tests")
    opts = parser.parse_args(argv)
    opts.probes = 1 if opts.tiny else SETUP_PROBES
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bosonic_bounds", "cli.py")):
        sys.stderr.write("error: run from the root of a bosonic-bounds checkout "
                         "(src/bosonic_bounds not found)\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    env = child_env(root)
    runs_dir = os.path.join(root, ".bench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    workdir = os.path.join(runs_dir, f"work-{os.getpid()}")
    try:
        reps, lines = measure(opts, root, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for rep in reps for op in rep["ops"]]
    failures = [f"{op['label']}: {op['problem']}" for op in ops if op["problem"]]
    report = {
        "workload": opts.workload,
        "seed": opts.seed,
        "trace": opts.trace,
        "env": reps[0]["env"],
        "repetitions": len(reps),
        "operations": len(ops),
        "operations_per_repetition": len(reps[0]["ops"]),
        "setup_samples": len(lines),
        "failed_frac": len(failures) / len(ops),
        "failures": failures[:20],
    }
    if opts.trace:
        values, mismatched = per_layer(reps)
        report["inexact_counts"] = mismatched
        report["layer_map"] = LAYER_MAP
        specs = declared["per_layer"]
    else:
        values = end_to_end(reps, lines)
        report["raw_wall_clock"] = end_to_end(reps, lines, scale=lambda line: 1.0)
        specs = declared["end_to_end"]
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in specs}
    result = {"correct": not failures, "attempted": len(ops), "failed": len(failures),
              "metrics": metrics}
    record = os.path.join(runs_dir, f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json")
    with open(record, "w") as fh:
        json.dump({"report": report, "result": result,
                   "interpreters": [[line["import_s"], line["reference_s"]] for line in lines],
                   "ops": [[i, op["label"], op["seconds"]]
                           for i, rep in enumerate(reps) for op in rep["ops"]]}, fh)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
